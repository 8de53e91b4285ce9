//===- SynthWorkload.cpp - Offline rule-synthesis workload --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The `synth` workload: CEGIS synthesis of a fixed goal set at 8 bits on
// two ParallelBuilder threads, with the synthesis cache off. The goal
// set mixes register-only goals (the Basic group) with memory goals
// (M-value encoding, memory pre-analysis) and flag goals. The goal set
// and its order are fixed (the scheduler's load balance depends on the
// order); the seed draws the oracle's inputs.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Oracle.h"
#include "Trace.h"

#include "isel/AutomatonSelector.h"
#include "pattern/ParallelBuilder.h"
#include "support/Statistics.h"
#include "testgen/TestCaseGenerator.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <vector>

using namespace perfbench;
using namespace selgen;

namespace {

constexpr unsigned Width = 8;
constexpr unsigned Threads = 2;
constexpr unsigned SetupRepeats = 1001;
constexpr unsigned OracleRuns = 8;

/// Goals beside the Basic group. The test_* goals are left out: they
/// hit the per-goal pattern cap, so their results would depend on the
/// wall clock.
const char *const ExtraGoals[] = {
    "mov_load_b", "mov_store_b", "mov_load_bd", "mov_store_bd",
    "add_rm_b",   "add_mr_b",    "inc_m_b",     "neg_m_b",
    "lea_bd",     "lea_bis2",    "add_ri",      "cmpi_je",
    "cmpi_jl",    "cmove"};

GoalLibrary buildGoals() {
  GoalLibrary All = GoalLibrary::build(Width, GoalLibrary::allGroups());
  std::vector<std::string> Names;
  for (const GoalInstruction *Goal : All.group("Basic"))
    Names.push_back(Goal->Name);
  Names.insert(Names.end(), std::begin(ExtraGoals), std::end(ExtraGoals));
  return GoalLibrary::subset(std::move(All), Names);
}

/// The synthesis configuration of `selgen-synth` (60 s goal budget,
/// 30 s query timeout, retry scale 1,4,16, escalation 4) without its
/// default cache: a warm cache answers ~100x faster and would pose as a
/// synthesis speed-up.
PatternDatabase synthesize(const GoalLibrary &Goals) {
  SynthesisOptions Options;
  Options.Width = Width;
  Options.FindAllMinimal = true;
  Options.TimeBudgetSeconds = 60;
  Options.QueryTimeoutMs = 30000;
  Options.QueryRetryScale = {1, 4, 16};
  ParallelBuildOptions Build;
  Build.NumThreads = Threads;
  Build.EscalationFactor = 4;
  Build.Cache = nullptr;
  return synthesizeRuleLibraryParallel(Goals, Options, Build);
}

std::vector<std::string> ruleKeys(const PatternDatabase &Db) {
  std::vector<std::string> Keys;
  for (const Rule &R : Db.rules())
    Keys.push_back(R.GoalName + "|" + R.Pattern.fingerprint());
  std::sort(Keys.begin(), Keys.end());
  return Keys;
}

std::vector<std::string> readLines(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    fatal("cannot read " + Path);
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(In, Line);)
    if (!Line.empty())
      Lines.push_back(Line);
  return Lines;
}

double counter(const char *Name) {
  return static_cast<double>(Statistics::get().value(Name));
}

} // namespace

RunResult perfbench::runSynthWorkload(const RunConfig &Config,
                                      Tracer &Trace) {
  RunResult Result;
  const std::string Reference = Config.Root + "/perfbench/synth-rules.txt";

  // Set-up: goal and spec construction. It takes well under a
  // millisecond, so it is repeated, before and after every synthesis,
  // and the median over all repetitions is reported.
  std::vector<double> SetupSeconds;
  GoalLibrary Goals;
  auto SetUp = [&] {
    for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
      Clock::time_point Start = Clock::now();
      Goals = Trace.within("semantics.goal_library", 0,
                           [] { return buildGoals(); });
      SetupSeconds.push_back(secondsSince(Start));
    }
  };
  SetUp();

  const std::vector<std::string> Want = readLines(Reference);

  // Whole syntheses while the next one fits the budget (at least one).
  // The host only ever slows a synthesis down, so the fastest one sets
  // ops_per_s. Each goal's latency is its median solving time: how
  // much solving a goal needs also depends on how the two threads
  // interleave its chunks, and from run to run the median of that
  // spreads less than the fastest.
  // Every synthesis must complete every goal and reproduce the
  // committed rule list (oracle 1).
  std::vector<double> WallSeconds;
  std::map<std::string, std::vector<double>> GoalMs;
  double QueueWait = 0, GoalWall = 0;
  unsigned Incomplete = 0;
  PatternDatabase Db;
  Clock::time_point Begin = Clock::now();
  do {
    Statistics::get().clear();
    Clock::time_point Start = Clock::now();
    Db = Trace.within("pattern.build", 0, [&] { return synthesize(Goals); });
    WallSeconds.push_back(secondsSince(Start));

    std::vector<GoalTelemetry> Telemetry = Statistics::get().goals();
    QueueWait = GoalWall = 0;
    for (const GoalTelemetry &G : Telemetry) {
      // A goal's own solving time: its wall time would also count the
      // other goals' chunks the two threads interleave with it.
      double Ms = G.SolverSeconds * 1e3;
      GoalMs[G.Goal].push_back(Ms);
      QueueWait += G.QueueWaitSeconds / Telemetry.size();
      GoalWall += G.WallSeconds;
      ++Result.Attempted;
      if (!G.Complete) {
        ++Incomplete;
        Result.fail("goal " + G.Goal + " incomplete (" + G.IncompleteCause +
                    ")");
      }
    }
    if (Telemetry.size() != Goals.goals().size())
      Result.fail("goal telemetry for " + std::to_string(Telemetry.size()) +
                  " of " + std::to_string(Goals.goals().size()) + " goals");

    Tracer::Span Check(Trace, "pattern.check");
    std::vector<std::string> Keys = ruleKeys(Db);
    if (!Config.SynthRulesOut.empty()) {
      std::ofstream Out(Config.SynthRulesOut);
      for (const std::string &Key : Keys)
        Out << Key << "\n";
      if (!Out)
        fatal("cannot write " + Config.SynthRulesOut);
    }
    std::vector<std::string> Missing, Extra;
    std::set_difference(Want.begin(), Want.end(), Keys.begin(), Keys.end(),
                        std::back_inserter(Missing));
    std::set_difference(Keys.begin(), Keys.end(), Want.begin(), Want.end(),
                        std::back_inserter(Extra));
    ++Result.Attempted;
    if (!Missing.empty() || !Extra.empty())
      Result.fail(std::to_string(Missing.size()) +
                  " reference rules missing, " + std::to_string(Extra.size()) +
                  " unexpected rules (first: " +
                  (Missing.empty() ? Extra : Missing).front() + ")");
    SetUp();
  } while (secondsSince(Begin) + WallSeconds.back() <= Config.Seconds);

  // Oracle 2: every rule, as its own test function, selected with the
  // fresh library and run on the emulator against the interpreter.
  uint64_t Cycles = 0, Instrs = 0;
  {
    PatternDatabase Sorted;
    for (const Rule &R : Db.rules())
      Sorted.add(R.GoalName, R.Pattern.clone());
    Sorted.filterNonNormalized();
    Sorted.sortSpecificFirst();
    AutomatonSelector Selector(Sorted, Goals);
    unsigned Index = 0;
    for (const Rule &R : Db.rules()) {
      Function F = Trace.within("testgen", Index, [&] {
        return buildPatternTestFunction(R, Width,
                                        "ruletest" + std::to_string(Index));
      });
      SelectionResult Selected =
          Trace.within("isel", Index, [&] { return Selector.select(F); });
      OracleOutcome Outcome = Trace.within("x86.emulate", Index, [&] {
        return checkAgainstInterpreter(F, *Selected.MF, OracleRuns,
                                       mixSeed(Config.Seed, 200 + Index),
                                       true);
      });
      ++Result.Attempted;
      if (!Outcome.Ok)
        Result.fail("rule " + std::to_string(Index) + " (" + R.GoalName +
                    "): " + Outcome.Why);
      Cycles += Outcome.Cycles;
      Instrs += Selected.MF->numInstructions();
      ++Index;
    }
  }

  const double Wall = *std::min_element(WallSeconds.begin(), WallSeconds.end());
  std::vector<double> Latency;
  for (const auto &[Goal, Ms] : GoalMs)
    Latency.push_back(median(Ms));
  Result.EndToEnd["setup_s"] = {median(SetupSeconds), "s"};
  Result.EndToEnd["ops_per_s"] = {Goals.goals().size() / Wall, "1/s"};
  Result.EndToEnd["latency_p50_ms"] = {percentile(Latency, 0.50), "ms"};
  Result.EndToEnd["latency_p99_ms"] = {percentile(Latency, 0.99), "ms"};
  Result.EndToEnd["peak_rss_mb"] = {selfPeakRssMb(), "MiB"};
  Result.EndToEnd["code_cycles"] = {static_cast<double>(Cycles), "cycles"};
  Result.EndToEnd["code_instrs"] = {static_cast<double>(Instrs), "count"};
  const size_t Samples = WallSeconds.size() * Goals.goals().size();
  std::printf("synth: %zu goals, %zu rules, %zu synthesis run(s), "
              "%zu latency samples (per goal)\n",
              Goals.goals().size(), Db.size(), WallSeconds.size(), Samples);

  const double Checks = counter("smt.checks");
  const double Candidates = counter("prescreen.candidates");
  const double Run = counter("synth.multisets_run");
  const double Skipped = counter("synth.multisets_skipped");
  Result.layer("latency.samples", static_cast<double>(Samples), "count");
  Result.layer("synth.wall_s", Wall, "s");
  Result.layer("semantics.goal_library_s", median(SetupSeconds), "s");
  Result.layer("pattern.build_s", Wall, "s");
  Result.layer("pattern.queue_wait_s", QueueWait, "s");
  Result.layer("pattern.rules", static_cast<double>(Db.size()), "count");
  Result.layer("synth.goal_wall_s", GoalWall, "s");
  Result.layer("smt.checks", Checks, "count");
  Result.layer("smt.check_s", counter("smt.check_us") * 1e-6, "s");
  Result.layer("smt.retries", counter("smt.retries"), "count");
  Result.layer("cegis.synthesis_queries", counter("cegis.synthesis_queries"),
               "count");
  Result.layer("cegis.verification_queries",
               counter("cegis.verification_queries"), "count");
  Result.layer("cegis.counterexamples", counter("cegis.counterexamples"),
               "count");
  Result.layer("prescreen.candidates", Candidates, "count");
  Result.layer("prescreen.eval_s", counter("prescreen.eval_us") * 1e-6, "s");
  Result.layer("prescreen.kill_ratio",
               Candidates ? counter("prescreen.kills") / Candidates : 0,
               "ratio");
  Result.layer("synth.multisets_run", Run, "count");
  Result.layer("synth.skip_ratio",
               Run + Skipped ? Skipped / (Run + Skipped) : 0, "ratio");
  Result.layer("synth.incomplete_goals", Incomplete, "count");
  return Result;
}
