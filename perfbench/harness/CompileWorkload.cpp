//===- CompileWorkload.cpp - In-process selection workload --------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
// The `compile` workload: one caller thread, closed loop, first-match
// (`auto`) selection off a mapped binary image of the full library,
// inflated to paper scale with dead rules (see inflate()). Every timed
// function is materialized (buildWorkload), selected (runRuleSelection)
// and printed (printMachineFunction). The functions are the eleven
// CINT2000 mixes at each rung of a fixed 16..64-op body-size ladder.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Oracle.h"
#include "Trace.h"

#include "eval/Workloads.h"
#include "isel/AutomatonSelector.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace perfbench;
using namespace selgen;

namespace {

constexpr unsigned Width = 8;
/// Body sizes of the ladder. 64 is the top on purpose: materialization
/// cost grows steeply with body size (README.md, "Findings"), and the
/// benchmark shows it.
constexpr unsigned SizeLadder[] = {16, 24, 32, 40, 48, 56, 64};
/// Paper-scale library size (the paper's full library has ~60k rules;
/// ~10k keeps the image well above L2 while set-up stays ~1 s).
constexpr size_t InflatedRules = 10000;
constexpr unsigned SetupRepeats = 5;
constexpr unsigned OracleRuns = 3;
constexpr double WindowSeconds = 1;

/// Wraps value edge \p X in an identity the normalizer would fold away
/// (~~x, -(-x), x+0, x-0, x|0, x^0, x&~0), so the rewritten pattern has
/// exactly the semantics of the original.
NodeRef wrapIdentity(Graph &G, NodeRef X, unsigned Kind) {
  const unsigned W = G.width();
  switch (Kind % 7) {
  case 0:
    return G.createUnary(Opcode::Not, G.createUnary(Opcode::Not, X));
  case 1:
    return G.createUnary(Opcode::Minus, G.createUnary(Opcode::Minus, X));
  case 2:
    return G.createBinary(Opcode::Add, X, G.createConst(BitValue::zero(W)));
  case 3:
    return G.createBinary(Opcode::Sub, X, G.createConst(BitValue::zero(W)));
  case 4:
    return G.createBinary(Opcode::Or, X, G.createConst(BitValue::zero(W)));
  case 5:
    return G.createBinary(Opcode::Xor, X, G.createConst(BitValue::zero(W)));
  default:
    return G.createBinary(Opcode::And, X, G.createConst(BitValue::allOnes(W)));
  }
}

/// Inflates \p Base to \p TargetSize rules with variants of its rules:
/// one or two value edges of a pattern wrapped in identities. The
/// variants are sound (bench_80/bench_85 mutate constants instead,
/// which turns `x+1 -> inc` into a wrong `x+5 -> inc`), but they are
/// not normalized, so no normalized subject ever matches them: they
/// are dead rules. They grow the image to paper scale, not the set of
/// rules that fire (selgen-matchergen would drop them). Sound variants
/// in normal form are out of reach: a pattern's arguments are parallel
/// to its goal's, so none can be specialized to a constant. A traced
/// run reports the matcher work of the uninflated library beside the
/// inflated one's. Deterministic (fixed Rng seed): the library does not
/// depend on the workload seed.
PatternDatabase inflate(const PatternDatabase &Base, size_t TargetSize) {
  PatternDatabase Inflated;
  for (const Rule &R : Base.rules())
    Inflated.add(R.GoalName, R.Pattern.clone());
  Rng Random(0xBEEF);
  size_t Stuck = 0;
  while (Inflated.size() < TargetSize && Stuck < 10 * TargetSize) {
    for (const Rule &R : Base.rules()) {
      if (Inflated.size() >= TargetSize)
        break;
      Graph Clone = R.Pattern.clone();
      std::vector<std::pair<Node *, unsigned>> Edges;
      for (Node *N : Clone.liveNodes())
        for (unsigned I = 0; I < N->numOperands(); ++I)
          if (N->operand(I).sort().isValue())
            Edges.emplace_back(N, I);
      if (Edges.empty())
        continue;
      for (unsigned Wraps = 1 + Random.nextBelow(2); Wraps > 0; --Wraps) {
        auto [N, I] = Edges[Random.nextBelow(Edges.size())];
        unsigned Kind = static_cast<unsigned>(Random.nextBelow(7));
        N->setOperand(I, wrapIdentity(Clone, N->operand(I), Kind));
      }
      // The wrappers were created after their users; canonicalize to
      // restore operands-before-users order.
      if (!Inflated.add(R.GoalName, Clone.canonicalized()))
        ++Stuck;
    }
  }
  return Inflated;
}

struct PoolEntry {
  WorkloadProfile Profile;
  unsigned Size = 0;
};

/// The function pool: every rung of the size ladder holds all eleven
/// CINT2000 operation mixes, each with its profile's own generator
/// seed, so the pool's cost profile is the same on every run. The
/// workload seed picks the order (and, in the oracle, the inputs). A
/// seed-drawn generator seed would make the pool's cost depend on the
/// seed far beyond any bound: materialization time of a 64-op body
/// ranges over three orders of magnitude with the structure (README.md,
/// "Findings").
std::vector<PoolEntry> makePool(uint64_t Seed) {
  std::vector<PoolEntry> Pool;
  for (unsigned Size : SizeLadder)
    for (const WorkloadProfile &Mix : cint2000Profiles()) {
      PoolEntry E;
      E.Profile = Mix;
      E.Profile.Name += ".b" + std::to_string(Size);
      E.Profile.BodyOps = Size;
      E.Size = Size;
      Pool.push_back(std::move(E));
    }
  Rng Random(mixSeed(Seed, 1));
  for (size_t I = Pool.size(); I > 1; --I)
    std::swap(Pool[I - 1], Pool[Random.nextBelow(I)]);
  return Pool;
}

/// Per-function counters of one measured phase.
struct PhaseStats {
  uint64_t Functions = 0;
  double WallSeconds = 0;
  std::vector<Sample> Samples;
  uint64_t RulesTried = 0, StatesVisited = 0;
  uint64_t TotalOps = 0, CoveredOps = 0, FallbackOps = 0;
};

/// The per-function path under measurement. Returns the printed code.
std::string compileOne(const PoolEntry &Entry, const Engine &E,
                       uint64_t Request, Clock::time_point PhaseStart,
                       PhaseStats &Stats, Tracer &Trace,
                       std::unique_ptr<MachineFunction> *KeepCode) {
  Tracer::Span Whole(Trace, "compile.function", Request);
  Clock::time_point Start = Clock::now();
  Function F = Trace.within(
      "eval", Request, [&] { return buildWorkload(Entry.Profile, Width); });
  SelectionObserver Observer;
  SelectionResult Selected = Trace.within("isel", Request, [&] {
    MappedCandidateSource Source(*E.Library, E.Image->view());
    return runRuleSelection(F, *E.Library, Source, "automaton", &Observer);
  });
  std::string Asm = Trace.within(
      "x86", Request, [&] { return printMachineFunction(*Selected.MF); });
  Stats.Samples.push_back({secondsSince(PhaseStart), 1,
                           secondsSince(Start) * 1e3});
  ++Stats.Functions;
  Stats.RulesTried += Observer.RulesTried;
  Stats.StatesVisited += Observer.NodesVisited;
  Stats.TotalOps += Selected.TotalOperations;
  Stats.CoveredOps += Selected.CoveredOperations;
  Stats.FallbackOps += Selected.FallbackOperations;
  if (KeepCode)
    *KeepCode = std::move(Selected.MF);
  return Asm;
}

/// Compiles whole rounds of the pool until \p Seconds have elapsed
/// (at least one round); every output must equal \p Expected. With
/// \p Traced set, every other round is traced and counted there
/// instead, so both sides of the tracing-overhead comparison see the
/// same moments of the host's speed swings.
PhaseStats measure(const std::vector<PoolEntry> &Pool, const Engine &E,
                   const std::vector<std::string> &Expected, double Seconds,
                   uint64_t &NextRequest, RunResult &Result, Tracer &Trace,
                   PhaseStats *Traced) {
  PhaseStats Stats;
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0; Round == 0 || secondsSince(Start) < Seconds;
       ++Round) {
    const bool Tracing = Traced && Round % 2 == 1;
    PhaseStats &Into = Tracing ? *Traced : Stats;
    Trace.setEnabled(Tracing);
    Tracer::Span Root(Trace, "compile.round");
    Clock::time_point RoundStart = Clock::now();
    for (size_t I = 0; I < Pool.size(); ++I) {
      std::string Asm =
          compileOne(Pool[I], E, NextRequest++, Start, Into, Trace, nullptr);
      Tracer::Span Check(Trace, "bench.check");
      ++Result.Attempted;
      if (Asm != Expected[I])
        Result.fail("nondeterministic code for " + Pool[I].Profile.Name);
    }
    Into.WallSeconds += secondsSince(RoundStart);
  }
  return Stats;
}

} // namespace

RunResult perfbench::runCompileWorkload(const RunConfig &Config,
                                        Tracer &Trace) {
  RunResult Result;
  const std::string ImagePath = Config.WorkDir + "/compile.matb";

  ImageSetupTimes Times;
  std::vector<double> SetupSeconds;
  Engine E;
  size_t Rules = 0;
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep) {
    E = Engine();
    Tracer::Span Setup(Trace, "setup");
    Clock::time_point Start = Clock::now();
    E = loadPrepareAndMapImage(Config, ImagePath, Times, Trace,
                               [&Rules](const PatternDatabase &Base) {
                                 PatternDatabase Big =
                                     inflate(Base, InflatedRules);
                                 Big.sortSpecificFirst();
                                 Rules = Big.size();
                                 return Big;
                               });
    SetupSeconds.push_back(secondsSince(Start));
  }

  // Warm-up round, untimed: fills caches, produces the reference code
  // of every distinct function for the oracle and the determinism
  // check of the measured rounds.
  std::vector<PoolEntry> Pool = makePool(Config.Seed);
  std::vector<std::string> Expected;
  std::vector<std::unique_ptr<MachineFunction>> Code(Pool.size());
  uint64_t NextRequest = 1;
  {
    PhaseStats Warm;
    bool WasTracing = Trace.enabled();
    Trace.setEnabled(false);
    for (size_t I = 0; I < Pool.size(); ++I)
      Expected.push_back(
          compileOne(Pool[I], E, NextRequest++, Clock::now(), Warm, Trace,
                     &Code[I]));
    Trace.setEnabled(WasTracing);
  }

  // Untraced runs measure untraced rounds only. Traced runs alternate
  // untraced and traced rounds: the traced rounds' spans give the
  // layers, and the per-function difference is the tracing overhead.
  PhaseStats Traced;
  PhaseStats Plain = measure(Pool, E, Expected, Config.Seconds, NextRequest,
                             Result, Trace,
                             Config.Trace ? &Traced : nullptr);

  // Oracle: every distinct function's code against the interpreter.
  uint64_t Cycles = 0, Instrs = 0;
  for (size_t I = 0; I < Pool.size(); ++I) {
    Function F = buildWorkload(Pool[I].Profile, Width);
    OracleOutcome Outcome = checkAgainstInterpreter(
        F, *Code[I], OracleRuns, mixSeed(Config.Seed, 100 + I), false);
    ++Result.Attempted;
    if (!Outcome.Ok)
      Result.fail(Pool[I].Profile.Name + ": " + Outcome.Why);
    Cycles += Outcome.Cycles;
    Instrs += Code[I]->numInstructions();
  }

  Result.EndToEnd["setup_s"] = {median(SetupSeconds), "s"};
  Summary Sum = summarize(Plain.Samples, Plain.WallSeconds, WindowSeconds);
  Result.EndToEnd["ops_per_s"] = {Sum.UnitsPerSecond, "1/s"};
  Result.EndToEnd["latency_p50_ms"] = {Sum.P50Ms, "ms"};
  Result.EndToEnd["latency_p99_ms"] = {Sum.P99Ms, "ms"};
  Result.EndToEnd["peak_rss_mb"] = {selfPeakRssMb(), "MiB"};
  Result.EndToEnd["code_cycles"] = {static_cast<double>(Cycles), "cycles"};
  Result.EndToEnd["code_instrs"] = {static_cast<double>(Instrs), "count"};
  std::printf("compile: %zu distinct functions, %llu timed (%zu latency "
              "samples), %zu rules, %zu-byte image\n",
              Pool.size(), static_cast<unsigned long long>(Plain.Functions),
              Sum.Samples, Rules, E.Image->sizeBytes());

  Result.layer("latency.samples", static_cast<double>(Sum.Samples), "count");
  Result.layer("pattern.load_s", median(Times.Load), "s");
  Result.layer("semantics.goal_library_s", median(Times.Goals), "s");
  Result.layer("pattern.inflate_s", median(Times.Extend), "s");
  Result.layer("isel.prepare_s", median(Times.Prepare), "s");
  Result.layer("matchergen.build_s", median(Times.Build), "s");
  Result.layer("matchergen.write_s", median(Times.Write), "s");
  Result.layer("matchergen.map_s", median(Times.Map), "s");
  Result.layer("matchergen.image_bytes",
               static_cast<double>(E.Image->sizeBytes()), "bytes");
  Result.layer("pattern.rules", static_cast<double>(Rules), "count");
  if (!Config.Trace)
    return Result;

  // Per-layer figures from the traced half.
  const double N = static_cast<double>(std::max<uint64_t>(Traced.Functions, 1));
  std::map<std::string, double> Self = Trace.selfSeconds();
  Result.layer("eval.build_us", Self["eval"] / N * 1e6, "us");
  Result.layer("isel.select_us", Self["isel"] / N * 1e6, "us");
  Result.layer("x86.print_us", Self["x86"] / N * 1e6, "us");
  for (unsigned Size : SizeLadder) {
    double Sum = 0;
    size_t Count = 0;
    for (const auto &[Request, Seconds] : Trace.spansNamed("eval")) {
      if (Pool[(Request - 1) % Pool.size()].Size != Size)
        continue;
      Sum += Seconds;
      ++Count;
    }
    Result.layer("eval.build_us.b" + std::to_string(Size),
                 Count ? Sum / Count * 1e6 : 0, "us");
  }
  Result.layer("isel.rules_tried", Traced.RulesTried / N, "count/fn");
  Result.layer("matchergen.states_visited", Traced.StatesVisited / N,
               "count/fn");
  Result.layer("isel.hit_ratio",
               Traced.RulesTried
                   ? static_cast<double>(Traced.CoveredOps) / Traced.RulesTried
                   : 0,
               "ratio");
  Result.layer("isel.coverage",
               Traced.TotalOps
                   ? static_cast<double>(Traced.CoveredOps) / Traced.TotalOps
                   : 0,
               "ratio");
  Result.layer("isel.fallback_ops", Traced.FallbackOps / N, "count/fn");

  // Reconciliation: the layers' self times (the benchmark's own output
  // check included) against the traced phase's wall time; the
  // remainder is the loop's bookkeeping.
  double Layers =
      Self["eval"] + Self["isel"] + Self["x86"] + Self["bench.check"];
  double Wall = Trace.totalSeconds("compile.round");
  const double Unattributed = 100.0 * (Wall - Layers) / Wall;
  Result.layer("trace.unattributed_pct", Unattributed, "%");
  if (Unattributed > 5)
    Result.fail("trace does not reconcile: " + std::to_string(Unattributed) +
                "% of the traced wall time is outside every layer");
  double PlainPerFn = Plain.WallSeconds / Plain.Functions;
  double TracedPerFn = Traced.WallSeconds / Traced.Functions;
  Result.layer("trace.overhead_pct", 100.0 * (TracedPerFn / PlainPerFn - 1),
               "%");

  // The same pool, untraced, off an image of the uninflated library:
  // how much of the matcher work above the dead inflated rules cause.
  Trace.setEnabled(false);
  ImageSetupTimes Ignored;
  Engine Base = loadPrepareAndMapImage(
      Config, Config.WorkDir + "/compile-base.matb", Ignored, Trace);
  PhaseStats BaseStats;
  size_t SameCode = 0;
  for (size_t I = 0; I < Pool.size(); ++I)
    SameCode += compileOne(Pool[I], Base, 0, Clock::now(), BaseStats, Trace,
                           nullptr) == Expected[I];
  const double Fns = static_cast<double>(Pool.size());
  Result.layer("isel.rules_tried.base", BaseStats.RulesTried / Fns,
               "count/fn");
  Result.layer("matchergen.states_visited.base", BaseStats.StatesVisited / Fns,
               "count/fn");
  std::printf("uninflated library: %zu rules, %zu-byte image, same code on "
              "%zu of %zu functions\n",
              Base.Library->rules().size(), Base.Image->sizeBytes(), SameCode,
              Pool.size());
  return Result;
}
