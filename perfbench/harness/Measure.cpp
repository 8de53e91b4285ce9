//===- Measure.cpp - Shared plumbing of the benchmark harness -------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Trace.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

using namespace perfbench;

const std::vector<MetricName> perfbench::EndToEndMetrics = {
    {"setup_s", "s"},           {"ops_per_s", "1/s"},
    {"latency_p50_ms", "ms"},   {"latency_p99_ms", "ms"},
    {"peak_rss_mb", "MiB"},     {"code_cycles", "cycles"},
    {"code_instrs", "count"},
};

const std::vector<MetricName> perfbench::PerLayerMetrics = {
    // Whole run.
    {"error_rate", "ratio"},
    {"latency.samples", "count"},
    {"trace.overhead_pct", "%"},
    {"trace.unattributed_pct", "%"},
    // semantics, pattern, synth, smt (synth workload; set-up elsewhere).
    {"semantics.goal_library_s", "s"},
    {"pattern.load_s", "s"},
    {"pattern.rules", "count"},
    {"pattern.build_s", "s"},
    {"pattern.queue_wait_s", "s"},
    {"synth.wall_s", "s"},
    {"synth.goal_wall_s", "s"},
    {"synth.multisets_run", "count"},
    {"synth.skip_ratio", "ratio"},
    {"synth.incomplete_goals", "count"},
    {"smt.checks", "count"},
    {"smt.check_s", "s"},
    {"smt.retries", "count"},
    {"cegis.synthesis_queries", "count"},
    {"cegis.verification_queries", "count"},
    {"cegis.counterexamples", "count"},
    {"prescreen.candidates", "count"},
    {"prescreen.eval_s", "s"},
    {"prescreen.kill_ratio", "ratio"},
    // Image set-up (serve workload) and the per-function path: eval
    // (materialization), isel, cost, x86.
    {"isel.prepare_s", "s"},
    {"matchergen.build_s", "s"},
    {"matchergen.write_s", "s"},
    {"matchergen.map_s", "s"},
    {"matchergen.image_bytes", "bytes"},
    {"eval.build_us", "us"},
    {"isel.tiling_us", "us"},
    {"isel.coverage", "ratio"},
    {"isel.fallback_ops", "count/fn"},
    {"x86.print_us", "us"},
    // serve and wire (serve workload).
    {"serve.cold_start_s", "s"},
    {"serve.encode_us", "us"},
    {"wire.write_us", "us"},
    {"serve.wait_us", "us"},
    {"wire.read_us", "us"},
    {"serve.decode_us", "us"},
    {"serve.service_us", "us"},
    {"serve.outside_service_us", "us"},
    {"serve.select_us", "us"},
    {"serve.decode_request_us", "us"},
    {"serve.encode_reply_us", "us"},
    {"serve.queue_peak", "count"},
    {"serve.shed", "count"},
    {"serve.timeouts", "count"},
    {"serve.failed_requests", "count"},
};

const std::vector<MetricName> perfbench::CompileOnlyMetrics = {
    {"pattern.inflate_s", "s"},
    {"eval.build_us.b16", "us"},
    {"eval.build_us.b24", "us"},
    {"eval.build_us.b32", "us"},
    {"eval.build_us.b40", "us"},
    {"eval.build_us.b48", "us"},
    {"eval.build_us.b56", "us"},
    {"eval.build_us.b64", "us"},
    {"isel.select_us", "us"},
    {"isel.rules_tried", "count/fn"},
    {"isel.rules_tried.base", "count/fn"},
    {"isel.hit_ratio", "ratio"},
    {"matchergen.states_visited", "count/fn"},
    {"matchergen.states_visited.base", "count/fn"},
};

double perfbench::percentile(std::vector<double> Values, double P) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Rank = static_cast<size_t>(std::ceil(P * Values.size()));
  return Values[std::clamp<size_t>(Rank, 1, Values.size()) - 1];
}

double perfbench::median(std::vector<double> Values) {
  if (Values.empty())
    return 0;
  std::sort(Values.begin(), Values.end());
  size_t Mid = Values.size() / 2;
  return Values.size() % 2 ? Values[Mid]
                           : (Values[Mid - 1] + Values[Mid]) / 2;
}

Summary perfbench::summarize(const std::vector<Sample> &Samples,
                             double WallSeconds, double WindowSeconds) {
  Summary Out;
  Out.Samples = Samples.size();
  const size_t Windows =
      std::max<size_t>(1, static_cast<size_t>(WallSeconds / WindowSeconds));
  const double Width = WallSeconds / Windows;
  std::vector<double> Units(Windows, 0);
  std::vector<std::vector<double>> Latency(Windows);
  for (const Sample &S : Samples) {
    size_t W = std::min(Windows - 1, static_cast<size_t>(S.AtSeconds / Width));
    Units[W] += S.Units;
    Latency[W].push_back(S.LatencyMs);
  }
  std::vector<double> Rates, P50s, P99s;
  for (size_t W = 0; W < Windows; ++W) {
    Rates.push_back(Units[W] / Width);
    if (!Latency[W].empty()) {
      P50s.push_back(median(Latency[W]));
      P99s.push_back(percentile(Latency[W], 0.99));
    }
  }
  Out.UnitsPerSecond = median(Rates);
  Out.P50Ms = median(P50s);
  Out.P99Ms = median(P99s);
  return Out;
}

double perfbench::selfPeakRssMb() {
  rusage Usage{};
  getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

double perfbench::processPeakRssMb(pid_t Pid) {
  std::ifstream Status("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0) {
      std::istringstream Fields(Line.substr(6));
      double Kib = 0;
      Fields >> Kib;
      return Kib / 1024.0;
    }
  return 0;
}

std::string perfbench::shippedFullLibrary(const RunConfig &Config) {
  std::string Path = Config.Root + "/artifacts/rule-library-full-w8.dat";
  if (!std::ifstream(Path).good())
    fatal("shipped rule library missing: " + Path +
          " (the benchmark never synthesizes it)");
  return Path;
}

Engine perfbench::loadPrepareAndMapImage(
    const RunConfig &Config, const std::string &ImagePath,
    ImageSetupTimes &Times, Tracer &Trace,
    const std::function<selgen::PatternDatabase(
        const selgen::PatternDatabase &)> &Extend) {
  using namespace selgen;
  Engine E;
  Clock::time_point Step = Clock::now();
  auto Lap = [&Step](std::vector<double> &Into) {
    Clock::time_point Now = Clock::now();
    Into.push_back(std::chrono::duration<double>(Now - Step).count());
    Step = Now;
  };

  PatternDatabase Db = Trace.within("pattern.load", 0, [&] {
    PatternDatabase Loaded =
        PatternDatabase::loadFromFile(shippedFullLibrary(Config));
    Loaded.filterNonNormalized();
    Loaded.sortSpecificFirst();
    return Loaded;
  });
  Lap(Times.Load);
  E.Goals = Trace.within("semantics.goal_library", 0, [] {
    // 8 bits: the width of the shipped library.
    return std::make_unique<GoalLibrary>(
        GoalLibrary::build(8, GoalLibrary::allGroups()));
  });
  Lap(Times.Goals);
  if (Extend) {
    Db = Trace.within("pattern.inflate", 0, [&] { return Extend(Db); });
    Lap(Times.Extend);
  }
  E.Library = Trace.within("isel.prepare", 0, [&] {
    return std::make_unique<PreparedLibrary>(Db, *E.Goals);
  });
  Lap(Times.Prepare);
  MatcherAutomaton Automaton = Trace.within(
      "matchergen.build", 0, [&] { return buildMatcherAutomaton(*E.Library); });
  Lap(Times.Build);
  bool Written = Trace.within("matchergen.write", 0, [&] {
    return Automaton.writeBinaryFile(ImagePath);
  });
  if (!Written)
    fatal("cannot write " + ImagePath);
  Lap(Times.Write);
  std::string Error;
  E.Image = Trace.within("matchergen.map", 0, [&] {
    return MatcherAutomaton::mapBinary(ImagePath, &Error);
  });
  if (!E.Image)
    fatal("cannot map " + ImagePath + ": " + Error);
  std::string Stale = automatonStalenessError(E.Image->view(), *E.Library);
  if (!Stale.empty())
    fatal(Stale);
  Lap(Times.Map);
  return E;
}

void perfbench::fatal(const std::string &Message) {
  std::fprintf(stderr, "perfbench: error: %s\n", Message.c_str());
  std::exit(2);
}

uint64_t perfbench::mixSeed(uint64_t Seed, uint64_t Stream) {
  // splitmix64 finalizer over (seed, stream).
  uint64_t X = Seed * 0x9E3779B97F4A7C15ull + Stream + 0x632BE59BD9B4E019ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}
