//===- Measure.h - Shared plumbing of the benchmark harness -----*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What every workload of the repository benchmark shares: the run
/// configuration, the result record (metrics by name with their unit,
/// attempted/failed operation counts, oracle problems), order
/// statistics, peak-memory probes, and the location of the shipped
/// inputs. The workloads themselves live in *Workload.cpp; README.md in
/// the benchmark directory explains what each one measures and why.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PERFBENCH_MEASURE_H
#define SELGEN_PERFBENCH_MEASURE_H

#include "isel/AutomatonSelector.h"
#include "pattern/PatternDatabase.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

namespace perfbench {

class Tracer;

/// One invocation: `--workload W --seed N --seconds S --trace 0|1`.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 30;
  bool Trace = false;
  std::string Root;    ///< Repository checkout holding artifacts/.
  std::string WorkDir; ///< Scratch directory for images, sockets, traces.
  std::string ToolDir; ///< Directory holding the built selgen-served.
  /// synth only: write the produced rule list here (re-blessing the
  /// committed reference after an intended synthesis change).
  std::string SynthRulesOut;
};

struct Metric {
  double Value = 0;
  std::string Unit;
};

/// What a workload hands back to main(). End-to-end metrics are
/// printed by untraced runs, per-layer metrics by traced runs; a
/// metric a workload has no work for is reported as 0 so every run
/// prints the same names.
struct RunResult {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<std::string> Problems; ///< Oracle mismatches, in words.
  std::map<std::string, Metric> EndToEnd;
  std::map<std::string, Metric> PerLayer;

  void fail(const std::string &Problem) {
    ++Failed;
    Problems.push_back(Problem);
  }
  void layer(const std::string &Name, double Value, const char *Unit) {
    PerLayer[Name] = {Value, Unit};
  }
};

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

struct MetricName {
  const char *Name;
  const char *Unit;
};
/// Every end-to-end and every per-layer metric, as BENCHMARK.json
/// lists them. main() prints exactly these names on every workload.
extern const std::vector<MetricName> EndToEndMetrics;
extern const std::vector<MetricName> PerLayerMetrics;
/// Per-layer metrics only `compile` measures. `compile` is not in
/// BENCHMARK.json while its oracle fails (README.md, "Findings"), so
/// neither are these; `compile` prints them after PerLayerMetrics.
extern const std::vector<MetricName> CompileOnlyMetrics;

/// Nearest-rank percentile of \p Values (copied and sorted).
double percentile(std::vector<double> Values, double P);
double median(std::vector<double> Values);

/// One completed operation of a closed loop.
struct Sample {
  double AtSeconds = 0; ///< Completion time since the phase began.
  double Units = 0;     ///< Functions it completed.
  double LatencyMs = 0;
};

/// Throughput and latency of a measured phase. The host's CPU speed
/// drifts by up to 3x over seconds, so throughput, the median latency
/// and the p99 latency are taken per window and the median over
/// windows is reported. A window should hold a few hundred samples at
/// least, so that its p99 is not just its slowest sample.
struct Summary {
  double UnitsPerSecond = 0;
  double P50Ms = 0;
  double P99Ms = 0;
  size_t Samples = 0;
};
Summary summarize(const std::vector<Sample> &Samples, double WallSeconds,
                  double WindowSeconds);

/// Peak resident set of this process, in MiB.
double selfPeakRssMb();
/// VmHWM of process \p Pid from /proc, in MiB (0 if unreadable).
double processPeakRssMb(pid_t Pid);

/// The shipped paper-scale rule library (artifacts/ under the root).
/// Fatal if missing: the benchmark never falls back to synthesizing it.
std::string shippedFullLibrary(const RunConfig &Config);

/// What image set-up leaves behind; the measured loops only read it.
struct Engine {
  std::unique_ptr<selgen::GoalLibrary> Goals;
  std::unique_ptr<selgen::PreparedLibrary> Library;
  std::unique_ptr<selgen::MappedAutomaton> Image;
};

/// Seconds spent in each step of one or more image set-ups.
struct ImageSetupTimes {
  std::vector<double> Load, Goals, Extend, Prepare, Build, Write, Map;
};

/// The image set-up `compile` and `serve` share: loads the shipped
/// library (normalized rules only, most specific first), lets
/// \p Extend grow it if given, builds the goal library, prepares the
/// rules, builds the matcher automaton, writes it to \p ImagePath and
/// maps it back. Each step is one span and one entry of \p Times.
Engine loadPrepareAndMapImage(
    const RunConfig &Config, const std::string &ImagePath,
    ImageSetupTimes &Times, Tracer &Trace,
    const std::function<selgen::PatternDatabase(
        const selgen::PatternDatabase &)> &Extend = {});

/// Reports a set-up failure and exits with status 2, printing no
/// result line.
[[noreturn]] void fatal(const std::string &Message);

/// Splits a seed into independent streams for one purpose each.
uint64_t mixSeed(uint64_t Seed, uint64_t Stream);

RunResult runSynthWorkload(const RunConfig &Config, Tracer &Trace);
RunResult runCompileWorkload(const RunConfig &Config, Tracer &Trace);
RunResult runServeWorkload(const RunConfig &Config, Tracer &Trace);

} // namespace perfbench

#endif // SELGEN_PERFBENCH_MEASURE_H
