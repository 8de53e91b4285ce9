//===- Main.cpp - Repository benchmark harness ----------------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//   selgen-perfbench --workload synth|compile|serve --seed N --seconds S
//                    --trace 0|1 [--root DIR] [--work-dir DIR]
//                    [--write-synth-rules FILE]
//
// Runs one workload and prints every metric by name with its unit, one
// per line, then as its last line one JSON object
//
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
//
// whose metrics are the end-to-end set (--trace 0) or the per-layer
// set (--trace 1). Exits 1 when any oracle disagreed, 2 on a set-up
// failure (no result line then). perfbench/run.py builds and runs this.
//
//===----------------------------------------------------------------------===//

#include "Measure.h"
#include "Trace.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace perfbench;

namespace {

/// Shortest round-trip decimal form of \p Value.
std::string formatNumber(double Value) {
  char Buffer[64];
  auto [End, Ec] = std::to_chars(Buffer, Buffer + sizeof(Buffer), Value);
  return Ec == std::errc() ? std::string(Buffer, End) : std::string("0");
}

std::string metricsJson(const std::map<std::string, Metric> &Metrics) {
  std::string Out = "{";
  for (const auto &[Name, M] : Metrics) {
    if (Out.size() > 1)
      Out += ", ";
    Out += "\"" + Name + "\": {\"value\": " + formatNumber(M.Value) +
           ", \"unit\": \"" + M.Unit + "\"}";
  }
  return Out + "}";
}

[[noreturn]] void usage(const char *Problem) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: selgen-perfbench --workload "
               "synth|compile|serve --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--work-dir DIR] [--write-synth-rules FILE]\n",
               Problem);
  std::exit(2);
}

} // namespace

int main(int argc, char **argv) {
  RunConfig Config;
  Config.Root = SELGEN_PERFBENCH_ROOT;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      usage(("missing value for " + Flag).c_str());
    std::string Value = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      Config.Workload = Value;
    else if (Flag == "--seed")
      Config.Seed = std::strtoull(Value.c_str(), &End, 10);
    else if (Flag == "--seconds")
      Config.Seconds = std::strtod(Value.c_str(), &End);
    else if (Flag == "--trace" && (Value == "0" || Value == "1"))
      Config.Trace = Value == "1";
    else if (Flag == "--root")
      Config.Root = Value;
    else if (Flag == "--work-dir")
      Config.WorkDir = Value;
    else if (Flag == "--write-synth-rules")
      Config.SynthRulesOut = Value;
    else
      usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      usage(("bad number for " + Flag).c_str());
  }
  if (Config.Workload.empty() || !(Config.Seconds > 0))
    usage("--workload and a positive --seconds are required");

  namespace fs = std::filesystem;
  std::error_code Ec;
  Config.Root = fs::absolute(Config.Root, Ec).string();
  if (Config.WorkDir.empty())
    Config.WorkDir = Config.Root + "/.bench_build/perfbench-run";
  fs::create_directories(Config.WorkDir, Ec);
  Config.WorkDir = fs::absolute(Config.WorkDir, Ec).string();
  Config.ToolDir = fs::canonical("/proc/self/exe", Ec).parent_path().string();

  Tracer Trace(Config.Trace);
  RunResult Result;
  if (Config.Workload == "synth")
    Result = runSynthWorkload(Config, Trace);
  else if (Config.Workload == "compile")
    Result = runCompileWorkload(Config, Trace);
  else if (Config.Workload == "serve")
    Result = runServeWorkload(Config, Trace);
  else
    usage(("unknown workload " + Config.Workload).c_str());

  Result.layer("error_rate",
               Result.Attempted ? static_cast<double>(Result.Failed) /
                                      Result.Attempted
                                : 1.0,
               "ratio");

  // Every workload prints the same names: a layer it does no work in
  // reads 0. `compile` adds the names only it measures.
  std::vector<MetricName> LayerNames = PerLayerMetrics;
  if (Config.Workload == "compile")
    LayerNames.insert(LayerNames.end(), CompileOnlyMetrics.begin(),
                      CompileOnlyMetrics.end());
  const std::vector<MetricName> &Layers = LayerNames;
  for (const auto &[Set, Names] :
       {std::pair{&Result.EndToEnd, &EndToEndMetrics},
        std::pair{&Result.PerLayer, &Layers}}) {
    for (const MetricName &M : *Names)
      if (!Set->count(M.Name))
        (*Set)[M.Name] = {0, M.Unit};
    if (Set->size() != Names->size())
      fatal("a workload reported a metric missing from the metric list");
    for (const MetricName &M : *Names)
      if ((*Set)[M.Name].Unit != M.Unit)
        fatal(std::string("unit mismatch for ") + M.Name);
  }

  if (Config.Trace) {
    std::string TracePath = Config.WorkDir + "/trace-" + Config.Workload +
                            "-" + std::to_string(Config.Seed) + ".json";
    if (!Trace.writeJson(TracePath, Result.PerLayer))
      fatal("cannot write " + TracePath);
    std::printf("trace: %s\n", TracePath.c_str());
  }

  for (const std::string &Problem : Result.Problems)
    std::fprintf(stderr, "perfbench: MISMATCH: %s\n", Problem.c_str());
  for (const auto *Set : {&Result.EndToEnd, &Result.PerLayer})
    for (const auto &[Name, M] : *Set) {
      if (!std::isfinite(M.Value))
        fatal("metric " + Name + " is not a finite number");
      std::printf("  %-34s %14s %s\n", Name.c_str(),
                  formatNumber(M.Value).c_str(), M.Unit.c_str());
    }
  const bool Correct = Result.Failed == 0 && Result.Attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Result.Attempted),
              static_cast<unsigned long long>(Result.Failed),
              metricsJson(Config.Trace ? Result.PerLayer : Result.EndToEnd)
                  .c_str());
  return Correct ? 0 : 1;
}
