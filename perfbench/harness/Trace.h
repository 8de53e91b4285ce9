//===- Trace.h - In-memory span recorder of the benchmark -------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing layer. Spans are recorded around the calls
/// the benchmark makes into each selgen layer's public functions (the
/// program itself is not instrumented): name, start, end, parent span
/// and request id, kept in memory and written out once at exit. A
/// layer's self time is its spans' durations minus the part their
/// child spans cover; per-layer metrics and the reconciliation against
/// end-to-end time are derived from those self times.
///
/// A disabled tracer records nothing and reads no clock, so untraced
/// runs pay one branch per boundary. Single-threaded by design: every
/// workload drives its layers from one caller thread.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PERFBENCH_TRACE_H
#define SELGEN_PERFBENCH_TRACE_H

#include "Measure.h"

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

class Tracer {
public:
  explicit Tracer(bool Enabled) : Enabled(Enabled) {}
  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  bool enabled() const { return Enabled; }
  void setEnabled(bool On) { Enabled = On; }

  /// RAII span; nests under the innermost open span.
  class Span {
  public:
    Span(Tracer &Owner, const char *Name, uint64_t Request = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer *Owner = nullptr; ///< Null while tracing is off.
    uint32_t Index = 0;
  };

  /// Runs \p Body inside a span named \p Name and returns its result.
  template <typename Fn>
  auto within(const char *Name, uint64_t Request, Fn &&Body) {
    Span S(*this, Name, Request);
    return Body();
  }

  /// Self time per span name, in seconds.
  std::map<std::string, double> selfSeconds() const;
  /// Summed durations of the spans named \p Name, in seconds.
  double totalSeconds(const std::string &Name) const;
  /// (request id, duration in seconds) of every span named \p Name.
  std::vector<std::pair<uint64_t, double>>
  spansNamed(const std::string &Name) const;

  /// Writes every span, each name's self time and the run's per-layer
  /// counts and figures (\p Layers) as JSON; false on I/O failure.
  bool writeJson(const std::string &Path,
                 const std::map<std::string, Metric> &Layers) const;

private:
  struct Record {
    const char *Name;
    uint32_t Parent; ///< Index + 1 of the parent span, 0 for a root.
    uint64_t Request;
    int64_t StartNs;
    int64_t EndNs;
    int64_t ChildNs; ///< Time covered by direct children.
  };

  int64_t nowNs() const;

  bool Enabled;
  Clock::time_point Epoch = Clock::now();
  std::vector<Record> Spans;
  std::vector<uint32_t> Open; ///< Indices of the open spans.
};

} // namespace perfbench

#endif // SELGEN_PERFBENCH_TRACE_H
