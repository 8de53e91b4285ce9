//===- Trace.cpp - In-memory span recorder of the benchmark -------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "support/Json.h"

#include <cstdio>
#include <fstream>

using namespace perfbench;

int64_t Tracer::nowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              Epoch)
      .count();
}

Tracer::Span::Span(Tracer &T, const char *Name, uint64_t Request) {
  if (!T.Enabled)
    return;
  Owner = &T;
  Index = static_cast<uint32_t>(T.Spans.size());
  uint32_t Parent = T.Open.empty() ? 0 : T.Open.back() + 1;
  T.Spans.push_back({Name, Parent, Request, T.nowNs(), 0, 0});
  T.Open.push_back(Index);
}

Tracer::Span::~Span() {
  if (!Owner)
    return;
  Record &R = Owner->Spans[Index];
  R.EndNs = Owner->nowNs();
  Owner->Open.pop_back();
  if (R.Parent)
    Owner->Spans[R.Parent - 1].ChildNs += R.EndNs - R.StartNs;
}

std::map<std::string, double> Tracer::selfSeconds() const {
  std::map<std::string, double> Self;
  for (const Record &R : Spans)
    Self[R.Name] += (R.EndNs - R.StartNs - R.ChildNs) * 1e-9;
  return Self;
}

double Tracer::totalSeconds(const std::string &Name) const {
  double Total = 0;
  for (const Record &R : Spans)
    if (Name == R.Name)
      Total += (R.EndNs - R.StartNs) * 1e-9;
  return Total;
}

std::vector<std::pair<uint64_t, double>>
Tracer::spansNamed(const std::string &Name) const {
  std::vector<std::pair<uint64_t, double>> Found;
  for (const Record &R : Spans)
    if (Name == R.Name)
      Found.emplace_back(R.Request, (R.EndNs - R.StartNs) * 1e-9);
  return Found;
}

bool Tracer::writeJson(const std::string &Path,
                       const std::map<std::string, Metric> &Layers) const {
  std::ofstream Out(Path);
  if (!Out)
    return false;
  Out << "{\n  \"spans\": [\n";
  char Line[256];
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Record &R = Spans[I];
    std::snprintf(Line, sizeof(Line),
                  "    {\"id\": %zu, \"name\": \"%s\", \"parent\": %u, "
                  "\"request\": %llu, \"start_us\": %.3f, \"end_us\": %.3f}",
                  I + 1, R.Name, R.Parent,
                  static_cast<unsigned long long>(R.Request),
                  R.StartNs * 1e-3, R.EndNs * 1e-3);
    Out << Line << (I + 1 < Spans.size() ? ",\n" : "\n");
  }
  Out << "  ],\n  \"layers\": {";
  bool First = true;
  for (const auto &[Name, M] : Layers) {
    Out << (First ? "\n" : ",\n") << "    \"" << selgen::jsonEscape(Name)
        << "\": {\"value\": " << M.Value << ", \"unit\": \"" << M.Unit
        << "\"}";
    First = false;
  }
  Out << "\n  },\n  \"self_seconds\": {";
  First = true;
  for (const auto &[Name, Value] : selfSeconds()) {
    Out << (First ? "\n" : ",\n") << "    \"" << selgen::jsonEscape(Name)
        << "\": " << Value;
    First = false;
  }
  Out << "\n  }\n}\n";
  return static_cast<bool>(Out);
}
