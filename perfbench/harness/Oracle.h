//===- Oracle.h - Selector-independent correctness oracle --------*- C++ -*-===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks selected machine code against the IR interpreter: the IR
/// function runs on runFunction, the machine function on the x86
/// emulator, over seeded argument and memory sets, and return values
/// plus final memory must agree. Neither side involves the selector,
/// so a wrong rule, a wrong fallback or a wrong emission shows up as a
/// mismatch. The emulator's cost-weighted cycle count of the checked
/// runs is the benchmark's code_cycles.
///
//===----------------------------------------------------------------------===//

#ifndef SELGEN_PERFBENCH_ORACLE_H
#define SELGEN_PERFBENCH_ORACLE_H

#include "ir/Function.h"
#include "x86/MachineIR.h"

#include <cstdint>
#include <string>

namespace perfbench {

struct OracleOutcome {
  bool Ok = true;
  std::string Why;      ///< First disagreement, when !Ok.
  uint64_t Cycles = 0;  ///< Emulator cycles summed over the runs.
  unsigned Checked = 0; ///< Runs compared (undefined IR runs skipped).
};

/// Runs \p F and \p MF on \p Runs input sets drawn from \p Seed: random
/// arguments and a fully random 2^width-byte memory. With
/// \p AllowUndefined false an undefined IR execution is a failure (the
/// evaluation workloads are UB-free by construction); otherwise it is
/// skipped, as a pattern-test input may legitimately hit UB.
OracleOutcome checkAgainstInterpreter(const selgen::Function &F,
                                      const selgen::MachineFunction &MF,
                                      unsigned Runs, uint64_t Seed,
                                      bool AllowUndefined);

} // namespace perfbench

#endif // SELGEN_PERFBENCH_ORACLE_H
