//===- Oracle.cpp - Selector-independent correctness oracle -------------------===//
//
// Part of the selgen project (CGO'18 instruction-selection synthesis
// reproduction).
//
//===----------------------------------------------------------------------===//

#include "Oracle.h"

#include "support/Rng.h"
#include "x86/Emulator.h"

#include <algorithm>
#include <map>

using namespace perfbench;
using namespace selgen;

OracleOutcome perfbench::checkAgainstInterpreter(const Function &F,
                                                 const MachineFunction &MF,
                                                 unsigned Runs, uint64_t Seed,
                                                 bool AllowUndefined) {
  OracleOutcome Outcome;
  const unsigned Width = F.width();
  const unsigned NumArgs = F.entry()->body().numArgs() - 1; // Minus memory.
  const auto &ArgRegs = MF.entry()->ArgRegs;
  Rng Random(Seed);
  auto Fail = [&Outcome](std::string Why) {
    if (Outcome.Ok)
      Outcome.Why = std::move(Why);
    Outcome.Ok = false;
  };
  if (ArgRegs.size() != NumArgs) {
    Fail("machine function takes " + std::to_string(ArgRegs.size()) +
         " arguments, IR takes " + std::to_string(NumArgs));
    return Outcome;
  }

  for (unsigned Run = 0; Run < Runs; ++Run) {
    std::vector<BitValue> Args;
    for (unsigned I = 0; I < NumArgs; ++I)
      Args.push_back(Random.nextInterestingBitValue(Width));
    MemoryState Memory;
    for (unsigned B = 0; B < (1u << std::min(Width, 8u)); ++B)
      Memory.storeByte(B, static_cast<uint8_t>(Random.nextBelow(256)));

    FunctionResult Reference = runFunction(F, Args, Memory, 1u << 24);
    if (Reference.Undefined && AllowUndefined)
      continue;
    if (Reference.Undefined || Reference.StepLimitHit) {
      Fail("interpreter run " + std::to_string(Run) +
           (Reference.Undefined ? " hit undefined behaviour"
                                : " hit its step limit"));
      continue;
    }

    std::map<MReg, BitValue> Regs;
    for (size_t I = 0; I < ArgRegs.size(); ++I)
      Regs[ArgRegs[I]] = Args[I];
    MachineRunResult Machine = runMachineFunction(MF, Regs, Memory, 1u << 24);
    ++Outcome.Checked;
    Outcome.Cycles += Machine.Cycles;
    if (Machine.StepLimitHit) {
      Fail("emulator run " + std::to_string(Run) + " hit its step limit");
      continue;
    }
    if (Machine.ReturnValues != Reference.ReturnValues) {
      Fail("return values differ on run " + std::to_string(Run));
      continue;
    }
    if (Reference.FinalMemory)
      for (const auto &[Address, Value] : Reference.FinalMemory->bytes())
        if (Machine.Memory.peekByte(Address) != Value) {
          Fail("memory byte " + std::to_string(Address) +
               " differs on run " + std::to_string(Run));
          break;
        }
  }
  return Outcome;
}
