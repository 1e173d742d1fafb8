//===- Compiler.cpp - Litmus tests -> execution skeletons -----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/Compiler.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <map>
#include <set>

using namespace cats;

Expected<CompiledTest> CompiledTest::compile(const LitmusTest &Test) {
  std::string Problem = Test.validate();
  if (!Problem.empty())
    return Expected<CompiledTest>::error("invalid litmus test " + Test.Name +
                                         ": " + Problem);
  CompiledTest Out;
  Out.Source = Test;
  Out.buildEvents();
  Out.buildDependencies();
  Out.buildFences();
  return Out;
}

void CompiledTest::buildEvents() {
  // Initial writes first, one per location, with the initial value.
  for (const std::string &LocName : Source.locations()) {
    Location Loc = Skeleton.internLocation(LocName);
    Value Init = 0;
    auto It = Source.Init.find(LocName);
    if (It != Source.Init.end())
      Init = It->second;
    Skeleton.addEvent({.Thread = InitThread,
                       .Kind = EventKind::Write,
                       .Loc = Loc,
                       .Val = Init,
                       .IsInit = true});
  }

  // Then each thread's memory events, in program order.
  EventForInstr.assign(Source.numThreads(), {});
  for (ThreadId T = 0; T < static_cast<ThreadId>(Source.numThreads()); ++T) {
    const ThreadCode &Code = Source.Threads[T];
    EventForInstr[T].assign(Code.size(), -1);
    for (size_t I = 0; I < Code.size(); ++I) {
      const Instruction &Instr = Code[I];
      if (Instr.Op == Opcode::Load) {
        Location Loc = Skeleton.internLocation(Instr.Loc);
        EventId Id = Skeleton.addEvent({.Thread = T,
                                        .InstrIndex = static_cast<int>(I),
                                        .Kind = EventKind::Read,
                                        .Loc = Loc});
        EventForInstr[T][I] = static_cast<int>(Id);
      } else if (Instr.Op == Opcode::Store) {
        Location Loc = Skeleton.internLocation(Instr.Loc);
        Value StaticVal = Instr.Src1.isImm() ? Instr.Src1.asImm() : 0;
        EventId Id = Skeleton.addEvent({.Thread = T,
                                        .InstrIndex = static_cast<int>(I),
                                        .Kind = EventKind::Write,
                                        .Loc = Loc,
                                        .Val = StaticVal});
        EventForInstr[T][I] = static_cast<int>(Id);
      }
    }
  }

  Skeleton.finalizeStructure(Source.numThreads());

  // Canonical read order and their rf candidates.
  for (const Event &E : Skeleton.events()) {
    if (!E.isRead())
      continue;
    ReadEvents.push_back(E.Id);
    CandidateWritesPerRead.push_back(Skeleton.writesTo(E.Loc));
  }
}

void CompiledTest::buildDependencies() {
  // Register-taint rendering of Fig. 22. For each thread we walk the code
  // once, tracking for every register the set of po-previous memory reads
  // whose value flows into it through registers and ALU operations
  // (dd-reg = (rf-reg | iico)+, cut at memory accesses). Loads reset their
  // destination's taint to themselves; ALU ops union their sources' taints,
  // so xor r,r keeps false dependencies alive exactly as the architectures
  // specify.
  unsigned N = Skeleton.numEvents();
  for (ThreadId T = 0; T < static_cast<ThreadId>(Source.numThreads()); ++T) {
    const ThreadCode &Code = Source.Threads[T];
    std::map<Register, std::set<EventId>> Taint;
    // Branches seen so far: position and the reads tainting the condition.
    struct BranchInfo {
      size_t Pos;
      std::set<EventId> Sources;
    };
    std::vector<BranchInfo> Branches;
    // Control-fence (isync/isb) positions seen so far.
    std::vector<size_t> CFences;

    auto TaintOf = [&](Register R) -> std::set<EventId> {
      auto It = Taint.find(R);
      return It == Taint.end() ? std::set<EventId>{} : It->second;
    };

    for (size_t I = 0; I < Code.size(); ++I) {
      const Instruction &Instr = Code[I];
      int MemEvent = EventForInstr[T][I];

      // ctrl: any memory access po-after a branch whose condition is
      // tainted by a read (Fig. 22: (dd-reg & RB); po).
      if (MemEvent >= 0) {
        for (const BranchInfo &B : Branches)
          for (EventId Src : B.Sources)
            Skeleton.Ctrl.set(Src, static_cast<EventId>(MemEvent));
        // ctrl+cfence: ... with a control fence between branch and access.
        for (const BranchInfo &B : Branches)
          for (size_t F : CFences)
            if (F > B.Pos)
              for (EventId Src : B.Sources)
                Skeleton.CtrlCfence.set(Src,
                                        static_cast<EventId>(MemEvent));
      }

      switch (Instr.Op) {
      case Opcode::Load: {
        EventId Read = static_cast<EventId>(MemEvent);
        if (Instr.AddrDep >= 0)
          for (EventId Src : TaintOf(Instr.AddrDep))
            Skeleton.Addr.set(Src, Read);
        // The loaded register depends on this read only; dd-reg does not
        // pass through memory.
        Taint[Instr.Dst] = {Read};
        break;
      }
      case Opcode::Store: {
        EventId Write = static_cast<EventId>(MemEvent);
        if (Instr.AddrDep >= 0)
          for (EventId Src : TaintOf(Instr.AddrDep))
            Skeleton.Addr.set(Src, Write);
        if (Instr.Src1.isReg())
          for (EventId Src : TaintOf(Instr.Src1.asReg()))
            Skeleton.Data.set(Src, Write);
        break;
      }
      case Opcode::Move:
        Taint[Instr.Dst] =
            Instr.Src1.isReg() ? TaintOf(Instr.Src1.asReg())
                               : std::set<EventId>{};
        break;
      case Opcode::Xor:
      case Opcode::Add: {
        std::set<EventId> Union = TaintOf(Instr.Src1.asReg());
        auto Other = TaintOf(Instr.Src2.asReg());
        Union.insert(Other.begin(), Other.end());
        Taint[Instr.Dst] = std::move(Union);
        break;
      }
      case Opcode::CmpBranch:
        Branches.push_back({I, TaintOf(Instr.Src1.asReg())});
        break;
      case Opcode::Fence:
        if (Instr.isControlFence())
          CFences.push_back(I);
        break;
      }
    }
  }
  (void)N;
}

void CompiledTest::buildFences() {
  // For each fence instruction, relate every memory event po-before it to
  // every memory event po-after it (footnote 2: the relation records the
  // fence's position; whether it orders the pair is the model's business).
  for (ThreadId T = 0; T < static_cast<ThreadId>(Source.numThreads()); ++T) {
    const ThreadCode &Code = Source.Threads[T];
    for (size_t F = 0; F < Code.size(); ++F) {
      if (Code[F].Op != Opcode::Fence || Code[F].isControlFence())
        continue;
      const std::string &Name = Code[F].FenceName;
      auto [It, _] = Skeleton.Fences.try_emplace(Name,
                                                 Relation(
                                                     Skeleton.numEvents()));
      Relation &R = It->second;
      for (size_t I = 0; I < F; ++I) {
        if (EventForInstr[T][I] < 0)
          continue;
        for (size_t J = F + 1; J < Code.size(); ++J) {
          if (EventForInstr[T][J] < 0)
            continue;
          R.set(static_cast<EventId>(EventForInstr[T][I]),
                static_cast<EventId>(EventForInstr[T][J]));
        }
      }
    }
  }
  // ARM's .st fences are the corresponding full fence restricted to
  // write-write pairs (Sec. 4.7); we keep them as separate relations and
  // let the model apply the WW restriction.
}

std::vector<Relation> CompiledTest::allCoherenceOrders() const {
  // Per location: permutations of the program writes, the initial write
  // co-first. The cross product over locations yields all co candidates.
  std::vector<std::vector<std::vector<EventId>>> PerLocation;
  for (Location Loc = 0;
       Loc < static_cast<Location>(Skeleton.LocationNames.size()); ++Loc) {
    std::vector<EventId> Writes = Skeleton.writesTo(Loc);
    // Split off the initial write (present by construction).
    std::vector<EventId> Program;
    EventId Init = Writes.front();
    for (EventId W : Writes)
      if (!Skeleton.event(W).IsInit)
        Program.push_back(W);
      else
        Init = W;
    std::sort(Program.begin(), Program.end());
    std::vector<std::vector<EventId>> Orders;
    do {
      std::vector<EventId> Order;
      Order.push_back(Init);
      Order.insert(Order.end(), Program.begin(), Program.end());
      Orders.push_back(Order);
    } while (std::next_permutation(Program.begin(), Program.end()));
    PerLocation.push_back(std::move(Orders));
  }

  std::vector<Relation> Out;
  std::vector<size_t> Pick(PerLocation.size(), 0);
  while (true) {
    Relation Co(Skeleton.numEvents());
    for (size_t Loc = 0; Loc < PerLocation.size(); ++Loc) {
      const auto &Order = PerLocation[Loc][Pick[Loc]];
      for (size_t I = 0; I < Order.size(); ++I)
        for (size_t J = I + 1; J < Order.size(); ++J)
          Co.set(Order[I], Order[J]);
    }
    Out.push_back(std::move(Co));
    // Odometer step.
    size_t Loc = 0;
    for (; Loc < PerLocation.size(); ++Loc) {
      if (++Pick[Loc] < PerLocation[Loc].size())
        break;
      Pick[Loc] = 0;
    }
    if (Loc == PerLocation.size())
      break;
  }
  return Out;
}

unsigned long long CompiledTest::candidateCount() const {
  unsigned long long Count = 1;
  for (const auto &Writes : CandidateWritesPerRead)
    Count *= Writes.size();
  for (Location Loc = 0;
       Loc < static_cast<Location>(Skeleton.LocationNames.size()); ++Loc) {
    unsigned Program = 0;
    for (EventId W : Skeleton.writesTo(Loc))
      if (!Skeleton.event(W).IsInit)
        ++Program;
    unsigned long long Fact = 1;
    for (unsigned I = 2; I <= Program; ++I)
      Fact *= I;
    Count *= Fact;
  }
  return Count;
}

CompiledTest::RfConcretization
CompiledTest::concretizeRf(const std::vector<EventId> &WriteForRead) const {
  assert(WriteForRead.size() == ReadEvents.size() &&
         "rf choice arity mismatch");
  RfConcretization Out;
  unsigned N = Skeleton.numEvents();
  Out.EventVals.resize(N);
  for (EventId E = 0; E < N; ++E)
    Out.EventVals[E] = Skeleton.event(E).Val;
  // Dense read -> write map (-1 for non-reads).
  std::vector<int> RfOf(N, -1);
  for (size_t I = 0; I < ReadEvents.size(); ++I)
    RfOf[ReadEvents[I]] = static_cast<int>(WriteForRead[I]);

  // Value fixpoint: read values come from their rf write; write values are
  // recomputed from the register file. Iterate until stable (or give up:
  // an unstable value cycle, which we report as inconsistent). Only rf is
  // consulted — co never feeds a register value — which is what lets the
  // enumerator hoist this out of the coherence walk.
  Out.FinalRegs.resize(Source.numThreads());
  bool Changed = true;
  unsigned Rounds = 0;
  while (Changed && Rounds <= N + 2) {
    Changed = false;
    ++Rounds;
    for (ThreadId T = 0; T < static_cast<ThreadId>(Source.numThreads());
         ++T) {
      const ThreadCode &Code = Source.Threads[T];
      std::map<Register, Value> Regs;
      auto RegVal = [&](Register R) {
        auto It = Regs.find(R);
        return It == Regs.end() ? Value{0} : It->second;
      };
      auto OperandVal = [&](const Operand &O) {
        return O.isImm() ? O.asImm() : RegVal(O.asReg());
      };
      for (size_t I = 0; I < Code.size(); ++I) {
        const Instruction &Instr = Code[I];
        int MemEvent = EventForInstr[T][I];
        switch (Instr.Op) {
        case Opcode::Load: {
          EventId Read = static_cast<EventId>(MemEvent);
          Value V = Out.EventVals[RfOf[Read]];
          if (Out.EventVals[Read] != V) {
            Out.EventVals[Read] = V;
            Changed = true;
          }
          Regs[Instr.Dst] = V;
          break;
        }
        case Opcode::Store: {
          EventId Write = static_cast<EventId>(MemEvent);
          Value V = OperandVal(Instr.Src1);
          if (Out.EventVals[Write] != V) {
            Out.EventVals[Write] = V;
            Changed = true;
          }
          break;
        }
        case Opcode::Move:
          Regs[Instr.Dst] = OperandVal(Instr.Src1);
          break;
        case Opcode::Xor:
          Regs[Instr.Dst] =
              OperandVal(Instr.Src1) ^ OperandVal(Instr.Src2);
          break;
        case Opcode::Add:
          Regs[Instr.Dst] =
              OperandVal(Instr.Src1) + OperandVal(Instr.Src2);
          break;
        case Opcode::CmpBranch:
        case Opcode::Fence:
          break;
        }
      }
      Out.FinalRegs[T] = std::move(Regs);
    }
  }
  Out.Consistent = !Changed;
  return Out;
}

Candidate CompiledTest::concretize(const std::vector<EventId> &WriteForRead,
                                   const Relation &Co) const {
  Candidate Out;
  Out.Exe = Skeleton;
  Out.Exe.Co = Co;
  for (size_t I = 0; I < ReadEvents.size(); ++I)
    Out.Exe.Rf.set(WriteForRead[I], ReadEvents[I]);

  RfConcretization Values = concretizeRf(WriteForRead);
  for (EventId E = 0; E < Out.Exe.numEvents(); ++E)
    Out.Exe.event(E).Val = Values.EventVals[E];
  Out.Consistent = Values.Consistent;

  // Outcome: final registers plus the co-maximal write value per location.
  Out.Out.Regs = std::move(Values.FinalRegs);
  for (Location Loc = 0;
       Loc < static_cast<Location>(Out.Exe.LocationNames.size()); ++Loc) {
    std::vector<EventId> Writes = Out.Exe.writesTo(Loc);
    EventId Last = Writes.front();
    for (EventId W : Writes) {
      bool HasSuccessor = false;
      for (EventId Other : Writes)
        if (Other != W && Out.Exe.Co.test(W, Other))
          HasSuccessor = true;
      if (!HasSuccessor)
        Last = W;
    }
    Out.Out.Memory[Out.Exe.LocationNames[Loc]] = Out.Exe.event(Last).Val;
  }
  return Out;
}
