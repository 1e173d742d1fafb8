//===- LitmusTest.cpp - Litmus tests and final conditions -----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/LitmusTest.h"

#include "event/Execution.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <set>

using namespace cats;

std::string Instruction::toString() const {
  switch (Op) {
  case Opcode::Load:
    if (AddrDep >= 0)
      return strFormat("ld r%d, %s[r%d]", Dst, Loc.c_str(), AddrDep);
    return strFormat("ld r%d, %s", Dst, Loc.c_str());
  case Opcode::Store: {
    std::string Target =
        AddrDep >= 0 ? strFormat("%s[r%d]", Loc.c_str(), AddrDep) : Loc;
    if (Src1.isImm())
      return strFormat("st %s, #%lld", Target.c_str(),
                       static_cast<long long>(Src1.asImm()));
    return strFormat("st %s, r%d", Target.c_str(), Src1.asReg());
  }
  case Opcode::Move:
    if (Src1.isImm())
      return strFormat("mov r%d, #%lld", Dst,
                       static_cast<long long>(Src1.asImm()));
    return strFormat("mov r%d, r%d", Dst, Src1.asReg());
  case Opcode::Xor:
    return strFormat("xor r%d, r%d, r%d", Dst, Src1.asReg(), Src2.asReg());
  case Opcode::Add:
    return strFormat("add r%d, r%d, r%d", Dst, Src1.asReg(), Src2.asReg());
  case Opcode::CmpBranch:
    return strFormat("beq r%d", Src1.asReg());
  case Opcode::Fence:
    return FenceName;
  }
  return "<bad instruction>";
}

bool cats::parseArch(const std::string &Name, Arch &Out) {
  // Case-insensitive: litmus headers write "Power"/"PPC", the CLIs take
  // "power".
  std::string Lower;
  for (char C : Name)
    Lower += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  if (Lower == "sc") {
    Out = Arch::SC;
    return true;
  }
  if (Lower == "tso" || Lower == "x86") {
    Out = Arch::TSO;
    return true;
  }
  if (Lower == "power" || Lower == "ppc") {
    Out = Arch::Power;
    return true;
  }
  if (Lower == "arm") {
    Out = Arch::ARM;
    return true;
  }
  if (Lower == "c++ra" || Lower == "cppra" || Lower == "ra") {
    Out = Arch::CppRA;
    return true;
  }
  return false;
}

std::string cats::archName(Arch A) {
  switch (A) {
  case Arch::SC:
    return "SC";
  case Arch::TSO:
    return "TSO";
  case Arch::Power:
    return "Power";
  case Arch::ARM:
    return "ARM";
  case Arch::CppRA:
    return "C++RA";
  }
  return "?";
}

bool cats::archHasFence(Arch A, const std::string &FenceName) {
  switch (A) {
  case Arch::SC:
  case Arch::CppRA:
    return false;
  case Arch::TSO:
    return FenceName == fence::MFence;
  case Arch::Power:
    return FenceName == fence::Sync || FenceName == fence::LwSync ||
           FenceName == fence::Eieio || FenceName == fence::ISync;
  case Arch::ARM:
    return FenceName == fence::Dmb || FenceName == fence::Dsb ||
           FenceName == fence::DmbSt || FenceName == fence::DsbSt ||
           FenceName == fence::Isb;
  }
  return false;
}

const char *cats::archControlFence(Arch A) {
  return A == Arch::ARM ? fence::Isb : fence::ISync;
}

std::string ConditionAtom::toString() const {
  if (AtomKind == Kind::RegEquals)
    return strFormat("%d:r%d=%lld", Thread, Reg,
                     static_cast<long long>(Val));
  return strFormat("%s=%lld", Loc.c_str(), static_cast<long long>(Val));
}

std::string Condition::toString() const {
  if (trivial())
    return "exists (true)";
  std::vector<std::string> DisjunctStrings;
  for (const auto &Conj : Disjuncts) {
    std::vector<std::string> AtomStrings;
    for (const auto &Atom : Conj)
      AtomStrings.push_back(Atom.toString());
    DisjunctStrings.push_back(joinStrings(AtomStrings, " /\\ "));
  }
  return "exists (" + joinStrings(DisjunctStrings, " \\/ ") + ")";
}

Value Outcome::reg(ThreadId T, Register R) const {
  if (T < 0 || static_cast<size_t>(T) >= Regs.size())
    return 0;
  auto It = Regs[T].find(R);
  return It == Regs[T].end() ? 0 : It->second;
}

Value Outcome::mem(const std::string &Loc) const {
  auto It = Memory.find(Loc);
  return It == Memory.end() ? 0 : It->second;
}

bool Outcome::satisfies(const Condition &Cond) const {
  if (Cond.trivial())
    return true;
  for (const auto &Conj : Cond.Disjuncts) {
    bool All = true;
    for (const auto &Atom : Conj) {
      Value Actual = Atom.AtomKind == ConditionAtom::Kind::RegEquals
                         ? reg(Atom.Thread, Atom.Reg)
                         : mem(Atom.Loc);
      if (Actual != Atom.Val) {
        All = false;
        break;
      }
    }
    if (All)
      return true;
  }
  return false;
}

namespace {

void appendInt(std::string &Out, long long V) {
  char Buf[24];
  char *End = Buf + sizeof(Buf);
  char *P = End;
  const bool Neg = V < 0;
  unsigned long long U =
      Neg ? ~static_cast<unsigned long long>(V) + 1 : static_cast<unsigned long long>(V);
  do {
    *--P = static_cast<char>('0' + U % 10);
    U /= 10;
  } while (U);
  if (Neg)
    *--P = '-';
  Out.append(P, End);
}

/// Parses the whole of \p Text as a signed decimal value.
bool parseValue(const std::string &Text, long long &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoll(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

} // namespace

// Hot path: both backends build a key for every outcome they intern, so
// this formats digits directly instead of going through strFormat's
// double vsnprintf.
std::string Outcome::key() const {
  std::string Out;
  Out.reserve(64);
  for (size_t T = 0; T < Regs.size(); ++T)
    for (const auto &[R, V] : Regs[T]) {
      appendInt(Out, static_cast<long long>(T));
      Out += ":r";
      appendInt(Out, R);
      Out += '=';
      appendInt(Out, V);
      Out += ';';
    }
  for (const auto &[Loc, V] : Memory) {
    Out += Loc;
    Out += '=';
    appendInt(Out, V);
    Out += ';';
  }
  return Out;
}

Expected<Outcome> cats::outcomeFromKey(const std::string &Key) {
  auto Bad = [&](const char *Why) {
    return Expected<Outcome>::error(
        strFormat("bad outcome key '%s': %s", Key.c_str(), Why));
  };
  Outcome Out;
  size_t Pos = 0;
  while (Pos < Key.size()) {
    const size_t End = Key.find(';', Pos);
    if (End == std::string::npos)
      return Bad("field without trailing ';'");
    const std::string Field = Key.substr(Pos, End - Pos);
    Pos = End + 1;
    const size_t Eq = Field.rfind('=');
    if (Eq == std::string::npos || Eq == 0)
      return Bad("field without '='");
    long long Val = 0;
    if (!parseValue(Field.substr(Eq + 1), Val))
      return Bad("unparsable value");
    const std::string Left = Field.substr(0, Eq);
    // "T:rR" is a register field; anything else is a memory location
    // (litmus location names cannot contain ':').
    const size_t Colon = Left.find(':');
    if (Colon != std::string::npos) {
      long long Thread = 0, Reg = 0;
      if (!parseValue(Left.substr(0, Colon), Thread) || Thread < 0 ||
          Colon + 1 >= Left.size() || Left[Colon + 1] != 'r' ||
          !parseValue(Left.substr(Colon + 2), Reg))
        return Bad("malformed register field");
      if (Out.Regs.size() <= static_cast<size_t>(Thread))
        Out.Regs.resize(static_cast<size_t>(Thread) + 1);
      Out.Regs[static_cast<size_t>(Thread)][static_cast<Register>(Reg)] =
          static_cast<Value>(Val);
    } else {
      Out.Memory[Left] = static_cast<Value>(Val);
    }
  }
  return Out;
}

std::vector<std::string> LitmusTest::locations() const {
  std::vector<std::string> Out;
  std::set<std::string> Seen;
  auto Note = [&](const std::string &Loc) {
    if (!Loc.empty() && Seen.insert(Loc).second)
      Out.push_back(Loc);
  };
  for (const auto &Thread : Threads)
    for (const auto &Instr : Thread)
      Note(Instr.Loc);
  for (const auto &[Loc, _] : Init)
    Note(Loc);
  for (const auto &Conj : Final.Disjuncts)
    for (const auto &Atom : Conj)
      if (Atom.AtomKind == ConditionAtom::Kind::MemEquals)
        Note(Atom.Loc);
  return Out;
}

std::string LitmusTest::validate() const {
  for (size_t T = 0; T < Threads.size(); ++T) {
    for (size_t I = 0; I < Threads[T].size(); ++I) {
      const Instruction &Instr = Threads[T][I];
      auto Where = [&](const char *Problem) {
        return strFormat("P%zu instruction %zu (%s): %s", T, I,
                         Instr.toString().c_str(), Problem);
      };
      switch (Instr.Op) {
      case Opcode::Load:
        if (Instr.Dst < 0)
          return Where("load needs a destination register");
        if (Instr.Loc.empty())
          return Where("load needs a location");
        break;
      case Opcode::Store:
        if (Instr.Loc.empty())
          return Where("store needs a location");
        if (Instr.Src1.OpKind == Operand::Kind::None)
          return Where("store needs a source operand");
        break;
      case Opcode::Move:
        if (Instr.Dst < 0 || Instr.Src1.OpKind == Operand::Kind::None)
          return Where("mov needs a destination and a source");
        break;
      case Opcode::Xor:
      case Opcode::Add:
        if (Instr.Dst < 0 || !Instr.Src1.isReg() || !Instr.Src2.isReg())
          return Where("alu op needs a destination and two registers");
        break;
      case Opcode::CmpBranch:
        if (!Instr.Src1.isReg())
          return Where("branch needs a register");
        break;
      case Opcode::Fence:
        if (!archHasFence(TargetArch, Instr.FenceName) &&
            !Instr.isControlFence())
          return Where(strFormat("fence '%s' is not available on %s",
                                 Instr.FenceName.c_str(),
                                 archName(TargetArch).c_str())
                           .c_str());
        if (Instr.isControlFence() && !archHasFence(TargetArch,
                                                    Instr.FenceName))
          return Where(strFormat("control fence '%s' is not available on %s",
                                 Instr.FenceName.c_str(),
                                 archName(TargetArch).c_str())
                           .c_str());
        break;
      }
    }
  }
  return "";
}

std::string LitmusTest::toString() const {
  std::string Out = archName(TargetArch) + " " + Name + "\n{ ";
  bool First = true;
  for (const auto &[Loc, V] : Init) {
    if (!First)
      Out += "; ";
    First = false;
    Out += strFormat("%s=%lld", Loc.c_str(), static_cast<long long>(V));
  }
  Out += " }\n";
  for (size_t T = 0; T < Threads.size(); ++T) {
    Out += strFormat("P%zu:\n", T);
    for (const auto &Instr : Threads[T])
      Out += "  " + Instr.toString() + "\n";
  }
  Out += Final.toString() + "\n";
  return Out;
}
