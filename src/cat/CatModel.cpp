//===- CatModel.cpp - Evaluating cat models over executions ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "cat/CatModel.h"

#include "cat/CatParser.h"
#include "support/StringUtils.h"

#include <fstream>
#include <iterator>
#include <sstream>

using namespace cats;
using namespace cats::cat;

namespace {

/// A builtin relation: its cat name and how to derive it from an
/// execution. A fence has no getter; it is the fence relation of its name.
struct Builtin {
  const char *Name;
  Relation (*Get)(const Execution &Exe) = nullptr;
};

/// The builtin vocabulary, the one list of it: slot I holds Builtins[I].
/// The paper's ctrl+isync is spelled ctrlisync (ctrlisb on ARM) because
/// '+' is the closure operator here.
const Builtin Builtins[] = {
    {"po", [](const Execution &E) { return E.Po; }},
    {"po-loc", [](const Execution &E) { return E.poLoc(); }},
    {"rf", [](const Execution &E) { return E.Rf; }},
    {"rfe", [](const Execution &E) { return E.rfe(); }},
    {"rfi", [](const Execution &E) { return E.rfi(); }},
    {"co", [](const Execution &E) { return E.Co; }},
    {"coe", [](const Execution &E) { return E.coe(); }},
    {"coi", [](const Execution &E) { return E.coi(); }},
    {"fr", [](const Execution &E) { return E.fr(); }},
    {"fre", [](const Execution &E) { return E.fre(); }},
    {"fri", [](const Execution &E) { return E.fri(); }},
    {"com", [](const Execution &E) { return E.com(); }},
    {"addr", [](const Execution &E) { return E.Addr; }},
    {"data", [](const Execution &E) { return E.Data; }},
    {"ctrl", [](const Execution &E) { return E.Ctrl; }},
    {"ctrlisync", [](const Execution &E) { return E.CtrlCfence; }},
    {"ctrlisb", [](const Execution &E) { return E.CtrlCfence; }},
    {"id",
     [](const Execution &E) { return Relation::identity(E.numEvents()); }},
    {fence::Sync}, {fence::LwSync}, {fence::Eieio}, {fence::Dmb},
    {fence::Dsb}, {fence::DmbSt}, {fence::DsbSt}, {fence::MFence},
};
constexpr unsigned NumBuiltins = std::size(Builtins);
static_assert(NumBuiltins <= 64, "Env::Filled is one word");

Relation builtinValue(const Execution &Exe, unsigned Slot) {
  const Builtin &B = Builtins[Slot];
  return B.Get ? B.Get(Exe) : Exe.fenceRelation(B.Name);
}

/// One run's values, one per slot. A builtin slot is filled on first use
/// and marked in Filled; a binding's slot when its statement runs.
struct Env {
  const Execution &Exe;
  std::vector<Relation> Values;
  uint64_t Filled = 0;

  const Relation &at(unsigned Slot) {
    if (Slot < NumBuiltins && !(Filled >> Slot & 1)) {
      Values[Slot] = builtinValue(Exe, Slot);
      Filled |= uint64_t{1} << Slot;
    }
    return Values[Slot];
  }

  /// Endpoint set by direction letter.
  EventSet dirSet(char Dir) const {
    switch (Dir) {
    case 'R':
      return Exe.reads();
    case 'W':
      return Exe.writes();
    default:
      return EventSet::all(Exe.numEvents());
    }
  }
};

Relation evalExpr(const Expr &E, Env &Environment) {
  switch (E.Kind) {
  case ExprKind::Name:
    return Environment.at(E.Slot);
  case ExprKind::Empty:
    return Relation(Environment.Exe.numEvents());
  case ExprKind::Union:
    return evalExpr(*E.Lhs, Environment) | evalExpr(*E.Rhs, Environment);
  case ExprKind::Inter:
    return evalExpr(*E.Lhs, Environment) & evalExpr(*E.Rhs, Environment);
  case ExprKind::Diff:
    return evalExpr(*E.Lhs, Environment) - evalExpr(*E.Rhs, Environment);
  case ExprKind::Seq:
    return evalExpr(*E.Lhs, Environment)
        .compose(evalExpr(*E.Rhs, Environment));
  case ExprKind::Plus:
    return evalExpr(*E.Lhs, Environment).transitiveClosure();
  case ExprKind::Star:
    return evalExpr(*E.Lhs, Environment).reflexiveTransitiveClosure();
  case ExprKind::Inverse:
    return evalExpr(*E.Lhs, Environment).inverse();
  case ExprKind::DirFilter:
    assert(E.Ident.size() == 2 && "direction filter arity");
    return evalExpr(*E.Lhs, Environment)
        .restrict(Environment.dirSet(E.Ident[0]),
                  Environment.dirSet(E.Ident[1]));
  }
  return Relation(Environment.Exe.numEvents());
}

/// Binds every Name in \p E to its slot in \p Scope; fails on the first
/// unknown name, left to right.
Status bindNames(Expr &E, const std::map<std::string, unsigned> &Scope,
                 const std::string &Model) {
  if (E.Kind == ExprKind::Name) {
    auto It = Scope.find(E.Ident);
    if (It == Scope.end())
      return Status::error(
          strFormat("cat model %s: unknown relation '%s' at line %u",
                    Model.c_str(), E.Ident.c_str(), E.Line));
    E.Slot = It->second;
  }
  for (Expr *Child : {E.Lhs.get(), E.Rhs.get()})
    if (Child)
      if (Status St = bindNames(*Child, Scope, Model); St.failed())
        return St;
  return Status::success();
}

} // namespace

Status CatModel::resolve() {
  for (unsigned I = 0; I < NumBuiltins; ++I)
    Scope[Builtins[I].Name] = I;
  NumSlots = NumBuiltins;
  // A let rec group binds its members before its bodies resolve; a plain
  // let group after, so its bodies all see the outer scope.
  auto BindGroup = [this](Stmt &S) {
    for (Binding &B : S.Bindings)
      Scope[B.Name] = B.Slot = NumSlots++;
  };
  for (Stmt &S : File.Statements) {
    if (S.Kind == StmtKind::LetRec)
      BindGroup(S);
    for (Binding &B : S.Bindings)
      if (Status St = bindNames(*B.Body, Scope, File.Name); St.failed())
        return St;
    if (S.Kind == StmtKind::Let)
      BindGroup(S);
    if (S.Check) {
      if (Status St = bindNames(*S.Check, Scope, File.Name); St.failed())
        return St;
      CheckNames.push_back(S.CheckName.empty() ? S.Check->toString()
                                               : S.CheckName);
    }
  }
  return Status::success();
}

Expected<CatModel> CatModel::fromSource(const std::string &Source,
                                        const std::string &Name) {
  auto File = parseCat(Source, Name);
  if (!File)
    return Expected<CatModel>::error(File.message());
  CatModel Model(File.take());
  Model.Source = Source;
  if (Status St = Model.resolve(); St.failed())
    return Expected<CatModel>::error(St.message());
  return Model;
}

Expected<CatModel> CatModel::fromFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    return Expected<CatModel>::error("cannot open cat file " + Path);
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  // Derive a display name from the file stem.
  std::string Name = Path.substr(Path.find_last_of('/') + 1);
  if (endsWith(Name, ".cat"))
    Name.resize(Name.size() - 4);
  return fromSource(Buffer.str(), Name);
}

Expected<CatModel> CatModel::builtin(const std::string &Stem) {
  return fromFile(std::string(CATS_MODELS_DIR) + "/" + Stem + ".cat");
}

std::vector<Relation> CatModel::run(const Execution &Exe,
                                    std::vector<CheckResult> *Checks) const {
  Env Environment{Exe, std::vector<Relation>(NumSlots)};
  size_t CheckIdx = 0;
  for (const Stmt &S : File.Statements) {
    switch (S.Kind) {
    case StmtKind::Let:
      for (const Binding &B : S.Bindings)
        Environment.Values[B.Slot] = evalExpr(*B.Body, Environment);
      break;
    case StmtKind::LetRec: {
      // Least fixpoint: start the whole group at empty and iterate.
      for (const Binding &B : S.Bindings)
        Environment.Values[B.Slot] = Relation(Exe.numEvents());
      for (bool Changed = true; Changed;) {
        Changed = false;
        for (const Binding &B : S.Bindings) {
          Relation NewValue = evalExpr(*B.Body, Environment);
          if (Environment.Values[B.Slot] != NewValue) {
            Environment.Values[B.Slot] = std::move(NewValue);
            Changed = true;
          }
        }
      }
      break;
    }
    case StmtKind::Acyclic:
    case StmtKind::Irreflexive:
    case StmtKind::Empty: {
      if (!Checks)
        break;
      Relation R = evalExpr(*S.Check, Environment);
      bool Holds = S.Kind == StmtKind::Acyclic       ? R.isAcyclic()
                   : S.Kind == StmtKind::Irreflexive ? R.isIrreflexive()
                                                     : R.empty();
      Checks->push_back({CheckNames[CheckIdx++], Holds});
      break;
    }
    }
  }
  return std::move(Environment.Values);
}

std::vector<CheckResult> CatModel::check(const Execution &Exe) const {
  std::vector<CheckResult> Results;
  Results.reserve(CheckNames.size());
  run(Exe, &Results);
  return Results;
}

bool CatModel::allows(const Execution &Exe) const {
  for (const CheckResult &Result : check(Exe))
    if (!Result.Holds)
      return false;
  return true;
}

Expected<Relation> CatModel::evaluate(const std::string &RelName,
                                      const Execution &Exe) const {
  auto It = Scope.find(RelName);
  if (It == Scope.end())
    return Expected<Relation>::error("unknown relation " + RelName);
  if (It->second < NumBuiltins)
    return builtinValue(Exe, It->second);
  return std::move(run(Exe, nullptr)[It->second]);
}

bool CatModel::defines(const std::string &RelName) const {
  auto It = Scope.find(RelName);
  return It != Scope.end() && It->second >= NumBuiltins;
}
