//===- CatAdapter.cpp - cat files behind the Model interface --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "cat/CatAdapter.h"

#include "support/StringUtils.h"

using namespace cats;

namespace {

/// FNV-1a over the model source; collisions only risk a stale cache hit
/// on a hash-colliding edit, which 64 bits makes negligible.
std::string sourceHash(const std::string &Text) {
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Text) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return strFormat("%016llx", static_cast<unsigned long long>(H));
}

/// The framework axiom a check label names, if any.
std::optional<Axiom> axiomOfCheck(const std::string &Label) {
  if (Label == "sc-per-location" || Label == "uniproc")
    return Axiom::ScPerLocation;
  if (Label == "no-thin-air" || Label == "thinair")
    return Axiom::NoThinAir;
  if (Label == "observation")
    return Axiom::Observation;
  if (Label == "propagation")
    return Axiom::Propagation;
  return std::nullopt;
}

} // namespace

CatAdapterModel::CatAdapterModel(cat::CatModel CatIn)
    : Cat(std::make_shared<const cat::CatModel>(std::move(CatIn))),
      SourceHash(sourceHash(Cat->source())) {
  for (const std::string &Label : Cat->checkNames())
    CheckAxioms.push_back(axiomOfCheck(Label));
  auto FirstDefined = [this](std::initializer_list<const char *> Names) {
    for (const char *Name : Names)
      if (Cat->defines(Name))
        return std::string(Name);
    return std::string();
  };
  PpoName = FirstDefined({"ppo"});
  FenceName = FirstDefined({"fence", "fences"});
  PropName = FirstDefined({"prop"});
}

Expected<CatAdapterModel> CatAdapterModel::fromSource(
    const std::string &Source, const std::string &Name) {
  auto Compiled = cat::CatModel::fromSource(Source, Name);
  if (!Compiled)
    return Expected<CatAdapterModel>::error(Compiled.message());
  return CatAdapterModel(Compiled.take());
}

Expected<CatAdapterModel> CatAdapterModel::fromFile(const std::string &Path) {
  auto Compiled = cat::CatModel::fromFile(Path);
  if (!Compiled)
    return Expected<CatAdapterModel>::error(Compiled.message());
  return CatAdapterModel(Compiled.take());
}

std::string CatAdapterModel::name() const { return Cat->name(); }

Relation CatAdapterModel::ppo(const Execution &Exe) const {
  if (PpoName.empty())
    return Exe.Po;
  return Cat->evaluate(PpoName, Exe).take();
}

Relation CatAdapterModel::fences(const Execution &Exe) const {
  if (FenceName.empty())
    return Relation(Exe.numEvents());
  return Cat->evaluate(FenceName, Exe).take();
}

Relation CatAdapterModel::prop(const Execution &Exe) const {
  if (PropName.empty())
    return Relation(Exe.numEvents());
  return Cat->evaluate(PropName, Exe).take();
}

Verdict CatAdapterModel::check(const Execution &Exe) const {
  Verdict Out;
  const std::vector<cat::CheckResult> Results = Cat->check(Exe);
  for (size_t I = 0; I < Results.size(); ++I) {
    if (Results[I].Holds)
      continue;
    // Forbidden; a check outside the four axioms names no Violated entry.
    Out.Allowed = false;
    if (const std::optional<Axiom> A = CheckAxioms[I]; A && !Out.violates(*A))
      Out.Violated.push_back(*A);
  }
  return Out;
}

std::string CatAdapterModel::definitionFingerprint() const {
  return "cat:" + name() + ":" + SourceHash;
}
