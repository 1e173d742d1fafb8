//===- Mine.cpp - Corpus data-mining over sweep results -------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "mole/Mine.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <set>

using namespace cats;

namespace {

/// True when \p Token names an ordering mechanism (or a detour qualifier)
/// in any of the suffix spellings the corpus uses: diy's canonical
/// singular forms, the catalogue's plural shorthands ("+lwsyncs"), and
/// the hyphenated detour chains ("fri-rfi-ctrlisb", "addr-po-detour").
bool isMechToken(const std::string &Token) {
  static const std::set<std::string> Vocab = {
      "po",        "pos",       "addr",    "addrs",   "data",
      "datas",     "ctrl",      "ctrls",   "ctrlisync", "ctrlisyncs",
      "ctrlisb",   "ctrlisbs",  "sync",    "syncs",   "lwsync",
      "lwsyncs",   "eieio",     "eieios",  "dmb",     "dmbs",
      "dmb.st",    "dsb",       "dsb.st",  "isync",   "isb",
      "mfence",    "mfences",   "fri",     "rfi",     "wsi",
      "detour",    "bigdetour", "bis"};
  if (Token.empty())
    return false;
  for (const std::string &Piece : splitString(Token, '-'))
    if (!Vocab.count(Piece))
      return false;
  return true;
}

} // namespace

std::string cats::cycleFamilyOf(const std::string &TestName) {
  std::vector<std::string> Tokens = splitString(TestName, '+');
  size_t Keep = Tokens.size();
  while (Keep > 1 && isMechToken(Tokens[Keep - 1]))
    --Keep;
  Tokens.resize(Keep);
  return joinStrings(Tokens, "+");
}

const FamilyModelStats *
FamilyVerdicts::forModel(const std::string &Name) const {
  for (const FamilyModelStats &S : PerModel)
    if (S.Model == Name)
      return &S;
  return nullptr;
}

bool FamilyVerdicts::observedOn(const std::string &Model) const {
  const FamilyModelStats *S = forModel(Model);
  return S && S->Allowed > 0;
}

bool FamilyVerdicts::forbiddenUnder(const std::string &Model) const {
  const FamilyModelStats *S = forModel(Model);
  return S && S->Allowed == 0 && S->Forbidden > 0;
}

const FamilyVerdicts *MineReport::family(const std::string &Name) const {
  for (const FamilyVerdicts &F : Families)
    if (F.Family == Name)
      return &F;
  return nullptr;
}

MineReport cats::mineSweepReport(const SweepReport &Report) {
  MineReport Out;
  std::map<std::string, FamilyVerdicts> ByFamily;
  for (const SweepTestResult &T : Report.Tests) {
    ++Out.CorpusTests;
    if (!T.Error.empty()) {
      ++Out.CorpusErrors;
      continue;
    }
    // The model list: first successful job defines it (every job of one
    // campaign judges the same set).
    if (Out.Models.empty())
      for (const SimulationResult &R : T.Result.PerModel)
        Out.Models.push_back(R.ModelName);

    const std::string Family = cycleFamilyOf(T.TestName);
    FamilyVerdicts &F = ByFamily[Family];
    if (F.Family.empty()) {
      F.Family = Family;
      for (const std::string &Model : Out.Models)
        F.PerModel.push_back(FamilyModelStats{Model, 0, 0});
    }
    ++F.Tests;
    F.TestNames.push_back(T.TestName);
    for (const SimulationResult &R : T.Result.PerModel) {
      for (FamilyModelStats &S : F.PerModel)
        if (S.Model == R.ModelName) {
          if (R.ConditionReachable)
            ++S.Allowed;
          else
            ++S.Forbidden;
          break;
        }
    }
  }
  for (auto &[Name, F] : ByFamily)
    Out.Families.push_back(std::move(F));
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON rendering (cats-mine-report/1, see docs/mining.md)
//===----------------------------------------------------------------------===//

namespace {

JsonValue familyToJson(const FamilyVerdicts &F) {
  JsonValue Entry = JsonValue::object();
  Entry.set("family", F.Family);
  Entry.set("tests", F.Tests);
  JsonValue Models = JsonValue::array();
  JsonValue ObservedOn = JsonValue::array();
  JsonValue ForbiddenUnder = JsonValue::array();
  for (const FamilyModelStats &S : F.PerModel) {
    JsonValue M = JsonValue::object();
    M.set("model", S.Model);
    M.set("allowed", S.Allowed);
    M.set("forbidden", S.Forbidden);
    Models.push(std::move(M));
    if (S.Allowed > 0)
      ObservedOn.push(S.Model);
    else if (S.Forbidden > 0)
      ForbiddenUnder.push(S.Model);
  }
  Entry.set("models", std::move(Models));
  Entry.set("observed_on", std::move(ObservedOn));
  Entry.set("forbidden_under", std::move(ForbiddenUnder));
  if (F.HasEmpirical) {
    JsonValue Empirical = JsonValue::object();
    Empirical.set("tests", F.Empirical.Tests);
    Empirical.set("observed", F.Empirical.Observed);
    Empirical.set("iterations", F.Empirical.Iterations);
    Empirical.set("outside_model", F.Empirical.OutsideModel);
    Entry.set("empirical", std::move(Empirical));
  }
  JsonValue Names = JsonValue::array();
  for (const std::string &Name : F.TestNames)
    Names.push(Name);
  Entry.set("test_names", std::move(Names));
  return Entry;
}

JsonValue staticToJson(const MoleReport &R, const MineReport &Mine) {
  JsonValue Entry = JsonValue::object();
  Entry.set("program", R.ProgramName);
  JsonValue Groups = JsonValue::array();
  for (const auto &Group : R.Groups) {
    JsonValue G = JsonValue::array();
    for (const std::string &Name : Group)
      G.push(Name);
    Groups.push(std::move(G));
  }
  Entry.set("groups", std::move(Groups));
  Entry.set("cycles", static_cast<unsigned>(R.Cycles.size()));

  JsonValue Patterns = JsonValue::array();
  for (const auto &[Pattern, Count] : R.patternCounts()) {
    JsonValue P = JsonValue::object();
    P.set("pattern", Pattern);
    P.set("count", Count);
    // Cross-reference: what did the swept corpus say about this family?
    if (const FamilyVerdicts *F = Mine.family(Pattern)) {
      JsonValue ObservedOn = JsonValue::array();
      JsonValue ForbiddenUnder = JsonValue::array();
      for (const FamilyModelStats &S : F->PerModel) {
        if (S.Allowed > 0)
          ObservedOn.push(S.Model);
        else if (S.Forbidden > 0)
          ForbiddenUnder.push(S.Model);
      }
      P.set("corpus_tests", F->Tests);
      P.set("observed_on", std::move(ObservedOn));
      P.set("forbidden_under", std::move(ForbiddenUnder));
    }
    Patterns.push(std::move(P));
  }
  Entry.set("patterns", std::move(Patterns));

  JsonValue Axioms = JsonValue::object();
  for (const auto &[Class, Count] : R.axiomCounts())
    Axioms.set(Class, Count);
  Entry.set("axiom_counts", std::move(Axioms));
  return Entry;
}

} // namespace

//===----------------------------------------------------------------------===//
// Reader and shard merge
//===----------------------------------------------------------------------===//

namespace {

std::string jsonString(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

Expected<FamilyVerdicts> familyFromJson(const JsonValue &Entry) {
  using Ret = Expected<FamilyVerdicts>;
  if (!Entry.isObject())
    return Ret::error("family entry is not an object");
  FamilyVerdicts F;
  F.Family = jsonString(Entry, "family");
  if (F.Family.empty())
    return Ret::error("family entry without a name");
  std::string Bad;
  if (!readCount(Entry, "tests", F.Tests, Bad))
    return Ret::error(F.Family + ": " + Bad);
  const JsonValue *Models = Entry.get("models");
  if (!Models || !Models->isArray())
    return Ret::error(F.Family + ": family without a 'models' array");
  for (const JsonValue &M : Models->elements()) {
    if (!M.isObject())
      return Ret::error(F.Family + ": model entry is not an object");
    FamilyModelStats S;
    S.Model = jsonString(M, "model");
    if (S.Model.empty())
      return Ret::error(F.Family + ": model entry without a name");
    if (!readCount(M, "allowed", S.Allowed, Bad) ||
        !readCount(M, "forbidden", S.Forbidden, Bad))
      return Ret::error(F.Family + ": " + Bad);
    F.PerModel.push_back(std::move(S));
  }
  if (const JsonValue *Empirical = Entry.get("empirical")) {
    if (!Empirical->isObject())
      return Ret::error(F.Family + ": 'empirical' is not an object");
    F.HasEmpirical = true;
    if (!readCount(*Empirical, "tests", F.Empirical.Tests, Bad) ||
        !readCount(*Empirical, "observed", F.Empirical.Observed, Bad) ||
        !readCount(*Empirical, "iterations", F.Empirical.Iterations, Bad) ||
        !readCount(*Empirical, "outside_model", F.Empirical.OutsideModel,
                   Bad))
      return Ret::error(F.Family + ": empirical: " + Bad);
  }
  if (const JsonValue *Names = Entry.get("test_names")) {
    if (!Names->isArray())
      return Ret::error(F.Family + ": 'test_names' is not an array");
    for (const JsonValue &Name : Names->elements())
      if (Name.isString())
        F.TestNames.push_back(Name.asString());
  }
  return F;
}

} // namespace

Expected<MineReport> cats::mineReportFromJson(const JsonValue &Root) {
  using Ret = Expected<MineReport>;
  if (!Root.isObject())
    return Ret::error("report is not a JSON object");
  if (jsonString(Root, "schema") != "cats-mine-report/1")
    return Ret::error("not a cats-mine-report/1 document");
  const JsonValue *Static = Root.get("static");
  if (Static && Static->isArray() && !Static->elements().empty())
    return Ret::error(
        "report carries static mole analyses, which cannot be merged "
        "shard-wise; re-run cats_mine --mole over the merged corpus");
  const JsonValue *Corpus = Root.get("corpus");
  if (!Corpus || !Corpus->isObject())
    return Ret::error("report without a 'corpus' object");

  MineReport Out;
  std::string Bad;
  if (!readCount(*Corpus, "tests", Out.CorpusTests, Bad) ||
      !readCount(*Corpus, "errors", Out.CorpusErrors, Bad))
    return Ret::error("corpus: " + Bad);
  if (const JsonValue *Models = Corpus->get("models")) {
    if (!Models->isArray())
      return Ret::error("'models' is not an array");
    for (const JsonValue &M : Models->elements())
      if (M.isString())
        Out.Models.push_back(M.asString());
  }
  Out.EmpiricalModel = jsonString(*Corpus, "empirical_model");
  Out.EmpiricalHost = jsonString(*Corpus, "empirical_host");
  Out.HasEmpirical = !Out.EmpiricalModel.empty();
  if (const JsonValue *Families = Corpus->get("families")) {
    if (!Families->isArray())
      return Ret::error("'families' is not an array");
    for (const JsonValue &Entry : Families->elements()) {
      auto F = familyFromJson(Entry);
      if (!F)
        return Ret::error(F.message());
      Out.Families.push_back(F.take());
    }
  }
  return Out;
}

Expected<MineReport>
cats::mergeMineReports(const std::vector<MineReport> &Parts) {
  using Ret = Expected<MineReport>;
  if (Parts.empty())
    return Ret::error("nothing to merge");

  MineReport Out;
  std::map<std::string, FamilyVerdicts> ByFamily;
  for (const MineReport &Part : Parts) {
    Out.CorpusTests += Part.CorpusTests;
    Out.CorpusErrors += Part.CorpusErrors;
    // A shard whose every test errored has no model list; any shard that
    // judged at least one test pins it, and the rest must agree.
    if (!Part.Models.empty()) {
      if (Out.Models.empty())
        Out.Models = Part.Models;
      else if (Out.Models != Part.Models)
        return Ret::error(
            "model lists differ across reports ('" +
            joinStrings(Out.Models, ",") + "' vs '" +
            joinStrings(Part.Models, ",") + "'); shards of one campaign "
            "must sweep the same models in the same order");
    }
    if (Part.HasEmpirical) {
      if (!Out.HasEmpirical) {
        Out.HasEmpirical = true;
        Out.EmpiricalModel = Part.EmpiricalModel;
        Out.EmpiricalHost = Part.EmpiricalHost;
      } else if (Out.EmpiricalModel != Part.EmpiricalModel ||
                 Out.EmpiricalHost != Part.EmpiricalHost) {
        return Ret::error("empirical columns were judged against different "
                          "references ('" + Out.EmpiricalModel + "' on '" +
                          Out.EmpiricalHost + "' vs '" + Part.EmpiricalModel +
                          "' on '" + Part.EmpiricalHost + "')");
      }
    }

    for (const FamilyVerdicts &F : Part.Families) {
      FamilyVerdicts &Merged = ByFamily[F.Family];
      if (Merged.Family.empty()) {
        Merged.Family = F.Family;
        Merged.PerModel = F.PerModel;
        for (FamilyModelStats &S : Merged.PerModel)
          S.Allowed = S.Forbidden = 0;
      }
      Merged.Tests += F.Tests;
      for (const FamilyModelStats &S : F.PerModel) {
        bool Found = false;
        for (FamilyModelStats &M : Merged.PerModel)
          if (M.Model == S.Model) {
            M.Allowed += S.Allowed;
            M.Forbidden += S.Forbidden;
            Found = true;
            break;
          }
        if (!Found)
          return Ret::error(F.Family + ": model '" + S.Model +
                            "' appears in only some shards");
      }
      Merged.TestNames.insert(Merged.TestNames.end(), F.TestNames.begin(),
                              F.TestNames.end());
      if (F.HasEmpirical) {
        Merged.HasEmpirical = true;
        Merged.Empirical.Tests += F.Empirical.Tests;
        Merged.Empirical.Observed += F.Empirical.Observed;
        Merged.Empirical.Iterations += F.Empirical.Iterations;
        Merged.Empirical.OutsideModel += F.Empirical.OutsideModel;
      }
    }
  }
  for (auto &[Name, F] : ByFamily) {
    std::sort(F.TestNames.begin(), F.TestNames.end());
    Out.Families.push_back(std::move(F));
  }
  return Out;
}

JsonValue cats::mineReportToJson(const MineReport &Report) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-mine-report/1");

  JsonValue Corpus = JsonValue::object();
  Corpus.set("tests", Report.CorpusTests);
  Corpus.set("errors", Report.CorpusErrors);
  JsonValue Models = JsonValue::array();
  for (const std::string &Model : Report.Models)
    Models.push(Model);
  Corpus.set("models", std::move(Models));
  if (Report.HasEmpirical) {
    Corpus.set("empirical_model", Report.EmpiricalModel);
    Corpus.set("empirical_host", Report.EmpiricalHost);
  }
  JsonValue Families = JsonValue::array();
  for (const FamilyVerdicts &F : Report.Families)
    Families.push(familyToJson(F));
  Corpus.set("families", std::move(Families));
  Root.set("corpus", std::move(Corpus));

  JsonValue Static = JsonValue::array();
  for (const MoleReport &R : Report.StaticReports)
    Static.push(staticToJson(R, Report));
  Root.set("static", std::move(Static));
  return Root;
}
