//===- ReportIO.cpp - cats-sweep-report/1 (de)serialization ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/ReportIO.h"

#include "obs/Witness.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <vector>

using namespace cats;

//===----------------------------------------------------------------------===//
// Outcome keys
//===----------------------------------------------------------------------===//

namespace {

/// Parses the whole of \p Text as a signed decimal value.
bool parseValue(const std::string &Text, long long &Out) {
  if (Text.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoll(Text.c_str(), &End, 10);
  return End && *End == '\0';
}

} // namespace

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
  Out.enableKeyCache();
  return Out;
}

//===----------------------------------------------------------------------===//
// Writer (cats-sweep-report/1, see docs/report-schemas.md)
//===----------------------------------------------------------------------===//

JsonValue cats::sweepTestResultToJson(const SweepTestResult &T) {
  JsonValue Entry = JsonValue::object();
  Entry.set("name", T.TestName);
  Entry.set("wall_seconds", T.WallSeconds);
  if (!T.Error.empty()) {
    Entry.set("error", T.Error);
    return Entry;
  }
  Entry.set("candidates_total", T.Result.CandidatesTotal);
  Entry.set("candidates_consistent", T.Result.CandidatesConsistent);

  JsonValue States = JsonValue::array();
  for (const Outcome &O : T.Result.ConsistentOutcomes)
    States.push(O.key());
  Entry.set("consistent_states", std::move(States));

  JsonValue Models = JsonValue::array();
  for (const SimulationResult &R : T.Result.PerModel) {
    JsonValue M = JsonValue::object();
    M.set("model", R.ModelName);
    M.set("verdict", R.verdict());
    M.set("candidates_allowed", R.CandidatesAllowed);
    JsonValue Allowed = JsonValue::array();
    for (const Outcome &O : R.AllowedOutcomes)
      Allowed.push(O.key());
    M.set("allowed_states", std::move(Allowed));
    Models.push(std::move(M));
  }
  Entry.set("models", std::move(Models));
  return Entry;
}

JsonValue cats::sweepReportToJson(const SweepReport &Report) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-sweep-report/1");
  Root.set("jobs", Report.Jobs);
  Root.set("wall_seconds", Report.WallSeconds);
  if (Report.CacheUsed) {
    JsonValue Cache = JsonValue::object();
    Cache.set("hits", Report.CacheHits);
    Cache.set("misses", Report.CacheMisses);
    Root.set("cache", std::move(Cache));
  }

  JsonValue Tests = JsonValue::array();
  for (const SweepTestResult &T : Report.Tests)
    Tests.push(sweepTestResultToJson(T));
  Root.set("tests", std::move(Tests));

  // The witness section exists only when capture ran (--witness); plain
  // reports stay byte-identical to pre-witness renderings.
  std::vector<obs::Witness> Witnesses;
  for (const SweepTestResult &T : Report.Tests)
    Witnesses.insert(Witnesses.end(), T.Result.Witnesses.begin(),
                     T.Result.Witnesses.end());
  if (!Witnesses.empty())
    Root.set("witness", obs::witnessSectionToJson(Witnesses));
  return Root;
}

//===----------------------------------------------------------------------===//
// Reader
//===----------------------------------------------------------------------===//

namespace {

/// The member as an integral count; 0 when absent.
unsigned long long countOf(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V && V->isNumber() ? static_cast<unsigned long long>(V->asNumber())
                            : 0;
}

/// The member as a string; empty when absent.
std::string stringOf(const JsonValue &Obj, const char *Key) {
  const JsonValue *V = Obj.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

/// The JSON array \p Array as a list of key strings; empty when absent.
Status parseKeyList(const JsonValue *Array,
                    std::vector<const std::string *> &Out) {
  if (!Array)
    return Status::success();
  if (!Array->isArray())
    return Status::error("state list is not an array");
  for (const JsonValue &Key : Array->elements()) {
    if (!Key.isString())
      return Status::error("state key is not a string");
    Out.push_back(&Key.asString());
  }
  return Status::success();
}

/// A test's outcome table rebuilt from its consistent_states, plus the
/// canonical key of each row for resolving allowed_states against it.
struct ParsedTable {
  std::shared_ptr<OutcomeTable> Table = std::make_shared<OutcomeTable>();
  std::vector<std::string> Keys;
};

Status parseOutcomeTable(const JsonValue *Array, ParsedTable &Out) {
  std::vector<const std::string *> Raw;
  if (Status S = parseKeyList(Array, Raw); S.failed())
    return S;
  std::vector<std::pair<std::string, Outcome>> Rows;
  Rows.reserve(Raw.size());
  for (const std::string *Key : Raw) {
    auto O = outcomeFromKey(*Key);
    if (!O)
      return Status::error(O.message());
    std::string Canonical = O->key();
    Rows.emplace_back(std::move(Canonical), O.take());
  }
  // Reports list the states ascending and distinct already; the sort only
  // reorders a hand-edited list.
  std::sort(Rows.begin(), Rows.end(), [](const auto &A, const auto &B) {
    return A.first < B.first;
  });
  Rows.erase(std::unique(Rows.begin(), Rows.end(),
                         [](const auto &A, const auto &B) {
                           return A.first == B.first;
                         }),
             Rows.end());
  Out.Table->reserve(Rows.size());
  Out.Keys.reserve(Rows.size());
  for (auto &[Key, O] : Rows) {
    Out.Keys.push_back(std::move(Key));
    Out.Table->push_back(std::move(O));
  }
  return Status::success();
}

/// Resolves every key of \p Array against \p Parsed: the allowed states
/// of a model are a subset of the test's consistent states.
Status parseAllowedSet(const JsonValue *Array, const ParsedTable &Parsed,
                       OutcomeSet &Out) {
  std::vector<const std::string *> Raw;
  if (Status S = parseKeyList(Array, Raw); S.failed())
    return S;
  OutcomeSet::Bits Members((Parsed.Keys.size() + 63) / 64, 0);
  for (const std::string *Key : Raw) {
    auto It = std::lower_bound(Parsed.Keys.begin(), Parsed.Keys.end(), *Key);
    if (It == Parsed.Keys.end() || *It != *Key)
      return Status::error(strFormat(
          "allowed state '%s' is not in consistent_states", Key->c_str()));
    const size_t Row = static_cast<size_t>(It - Parsed.Keys.begin());
    Members[Row / 64] |= 1ull << (Row % 64);
  }
  Out = OutcomeSet(Parsed.Table, std::move(Members));
  return Status::success();
}

} // namespace

Expected<SweepTestResult> cats::sweepTestResultFromJson(const JsonValue &E) {
  using Ret = Expected<SweepTestResult>;
  if (!E.isObject())
    return Ret::error("test entry is not an object");
  SweepTestResult Out;
  Out.TestName = stringOf(E, "name");
  if (Out.TestName.empty())
    return Ret::error("test entry without a name");
  if (const JsonValue *W = E.get("wall_seconds"))
    Out.WallSeconds = W->isNumber() ? W->asNumber() : 0;
  Out.Error = stringOf(E, "error");
  if (!Out.Error.empty())
    return Out;

  Out.Result.TestName = Out.TestName;
  Out.Result.CandidatesTotal = countOf(E, "candidates_total");
  Out.Result.CandidatesConsistent = countOf(E, "candidates_consistent");
  ParsedTable Parsed;
  if (Status S = parseOutcomeTable(E.get("consistent_states"), Parsed);
      S.failed())
    return Ret::error(Out.TestName + ": " + S.message());
  Out.Result.ConsistentOutcomes = OutcomeSet::all(Parsed.Table);

  const JsonValue *Models = E.get("models");
  if (Models && !Models->isArray())
    return Ret::error(Out.TestName + ": 'models' is not an array");
  if (Models) {
    for (const JsonValue &M : Models->elements()) {
      if (!M.isObject())
        return Ret::error(Out.TestName + ": model entry is not an object");
      SimulationResult R;
      R.TestName = Out.TestName;
      R.ModelName = stringOf(M, "model");
      if (R.ModelName.empty())
        return Ret::error(Out.TestName + ": model entry without a name");
      R.ConditionReachable = stringOf(M, "verdict") == "Allow";
      R.CandidatesAllowed = countOf(M, "candidates_allowed");
      if (Status S = parseAllowedSet(M.get("allowed_states"), Parsed,
                                     R.AllowedOutcomes);
          S.failed())
        return Ret::error(Out.TestName + ": model " + R.ModelName + ": " +
                          S.message());
      // Mirror the shared counts so every entry stands alone, exactly as
      // the live engine produces them (the shared ConsistentOutcomes set
      // stays on the multi result, matching MultiModelChecker::take()).
      R.CandidatesTotal = Out.Result.CandidatesTotal;
      R.CandidatesConsistent = Out.Result.CandidatesConsistent;
      Out.Result.PerModel.push_back(std::move(R));
    }
    if (Out.Result.PerModel.size() == 1)
      Out.Result.PerModel.front().ConsistentOutcomes =
          Out.Result.ConsistentOutcomes;
  }
  return Out;
}

Expected<SweepReport> cats::sweepReportFromJson(const JsonValue &Root) {
  using Ret = Expected<SweepReport>;
  if (!Root.isObject())
    return Ret::error("report is not a JSON object");
  if (stringOf(Root, "schema") != "cats-sweep-report/1")
    return Ret::error("not a cats-sweep-report/1 document");
  SweepReport Out;
  Out.Jobs = static_cast<unsigned>(countOf(Root, "jobs"));
  if (const JsonValue *W = Root.get("wall_seconds"))
    Out.WallSeconds = W->isNumber() ? W->asNumber() : 0;
  if (const JsonValue *Cache = Root.get("cache")) {
    if (!Cache->isObject())
      return Ret::error("'cache' is not an object");
    Out.CacheUsed = true;
    Out.CacheHits = countOf(*Cache, "hits");
    Out.CacheMisses = countOf(*Cache, "misses");
  }
  const JsonValue *Tests = Root.get("tests");
  if (!Tests || !Tests->isArray())
    return Ret::error("report without a 'tests' array");
  for (const JsonValue &E : Tests->elements()) {
    auto T = sweepTestResultFromJson(E);
    if (!T)
      return Ret::error(T.message());
    Out.Tests.push_back(T.take());
  }
  return Out;
}
