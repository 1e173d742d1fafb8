//===- ReportIO.cpp - cats-sweep-report/1 (de)serialization ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "sweep/ReportIO.h"

#include "obs/Witness.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <memory>
#include <vector>

using namespace cats;

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
  States.reserve(T.Result.ConsistentOutcomes.size());
  for (const std::string &Key : T.Result.ConsistentOutcomes)
    States.push(Key);
  Entry.set("consistent_states", std::move(States));

  JsonValue Models = JsonValue::array();
  Models.reserve(T.Result.PerModel.size());
  for (const SimulationResult &R : T.Result.PerModel) {
    JsonValue M = JsonValue::object();
    M.set("model", R.ModelName);
    M.set("verdict", R.verdict());
    M.set("candidates_allowed", R.CandidatesAllowed);
    JsonValue Allowed = JsonValue::array();
    Allowed.reserve(R.AllowedOutcomes.size());
    for (const std::string &Key : R.AllowedOutcomes)
      Allowed.push(Key);
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
  Tests.reserve(Report.Tests.size());
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

/// A test's outcome table rebuilt from its consistent_states: each key is
/// canonicalized through outcomeFromKey, then the table is sorted and
/// deduplicated.
Status parseOutcomeTable(const JsonValue *Array, OutcomeTable &Out) {
  std::vector<const std::string *> Raw;
  if (Status S = parseKeyList(Array, Raw); S.failed())
    return S;
  Out.reserve(Raw.size());
  for (const std::string *Key : Raw) {
    auto O = outcomeFromKey(*Key);
    if (!O)
      return Status::error(O.message());
    Out.push_back(O->key());
  }
  // Reports list the states ascending and distinct already; the sort only
  // reorders a hand-edited list.
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  return Status::success();
}

/// Resolves every key of \p Array against \p Table: the allowed states
/// of a model are a subset of the test's consistent states.
Status parseAllowedSet(const JsonValue *Array,
                       const std::shared_ptr<const OutcomeTable> &Table,
                       OutcomeSet &Out) {
  std::vector<const std::string *> Raw;
  if (Status S = parseKeyList(Array, Raw); S.failed())
    return S;
  OutcomeSet::Bits Members((Table->size() + 63) / 64, 0);
  for (const std::string *Key : Raw) {
    auto It = std::lower_bound(Table->begin(), Table->end(), *Key);
    if (It == Table->end() || *It != *Key)
      return Status::error(strFormat(
          "allowed state '%s' is not in consistent_states", Key->c_str()));
    const size_t Row = static_cast<size_t>(It - Table->begin());
    Members[Row / 64] |= 1ull << (Row % 64);
  }
  Out = OutcomeSet(Table, std::move(Members));
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
  std::string Bad;
  if (!readCount(E, "candidates_total", Out.Result.CandidatesTotal, Bad) ||
      !readCount(E, "candidates_consistent", Out.Result.CandidatesConsistent,
                 Bad))
    return Ret::error(Out.TestName + ": " + Bad);
  auto Table = std::make_shared<OutcomeTable>();
  if (Status S = parseOutcomeTable(E.get("consistent_states"), *Table);
      S.failed())
    return Ret::error(Out.TestName + ": " + S.message());
  Out.Result.ConsistentOutcomes = OutcomeSet::all(Table);

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
      if (!readCount(M, "candidates_allowed", R.CandidatesAllowed, Bad))
        return Ret::error(Out.TestName + ": model " + R.ModelName + ": " +
                          Bad);
      if (Status S = parseAllowedSet(M.get("allowed_states"), Table,
                                     R.AllowedOutcomes);
          S.failed())
        return Ret::error(Out.TestName + ": model " + R.ModelName + ": " +
                          S.message());
      // Mirror the shared counts so every entry stands alone, exactly as
      // MultiModelChecker::take() does.
      R.CandidatesTotal = Out.Result.CandidatesTotal;
      R.CandidatesConsistent = Out.Result.CandidatesConsistent;
      Out.Result.PerModel.push_back(std::move(R));
    }
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
  std::string Bad;
  if (!readCount(Root, "jobs", Out.Jobs, Bad))
    return Ret::error(Bad);
  if (const JsonValue *W = Root.get("wall_seconds"))
    Out.WallSeconds = W->isNumber() ? W->asNumber() : 0;
  if (const JsonValue *Cache = Root.get("cache")) {
    if (!Cache->isObject())
      return Ret::error("'cache' is not an object");
    Out.CacheUsed = true;
    if (!readCount(*Cache, "hits", Out.CacheHits, Bad) ||
        !readCount(*Cache, "misses", Out.CacheMisses, Bad))
      return Ret::error("cache: " + Bad);
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
