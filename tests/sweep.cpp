//===- sweep.cpp - The parallel shared-enumeration sweep engine ---------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the sweep subsystem: the shared-enumeration multi-model path must
/// agree exactly with a naive per-model reference on the whole catalogue,
/// results must be byte-identical for any worker count, and the JSON
/// report must round-trip through its own parser.
///
//===----------------------------------------------------------------------===//

#include "herd/OutcomeSet.h"
#include "litmus/Catalog.h"
#include "litmus/Compiler.h"
#include "model/Registry.h"
#include "support/Rng.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <thread>
#include <vector>

using namespace cats;

namespace {

/// The distinct keys of \p Keys, ascending.
std::vector<std::string> sortedDistinct(std::vector<std::string> Keys) {
  std::sort(Keys.begin(), Keys.end());
  Keys.erase(std::unique(Keys.begin(), Keys.end()), Keys.end());
  return Keys;
}

/// An engine result's outcome set as the keys it iterates, in order.
std::vector<std::string> keysOf(const OutcomeSet &Outcomes) {
  return {Outcomes.begin(), Outcomes.end()};
}

/// What the legacy per-model algorithm computes for one (test, model).
/// Outcomes are plain sorted key vectors, so the reference stays
/// independent of the engine's outcome tables.
struct ReferenceResult {
  std::string TestName;
  std::string ModelName;
  unsigned long long CandidatesTotal = 0;
  unsigned long long CandidatesConsistent = 0;
  unsigned long long CandidatesAllowed = 0;
  std::vector<std::string> AllowedKeys;
  std::vector<std::string> ConsistentKeys;
  bool ConditionReachable = false;
};

/// The legacy per-model algorithm, re-implemented here as an independent
/// reference: one full candidate enumeration per model, exactly what
/// simulate() did before the shared MultiModelChecker path existed.
ReferenceResult naiveSimulate(const CompiledTest &Compiled, const Model &M) {
  ReferenceResult Result;
  Result.TestName = Compiled.test().Name;
  Result.ModelName = M.name();
  const Condition &Final = Compiled.test().Final;
  forEachCandidate(Compiled, [&](const Candidate &Cand) {
    ++Result.CandidatesTotal;
    if (!Cand.Consistent)
      return true;
    ++Result.CandidatesConsistent;
    Result.ConsistentKeys.push_back(Cand.Out.key());
    if (!M.allows(Cand.Exe))
      return true;
    ++Result.CandidatesAllowed;
    Result.AllowedKeys.push_back(Cand.Out.key());
    if (Cand.Out.satisfies(Final))
      Result.ConditionReachable = true;
    return true;
  });
  Result.AllowedKeys = sortedDistinct(std::move(Result.AllowedKeys));
  Result.ConsistentKeys = sortedDistinct(std::move(Result.ConsistentKeys));
  return Result;
}

/// Expects model \p I of \p Multi, and the shared consistent set, to
/// match the reference \p A.
void expectSameResult(const ReferenceResult &A,
                      const MultiSimulationResult &Multi, size_t I,
                      const std::string &Context) {
  const SimulationResult &B = Multi.PerModel[I];
  EXPECT_EQ(A.TestName, B.TestName) << Context;
  EXPECT_EQ(A.ModelName, B.ModelName) << Context;
  EXPECT_EQ(A.CandidatesTotal, B.CandidatesTotal) << Context;
  EXPECT_EQ(A.CandidatesConsistent, B.CandidatesConsistent) << Context;
  EXPECT_EQ(A.CandidatesAllowed, B.CandidatesAllowed) << Context;
  EXPECT_EQ(A.AllowedKeys, keysOf(B.AllowedOutcomes)) << Context;
  EXPECT_EQ(A.ConsistentKeys, keysOf(Multi.ConsistentOutcomes)) << Context;
  EXPECT_EQ(A.ConditionReachable, B.ConditionReachable) << Context;
}

std::vector<LitmusTest> catalogueTests() {
  std::vector<LitmusTest> Out;
  for (const CatalogEntry &Entry : figureCatalog())
    Out.push_back(Entry.Test);
  return Out;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shared enumeration vs the legacy per-model reference
//===----------------------------------------------------------------------===//

TEST(MultiModel, MatchesNaivePerModelOnFullCatalogue) {
  const auto &Models = allModels();
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Entry.Test.Name;
    MultiSimulationResult Multi = simulateAll(*Compiled, Models);
    ASSERT_EQ(Multi.PerModel.size(), Models.size());
    for (size_t I = 0; I < Models.size(); ++I)
      expectSameResult(naiveSimulate(*Compiled, *Models[I]), Multi, I,
                       Entry.Test.Name + " under " + Models[I]->name());
  }
}

TEST(MultiModel, SingleModelSimulateStillMatchesReference) {
  const Model &Power = *modelByName("Power");
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Entry.Test.Name;
    expectSameResult(naiveSimulate(*Compiled, Power),
                     simulateAll(*Compiled, {&Power}), 0, Entry.Test.Name);
  }
}

TEST(MultiModel, SharedFieldsComputedOnceAndMirrored) {
  const CatalogEntry *Entry = catalogEntry("mp");
  ASSERT_NE(Entry, nullptr);
  MultiSimulationResult Multi = simulateAll(Entry->Test, allModels());
  for (const SimulationResult &R : Multi.PerModel) {
    EXPECT_EQ(R.CandidatesTotal, Multi.CandidatesTotal);
    EXPECT_EQ(R.CandidatesConsistent, Multi.CandidatesConsistent);
  }
  EXPECT_FALSE(Multi.ConsistentOutcomes.empty());
}

TEST(MultiModel, ForModelLookup) {
  const CatalogEntry *Entry = catalogEntry("sb");
  ASSERT_NE(Entry, nullptr);
  MultiSimulationResult Multi =
      simulateAll(Entry->Test, {modelByName("SC"), modelByName("TSO")});
  ASSERT_NE(Multi.forModel("TSO"), nullptr);
  EXPECT_EQ(Multi.forModel("TSO")->ModelName, "TSO");
  // sb is the classic TSO/SC separator: store buffering is visible on TSO.
  EXPECT_FALSE(Multi.forModel("SC")->ConditionReachable);
  EXPECT_TRUE(Multi.forModel("TSO")->ConditionReachable);
  EXPECT_EQ(Multi.forModel("Power"), nullptr);
}

//===----------------------------------------------------------------------===//
// OutcomeSet: interned outcome tables and bitset subsets
//===----------------------------------------------------------------------===//

namespace {

/// A key-sorted table of memory-only outcomes x=V, one per value.
std::shared_ptr<const OutcomeTable> tableOf(std::vector<Value> Values) {
  auto Table = std::make_shared<OutcomeTable>();
  for (Value V : Values) {
    Outcome O;
    O.Memory["x"] = V;
    Table->push_back(O.key());
  }
  std::sort(Table->begin(), Table->end());
  return Table;
}

/// The subset of \p Table at rows \p Rows.
OutcomeSet subsetOf(std::shared_ptr<const OutcomeTable> Table,
                    std::vector<size_t> Rows) {
  OutcomeSet::Bits Members((Table->size() + 63) / 64, 0);
  for (size_t Row : Rows)
    Members[Row / 64] |= 1ull << (Row % 64);
  return OutcomeSet(std::move(Table), std::move(Members));
}

} // namespace

TEST(OutcomeSet, SeparateTablesCompareByContents) {
  auto Wide = tableOf({0, 1, 2}); // x=0; x=1; x=2;
  auto Narrow = tableOf({2, 1});  // x=1; x=2;
  EXPECT_EQ(subsetOf(Wide, {1, 2}), OutcomeSet::all(Narrow));
  EXPECT_EQ(OutcomeSet::all(Narrow), subsetOf(Wide, {1, 2}));
  EXPECT_NE(OutcomeSet::all(Wide), OutcomeSet::all(Narrow));
  // Same size, different members.
  EXPECT_NE(subsetOf(Wide, {0, 1}), OutcomeSet::all(Narrow));
  EXPECT_NE(subsetOf(Wide, {0, 2}), subsetOf(Wide, {1, 2}));
  EXPECT_EQ(subsetOf(Wide, {0, 2}), subsetOf(tableOf({2, 0, 1}), {0, 2}));
}

TEST(OutcomeSet, IteratesMembersInAscendingKeyOrder) {
  // 130 rows span three membership words; members sit on the word edges.
  std::vector<Value> Values;
  for (Value V = 0; V < 130; ++V)
    Values.push_back(V);
  auto Table = tableOf(Values);
  OutcomeSet Set = subsetOf(Table, {129, 0, 64, 63});
  EXPECT_EQ(Set.size(), 4u);
  std::vector<std::string> Expected{(*Table)[0], (*Table)[63], (*Table)[64],
                                    (*Table)[129]};
  EXPECT_EQ(keysOf(Set), Expected);
  EXPECT_EQ(OutcomeSet::all(Table).size(), 130u);

  // Engine results iterate strictly ascending too.
  const CatalogEntry *Entry = catalogEntry("iriw+syncs");
  ASSERT_NE(Entry, nullptr);
  MultiSimulationResult Multi = simulateAll(Entry->Test, allModels());
  std::vector<std::string> Keys = keysOf(Multi.ConsistentOutcomes);
  ASSERT_GT(Keys.size(), 1u);
  for (size_t I = 1; I < Keys.size(); ++I)
    EXPECT_LT(Keys[I - 1], Keys[I]);
  for (const SimulationResult &R : Multi.PerModel)
    EXPECT_EQ(keysOf(R.AllowedOutcomes),
              sortedDistinct(keysOf(R.AllowedOutcomes)))
        << R.ModelName;
}

TEST(OutcomeSet, EmptySets) {
  const OutcomeSet None;
  EXPECT_TRUE(None.empty());
  EXPECT_EQ(None.size(), 0u);
  EXPECT_TRUE(None.begin() == None.end());
  EXPECT_EQ(None, subsetOf(tableOf({0, 1}), {}));
  EXPECT_EQ(None, OutcomeSet::all(tableOf({})));
  EXPECT_TRUE(subsetOf(tableOf({0, 1}), {}).begin() ==
              subsetOf(tableOf({0, 1}), {}).end());
  EXPECT_NE(None, subsetOf(tableOf({0, 1}), {1}));
}

TEST(OutcomeSet, SeventyModelSweepMatchesOneModelSimulate) {
  // More models than one 64-bit membership word: rows of the outcome
  // table span two words, and every model's allowed set must still equal
  // its own one-model run.
  std::vector<const Model *> Models;
  while (Models.size() < 70)
    for (const Model *M : allModels())
      if (Models.size() < 70)
        Models.push_back(M);
  for (const char *Name :
       {"mp", "sb", "2+2w", "wrc+addrs", "w+rw+2w", "lb+data+fri-rfi-ctrl"}) {
    const CatalogEntry *Entry = catalogEntry(Name);
    ASSERT_NE(Entry, nullptr) << Name;
    auto Compiled = CompiledTest::compile(Entry->Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Name;
    for (JudgeBackend Backend : {JudgeBackend::Pruned, JudgeBackend::Naive}) {
      MultiSimulationResult Multi = simulateAll(*Compiled, Models, Backend);
      ASSERT_EQ(Multi.PerModel.size(), Models.size());
      for (size_t I = 0; I < Models.size(); ++I) {
        const SimulationResult One = simulate(*Compiled, *Models[I]);
        const SimulationResult &R = Multi.PerModel[I];
        const std::string Where = std::string(Name) + " model #" +
                                  std::to_string(I) + " " + R.ModelName +
                                  " (" + judgeBackendName(Backend) + ")";
        EXPECT_EQ(R.AllowedOutcomes, One.AllowedOutcomes) << Where;
        EXPECT_EQ(keysOf(R.AllowedOutcomes), keysOf(One.AllowedOutcomes))
            << Where;
        EXPECT_EQ(R.ConditionReachable, One.ConditionReachable) << Where;
        EXPECT_EQ(R.CandidatesAllowed, One.CandidatesAllowed) << Where;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Engine: determinism and error handling
//===----------------------------------------------------------------------===//

namespace {

/// Everything observable about a report except wall-clock times.
std::string reportSignature(const SweepReport &Report) {
  // Zero the timing fields so the JSON rendering is comparable across
  // runs and worker counts.
  SweepReport Scrubbed = Report;
  Scrubbed.WallSeconds = 0;
  Scrubbed.Jobs = 1;
  for (SweepTestResult &T : Scrubbed.Tests)
    T.WallSeconds = 0;
  return sweepReportToJson(Scrubbed).dump();
}

} // namespace

TEST(SweepEngine, DeterministicAcrossWorkerCounts) {
  const std::vector<SweepJob> Jobs = makeJobs(catalogueTests(), allModels());
  unsigned MaxWorkers = std::thread::hardware_concurrency();
  if (MaxWorkers == 0)
    MaxWorkers = 1;

  const std::string Baseline = reportSignature(SweepEngine({1}).run(Jobs));
  for (unsigned N : {2u, MaxWorkers}) {
    SweepEngine Engine(SweepOptions{N});
    EXPECT_EQ(reportSignature(Engine.run(Jobs)), Baseline)
        << "with " << N << " workers";
  }
}

TEST(SweepEngine, ResultsInSubmissionOrder) {
  std::vector<LitmusTest> Tests = catalogueTests();
  SweepReport Report =
      SweepEngine({4}).run(makeJobs(Tests, {modelByName("SC")}));
  ASSERT_EQ(Report.Tests.size(), Tests.size());
  for (size_t I = 0; I < Tests.size(); ++I)
    EXPECT_EQ(Report.Tests[I].TestName, Tests[I].Name);
}

TEST(SweepEngine, WorkerCountDefaultsToHardwareAndClamps) {
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 1;
  EXPECT_EQ(SweepEngine().workerCount(), Hw);
  EXPECT_EQ(SweepEngine({3}).workerCount(), std::min(3u, Hw));
  // CPU-bound sweeps never benefit from more workers than cores.
  EXPECT_EQ(SweepEngine({1000}).workerCount(), Hw);
}

TEST(SweepEngine, InvalidTestReportsErrorWithoutPoisoningTheBatch) {
  std::vector<LitmusTest> Tests = catalogueTests();
  // An x86 fence on a Power test fails validation.
  LitmusTest Bad = Tests.front();
  Bad.Name = "bad-fence";
  Bad.TargetArch = Arch::Power;
  Instruction Fence;
  Fence.Op = Opcode::Fence;
  Fence.FenceName = "mfence";
  Bad.Threads[0].push_back(Fence);
  Tests.insert(Tests.begin() + 1, Bad);

  SweepReport Report =
      SweepEngine({2}).run(makeJobs(Tests, {modelByName("Power")}));
  ASSERT_EQ(Report.Tests.size(), Tests.size());
  EXPECT_FALSE(Report.Tests[1].Error.empty());
  EXPECT_FALSE(Report.allOk());
  // Neighbours are unaffected.
  EXPECT_TRUE(Report.Tests[0].Error.empty());
  EXPECT_TRUE(Report.Tests[2].Error.empty());
  EXPECT_GT(Report.Tests[2].Result.CandidatesTotal, 0u);
}

//===----------------------------------------------------------------------===//
// JSON report schema round-trip
//===----------------------------------------------------------------------===//

TEST(SweepReportJson, SchemaRoundTrip) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(8);
  SweepReport Report = SweepEngine({2}).run(
      makeJobs(Tests, {modelByName("SC"), modelByName("Power")}));

  JsonValue Root = sweepReportToJson(Report);
  const std::string Text = Root.dump();
  auto Reparsed = JsonValue::parse(Text);
  ASSERT_TRUE(static_cast<bool>(Reparsed)) << Reparsed.message();
  // Value-level and byte-level round-trip.
  EXPECT_EQ(*Reparsed, Root);
  EXPECT_EQ(Reparsed->dump(), Text);

  // Schema spot checks against the in-memory report.
  ASSERT_NE(Root.get("schema"), nullptr);
  EXPECT_EQ(Root.get("schema")->asString(), "cats-sweep-report/1");
  EXPECT_EQ(Root.get("jobs")->asNumber(), Report.Jobs);
  const auto &TestsJson = Root.get("tests")->elements();
  ASSERT_EQ(TestsJson.size(), Report.Tests.size());
  for (size_t I = 0; I < TestsJson.size(); ++I) {
    const JsonValue &Entry = TestsJson[I];
    const SweepTestResult &T = Report.Tests[I];
    EXPECT_EQ(Entry.get("name")->asString(), T.TestName);
    EXPECT_EQ(Entry.get("candidates_total")->asNumber(),
              static_cast<double>(T.Result.CandidatesTotal));
    EXPECT_EQ(Entry.get("consistent_states")->elements().size(),
              T.Result.ConsistentOutcomes.size());
    const auto &ModelsJson = Entry.get("models")->elements();
    ASSERT_EQ(ModelsJson.size(), T.Result.PerModel.size());
    for (size_t J = 0; J < ModelsJson.size(); ++J) {
      const SimulationResult &R = T.Result.PerModel[J];
      EXPECT_EQ(ModelsJson[J].get("model")->asString(), R.ModelName);
      EXPECT_EQ(ModelsJson[J].get("verdict")->asString(), R.verdict());
      EXPECT_EQ(ModelsJson[J].get("allowed_states")->elements().size(),
                R.AllowedOutcomes.size());
    }
  }
}

TEST(SweepReportJson, ErrorEntriesCarryTheMessage) {
  // An x86 fence on a Power test fails validation.
  LitmusTest Bad = figureCatalog().front().Test;
  Bad.Name = "bad-fence";
  Bad.TargetArch = Arch::Power;
  Instruction Fence;
  Fence.Op = Opcode::Fence;
  Fence.FenceName = "mfence";
  Bad.Threads[0].push_back(Fence);
  SweepReport Report =
      SweepEngine({1}).run(makeJobs({Bad}, {modelByName("SC")}));
  ASSERT_EQ(Report.Tests.size(), 1u);
  ASSERT_FALSE(Report.Tests[0].Error.empty());
  JsonValue Root = sweepReportToJson(Report);
  const JsonValue *Entry = &Root.get("tests")->elements()[0];
  ASSERT_NE(Entry->get("error"), nullptr);
  EXPECT_EQ(Entry->get("error")->asString(), Report.Tests[0].Error);
  EXPECT_EQ(Entry->get("models"), nullptr);
}

//===----------------------------------------------------------------------===//
// The JSON library itself
//===----------------------------------------------------------------------===//

TEST(Json, ScalarsAndNesting) {
  auto V = JsonValue::parse(
      R"({"a": [1, -2.5, true, false, null], "b": {"c": "x\ny\"z\\"}})");
  ASSERT_TRUE(static_cast<bool>(V)) << V.message();
  ASSERT_TRUE(V->isObject());
  const auto &A = V->get("a")->elements();
  ASSERT_EQ(A.size(), 5u);
  EXPECT_EQ(A[0].asNumber(), 1);
  EXPECT_EQ(A[1].asNumber(), -2.5);
  EXPECT_TRUE(A[2].asBool());
  EXPECT_FALSE(A[3].asBool());
  EXPECT_TRUE(A[4].isNull());
  EXPECT_EQ(V->get("b")->get("c")->asString(), "x\ny\"z\\");
}

TEST(Json, DumpParsesBackEqual) {
  JsonValue Root = JsonValue::object();
  Root.set("name", "sweep");
  Root.set("count", 42u);
  Root.set("ratio", 0.125);
  Root.set("big", 123456789012345ull);
  Root.set("flag", true);
  JsonValue Arr = JsonValue::array();
  Arr.push(JsonValue());
  Arr.push("tab\there");
  Root.set("list", std::move(Arr));
  Root.set("empty_obj", JsonValue::object());
  Root.set("empty_arr", JsonValue::array());

  for (unsigned Indent : {0u, 2u, 4u}) {
    auto Back = JsonValue::parse(Root.dump(Indent));
    ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
    EXPECT_EQ(*Back, Root) << "indent " << Indent;
  }
  // Integral numbers print without a decimal point.
  EXPECT_NE(Root.dump(0).find("\"count\":42"), std::string::npos);
}

TEST(Json, ObjectPreservesInsertionOrderAndReplaces) {
  JsonValue Obj = JsonValue::object();
  Obj.set("z", 1);
  Obj.set("a", 2);
  Obj.set("z", 3);
  ASSERT_EQ(Obj.members().size(), 2u);
  EXPECT_EQ(Obj.members()[0].first, "z");
  EXPECT_EQ(Obj.members()[0].second.asNumber(), 3);
  EXPECT_EQ(Obj.members()[1].first, "a");
}

TEST(Json, ParseErrors) {
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("{\"a\": 1,}")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("[1, 2")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("\"unterminated")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("{\"a\" 1}")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("nul")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("1 2")));
  EXPECT_FALSE(static_cast<bool>(JsonValue::parse("\"bad \\q escape\"")));
  // Errors carry an offset.
  auto E = JsonValue::parse("[1, 2");
  EXPECT_NE(E.message().find("offset"), std::string::npos);
}

namespace {

/// A fixed tree holding every kind, empty containers, every escape the
/// writer emits and numbers in both formats.
JsonValue goldenTree() {
  JsonValue Root = JsonValue::object();
  Root.set("null", JsonValue());
  Root.set("yes", true);
  Root.set("no", false);
  Root.set("zero", 0);
  Root.set("neg", -3);
  Root.set("tenth", 0.1);
  Root.set("big", 1e15);
  Root.set("text", "q\"b\\n\nt\tr\r\x01"
                   "c\x1f");
  Root.set("empty_arr", JsonValue::array());
  Root.set("empty_obj", JsonValue::object());
  JsonValue Inner = JsonValue::array();
  Inner.push(JsonValue());
  Inner.push(false);
  JsonValue List = JsonValue::array();
  List.push(1);
  List.push("a");
  List.push(JsonValue::array());
  List.push(JsonValue::object());
  List.push(std::move(Inner));
  Root.set("list", std::move(List));
  JsonValue Deep = JsonValue::object();
  Deep.set("k", "v");
  JsonValue Nested = JsonValue::object();
  Nested.set("deep", std::move(Deep));
  Root.set("nested", std::move(Nested));
  return Root;
}

/// A random string over plain, escaped, control and high bytes.
std::string randomJsonString(Rng &R) {
  static const char Alphabet[] = "ab:{}[], \"\\\n\t\r\x01\x1f\x7f\xc3\xa9";
  std::string S;
  for (uint64_t N = R.nextBelow(8); N; --N)
    S += Alphabet[R.nextBelow(sizeof(Alphabet) - 1)];
  return S;
}

/// A random tree at most \p Depth containers deep.
JsonValue randomJson(Rng &R, unsigned Depth) {
  switch (R.nextBelow(Depth ? 7 : 5)) {
  case 0:
    return JsonValue();
  case 1:
    return JsonValue(R.chance(1, 2));
  case 2: // An integral count, printed without a decimal point.
    return JsonValue(static_cast<double>(R.nextBelow(1ull << 53)) *
                     (R.chance(1, 4) ? -1 : 1));
  case 3: // A fraction of any magnitude, printed with 17 digits.
    return JsonValue(static_cast<double>(R.next()) /
                     static_cast<double>(1ull << R.nextBelow(64)) /
                     (R.chance(1, 2) ? 1e300 : 7));
  case 4:
    return JsonValue(randomJsonString(R));
  case 5: {
    JsonValue A = JsonValue::array();
    for (uint64_t N = R.nextBelow(5); N; --N)
      A.push(randomJson(R, Depth - 1));
    return A;
  }
  default: {
    JsonValue O = JsonValue::object();
    for (uint64_t N = R.nextBelow(5); N; --N)
      O.set(randomJsonString(R), randomJson(R, Depth - 1));
    return O;
  }
  }
}

} // namespace

TEST(Json, GoldenRendering) {
  // A report's memory scales with the node: a string plus the index.
  EXPECT_LE(sizeof(JsonValue), sizeof(std::string) + sizeof(void *));
  const JsonValue Root = goldenTree();
  EXPECT_EQ(Root.dump(0),
            R"({"null":null,"yes":true,"no":false,"zero":0,"neg":-3,)"
            R"("tenth":0.10000000000000001,"big":1000000000000000,)"
            R"("text":"q\"b\\n\nt\tr\r\u0001c\u001f","empty_arr":[],)"
            R"("empty_obj":{},"list":[1,"a",[],{},[null,false]],)"
            R"("nested":{"deep":{"k":"v"}}})");
  EXPECT_EQ(Root.dump(2), R"({
  "null": null,
  "yes": true,
  "no": false,
  "zero": 0,
  "neg": -3,
  "tenth": 0.10000000000000001,
  "big": 1000000000000000,
  "text": "q\"b\\n\nt\tr\r\u0001c\u001f",
  "empty_arr": [],
  "empty_obj": {},
  "list": [
    1,
    "a",
    [],
    {},
    [
      null,
      false
    ]
  ],
  "nested": {
    "deep": {
      "k": "v"
    }
  }
}
)");
}

TEST(Json, RandomTreesRoundTrip) {
  Rng R(0x6a736f6e);
  for (int I = 0; I < 500; ++I) {
    const JsonValue V = randomJson(R, 4);
    for (unsigned Indent : {0u, 2u}) {
      const std::string Text = V.dump(Indent);
      auto Back = JsonValue::parse(Text);
      ASSERT_TRUE(static_cast<bool>(Back)) << Back.message() << "\n" << Text;
      EXPECT_EQ(*Back, V) << Text;
      EXPECT_EQ(Back->dump(Indent), Text);
    }
  }
}

TEST(Json, RejectsDeepNesting) {
  // A megabyte of '[' used to overflow the parser's stack.
  auto Deep = JsonValue::parse(std::string(1 << 20, '['));
  ASSERT_FALSE(static_cast<bool>(Deep));
  EXPECT_NE(Deep.message().find("offset 256:"), std::string::npos)
      << Deep.message();
  EXPECT_NE(Deep.message().find("nesting deeper than 256"), std::string::npos)
      << Deep.message();
  // The limit itself is accepted, in arrays and objects alike.
  auto nested = [](unsigned Levels, const char *Open, const char *Close) {
    std::string Text;
    for (unsigned I = 0; I < Levels; ++I)
      Text += Open;
    Text += "0";
    for (unsigned I = 0; I < Levels; ++I)
      Text += Close;
    return Text;
  };
  EXPECT_TRUE(static_cast<bool>(
      JsonValue::parse(nested(MaxJsonDepth, "[", "]"))));
  EXPECT_TRUE(static_cast<bool>(
      JsonValue::parse(nested(MaxJsonDepth, "{\"k\":", "}"))));
  EXPECT_FALSE(static_cast<bool>(
      JsonValue::parse(nested(MaxJsonDepth + 1, "[", "]"))));
  EXPECT_FALSE(static_cast<bool>(
      JsonValue::parse(nested(MaxJsonDepth + 1, "{\"k\":", "}"))));
}

TEST(Json, NoNonFiniteNumbers) {
  // A number beyond a double's range is an error naming its offset.
  for (const char *Text : {"[1e999]", "[-1e999]"}) {
    auto V = JsonValue::parse(Text);
    ASSERT_FALSE(static_cast<bool>(V)) << Text;
    EXPECT_NE(V.message().find("offset 1:"), std::string::npos)
        << V.message();
    EXPECT_NE(V.message().find("overflows"), std::string::npos)
        << V.message();
  }
  // Underflow to zero stays a (finite) number.
  auto Tiny = JsonValue::parse("1e-999");
  ASSERT_TRUE(static_cast<bool>(Tiny)) << Tiny.message();
  EXPECT_EQ(Tiny->asNumber(), 0);
  // The writer renders what JSON cannot spell as null.
  JsonValue A = JsonValue::array();
  A.push(std::numeric_limits<double>::infinity());
  A.push(-std::numeric_limits<double>::infinity());
  A.push(std::numeric_limits<double>::quiet_NaN());
  EXPECT_EQ(A.dump(0), "[null,null,null]");
  EXPECT_TRUE(static_cast<bool>(JsonValue::parse(A.dump(2))));
}
