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

#include "litmus/Catalog.h"
#include "litmus/Compiler.h"
#include "model/Registry.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <thread>

using namespace cats;

namespace {

/// The legacy per-model algorithm, re-implemented here as an independent
/// reference: one full candidate enumeration per model, exactly what
/// simulate() did before the shared MultiModelChecker path existed.
SimulationResult naiveSimulate(const CompiledTest &Compiled, const Model &M) {
  SimulationResult Result;
  Result.TestName = Compiled.test().Name;
  Result.ModelName = M.name();
  const Condition &Final = Compiled.test().Final;
  forEachCandidate(Compiled, [&](const Candidate &Cand) {
    ++Result.CandidatesTotal;
    if (!Cand.Consistent)
      return true;
    ++Result.CandidatesConsistent;
    Result.ConsistentOutcomes.insert(Cand.Out);
    if (!M.allows(Cand.Exe))
      return true;
    ++Result.CandidatesAllowed;
    Result.AllowedOutcomes.insert(Cand.Out);
    if (Cand.Out.satisfies(Final))
      Result.ConditionReachable = true;
    return true;
  });
  return Result;
}

void expectSameResult(const SimulationResult &A, const SimulationResult &B,
                      const std::string &Context,
                      bool CompareConsistentOutcomes = true) {
  EXPECT_EQ(A.TestName, B.TestName) << Context;
  EXPECT_EQ(A.ModelName, B.ModelName) << Context;
  EXPECT_EQ(A.CandidatesTotal, B.CandidatesTotal) << Context;
  EXPECT_EQ(A.CandidatesConsistent, B.CandidatesConsistent) << Context;
  EXPECT_EQ(A.CandidatesAllowed, B.CandidatesAllowed) << Context;
  EXPECT_EQ(A.AllowedOutcomes, B.AllowedOutcomes) << Context;
  // Per-model entries of a multi-model sweep do not carry the shared
  // ConsistentOutcomes set; callers with such entries compare the shared
  // set on the MultiSimulationResult themselves.
  if (CompareConsistentOutcomes) {
    EXPECT_EQ(A.ConsistentOutcomes, B.ConsistentOutcomes) << Context;
  }
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
    for (size_t I = 0; I < Models.size(); ++I) {
      SimulationResult Ref = naiveSimulate(*Compiled, *Models[I]);
      EXPECT_EQ(Ref.ConsistentOutcomes, Multi.ConsistentOutcomes)
          << Entry.Test.Name;
      expectSameResult(Ref, Multi.PerModel[I],
                       Entry.Test.Name + " under " + Models[I]->name(),
                       /*CompareConsistentOutcomes=*/false);
    }
  }
}

TEST(MultiModel, SingleModelSimulateStillMatchesReference) {
  const Model &Power = *modelByName("Power");
  for (const CatalogEntry &Entry : figureCatalog()) {
    auto Compiled = CompiledTest::compile(Entry.Test);
    ASSERT_TRUE(static_cast<bool>(Compiled)) << Entry.Test.Name;
    expectSameResult(naiveSimulate(*Compiled, Power),
                     simulate(*Compiled, Power), Entry.Test.Name);
  }
}

TEST(MultiModel, SharedFieldsComputedOnceAndMirrored) {
  const CatalogEntry *Entry = catalogEntry("mp");
  ASSERT_NE(Entry, nullptr);
  MultiSimulationResult Multi = simulateAll(Entry->Test, allModels());
  for (const SimulationResult &R : Multi.PerModel) {
    EXPECT_EQ(R.CandidatesTotal, Multi.CandidatesTotal);
    EXPECT_EQ(R.CandidatesConsistent, Multi.CandidatesConsistent);
    // The shared outcome set is NOT mirrored in a multi-model sweep:
    // copying it into every entry dominated take() on wide model lists.
    EXPECT_TRUE(R.ConsistentOutcomes.empty());
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
