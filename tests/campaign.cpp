//===- campaign.cpp - Sharding, caching, checkpointing, merging ----------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the campaign layer (docs/campaigns.md): round-robin shards must
/// partition a stream completely and disjointly, a merged shard set must
/// reproduce the single-process report byte-for-byte (modulo wall
/// times), cache hits must be byte-identical to fresh judgements while
/// any test mutation misses, and resuming an interrupted checkpoint must
/// equal the uninterrupted run. Also covers the cats-sweep-report/1
/// reader (outcome keys included) and the mine-report shard merge.
///
//===----------------------------------------------------------------------===//

#include "campaign/Checkpoint.h"
#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "campaign/Shard.h"
#include "cat/CatAdapter.h"
#include "diy/Enumerate.h"
#include "litmus/Catalog.h"
#include "model/Registry.h"
#include "mole/Mine.h"
#include "obs/Metrics.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <set>
#include <sstream>

using namespace cats;

namespace {

std::vector<LitmusTest> catalogueTests() {
  std::vector<LitmusTest> Out;
  for (const CatalogEntry &Entry : figureCatalog())
    Out.push_back(Entry.Test);
  return Out;
}

/// A single-pass source over a materialized vector, sharing its cursor
/// across std::function copies like every real source does.
TestSource vectorSource(std::vector<LitmusTest> Tests) {
  auto Vec = std::make_shared<std::vector<LitmusTest>>(std::move(Tests));
  auto Idx = std::make_shared<size_t>(0);
  return [Vec, Idx](LitmusTest &Out) -> bool {
    if (*Idx >= Vec->size())
      return false;
    Out = (*Vec)[(*Idx)++];
    return true;
  };
}

/// The report's JSON with every wall_seconds zeroed — the determinism
/// contract of docs/sweep.md, byte-comparable across runs.
std::string scrubbedDump(const SweepReport &Report) {
  return zeroWallTimes(sweepReportToJson(Report)).dump();
}

/// A fresh scratch directory under the test temp root.
std::string scratchDir(const std::string &Name) {
  std::string Dir = ::testing::TempDir() + "cats_campaign_" + Name;
  std::filesystem::remove_all(Dir);
  std::filesystem::create_directories(Dir);
  return Dir;
}

} // namespace

//===----------------------------------------------------------------------===//
// Shard specs and partitioning
//===----------------------------------------------------------------------===//

TEST(Shard, ParsesAndRejects) {
  auto Ok = parseShardSpec("2/4");
  ASSERT_TRUE(static_cast<bool>(Ok)) << Ok.message();
  EXPECT_EQ(Ok->Index, 2u);
  EXPECT_EQ(Ok->Count, 4u);
  EXPECT_TRUE(Ok->active());
  EXPECT_EQ(Ok->toString(), "2/4");

  auto Whole = parseShardSpec("1/1");
  ASSERT_TRUE(static_cast<bool>(Whole));
  EXPECT_FALSE(Whole->active());

  for (const char *Bad : {"0/4", "5/4", "4", "x/y", "2/", "/4", "2/4/8", ""})
    EXPECT_FALSE(static_cast<bool>(parseShardSpec(Bad))) << Bad;
}

TEST(Shard, RoundRobinOwnership) {
  ShardSpec Spec{2, 3};
  // Shard 2 of 3 owns positions 1, 4, 7, ...
  EXPECT_FALSE(Spec.owns(0));
  EXPECT_TRUE(Spec.owns(1));
  EXPECT_FALSE(Spec.owns(2));
  EXPECT_TRUE(Spec.owns(4));
}

TEST(Shard, SourcePartitionIsCompleteDisjointAndDeterministic) {
  const std::vector<LitmusTest> Tests = catalogueTests();
  const unsigned N = 3;

  auto ShardNames = [&](unsigned K) {
    std::vector<std::string> Names;
    TestSource Src = shardTestSource(vectorSource(Tests), ShardSpec{K, N});
    LitmusTest T;
    while (Src(T))
      Names.push_back(T.Name);
    return Names;
  };

  std::vector<std::string> Interleaved;
  std::set<std::string> Seen;
  std::vector<std::vector<std::string>> PerShard;
  for (unsigned K = 1; K <= N; ++K) {
    PerShard.push_back(ShardNames(K));
    // Deterministic: a second pass yields the same slice.
    EXPECT_EQ(ShardNames(K), PerShard.back());
    for (const std::string &Name : PerShard.back()) {
      EXPECT_TRUE(Seen.insert(Name).second) << Name << " in two shards";
    }
  }
  EXPECT_EQ(Seen.size(), Tests.size());

  // Shards are balanced to within one test and interleave back to the
  // source order.
  for (unsigned K = 0; K < N; ++K)
    EXPECT_LE(PerShard[0].size() - PerShard[K].size(), 1u);
  for (size_t Offset = 0;; ++Offset) {
    bool Any = false;
    for (unsigned K = 0; K < N; ++K)
      if (Offset < PerShard[K].size()) {
        Interleaved.push_back(PerShard[K][Offset]);
        Any = true;
      }
    if (!Any)
      break;
  }
  ASSERT_EQ(Interleaved.size(), Tests.size());
  for (size_t I = 0; I < Tests.size(); ++I)
    EXPECT_EQ(Interleaved[I], Tests[I].Name);
}

TEST(Shard, StanzaRoundTrip) {
  ShardSpec Spec{3, 8};
  auto Back = shardFromJson(shardToJson(Spec));
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(Back->Index, 3u);
  EXPECT_EQ(Back->Count, 8u);
  EXPECT_FALSE(static_cast<bool>(shardFromJson(JsonValue(1))));
}

//===----------------------------------------------------------------------===//
// Report IO: outcome keys and the sweep-report reader
//===----------------------------------------------------------------------===//

TEST(ReportIO, OutcomeKeyRoundTripsEveryCatalogueState) {
  // Key-table invariants over the catalogue plus a size-5 Power diy
  // slice, under both backends: every outcome table is strictly
  // ascending, every key is canonical (outcomeFromKey inverts key()),
  // every allowed set is a subset of the consistent set, and the report
  // reader rebuilds the same tables.
  std::vector<LitmusTest> Tests = catalogueTests();
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MinEdges = Opts.MaxEdges = 5;
  Opts.Limit = 150;
  auto Source = makeDiyTestSource(Opts);
  ASSERT_TRUE(static_cast<bool>(Source)) << Source.message();
  for (LitmusTest Test; (*Source)(Test);)
    Tests.push_back(Test);
  ASSERT_GT(Tests.size(), catalogueTests().size() + 100);

  for (JudgeBackend Backend : {JudgeBackend::Pruned, JudgeBackend::Naive}) {
    SweepOptions Engine;
    Engine.Jobs = 2;
    Engine.Backend = Backend;
    SweepReport Report = SweepEngine(Engine).run(
        makeJobs(Tests, {modelByName("SC"), modelByName("Power")}));
    ASSERT_TRUE(Report.allOk());
    for (const SweepTestResult &T : Report.Tests) {
      const std::string Where =
          T.TestName + " (" + judgeBackendName(Backend) + ")";
      const std::vector<std::string> Keys(T.Result.ConsistentOutcomes.begin(),
                                          T.Result.ConsistentOutcomes.end());
      ASSERT_FALSE(Keys.empty()) << Where;
      for (size_t I = 1; I < Keys.size(); ++I)
        EXPECT_LT(Keys[I - 1], Keys[I]) << Where;
      for (const std::string &Key : Keys) {
        auto Back = outcomeFromKey(Key);
        ASSERT_TRUE(static_cast<bool>(Back)) << Where << ": " << Back.message();
        EXPECT_EQ(Back->key(), Key) << Where;
      }
      for (const SimulationResult &R : T.Result.PerModel)
        EXPECT_TRUE(std::includes(Keys.begin(), Keys.end(),
                                  R.AllowedOutcomes.begin(),
                                  R.AllowedOutcomes.end()))
            << Where << " under " << R.ModelName;
      auto Parsed = sweepTestResultFromJson(sweepTestResultToJson(T));
      ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
      EXPECT_EQ(Parsed->Result.ConsistentOutcomes, T.Result.ConsistentOutcomes)
          << Where;
    }
  }
}

TEST(ReportIO, ReaderCanonicalizesConsistentStates) {
  // A hand-edited consistent_states list with out-of-order fields, a
  // zero-padded value and an unsorted order reads back as canonical keys;
  // allowed_states resolve against the canonical table.
  auto Doc = JsonValue::parse(
      R"({"name":"t","candidates_total":2,"candidates_consistent":2,)"
      R"("consistent_states":["y=1;x=01;","0:r1=1;x=0;y=0;"],)"
      R"("models":[{"model":"SC","verdict":"Forbid","candidates_allowed":1,)"
      R"("allowed_states":["x=1;y=1;"]}]})");
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.message();
  auto Parsed = sweepTestResultFromJson(*Doc);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  const std::vector<std::string> Canonical{"0:r1=1;x=0;y=0;", "x=1;y=1;"};
  EXPECT_EQ(std::vector<std::string>(Parsed->Result.ConsistentOutcomes.begin(),
                                     Parsed->Result.ConsistentOutcomes.end()),
            Canonical);
  ASSERT_EQ(Parsed->Result.PerModel.size(), 1u);
  EXPECT_EQ(*Parsed->Result.PerModel[0].AllowedOutcomes.begin(), "x=1;y=1;");
  EXPECT_NE(sweepTestResultToJson(*Parsed).dump(0).find(
                R"("consistent_states":["0:r1=1;x=0;y=0;","x=1;y=1;"])"),
            std::string::npos);
}

TEST(ReportIO, OutcomeKeyRejectsGarbage) {
  for (const char *Bad :
       {"0:r0=1", "novalue;", "=1;", "0:q0=1;", "x:r0=1;", "0:r0=z;"})
    EXPECT_FALSE(static_cast<bool>(outcomeFromKey(Bad))) << Bad;
  // The empty outcome is legal (a test with no observed locations).
  EXPECT_TRUE(static_cast<bool>(outcomeFromKey("")));
}

TEST(ReportIO, SweepReportRoundTripsByteIdentically) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  SweepReport Report = SweepEngine({2}).run(
      makeJobs(Tests, {modelByName("SC"), modelByName("TSO")}));
  JsonValue Root = sweepReportToJson(Report);

  auto Parsed = sweepReportFromJson(Root);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.message();
  EXPECT_EQ(sweepReportToJson(*Parsed).dump(), Root.dump());
}

TEST(ReportIO, ReaderRejectsWrongSchema) {
  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-run-report/1");
  Root.set("tests", JsonValue::array());
  EXPECT_FALSE(static_cast<bool>(sweepReportFromJson(Root)));
}

TEST(ReportIO, ReaderRejectsAllowedStateOutsideConsistent) {
  const CatalogEntry *Entry = catalogEntry("mp");
  ASSERT_NE(Entry, nullptr);
  SweepReport Report = SweepEngine({1}).run(
      makeJobs({Entry->Test}, {modelByName("SC"), modelByName("Power")}));
  const std::string Text = sweepTestResultToJson(Report.Tests[0]).dump(0);
  ASSERT_TRUE(static_cast<bool>(
      sweepTestResultFromJson(*JsonValue::parse(Text))));

  // Hand-edit the Power entry: a well-formed key no consistent candidate
  // reaches.
  const std::string Bogus = "1:r1=7;1:r2=7;x=1;y=1;";
  const std::string Anchor = "\"allowed_states\":[";
  const size_t At = Text.rfind(Anchor);
  ASSERT_NE(At, std::string::npos) << Text;
  std::string Edited = Text;
  Edited.insert(At + Anchor.size(), "\"" + Bogus + "\",");
  auto Doc = JsonValue::parse(Edited);
  ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.message();
  auto Parsed = sweepTestResultFromJson(*Doc);
  ASSERT_FALSE(static_cast<bool>(Parsed));
  EXPECT_NE(Parsed.message().find(Entry->Test.Name), std::string::npos)
      << Parsed.message();
  EXPECT_NE(Parsed.message().find(Bogus), std::string::npos)
      << Parsed.message();

  // The whole-report reader refuses the entry too.
  JsonValue Root = sweepReportToJson(Report);
  JsonValue Tests = JsonValue::array();
  Tests.push(*Doc);
  Root.set("tests", std::move(Tests));
  EXPECT_FALSE(static_cast<bool>(sweepReportFromJson(Root)));
}

//===----------------------------------------------------------------------===//
// Result cache
//===----------------------------------------------------------------------===//

TEST(ResultCache, HitsAreByteIdenticalAndMutationsMiss) {
  const std::string Dir = scratchDir("cache");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache)) << Cache.message();

  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(8);
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("Power")};
  SweepEngine Engine({2});

  // Cold run: everything misses and populates the cache.
  SweepReport Cold = Engine.runStreamed(vectorSource(Tests), Models, 4,
                                        Cache->hooks(Models));
  EXPECT_TRUE(Cold.CacheUsed);
  EXPECT_EQ(Cold.CacheHits, 0ull);
  EXPECT_EQ(Cold.CacheMisses, Tests.size());

  // Warm run: everything hits, and the per-test entries are
  // byte-identical to the freshly judged ones (modulo wall times).
  SweepReport Warm = Engine.runStreamed(vectorSource(Tests), Models, 4,
                                        Cache->hooks(Models));
  EXPECT_EQ(Warm.CacheHits, Tests.size());
  EXPECT_EQ(Warm.CacheMisses, 0ull);
  ASSERT_EQ(Warm.Tests.size(), Cold.Tests.size());
  for (size_t I = 0; I < Cold.Tests.size(); ++I) {
    JsonValue A = sweepTestResultToJson(Cold.Tests[I]);
    JsonValue B = sweepTestResultToJson(Warm.Tests[I]);
    EXPECT_EQ(zeroWallTimes(A).dump(), zeroWallTimes(B).dump())
        << Cold.Tests[I].TestName;
  }

  // Any mutation of the concretized test text keys differently.
  LitmusTest Mutated = Tests[0];
  Mutated.Init["x"] = 7;
  EXPECT_NE(resultCacheKey(Tests[0], Models), resultCacheKey(Mutated, Models));
  SweepTestResult Out;
  EXPECT_FALSE(Cache->lookup(Mutated, Models, Out));

  // So does the model set and its order.
  std::vector<const Model *> Reordered = {Models[1], Models[0]};
  EXPECT_NE(resultCacheKey(Tests[0], Models),
            resultCacheKey(Tests[0], Reordered));
  EXPECT_FALSE(Cache->lookup(Tests[0], Reordered, Out));
  EXPECT_TRUE(Cache->lookup(Tests[0], Models, Out));
}

TEST(ResultCache, ModelDefinitionEditsMiss) {
  // The key covers Model::definitionFingerprint(), so editing a model's
  // *definition* — not just its display name — invalidates its entries.
  const std::string Dir = scratchDir("cache_model_edit");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));

  const std::string SourceV1 = "let hb = po | rfe\n"
                               "let prop = po | rf | fr\n"
                               "acyclic po-loc | com as sc-per-location\n"
                               "acyclic hb as no-thin-air\n"
                               "irreflexive fre; prop; hb* as observation\n"
                               "acyclic co | prop as propagation\n";
  // Same checks, weaker hb: a semantic edit under an unchanged name.
  const std::string SourceV2 = "let hb = rfe\n"
                               "let prop = rf | fr\n"
                               "acyclic po-loc | com as sc-per-location\n"
                               "acyclic hb as no-thin-air\n"
                               "irreflexive fre; prop; hb* as observation\n"
                               "acyclic co | prop as propagation\n";
  auto V1 = CatAdapterModel::fromSource(SourceV1, "edited");
  auto V2 = CatAdapterModel::fromSource(SourceV2, "edited");
  ASSERT_TRUE(static_cast<bool>(V1)) << V1.message();
  ASSERT_TRUE(static_cast<bool>(V2)) << V2.message();
  EXPECT_EQ(V1->name(), V2->name());
  EXPECT_NE(V1->definitionFingerprint(), V2->definitionFingerprint());

  const LitmusTest Test = catalogueTests().front();
  const std::vector<const Model *> WithV1 = {modelByName("SC"), &*V1};
  const std::vector<const Model *> WithV2 = {modelByName("SC"), &*V2};
  EXPECT_NE(resultCacheKey(Test, WithV1), resultCacheKey(Test, WithV2));

  // Store under the v1 definition; the same name with the v2 definition
  // must miss, and v1 must still hit.
  const SweepTestResult Stored =
      SweepEngine({1}).run(makeJobs({Test}, WithV1)).Tests.front();
  ASSERT_FALSE(Cache->store(Test, WithV1, Stored).failed());
  SweepTestResult Out;
  EXPECT_TRUE(Cache->lookup(Test, WithV1, Out));
  EXPECT_FALSE(Cache->lookup(Test, WithV2, Out));

  // Native models key on their architecture configuration, not just the
  // display name either.
  EXPECT_NE(modelByName("Power")->definitionFingerprint(),
            modelByName("ARM")->definitionFingerprint());
}

TEST(ResultCache, CollisionGuardRejectsForeignEntries) {
  const std::string Dir = scratchDir("cache_collide");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  std::vector<const Model *> Models = {modelByName("SC")};

  std::vector<LitmusTest> Tests = catalogueTests();
  SweepReport Report =
      SweepEngine({1}).run(makeJobs({Tests[0]}, Models));
  ASSERT_TRUE(Cache->store(Tests[0], Models, Report.Tests[0]));

  // Hand-plant Tests[0]'s entry under Tests[1]'s key: a (hypothetical)
  // hash collision. The stored name no longer matches, so lookup treats
  // it as a miss instead of serving a wrong verdict.
  const std::string From =
      Dir + "/" + resultCacheKey(Tests[0], Models).substr(0, 2) + "/" +
      resultCacheKey(Tests[0], Models) + ".json";
  const std::string ToKey = resultCacheKey(Tests[1], Models);
  std::filesystem::create_directories(Dir + "/" + ToKey.substr(0, 2));
  std::filesystem::copy_file(From, Dir + "/" + ToKey.substr(0, 2) + "/" +
                                       ToKey + ".json");
  SweepTestResult Out;
  EXPECT_FALSE(Cache->lookup(Tests[1], Models, Out));
}

TEST(ResultCache, EntriesWithOtherModelsMiss) {
  // A stored entry edited by hand (or bit-flipped) so that its per-model
  // list no longer matches the requested models must not be served: the
  // rerun re-judges that test and equals the uncached run.
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(3);
  const std::vector<const Model *> Models = {modelByName("SC"),
                                             modelByName("Power")};
  const SweepReport Uncached = SweepEngine({1}).run(makeJobs(Tests, Models));

  using Edit = std::function<JsonValue(const std::vector<JsonValue> &)>;
  const std::vector<std::pair<std::string, Edit>> Edits = {
      {"dropped",
       [](const std::vector<JsonValue> &M) {
         JsonValue Out = JsonValue::array();
         Out.push(M[0]);
         return Out;
       }},
      {"renamed",
       [](const std::vector<JsonValue> &M) {
         JsonValue Out = JsonValue::array();
         Out.push(M[0]);
         JsonValue Renamed = M[1];
         Renamed.set("model", "ARM");
         Out.push(std::move(Renamed));
         return Out;
       }},
      {"reordered", [](const std::vector<JsonValue> &M) {
         JsonValue Out = JsonValue::array();
         Out.push(M[1]);
         Out.push(M[0]);
         return Out;
       }}};
  for (const auto &[What, Apply] : Edits) {
    const std::string Dir = scratchDir("cache_edit_" + What);
    auto Cache = ResultCache::open(Dir);
    ASSERT_TRUE(static_cast<bool>(Cache));
    SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 2,
                                 Cache->hooks(Models));

    const std::string Key = resultCacheKey(Tests[0], Models);
    const std::string Path =
        Dir + "/" + Key.substr(0, 2) + "/" + Key + ".json";
    std::ifstream In(Path);
    ASSERT_TRUE(In.good()) << Path;
    std::stringstream Buf;
    Buf << In.rdbuf();
    In.close();
    auto Doc = JsonValue::parse(Buf.str());
    ASSERT_TRUE(static_cast<bool>(Doc)) << Doc.message();
    JsonValue Result = *Doc->get("result");
    Result.set("models", Apply(Result.get("models")->elements()));
    Doc->set("result", std::move(Result));
    std::ofstream(Path) << Doc->dump();

    SweepReport Rerun = SweepEngine({1}).runStreamed(
        vectorSource(Tests), Models, 2, Cache->hooks(Models));
    EXPECT_EQ(Rerun.CacheMisses, 1ull) << What;
    EXPECT_EQ(Rerun.CacheHits, Tests.size() - 1) << What;
    ASSERT_EQ(Rerun.Tests.size(), Uncached.Tests.size()) << What;
    for (size_t I = 0; I < Tests.size(); ++I)
      EXPECT_EQ(zeroWallTimes(sweepTestResultToJson(Rerun.Tests[I])).dump(),
                zeroWallTimes(sweepTestResultToJson(Uncached.Tests[I])).dump())
          << What << " " << Tests[I].Name;
  }
}

TEST(ResultCache, ErroredResultsAreNotCached) {
  const std::string Dir = scratchDir("cache_error");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));
  std::vector<const Model *> Models = {modelByName("SC")};
  LitmusTest Test = catalogueTests()[0];
  SweepTestResult Errored;
  Errored.TestName = Test.Name;
  Errored.Error = "synthetic failure";
  ASSERT_TRUE(Cache->store(Test, Models, Errored));
  SweepTestResult Out;
  EXPECT_FALSE(Cache->lookup(Test, Models, Out));
}

//===----------------------------------------------------------------------===//
// Checkpoint / resume
//===----------------------------------------------------------------------===//

TEST(Checkpoint, ResumeAfterKillEqualsUninterrupted) {
  const std::string Dir = scratchDir("checkpoint");
  const std::string Path = Dir + "/campaign.jsonl";
  const std::string Id = campaignId("tool=test;models=SC,TSO");

  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(12);
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("TSO")};
  SweepEngine Engine({2});

  const std::string Reference =
      scrubbedDump(Engine.runStreamed(vectorSource(Tests), Models, 4));

  // Phase A: the "killed" run covers only the first 7 tests (batches of
  // 4: progress lines at 4 and 7).
  {
    auto Writer = CheckpointWriter::create(Path, Id);
    ASSERT_TRUE(static_cast<bool>(Writer)) << Writer.message();
    size_t LastWritten = 0;
    StreamHooks Hooks;
    Hooks.OnBatch = [&](const SweepReport &SoFar,
                        unsigned long long Consumed) {
      std::vector<SweepTestResult> Slice(SoFar.Tests.begin() + LastWritten,
                                         SoFar.Tests.end());
      LastWritten = SoFar.Tests.size();
      ASSERT_TRUE(Writer->appendBatch(Slice, Consumed, SoFar.CacheHits,
                                      SoFar.CacheMisses));
    };
    std::vector<LitmusTest> Partial(Tests.begin(), Tests.begin() + 7);
    Engine.runStreamed(vectorSource(Partial), Models, 4, Hooks);
  }
  // The kill also tore the file mid-append: two entries of the next
  // batch landed without their progress line, the last one cut short.
  {
    std::ofstream Tail(Path, std::ios::app);
    JsonValue Line = JsonValue::object();
    Line.set("entry", sweepTestResultToJson(SweepTestResult{
                          "orphan", "", MultiSimulationResult{}, 0}));
    Tail << Line.dump(0) << "\n";
    Tail << "{\"entry\":{\"name\":\"torn";
  }

  // Phase B: load, trim to the last completed batch, resume.
  auto State = loadCheckpoint(Path, Id);
  ASSERT_TRUE(static_cast<bool>(State)) << State.message();
  EXPECT_EQ(State->Consumed, 7ull);
  ASSERT_EQ(State->Tests.size(), 7u);
  // Header, 4 + 1 and 3 + 1 batch lines, the orphan: the torn line is 12.
  EXPECT_EQ(State->TrimReason, "line 12: torn line");

  StreamHooks Hooks;
  Hooks.SkipTests = State->Consumed;
  SweepReport Resumed =
      Engine.runStreamed(vectorSource(Tests), Models, 4, Hooks);
  Resumed.Tests.insert(Resumed.Tests.begin(),
                       std::make_move_iterator(State->Tests.begin()),
                       std::make_move_iterator(State->Tests.end()));
  EXPECT_EQ(scrubbedDump(Resumed), Reference);
}

TEST(Checkpoint, SecondResumeAfterTrimReadsClean) {
  const std::string Dir = scratchDir("checkpoint_twice");
  const std::string Path = Dir + "/campaign.jsonl";
  const std::string Id = campaignId("tool=test;models=SC,TSO;twice");

  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(12);
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("TSO")};
  SweepEngine Engine({2});
  const SweepReport Reference =
      Engine.runStreamed(vectorSource(Tests), Models, 4);

  // Runs \p Source from test \p Skip on, appending each batch to Writer
  // with cumulative totals, as a resumed campaign does.
  auto Run = [&](CheckpointWriter &Writer, TestSource Source,
                 unsigned long long Skip) {
    size_t LastWritten = 0;
    StreamHooks Hooks;
    Hooks.SkipTests = Skip;
    Hooks.OnBatch = [&](const SweepReport &SoFar,
                        unsigned long long Consumed) {
      std::vector<SweepTestResult> Slice(SoFar.Tests.begin() + LastWritten,
                                         SoFar.Tests.end());
      LastWritten = SoFar.Tests.size();
      ASSERT_TRUE(Writer.appendBatch(Slice, Skip + Consumed, 0, 0));
    };
    Engine.runStreamed(std::move(Source), Models, 4, Hooks);
  };

  // The first run covers 7 tests, then dies mid-line.
  {
    auto Writer = CheckpointWriter::create(Path, Id);
    ASSERT_TRUE(static_cast<bool>(Writer)) << Writer.message();
    Run(*Writer, vectorSource({Tests.begin(), Tests.begin() + 7}), 0);
  }
  {
    std::ofstream Tail(Path, std::ios::app);
    Tail << "{\"entry\":{\"name\":\"torn";
  }

  // First resume: trims the torn line, truncates it away, finishes.
  auto First = loadCheckpoint(Path, Id);
  ASSERT_TRUE(static_cast<bool>(First)) << First.message();
  EXPECT_EQ(First->Consumed, 7ull);
  EXPECT_EQ(First->TrimReason, "line 11: torn line");
  EXPECT_LT(First->TrustedBytes, std::filesystem::file_size(Path));
  {
    auto Writer = CheckpointWriter::append(Path, First->TrustedBytes);
    ASSERT_TRUE(static_cast<bool>(Writer)) << Writer.message();
    Run(*Writer, vectorSource(Tests), First->Consumed);
  }

  // Second resume: the file holds the whole campaign and nothing else.
  auto Second = loadCheckpoint(Path, Id);
  ASSERT_TRUE(static_cast<bool>(Second)) << Second.message();
  EXPECT_EQ(Second->TrimReason, "");
  EXPECT_EQ(Second->Consumed, 12ull);
  EXPECT_EQ(Second->TrustedBytes, std::filesystem::file_size(Path));
  ASSERT_EQ(Second->Tests.size(), Reference.Tests.size());
  for (size_t I = 0; I < Reference.Tests.size(); ++I)
    EXPECT_EQ(zeroWallTimes(sweepTestResultToJson(Second->Tests[I])).dump(),
              zeroWallTimes(sweepTestResultToJson(Reference.Tests[I])).dump())
        << Reference.Tests[I].TestName;
}

TEST(Checkpoint, RefusesForeignCampaigns) {
  const std::string Dir = scratchDir("checkpoint_id");
  const std::string Path = Dir + "/c.jsonl";
  {
    auto Writer = CheckpointWriter::create(Path, campaignId("spec-a"));
    ASSERT_TRUE(static_cast<bool>(Writer));
  }
  EXPECT_TRUE(static_cast<bool>(loadCheckpoint(Path, campaignId("spec-a"))));
  auto Foreign = loadCheckpoint(Path, campaignId("spec-b"));
  EXPECT_FALSE(static_cast<bool>(Foreign));
  EXPECT_NE(Foreign.message().find("different campaign"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Merging
//===----------------------------------------------------------------------===//

namespace {

/// Runs one shard of the catalogue campaign and returns its report
/// document with the shard stanza, exactly as cats_sweep --shard writes.
JsonValue shardReportDoc(const std::vector<LitmusTest> &Tests,
                         const std::vector<const Model *> &Models,
                         unsigned K, unsigned N) {
  SweepReport Report = SweepEngine({2}).runStreamed(
      shardTestSource(vectorSource(Tests), ShardSpec{K, N}), Models, 8);
  JsonValue Doc = sweepReportToJson(Report);
  Doc.set("shard", shardToJson(ShardSpec{K, N}));
  return Doc;
}

} // namespace

TEST(Merge, ShardedSweepMergesByteIdenticallyToSingleRun) {
  const std::vector<LitmusTest> Tests = catalogueTests();
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("Power")};
  const unsigned N = 3;

  const std::string Reference = scrubbedDump(
      SweepEngine({2}).runStreamed(vectorSource(Tests), Models, 8));

  std::vector<JsonValue> Shards;
  for (unsigned K = 1; K <= N; ++K)
    Shards.push_back(shardReportDoc(Tests, Models, K, N));

  auto Merged = mergeSweepReports(Shards);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  EXPECT_EQ(zeroWallTimes(*Merged).dump(), Reference);
  // Shard order on the command line must not matter.
  std::swap(Shards[0], Shards[2]);
  auto Shuffled = mergeSweepReports(Shards);
  ASSERT_TRUE(static_cast<bool>(Shuffled));
  EXPECT_EQ(zeroWallTimes(*Shuffled).dump(), Reference);
}

TEST(Merge, SingleInputPassesThrough) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(5);
  std::vector<const Model *> Models = {modelByName("SC")};
  JsonValue Doc =
      sweepReportToJson(SweepEngine({1}).runStreamed(
          vectorSource(Tests), Models, 8));
  auto Merged = mergeSweepReports({Doc});
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  EXPECT_EQ(Merged->dump(), Doc.dump());
}

TEST(Merge, RejectsBrokenShardSets) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  std::vector<const Model *> Models = {modelByName("SC")};

  // Incomplete: 2 of 3 shards.
  auto Incomplete = mergeSweepReports({shardReportDoc(Tests, Models, 1, 3),
                                       shardReportDoc(Tests, Models, 2, 3)});
  EXPECT_FALSE(static_cast<bool>(Incomplete));
  EXPECT_NE(Incomplete.message().find("incomplete"), std::string::npos);

  // Duplicate index.
  auto Duplicate = mergeSweepReports({shardReportDoc(Tests, Models, 1, 2),
                                      shardReportDoc(Tests, Models, 1, 2)});
  EXPECT_FALSE(static_cast<bool>(Duplicate));

  // Sharded mixed with unsharded.
  JsonValue Plain = sweepReportToJson(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8));
  auto Mixed =
      mergeSweepReports({shardReportDoc(Tests, Models, 1, 2), Plain});
  EXPECT_FALSE(static_cast<bool>(Mixed));
}

TEST(Merge, CacheCountersSumAcrossShards) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(6);
  std::vector<const Model *> Models = {modelByName("SC")};
  const std::string Dir = scratchDir("merge_cache");
  auto Cache = ResultCache::open(Dir);
  ASSERT_TRUE(static_cast<bool>(Cache));

  std::vector<JsonValue> Docs;
  for (unsigned K = 1; K <= 2; ++K) {
    SweepReport R = SweepEngine({1}).runStreamed(
        shardTestSource(vectorSource(Tests), ShardSpec{K, 2}), Models, 4,
        Cache->hooks(Models));
    JsonValue Doc = sweepReportToJson(R);
    Doc.set("shard", shardToJson(ShardSpec{K, 2}));
    Docs.push_back(Doc);
  }
  auto Merged = mergeSweepReports(Docs);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();
  const JsonValue *CacheStanza = Merged->get("cache");
  ASSERT_NE(CacheStanza, nullptr);
  EXPECT_EQ(CacheStanza->get("hits")->asNumber() +
                CacheStanza->get("misses")->asNumber(),
            static_cast<double>(Tests.size()));
}

TEST(Merge, DispatchRejectsMixedAndUnknownSchemas) {
  JsonValue Sweep = JsonValue::object();
  Sweep.set("schema", "cats-sweep-report/1");
  Sweep.set("tests", JsonValue::array());
  JsonValue Mine = JsonValue::object();
  Mine.set("schema", "cats-mine-report/1");
  EXPECT_FALSE(static_cast<bool>(mergeReports({Sweep, Mine})));

  JsonValue Run = JsonValue::object();
  Run.set("schema", "cats-run-report/1");
  auto Unknown = mergeReports({Run});
  EXPECT_FALSE(static_cast<bool>(Unknown));
  EXPECT_NE(Unknown.message().find("not mergeable"), std::string::npos);
}

TEST(Merge, ZeroWallTimesOnlyTouchesNumericWallFields) {
  auto Doc = JsonValue::parse(
      R"({"wall_seconds": 1.5, "nested": [{"wall_seconds": 2}],)"
      R"( "wall_seconds_str": "keep", "other": 3})");
  ASSERT_TRUE(static_cast<bool>(Doc));
  JsonValue Zeroed = zeroWallTimes(*Doc);
  EXPECT_EQ(Zeroed.get("wall_seconds")->asNumber(), 0);
  EXPECT_EQ(Zeroed.get("nested")->elements()[0].get("wall_seconds")
                ->asNumber(),
            0);
  EXPECT_EQ(Zeroed.get("other")->asNumber(), 3);
}

//===----------------------------------------------------------------------===//
// Mine-report merging
//===----------------------------------------------------------------------===//

TEST(MineMerge, ShardAggregatesEqualTheFullMine) {
  const std::vector<LitmusTest> Tests = catalogueTests();
  std::vector<const Model *> Models = {modelByName("SC"),
                                       modelByName("Power")};
  SweepEngine Engine({2});

  MineReport Full = mineSweepReport(
      Engine.runStreamed(vectorSource(Tests), Models, 16));

  std::vector<MineReport> Parts;
  for (unsigned K = 1; K <= 3; ++K)
    Parts.push_back(mineSweepReport(Engine.runStreamed(
        shardTestSource(vectorSource(Tests), ShardSpec{K, 3}), Models, 16)));
  auto Merged = mergeMineReports(Parts);
  ASSERT_TRUE(static_cast<bool>(Merged)) << Merged.message();

  EXPECT_EQ(Merged->CorpusTests, Full.CorpusTests);
  EXPECT_EQ(Merged->CorpusErrors, Full.CorpusErrors);
  EXPECT_EQ(Merged->Models, Full.Models);
  ASSERT_EQ(Merged->Families.size(), Full.Families.size());
  for (size_t I = 0; I < Full.Families.size(); ++I) {
    const FamilyVerdicts &A = Full.Families[I];
    const FamilyVerdicts &B = Merged->Families[I];
    EXPECT_EQ(A.Family, B.Family);
    EXPECT_EQ(A.Tests, B.Tests);
    ASSERT_EQ(A.PerModel.size(), B.PerModel.size());
    for (size_t J = 0; J < A.PerModel.size(); ++J) {
      EXPECT_EQ(A.PerModel[J].Model, B.PerModel[J].Model);
      EXPECT_EQ(A.PerModel[J].Allowed, B.PerModel[J].Allowed);
      EXPECT_EQ(A.PerModel[J].Forbidden, B.PerModel[J].Forbidden);
    }
    // Merged test_names are the sorted normal form.
    std::vector<std::string> Sorted = A.TestNames;
    std::sort(Sorted.begin(), Sorted.end());
    EXPECT_EQ(B.TestNames, Sorted) << A.Family;
  }
}

TEST(MineMerge, JsonRoundTripAndStaticRefusal) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(10);
  std::vector<const Model *> Models = {modelByName("SC")};
  MineReport Mined = mineSweepReport(
      SweepEngine({1}).runStreamed(vectorSource(Tests), Models, 8));

  JsonValue Doc = mineReportToJson(Mined);
  auto Back = mineReportFromJson(Doc);
  ASSERT_TRUE(static_cast<bool>(Back)) << Back.message();
  EXPECT_EQ(mineReportToJson(*Back).dump(), Doc.dump());

  // Reports carrying static analyses cannot be merged shard-wise.
  Mined.StaticReports.push_back(MoleReport{});
  auto Refused = mineReportFromJson(mineReportToJson(Mined));
  EXPECT_FALSE(static_cast<bool>(Refused));
  EXPECT_NE(Refused.message().find("static"), std::string::npos);
}

TEST(MineMerge, JsonLevelMergeMatchesStructMerge) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(12);
  std::vector<const Model *> Models = {modelByName("SC")};
  SweepEngine Engine({1});

  std::vector<JsonValue> Docs;
  std::vector<MineReport> Parts;
  for (unsigned K = 1; K <= 2; ++K) {
    MineReport Part = mineSweepReport(Engine.runStreamed(
        shardTestSource(vectorSource(Tests), ShardSpec{K, 2}), Models, 8));
    Docs.push_back(mineReportToJson(Part));
    Parts.push_back(std::move(Part));
  }
  auto ViaJson = mergeMineReports(Docs);
  ASSERT_TRUE(static_cast<bool>(ViaJson)) << ViaJson.message();
  auto ViaStructs = mergeMineReports(Parts);
  ASSERT_TRUE(static_cast<bool>(ViaStructs));
  EXPECT_EQ(ViaJson->dump(), mineReportToJson(*ViaStructs).dump());
}

//===----------------------------------------------------------------------===//
// Hostile counts: every JSON count reader accepts only integers in
// [0, 2^53] and names the offending field otherwise
//===----------------------------------------------------------------------===//

namespace {

/// The non-counts every reader must refuse: negative, fractional, and
/// beyond any integer type.
const double HostileCounts[] = {-1, 2.5, 1e300};

/// True when \p Message names \p Field as a bad count.
bool namesField(const std::string &Message, const std::string &Field) {
  return Message.find("'" + Field + "' is ") != std::string::npos;
}

} // namespace

TEST(HostileCounts, AccessorAcceptsOnlyIntegersInRange) {
  EXPECT_EQ(*jsonCount(nullptr, "n"), 0ull);
  const JsonValue Zero(0), Top(static_cast<double>(MaxJsonCount));
  EXPECT_EQ(*jsonCount(&Zero, "n"), 0ull);
  EXPECT_EQ(*jsonCount(&Top, "n"), MaxJsonCount);
  const JsonValue Over(static_cast<double>(MaxJsonCount) * 2), Text("7");
  EXPECT_TRUE(namesField(jsonCount(&Over, "n").message(), "n"));
  EXPECT_TRUE(namesField(jsonCount(&Text, "n").message(), "n"));
  const JsonValue Big(5000000000.0);
  EXPECT_FALSE(static_cast<bool>(jsonCount(&Big, "n", 4294967295u)));
  for (double Bad : HostileCounts) {
    const JsonValue V(Bad);
    auto N = jsonCount(&V, "n");
    EXPECT_FALSE(static_cast<bool>(N)) << Bad;
    EXPECT_TRUE(namesField(N.message(), "n")) << N.message();
  }
}

TEST(HostileCounts, SweepReportReaderRejects) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(2);
  SweepReport Report =
      SweepEngine({1}).run(makeJobs(Tests, {modelByName("SC")}));
  Report.CacheUsed = true;
  const JsonValue Good = sweepReportToJson(Report);
  ASSERT_TRUE(static_cast<bool>(sweepReportFromJson(Good)));
  for (double Bad : HostileCounts) {
    JsonValue Root = Good;
    Root.set("jobs", Bad);
    auto Parsed = sweepReportFromJson(Root);
    ASSERT_FALSE(static_cast<bool>(Parsed)) << Bad;
    EXPECT_TRUE(namesField(Parsed.message(), "jobs")) << Parsed.message();

    JsonValue Cache = JsonValue::object();
    Cache.set("hits", 0);
    Cache.set("misses", Bad);
    Root = Good;
    Root.set("cache", Cache);
    Parsed = sweepReportFromJson(Root);
    ASSERT_FALSE(static_cast<bool>(Parsed)) << Bad;
    EXPECT_TRUE(namesField(Parsed.message(), "misses")) << Parsed.message();

    JsonValue Entry = sweepTestResultToJson(Report.Tests[0]);
    Entry.set("candidates_consistent", Bad);
    auto Test = sweepTestResultFromJson(Entry);
    ASSERT_FALSE(static_cast<bool>(Test)) << Bad;
    EXPECT_TRUE(namesField(Test.message(), "candidates_consistent"))
        << Test.message();
  }
}

TEST(HostileCounts, CheckpointTrimsAtBadProgressLine) {
  const std::string Dir = scratchDir("checkpoint_counts");
  const std::string Path = Dir + "/c.jsonl";
  const std::string Id = campaignId("hostile");
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(4);
  SweepReport Report =
      SweepEngine({1}).run(makeJobs(Tests, {modelByName("SC")}));
  for (const char *Field : {"consumed", "hits", "misses"})
    for (double Bad : HostileCounts) {
      {
        auto Writer = CheckpointWriter::create(Path, Id);
        ASSERT_TRUE(static_cast<bool>(Writer)) << Writer.message();
        ASSERT_TRUE(Writer->appendBatch({Report.Tests[0], Report.Tests[1]},
                                        2, 0, 2));
      }
      // A second batch whose progress line carries the hostile count.
      {
        std::ofstream Tail(Path, std::ios::app);
        for (size_t I = 2; I < 4; ++I) {
          JsonValue Line = JsonValue::object();
          Line.set("entry", sweepTestResultToJson(Report.Tests[I]));
          Tail << Line.dump(0) << "\n";
        }
        JsonValue Totals = JsonValue::object();
        Totals.set("consumed", 4);
        Totals.set("hits", 0);
        Totals.set("misses", 4);
        Totals.set(Field, Bad);
        JsonValue Progress = JsonValue::object();
        Progress.set("progress", Totals);
        Tail << Progress.dump(0) << "\n";
      }
      auto State = loadCheckpoint(Path, Id);
      ASSERT_TRUE(static_cast<bool>(State)) << State.message();
      EXPECT_EQ(State->Consumed, 2ull) << Field << " " << Bad;
      EXPECT_EQ(State->Tests.size(), 2u);
      EXPECT_EQ(State->CacheMisses, 2ull);
      EXPECT_TRUE(namesField(State->TrimReason, Field)) << State->TrimReason;
      EXPECT_EQ(State->TrimReason.rfind("line 7: ", 0), 0u)
          << State->TrimReason;
    }
}

TEST(HostileCounts, MergeRejects) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(2);
  const JsonValue Good = sweepReportToJson(
      SweepEngine({1}).run(makeJobs(Tests, {modelByName("SC")})));
  ASSERT_TRUE(static_cast<bool>(mergeSweepReports({Good, Good})));
  for (double Bad : HostileCounts) {
    JsonValue Doc = Good;
    Doc.set("jobs", Bad);
    auto Merged = mergeSweepReports({Good, Doc});
    ASSERT_FALSE(static_cast<bool>(Merged)) << Bad;
    EXPECT_TRUE(namesField(Merged.message(), "jobs")) << Merged.message();
    EXPECT_NE(Merged.message().find("input 2"), std::string::npos);

    JsonValue Cache = JsonValue::object();
    Cache.set("hits", Bad);
    Cache.set("misses", 0);
    Doc = Good;
    Doc.set("cache", Cache);
    Merged = mergeSweepReports({Doc, Good});
    ASSERT_FALSE(static_cast<bool>(Merged)) << Bad;
    EXPECT_TRUE(namesField(Merged.message(), "hits")) << Merged.message();
  }
}

TEST(HostileCounts, ShardStanzaRejects) {
  for (const char *Field : {"index", "count"})
    for (double Bad : HostileCounts) {
      JsonValue Stanza = shardToJson(ShardSpec{1, 2});
      Stanza.set(Field, Bad);
      auto Spec = shardFromJson(Stanza);
      ASSERT_FALSE(static_cast<bool>(Spec)) << Field << " " << Bad;
      EXPECT_TRUE(namesField(Spec.message(), Field)) << Spec.message();
    }
}

TEST(HostileCounts, MetricsMergeRejects) {
  auto Metrics = [](const char *Counter, double N, double HistSum) {
    JsonValue Doc = JsonValue::object();
    Doc.set("schema", "cats-metrics/1");
    JsonValue Counters = JsonValue::object();
    Counters.set(Counter, N);
    Doc.set("counters", Counters);
    JsonValue Hist = JsonValue::object();
    Hist.set("count", 1);
    Hist.set("sum", HistSum);
    Hist.set("buckets", JsonValue::array());
    JsonValue Hists = JsonValue::object();
    Hists.set("h", Hist);
    Doc.set("histograms", Hists);
    return Doc;
  };
  std::string Error;
  JsonValue Into = Metrics("c", 1, 1);
  ASSERT_TRUE(obs::mergeMetricsJson(Into, Metrics("c", 2, 3), Error))
      << Error;
  for (double Bad : HostileCounts) {
    Into = Metrics("c", 1, 1);
    EXPECT_FALSE(obs::mergeMetricsJson(Into, Metrics("c", Bad, 1), Error));
    EXPECT_TRUE(namesField(Error, "counters.c")) << Error;
    Into = Metrics("c", 1, 1);
    EXPECT_FALSE(obs::mergeMetricsJson(Into, Metrics("c", 1, Bad), Error));
    EXPECT_TRUE(namesField(Error, "histograms.h.sum")) << Error;
  }
}

TEST(HostileCounts, MineReportReaderRejects) {
  std::vector<LitmusTest> Tests = catalogueTests();
  Tests.resize(4);
  const JsonValue Good = mineReportToJson(mineSweepReport(
      SweepEngine({1}).run(makeJobs(Tests, {modelByName("SC")}))));
  ASSERT_TRUE(static_cast<bool>(mineReportFromJson(Good)));
  for (double Bad : HostileCounts) {
    JsonValue Corpus = *Good.get("corpus");
    Corpus.set("errors", Bad);
    JsonValue Root = Good;
    Root.set("corpus", Corpus);
    auto Parsed = mineReportFromJson(Root);
    ASSERT_FALSE(static_cast<bool>(Parsed)) << Bad;
    EXPECT_TRUE(namesField(Parsed.message(), "errors")) << Parsed.message();
  }
}
