//===- cats_e2e.cpp - End-to-end and per-layer benchmark passes -----------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark binary behind BENCHMARK.json (README.md beside this file
/// documents workloads, metrics and oracles). One process runs one pass of
/// one workload through the public entry points the tools use --
/// makeDiyTestSource, SweepEngine::runStreamed (with ResultCache hooks and
/// a CheckpointWriter where the workload needs them), sweepReportToJson, a
/// file -- checks the outputs against the workload's correctness oracles,
/// and prints one JSON object on stdout:
///
///   cats_e2e pass|setup|trace --workload W --work DIR [--seed N]
///                             [--workers N] [--reference FILE]
///                             [--expected FILE]
///   cats_e2e reference --out FILE [--workers N]
///
/// `pass` is one end-to-end sample; run.py times the process from spawn to
/// exit. `setup` runs the same pass only until its first test reaches the
/// engine, for more set-up samples per run. `trace` runs the pass behind
/// single-threaded layer loops and obs probes, timing every layer from
/// outside with obs::Span-backed scopes around calls into that layer's
/// public functions. `reference` writes the naive-backend report digests the
/// size-7 oracles compare against; the size-7 passes are also held to
/// --expected, the same digests as made when this benchmark was written and
/// committed beside this file (power7-expected.txt), so a change to a layer
/// the naive and pruned backends share does not move both sides of the
/// comparison.
///
//===----------------------------------------------------------------------===//

#include "campaign/Checkpoint.h"
#include "campaign/Merge.h"
#include "campaign/ResultCache.h"
#include "cat/CatAdapter.h"
#include "diy/Enumerate.h"
#include "herd/Simulator.h"
#include "litmus/Compiler.h"
#include "litmus/Parser.h"
#include "model/Registry.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Rng.h"
#include "sweep/Json.h"
#include "sweep/ReportIO.h"
#include "sweep/SweepEngine.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cats;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

[[noreturn]] void fatal(const std::string &Message) {
  std::fprintf(stderr, "cats_e2e: %s\n", Message.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Layer scopes
//===----------------------------------------------------------------------===//

/// Accumulated self time and scope count of one layer name.
struct LayerTotals {
  double Self = 0;
  unsigned long long Calls = 0;
};

/// Every layer scope of the process, by name. Scopes only open on the main
/// thread: runStreamed invokes its hooks on the calling thread.
std::map<std::string, LayerTotals> Layers;

/// A timed call into one layer: an obs::Span (recorded when tracing is on)
/// plus a steady-clock interval whose self time -- its duration minus that
/// of the layer scopes nested in it -- accumulates under its name.
class LayerScope {
public:
  explicit LayerScope(const char *Name)
      : Name(Name), Span(Name), Parent(Current), Start(Clock::now()) {
    Current = this;
  }
  ~LayerScope() {
    const double Duration = secondsBetween(Start, Clock::now());
    Current = Parent;
    LayerTotals &T = Layers[Name];
    T.Self += Duration - Children;
    ++T.Calls;
    if (Parent)
      Parent->Children += Duration;
  }
  LayerScope(const LayerScope &) = delete;
  LayerScope &operator=(const LayerScope &) = delete;

private:
  static inline LayerScope *Current = nullptr;
  const char *Name;
  obs::Span Span;
  LayerScope *Parent;
  Clock::time_point Start;
  double Children = 0;
};

double layerSeconds(const char *Name) {
  auto It = Layers.find(Name);
  return It == Layers.end() ? 0.0 : It->second.Self;
}

/// Self time per scope of \p Name: for layers a pass calls more than once
/// with the same work (enumeration, model loading).
double secondsPerCall(const char *Name) {
  auto It = Layers.find(Name);
  return It == Layers.end() ? 0.0 : It->second.Self / It->second.Calls;
}

/// The scope name of the benchmark's own checks (oracles, disk accounting):
/// run.py subtracts its time from the process wall.
constexpr const char *CheckLayer = "bench.check";

//===----------------------------------------------------------------------===//
// Workloads and models
//===----------------------------------------------------------------------===//

enum class Workload { Report, InternalCat, Campaign };

struct WorkloadInfo {
  const char *Name;
  Workload Kind;
  unsigned MaxEdges;
  bool InternalCom;
  size_t ExpectedTests;
};

const WorkloadInfo AllWorkloads[] = {
    {"power7-report", Workload::Report, 7, false, 8994},
    {"internal6-cat", Workload::InternalCat, 6, true, 10417},
    {"power7-campaign", Workload::Campaign, 7, false, 8994},
};

EnumerateOptions corpusOptions(unsigned MaxEdges, bool InternalCom) {
  EnumerateOptions Opts;
  Opts.Target = Arch::Power;
  Opts.MaxEdges = MaxEdges;
  Opts.InternalCom = InternalCom;
  return Opts;
}

EnumerateOptions corpusOptions(const WorkloadInfo &W) {
  return corpusOptions(W.MaxEdges, W.InternalCom);
}

/// The .cat files of models/, in the order the cat sweep judges them.
const char *const CatStems[] = {"sc", "tso", "cxx-ra", "power",
                                "power-nodetour", "arm", "arm-llh"};

/// The .cat/native pairs the internal6-cat oracle holds equal.
const std::pair<const char *, const char *> CatNativePairs[] = {
    {"sc", "SC"},       {"tso", "TSO"}, {"cxx-ra", "C++RA"},
    {"power", "Power"}, {"arm", "ARM"}, {"arm-llh", "ARM llh"}};

struct CatModels {
  std::vector<CatAdapterModel> Store;
  std::vector<const Model *> Ptrs;
};

CatModels loadCatModels() {
  LayerScope L("model.load");
  CatModels Out;
  for (const char *Stem : CatStems) {
    auto M = CatAdapterModel::fromFile(std::string("models/") + Stem + ".cat");
    if (!M)
      fatal(std::string("cannot load models/") + Stem + ".cat: " + M.message());
    Out.Store.push_back(M.take());
  }
  for (const CatAdapterModel &M : Out.Store)
    Out.Ptrs.push_back(&M);
  return Out;
}

/// Metric slug of a native model: "C++RA" -> "cxxra", "ARM llh" ->
/// "arm-llh".
std::string nativeSlug(const std::string &Name) {
  std::string Slug;
  for (char C : Name) {
    if (C == '+')
      Slug += 'x';
    else if (C == ' ')
      Slug += '-';
    else
      Slug += static_cast<char>(std::tolower(static_cast<unsigned char>(C)));
  }
  return Slug;
}

TestSource makeSource(const WorkloadInfo &W) {
  LayerScope L("diy.enumerate");
  auto Source = makeDiyTestSource(corpusOptions(W));
  if (!Source)
    fatal(Source.message());
  return Source.take();
}

//===----------------------------------------------------------------------===//
// Failure accounting and oracles
//===----------------------------------------------------------------------===//

/// Operations attempted and failed over the pass, with the first few
/// diagnostics.
struct Tally {
  unsigned long long Attempted = 0;
  unsigned long long Failed = 0;
  std::vector<std::string> Notes;

  void fail(unsigned long long N, const std::string &Why) {
    Failed += N;
    if (Notes.size() < 8)
      Notes.push_back(Why);
  }
};

/// Counts a finished sweep: every test it completed is one operation, an
/// errored test is a failed one, and the corpus size must match.
void checkSweep(const SweepReport &Report, const WorkloadInfo &W,
                const char *Leg, Tally &T) {
  T.Attempted += Report.Tests.size();
  for (const SweepTestResult &R : Report.Tests)
    if (!R.Error.empty())
      T.fail(1, std::string(Leg) + ": " + R.TestName + ": " + R.Error);
  if (Report.Tests.size() != W.ExpectedTests) {
    const size_t Got = Report.Tests.size(), Want = W.ExpectedTests;
    T.fail(Got > Want ? Got - Want : Want - Got,
           std::string(Leg) + ": corpus has " + std::to_string(Got) +
               " tests, expected " + std::to_string(Want));
  }
}

uint64_t fnv1a(const char *Data, size_t Size,
               uint64_t H = 1469598103934665603ULL) {
  for (size_t I = 0; I < Size; ++I) {
    H ^= static_cast<unsigned char>(Data[I]);
    H *= 1099511628211ULL;
  }
  return H;
}

/// Digests of the zero-wall form of a cats-sweep-report/1 document: one
/// per entry of its "tests" array (compact rendering), and one of the whole
/// document (header members but "jobs", which follows the worker count,
/// then the entries). Only digests are kept, so the oracle adds no
/// report-sized allocation to the pass's peak RSS.
struct ReportDigest {
  std::vector<uint64_t> PerTest;
  uint64_t Doc = 0;
};

ReportDigest digestReport(const JsonValue &Root) {
  ReportDigest D;
  JsonValue Header = JsonValue::object();
  for (const auto &[Key, Member] : Root.members())
    if (Key != "tests" && Key != "jobs")
      Header.set(Key, Member);
  const std::string HeaderText = zeroWallTimes(Header).dump(0);
  D.Doc = fnv1a(HeaderText.data(), HeaderText.size());
  if (const JsonValue *Tests = Root.get("tests"); Tests && Tests->isArray()) {
    for (const JsonValue &Entry : Tests->elements()) {
      const std::string Line = zeroWallTimes(Entry).dump(0);
      D.PerTest.push_back(fnv1a(Line.data(), Line.size()));
      D.Doc = fnv1a(Line.data(), Line.size(), D.Doc);
    }
  }
  return D;
}

/// Digest files of the size-7 report: the naive-backend reference (see
/// writeReference) and the committed digests share this format.
constexpr const char *ReferenceSchema = "cats-e2e-reference/1";

ReportDigest readReference(const std::string &Path) {
  std::ifstream In(Path);
  std::string Schema, DocTag, TestsTag;
  ReportDigest Ref;
  size_t N = 0;
  if (!(In >> Schema >> DocTag >> std::hex >> Ref.Doc >> TestsTag >>
        std::dec >> N) ||
      Schema != ReferenceSchema || DocTag != "doc" || TestsTag != "tests")
    fatal("malformed reference file " + Path);
  Ref.PerTest.resize(N);
  for (uint64_t &H : Ref.PerTest)
    if (!(In >> std::hex >> H))
      fatal("truncated reference file " + Path);
  return Ref;
}

/// Holds \p D to both size-7 references, the naive-backend digests of
/// \p ReferencePath and the committed digests of \p ExpectedPath. Each test
/// entry that differs from either (or is missing on any side) is one failed
/// operation. With \p WholeDoc the document digest must match too; a
/// mismatch there with every entry equal is the header's one failure.
void compareToReferences(const ReportDigest &D,
                         const std::string &ReferencePath,
                         const std::string &ExpectedPath, const char *Leg,
                         bool WholeDoc, Tally &T) {
  const std::pair<const char *, ReportDigest> Refs[] = {
      {"the naive reference", readReference(ReferencePath)},
      {"the committed digests", readReference(ExpectedPath)}};
  size_t N = D.PerTest.size();
  for (const auto &[Label, Ref] : Refs)
    N = std::max(N, Ref.PerTest.size());
  const auto At = [](const ReportDigest &R, size_t I) {
    return I < R.PerTest.size() ? std::optional(R.PerTest[I]) : std::nullopt;
  };
  unsigned long long Diff = 0;
  std::string First;
  for (size_t I = 0; I < N; ++I)
    for (const auto &[Label, Ref] : Refs)
      if (At(D, I) != At(Ref, I)) {
        if (!Diff)
          First = "#" + std::to_string(I) + " differs from " + Label;
        ++Diff;
        break;
      }
  if (Diff)
    T.fail(Diff, std::string(Leg) + ": " + std::to_string(Diff) +
                     " test entries differ from a reference (first: " + First +
                     ")");
  else if (WholeDoc)
    for (const auto &[Label, Ref] : Refs)
      if (D.Doc != Ref.Doc)
        T.fail(1, std::string(Leg) + ": document digest differs from " +
                      Label);
}

/// The internal6-cat oracle: each .cat model decides every test exactly as
/// its native counterpart -- verdict, allowed count, allowed outcome set.
void compareCatNative(const SweepReport &Native, const SweepReport &Cat,
                      const std::vector<const Model *> &NativeModels,
                      const std::vector<const Model *> &CatModelPtrs,
                      Tally &T) {
  std::vector<std::pair<size_t, size_t>> Index;
  for (const auto &[Stem, NativeName] : CatNativePairs) {
    size_t CI = 0, NI = 0;
    while (CI < std::size(CatStems) && std::strcmp(CatStems[CI], Stem))
      ++CI;
    while (NI < NativeModels.size() && NativeModels[NI]->name() != NativeName)
      ++NI;
    if (CI == CatModelPtrs.size() || NI == NativeModels.size())
      fatal(std::string("no model pair for ") + Stem);
    Index.push_back({NI, CI});
  }
  const size_t N = std::min(Native.Tests.size(), Cat.Tests.size());
  for (size_t I = 0; I < N; ++I) {
    const SweepTestResult &A = Native.Tests[I], &B = Cat.Tests[I];
    if (A.TestName != B.TestName || !A.Error.empty() || !B.Error.empty()) {
      T.fail(1, "cat/native: test #" + std::to_string(I) + " misaligned");
      continue;
    }
    for (const auto &[NI, CI] : Index) {
      const SimulationResult &X = A.Result.PerModel[NI];
      const SimulationResult &Y = B.Result.PerModel[CI];
      if (X.ConditionReachable != Y.ConditionReachable ||
          X.CandidatesAllowed != Y.CandidatesAllowed ||
          X.AllowedOutcomes != Y.AllowedOutcomes) {
        T.fail(1, "cat/native: " + A.TestName + ": " + Y.ModelName +
                      " disagrees with " + X.ModelName);
        break;
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// One pass
//===----------------------------------------------------------------------===//

struct PassContext {
  const WorkloadInfo &W;
  fs::path Work;
  unsigned Workers = 4;
  /// The naive reference and the committed digests; read inside the check
  /// scope.
  std::string ReferencePath;
  std::string ExpectedPath;
  Clock::time_point MainStart;
  /// Trace mode: the cache hooks are wrapped in layer scopes too.
  bool Traced = false;
  /// Setup mode: the process exits once set-up is over.
  bool SetupOnly = false;
};

/// What a pass measured besides layer times.
struct PassResult {
  std::optional<double> SetupSeconds;
  unsigned long long ReportBytes = 0;
  unsigned long long CheckpointBytes = 0;
  unsigned long long CacheBytes = 0;
  double WarmHitRatio = 0;
  Tally T;
};

/// Wraps \p Source so the first test it hands the engine ends set-up. In
/// setup mode the process prints its set-up time and exits right there,
/// before the engine has started a worker thread.
TestSource stampFirstTest(TestSource Source, const PassContext &C,
                          PassResult &P) {
  return [Source = std::move(Source), &C, &P](LitmusTest &Out) {
    const bool More = Source(Out);
    if (!P.SetupSeconds) {
      P.SetupSeconds = secondsBetween(C.MainStart, Clock::now());
      if (C.SetupOnly) {
        std::printf("{\"setup_s\":%.9f}\n", *P.SetupSeconds);
        std::fflush(stdout);
        std::_Exit(0);
      }
    }
    return More;
  };
}

/// Builds, serializes and writes \p Report to \p Path, as cats_sweep
/// --json does. Returns the document (for the oracle) and counts the bytes.
JsonValue writeReport(const SweepReport &Report, const fs::path &Path,
                      PassResult &P) {
  JsonValue Root;
  {
    LayerScope L("sweep.report_build");
    Root = sweepReportToJson(Report);
  }
  LayerScope L("sweep.serialize");
  const std::string Text = Root.dump();
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out.flush())
    fatal("cannot write " + Path.string());
  P.ReportBytes += Text.size();
  return Root;
}

/// Frees \p Values as the tools do at exit, timed as teardown.
template <typename... Ts> void teardown(Ts &...Values) {
  LayerScope L("sweep.teardown");
  ((Values = Ts()), ...);
}

unsigned long long treeBytes(const fs::path &Dir) {
  unsigned long long Bytes = 0;
  std::error_code Ec;
  for (const auto &E : fs::recursive_directory_iterator(Dir, Ec))
    if (E.is_regular_file())
      Bytes += E.file_size();
  return Bytes;
}

void traceHooks(StreamHooks &Hooks) {
  Hooks.CacheLookup = [F = Hooks.CacheLookup](const LitmusTest &Test,
                                              SweepTestResult &Out) {
    LayerScope L("campaign.cache_lookup");
    return F(Test, Out);
  };
  Hooks.CacheStore = [F = Hooks.CacheStore](const LitmusTest &Test,
                                            const SweepTestResult &R) {
    LayerScope L("campaign.cache_store");
    F(Test, R);
  };
}

void runReportPass(const PassContext &C, PassResult &P) {
  TestSource Source = stampFirstTest(makeSource(C.W), C, P);
  const SweepEngine Engine(SweepOptions{C.Workers});
  SweepReport Report;
  {
    LayerScope L("sweep.run");
    Report = Engine.runStreamed(Source, allModels());
  }
  JsonValue Root = writeReport(Report, C.Work / "power7-report.json", P);
  {
    LayerScope L(CheckLayer);
    checkSweep(Report, C.W, "report", P.T);
    compareToReferences(digestReport(Root), C.ReferencePath, C.ExpectedPath,
                        "report", /*WholeDoc=*/true, P.T);
  }
  teardown(Report, Root);
}

void runInternalCatPass(const PassContext &C, PassResult &P) {
  const CatModels Cats = loadCatModels();
  TestSource NativeSource = stampFirstTest(makeSource(C.W), C, P);
  TestSource CatSource = makeSource(C.W);
  const SweepEngine Engine(SweepOptions{C.Workers});
  SweepReport Native, Cat;
  {
    LayerScope L("sweep.run");
    Native = Engine.runStreamed(NativeSource, allModels());
  }
  {
    LayerScope L("sweep.run");
    Cat = Engine.runStreamed(CatSource, Cats.Ptrs);
  }
  {
    LayerScope L(CheckLayer);
    checkSweep(Native, C.W, "native", P.T);
    checkSweep(Cat, C.W, "cat", P.T);
    compareCatNative(Native, Cat, allModels(), Cats.Ptrs, P.T);
  }
  teardown(Native, Cat);
}

void runCampaignPass(const PassContext &C, PassResult &P) {
  const std::vector<const Model *> &Models = allModels();
  TestSource ColdSource = stampFirstTest(makeSource(C.W), C, P);
  TestSource WarmSource = makeSource(C.W);
  const fs::path CacheDir = C.Work / "cache";
  const fs::path CheckpointPath = C.Work / "checkpoint.jsonl";
  const std::string Id =
      campaignId("tool=cats_e2e;workload=power7-campaign;models=all");
  auto Cache = ResultCache::open(CacheDir.string());
  if (!Cache)
    fatal(Cache.message());
  std::optional<CheckpointWriter> Writer;
  {
    auto Created = CheckpointWriter::create(CheckpointPath.string(), Id);
    if (!Created)
      fatal(Created.message());
    Writer.emplace(Created.take());
  }
  const SweepEngine Engine(SweepOptions{C.Workers});

  // Cold pass: every test misses, is judged, stored and checkpointed.
  ReportDigest ColdDigest;
  {
    StreamHooks Hooks = Cache->hooks(Models);
    if (C.Traced)
      traceHooks(Hooks);
    size_t LastWritten = 0;
    Hooks.OnBatch = [&](const SweepReport &SoFar, unsigned long long Done) {
      LayerScope L("campaign.checkpoint_append");
      const std::vector<SweepTestResult> Slice(
          SoFar.Tests.begin() + LastWritten, SoFar.Tests.end());
      LastWritten = SoFar.Tests.size();
      Status S = Writer->appendBatch(Slice, Done, SoFar.CacheHits,
                                     SoFar.CacheMisses);
      if (S.failed())
        P.T.fail(Slice.size(), "checkpoint: " + S.message());
    };
    SweepReport Cold;
    {
      LayerScope L("sweep.run");
      Cold = Engine.runStreamed(ColdSource, Models, 64, Hooks);
    }
    JsonValue Root = writeReport(Cold, C.Work / "cold.json", P);
    {
      LayerScope L(CheckLayer);
      checkSweep(Cold, C.W, "cold", P.T);
      ColdDigest = digestReport(Root);
      compareToReferences(ColdDigest, C.ReferencePath, C.ExpectedPath, "cold",
                          /*WholeDoc=*/false, P.T);
    }
    teardown(Cold, Root);
  }
  Writer.reset();

  // Resume read: the checkpoint must hold the whole corpus.
  {
    std::optional<CheckpointState> State;
    {
      LayerScope L("campaign.checkpoint_load");
      auto Loaded = loadCheckpoint(CheckpointPath.string(), Id);
      if (!Loaded)
        P.T.fail(C.W.ExpectedTests, "checkpoint: " + Loaded.message());
      else
        State = Loaded.take();
    }
    if (State && (State->Consumed != C.W.ExpectedTests ||
                  State->Tests.size() != C.W.ExpectedTests))
      P.T.fail(1, "checkpoint: loaded " +
                      std::to_string(State->Tests.size()) + " entries, " +
                      std::to_string(State->Consumed) + " consumed");
    teardown(State);
  }

  // Warm pass: every test is served from the cache.
  {
    StreamHooks Hooks = Cache->hooks(Models);
    if (C.Traced)
      traceHooks(Hooks);
    SweepReport Warm;
    {
      LayerScope L("sweep.run");
      Warm = Engine.runStreamed(WarmSource, Models, 64, Hooks);
    }
    JsonValue Root = writeReport(Warm, C.Work / "warm.json", P);
    {
      LayerScope L(CheckLayer);
      checkSweep(Warm, C.W, "warm", P.T);
      if (Warm.CacheMisses)
        P.T.fail(Warm.CacheMisses,
                 "warm: " + std::to_string(Warm.CacheMisses) +
                     " cache misses");
      const unsigned long long Lookups = Warm.CacheHits + Warm.CacheMisses;
      P.WarmHitRatio =
          Lookups ? static_cast<double>(Warm.CacheHits) / Lookups : 0.0;
      const ReportDigest D = digestReport(Root);
      compareToReferences(D, C.ReferencePath, C.ExpectedPath, "warm",
                          /*WholeDoc=*/false, P.T);
      if (D.PerTest != ColdDigest.PerTest)
        P.T.fail(1, "warm: tests differ from the cold report");
    }
    teardown(Warm, Root);
  }

  // Read the warm report back, as cats_merge does.
  {
    std::optional<SweepReport> Read;
    {
      LayerScope L("sweep.report_read");
      std::ifstream In(C.Work / "warm.json", std::ios::binary);
      std::stringstream Buf;
      Buf << In.rdbuf();
      auto Doc = JsonValue::parse(Buf.str());
      if (!Doc) {
        P.T.fail(1, "read: " + Doc.message());
      } else {
        auto Parsed = sweepReportFromJson(*Doc);
        if (!Parsed)
          P.T.fail(1, "read: " + Parsed.message());
        else
          Read = Parsed.take();
      }
    }
    if (Read && Read->Tests.size() != C.W.ExpectedTests)
      P.T.fail(1, "read: " + std::to_string(Read->Tests.size()) +
                      " tests read back");
    teardown(Read);
  }

  LayerScope L(CheckLayer);
  P.CheckpointBytes = fs::file_size(CheckpointPath);
  P.CacheBytes = treeBytes(CacheDir);
}

void runPass(const PassContext &C, PassResult &P) {
  switch (C.W.Kind) {
  case Workload::Report:
    return runReportPass(C, P);
  case Workload::InternalCat:
    return runInternalCatPass(C, P);
  case Workload::Campaign:
    return runCampaignPass(C, P);
  }
}

//===----------------------------------------------------------------------===//
// Trace mode: single-threaded layer loops and obs probes
//===----------------------------------------------------------------------===//

/// The model sets the workload judges under, one per sweep leg.
std::vector<std::vector<const Model *>> judgingLegs(const WorkloadInfo &W,
                                                    const CatModels &Cats) {
  if (W.Kind == Workload::InternalCat)
    return {allModels(), Cats.Ptrs};
  return {allModels()};
}

/// Metric slugs of every model the workload judges under.
std::vector<std::pair<std::string, const Model *>>
sampleModels(const WorkloadInfo &W, const CatModels &Cats) {
  std::vector<std::pair<std::string, const Model *>> Out;
  for (const Model *M : allModels())
    Out.push_back({nativeSlug(M->name()), M});
  if (W.Kind == Workload::InternalCat)
    for (size_t I = 0; I < Cats.Ptrs.size(); ++I)
      Out.push_back({std::string("cat.") + CatStems[I], Cats.Ptrs[I]});
  return Out;
}

/// Every per-model slug the benchmark can report, so a model a workload
/// does not judge under reports zero.
std::vector<std::string> allModelSlugs() {
  std::vector<std::string> Out;
  for (const Model *M : allModels())
    Out.push_back(nativeSlug(M->name()));
  for (const char *Stem : CatStems)
    Out.push_back(std::string("cat.") + Stem);
  return Out;
}

struct LayerLoopResult {
  unsigned long long Cycles = 0;
  unsigned long long SynthFailures = 0;
  unsigned long long Candidates = 0;
  std::map<std::string, double> CheckSeconds;
};

/// Times each layer on its own over the whole corpus, single-threaded:
/// enumeration, synthesis, the print/parse round trip, compilation,
/// rf/co enumeration with no models, full simulation per judging leg, and
/// Model::check over a seeded 1-in-16 sample of tests.
LayerLoopResult runLayerLoops(const WorkloadInfo &W, const CatModels &Cats,
                              uint64_t Seed, Tally &T) {
  LayerLoopResult R;
  std::vector<EnumeratedCycle> Cycles;
  {
    LayerScope L("diy.enumerate");
    Cycles = enumerateAll(corpusOptions(W));
  }
  R.Cycles = Cycles.size();

  std::vector<LitmusTest> Tests;
  {
    LayerScope L("diy.synthesize");
    for (const EnumeratedCycle &Cycle : Cycles) {
      auto Test = synthesizeTest(Cycle.Cycle, Arch::Power);
      if (Test)
        Tests.push_back(Test.take());
      else
        ++R.SynthFailures;
    }
  }
  if (R.SynthFailures)
    T.fail(R.SynthFailures, "synthesis failures");

  {
    LayerScope L("litmus.parse");
    for (const LitmusTest &Test : Tests) {
      auto Parsed = parseLitmus(Test.toString());
      if (!Parsed || Parsed->Name != Test.Name)
        T.fail(1, "parse round trip: " + Test.Name);
    }
  }

  std::vector<CompiledTest> Compiled;
  {
    LayerScope L("litmus.compile");
    Compiled.reserve(Tests.size());
    for (const LitmusTest &Test : Tests) {
      auto C = CompiledTest::compile(Test);
      if (C)
        Compiled.push_back(C.take());
      else
        T.fail(1, "compile: " + Test.Name + ": " + C.message());
    }
  }

  {
    LayerScope L("herd.enumerate");
    for (const CompiledTest &C : Compiled)
      R.Candidates += simulateAll(C, {}, SimulateOptions{}).CandidatesTotal;
  }
  for (const std::vector<const Model *> &Leg : judgingLegs(W, Cats)) {
    LayerScope L("herd.simulate");
    for (const CompiledTest &C : Compiled)
      simulateAll(C, Leg, SimulateOptions{});
  }

  const auto Sample = sampleModels(W, Cats);
  std::vector<double> Check(Sample.size());
  {
    LayerScope L("model.check");
    Rng Pick(Seed);
    for (const CompiledTest &C : Compiled) {
      if (!Pick.chance(1, 16))
        continue;
      forEachCandidate(C, [&](const Candidate &Cand) {
        if (!Cand.Consistent)
          return true;
        for (size_t I = 0; I < Sample.size(); ++I) {
          const auto Start = Clock::now();
          Sample[I].second->check(Cand.Exe);
          Check[I] += secondsBetween(Start, Clock::now());
        }
        return true;
      });
    }
  }
  for (size_t I = 0; I < Sample.size(); ++I)
    R.CheckSeconds[Sample[I].first] = Check[I];
  return R;
}

/// Sweeps the workload's judging legs once with metrics and trace set to
/// \p On; returns the engine wall time of the legs.
double obsProbe(const WorkloadInfo &W, const CatModels &Cats,
                unsigned Workers, bool On, Tally &T) {
  obs::setMetricsEnabled(On);
  obs::setTraceEnabled(On);
  LayerScope L("obs.probe");
  const SweepEngine Engine(SweepOptions{Workers});
  double Seconds = 0;
  for (const std::vector<const Model *> &Leg : judgingLegs(W, Cats)) {
    auto Source = makeDiyTestSource(corpusOptions(W));
    if (!Source)
      fatal(Source.message());
    const auto Start = Clock::now();
    SweepReport Report = Engine.runStreamed(*Source, Leg);
    Seconds += secondsBetween(Start, Clock::now());
    checkSweep(Report, W, "probe", T);
  }
  obs::setMetricsEnabled(false);
  obs::setTraceEnabled(true);
  return Seconds;
}

double counterOf(const JsonValue &Metrics, const char *Name) {
  const JsonValue *Counters = Metrics.get("counters");
  const JsonValue *V = Counters ? Counters->get(Name) : nullptr;
  return V && V->isNumber() ? V->asNumber() : 0.0;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0.0; }

//===----------------------------------------------------------------------===//
// Reference
//===----------------------------------------------------------------------===//

/// Sweeps the size-7 corpus under the naive backend (the reference
/// oracle) and writes its report digests to \p Path. The digests do not
/// depend on the worker count; power7-expected.txt beside this file is this
/// output from the sources this benchmark was written against.
int writeReference(const std::string &Path, unsigned Workers) {
  auto Source = makeDiyTestSource(corpusOptions(7, false));
  if (!Source)
    fatal(Source.message());
  const SweepEngine Engine(SweepOptions{Workers, JudgeBackend::Naive});
  const SweepReport Report = Engine.runStreamed(*Source, allModels());
  if (!Report.allOk() || Report.Tests.size() != AllWorkloads[0].ExpectedTests)
    fatal("the naive reference sweep failed");
  const ReportDigest D = digestReport(sweepReportToJson(Report));
  std::ofstream Out(Path);
  Out << ReferenceSchema << "\ndoc " << std::hex << D.Doc << "\ntests "
      << std::dec << D.PerTest.size() << "\n"
      << std::hex;
  for (uint64_t H : D.PerTest)
    Out << H << "\n";
  if (!Out.flush())
    fatal("cannot write " + Path);
  std::printf("{\"tests\":%zu}\n", D.PerTest.size());
  return 0;
}

//===----------------------------------------------------------------------===//
// Driver
//===----------------------------------------------------------------------===//

JsonValue envStamp(unsigned Workers) {
  JsonValue Env = JsonValue::object();
  Env.set("hardware_concurrency", std::thread::hardware_concurrency());
  Env.set("workers", Workers);
  Env.set("build_type", CATS_E2E_BUILD_TYPE);
  Env.set("compiler", "g++ " __VERSION__);
  return Env;
}

int usage() {
  std::fprintf(stderr,
               "usage: cats_e2e pass|trace|setup --workload W --work DIR "
               "[--seed N] [--workers N] [--reference FILE] "
               "[--expected FILE]\n"
               "       cats_e2e reference --out FILE [--workers N]\n");
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  const Clock::time_point MainStart = Clock::now();
  if (argc < 2)
    return usage();
  const std::string Mode = argv[1];
  std::string WorkloadName, WorkDir, ReferencePath, ExpectedPath, OutPath;
  uint64_t Seed = 1;
  unsigned Workers = 4;
  for (int I = 2; I < argc; ++I) {
    const std::string Arg = argv[I];
    if (I + 1 >= argc)
      return usage();
    const char *Value = argv[++I];
    if (Arg == "--workload")
      WorkloadName = Value;
    else if (Arg == "--work")
      WorkDir = Value;
    else if (Arg == "--reference")
      ReferencePath = Value;
    else if (Arg == "--expected")
      ExpectedPath = Value;
    else if (Arg == "--out")
      OutPath = Value;
    else if (Arg == "--seed")
      Seed = std::strtoull(Value, nullptr, 10);
    else if (Arg == "--workers")
      Workers = static_cast<unsigned>(std::strtoul(Value, nullptr, 10));
    else
      return usage();
  }
  if (Workers == 0)
    return usage();

  if (Mode == "reference") {
    if (OutPath.empty())
      return usage();
    return writeReference(OutPath, Workers);
  }
  if ((Mode != "pass" && Mode != "trace" && Mode != "setup") ||
      WorkDir.empty())
    return usage();
  const WorkloadInfo *W = nullptr;
  for (const WorkloadInfo &Candidate : AllWorkloads)
    if (WorkloadName == Candidate.Name)
      W = &Candidate;
  if (!W) {
    std::fprintf(stderr, "cats_e2e: unknown workload '%s'\n",
                 WorkloadName.c_str());
    return 2;
  }
  if (W->Kind != Workload::InternalCat &&
      (!fs::exists(ReferencePath) || !fs::exists(ExpectedPath)))
    fatal("workload " + WorkloadName +
          " needs --reference FILE and --expected FILE");
  std::error_code Ec;
  fs::create_directories(WorkDir, Ec);
  if (Ec)
    fatal("cannot create " + WorkDir + ": " + Ec.message());

  const bool Traced = Mode == "trace";
  obs::setTraceEnabled(Traced);
  const PassContext C{*W, fs::path(WorkDir), Workers, ReferencePath,
                      ExpectedPath, MainStart, Traced, Mode == "setup"};
  PassResult P;
  JsonValue Out = JsonValue::object();

  if (!Traced) {
    runPass(C, P);
    Out.set("setup_s", P.SetupSeconds.value_or(0.0));
    Out.set("check_s", layerSeconds(CheckLayer));
  } else {
    // The layer loops, then the end-to-end pass with its cache hooks
    // scoped too, then the obs probes in off/on/on/off order so drift
    // cancels.
    CatModels Cats;
    if (W->Kind == Workload::InternalCat)
      Cats = loadCatModels();
    LayerLoopResult Loops = runLayerLoops(*W, Cats, Seed, P.T);
    runPass(C, P);

    double Off[2], On[2];
    Off[0] = obsProbe(*W, Cats, Workers, false, P.T);
    obs::resetMetrics();
    On[0] = obsProbe(*W, Cats, Workers, true, P.T);
    On[1] = obsProbe(*W, Cats, Workers, true, P.T);
    const JsonValue Counters = obs::metricsToJson();
    Off[1] = obsProbe(*W, Cats, Workers, false, P.T);

    const double Legs = static_cast<double>(judgingLegs(*W, Cats).size());
    const double Enumerate = layerSeconds("herd.enumerate");
    const double Judge = layerSeconds("herd.simulate") - Legs * Enumerate;
    const double Compile = layerSeconds("litmus.compile");
    const double Run = layerSeconds("sweep.run");
    const auto Usage = [] {
      rusage U{};
      getrusage(RUSAGE_SELF, &U);
      return U;
    }();
    double Attributed = 0;
    for (const auto &[Name, T] : Layers)
      Attributed += T.Self;
    const double Wall = secondsBetween(MainStart, Clock::now());
    const double MB = 1e6;

    JsonValue M = JsonValue::object();
    M.set("diy.enumerate_s", secondsPerCall("diy.enumerate"));
    M.set("diy.cycles", Loops.Cycles);
    M.set("diy.synthesize_s", layerSeconds("diy.synthesize"));
    M.set("diy.synth_failures", Loops.SynthFailures);
    M.set("litmus.parse_s", layerSeconds("litmus.parse"));
    M.set("litmus.compile_s", Compile);
    M.set("herd.enumerate_s", Enumerate);
    M.set("herd.judge_s", Judge);
    M.set("herd.candidates", Loops.Candidates);
    M.set("herd.judged_ratio",
          ratio(counterOf(Counters, "judge.candidates_judged"),
                counterOf(Counters, "judge.candidates_consistent")));
    const double MemoHits = counterOf(Counters, "memo.model_hits");
    M.set("herd.memo_hit_ratio",
          ratio(MemoHits,
                MemoHits + counterOf(Counters, "memo.model_misses")));
    M.set("model.load_s", secondsPerCall("model.load"));
    for (const std::string &Slug : allModelSlugs())
      M.set("model." + Slug + ".check_us", Loops.CheckSeconds[Slug] * 1e6);
    M.set("sweep.run_s", Run);
    M.set("sweep.parallel_efficiency",
          ratio(Legs * (Compile + Enumerate) + Judge, Run * Workers));
    M.set("sweep.report_build_s", layerSeconds("sweep.report_build"));
    M.set("sweep.serialize_s", layerSeconds("sweep.serialize"));
    M.set("sweep.report_mb", P.ReportBytes / MB);
    M.set("sweep.report_read_s", layerSeconds("sweep.report_read"));
    M.set("sweep.teardown_s", layerSeconds("sweep.teardown"));
    M.set("campaign.cache_store_s", layerSeconds("campaign.cache_store"));
    M.set("campaign.cache_lookup_s", layerSeconds("campaign.cache_lookup"));
    M.set("campaign.cache_hit_ratio", P.WarmHitRatio);
    M.set("campaign.cache_mb", P.CacheBytes / MB);
    M.set("campaign.checkpoint_append_s",
          layerSeconds("campaign.checkpoint_append"));
    M.set("campaign.checkpoint_load_s",
          layerSeconds("campaign.checkpoint_load"));
    M.set("campaign.checkpoint_mb", P.CheckpointBytes / MB);
    M.set("obs.overhead", ratio(On[0] + On[1], Off[0] + Off[1]) - 1.0);
    M.set("disk_mb", (P.ReportBytes + P.CheckpointBytes + P.CacheBytes) / MB);
    M.set("process.cpu_s",
          Usage.ru_utime.tv_sec + Usage.ru_utime.tv_usec * 1e-6 +
              Usage.ru_stime.tv_sec + Usage.ru_stime.tv_usec * 1e-6);
    M.set("other_s", Wall - Attributed);
    Out.set("metrics", std::move(M));

    // The spans themselves, for Perfetto; written after the wall stamp.
    std::string Error;
    if (!obs::writeTrace((C.Work / "trace.json").string(), Error))
      P.T.fail(1, "trace: " + Error);
  }

  Out.set("attempted", P.T.Attempted);
  Out.set("failed", P.T.Failed);
  JsonValue Notes = JsonValue::array();
  for (const std::string &N : P.T.Notes)
    Notes.push(N);
  Out.set("notes", std::move(Notes));
  Out.set("env", envStamp(Workers));
  std::printf("%s\n", Out.dump(0).c_str());
  return 0;
}
