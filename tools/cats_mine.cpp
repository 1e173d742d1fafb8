//===- cats_mine.cpp - Data-mining CLI over corpora and programs ----------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mining CLI fronting src/mole: sweep a litmus corpus — on-disk
/// files, the figure catalogue, and/or a diy-enumerated slice — under a
/// model set and aggregate the observed-vs-forbidden verdicts per cycle
/// family; optionally mine static critical cycles out of .mole programs
/// and cross-reference the two. Emits the cats-mine-report/1 JSON schema
/// (docs/mining.md).
///
///   cats_mine litmus/                        # mine the on-disk corpus
///   cats_mine --diy power --size 4 --limit 200 --mole rcu
///   cats_mine --catalogue --models SC,Power --json mine.json
///   cats_mine litmus/ --run --models TSO     # + observed-on-hardware
///
//===----------------------------------------------------------------------===//

#include "CampaignCli.h"
#include "CliCommon.h"
#include "diy/Enumerate.h"
#include "model/Registry.h"
#include "mole/Mine.h"
#include "mole/MoleParser.h"
#include "run/RunEngine.h"
#include "run/Verdict.h"
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"--models A,B,C", "comma-separated model names (default: all)"},
      {"--jobs N", "sweep worker threads (default: hardware)"},
      {"--filter REGEX", "keep tests whose name matches"},
      {"--catalogue", "add the built-in figure catalogue"},
      {"--diy ARCH", "add a diy-enumerated slice for ARCH"},
      {"--size N", "max cycle size for --diy (default: 4)"},
      {"--limit N", "cap the --diy slice (default: 500)"},
      {"--internal", "include rfi/fri/wsi edges in --diy"},
      {"--mole X", "static-mine X: a .mole file or one of\n"
                   "rcu | postgres | apache (repeatable)"},
      {"--run", "also execute the corpus natively (src/run) and\n"
                "add the observed-on-hardware column; exits 1 on\n"
                "a soundness violation"},
      {"--iterations N", "native executions per test for --run (100000)"},
      {"--seed N", "native-run schedule seed (default: 42)"},
      {"--run-model M", "reference model for --run (default: the host's\n"
                        "— TSO on x86)"},
      {"--json FILE", "write the cats-mine-report/1 JSON report"},
      {"--quiet", "suppress the family table"}};
  for (const cli::FlagDoc &F :
       cli::campaignFlagDocs(/*WithCheckpoint=*/false))
    Flags.push_back(F);
  for (const cli::FlagDoc &F : cli::obsFlagDocs())
    Flags.push_back(F);
  return cli::printUsage(
      Argv0, "[options] [<file.litmus>|<dir>]...",
      "Mines observed-vs-forbidden outcome patterns: sweeps a corpus\n"
      "under a model set, folds test names to their cycle family, and\n"
      "aggregates the per-model verdicts. Static critical cycles mined\n"
      "from .mole programs are cross-referenced against the corpus.\n"
      "\n"
      "corpus inputs: .litmus files, directories, --catalogue, and/or a\n"
      "--diy enumerated slice. With no corpus input and no --mole, the\n"
      "catalogue is mined.\n"
      "\n"
      "--shard partitions each corpus source; shard reports (without\n"
      "static analyses) merge with cats_merge. See docs/campaigns.md.",
      Flags);
}


} // namespace

int main(int argc, char **argv) {
  unsigned Jobs = 0;
  bool UseCatalogue = false, Quiet = false, RunNative = false;
  std::string Filter, JsonPath, DiyArch, RunModelName;
  EnumerateOptions DiyOpts;
  DiyOpts.MaxEdges = 4;
  DiyOpts.Limit = 500;
  RunOptions RunOpts;
  std::vector<std::string> ModelNames, Paths, MolePrograms;
  cli::CampaignFlags Campaign;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("cats_mine", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int Took = cli::parseCampaignFlag(Args, "cats_mine",
                                          /*WithCheckpoint=*/false,
                                          Campaign)) {
      if (Took < 0)
        return 2;
    } else if (int TookObs = cli::parseObsFlag(Args, "cats_mine", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("--models")) {
      if (!Args.commaList(ModelNames))
        return 2;
    } else if (Args.is("--jobs")) {
      if (!Args.unsignedValue(Jobs))
        return 2;
    } else if (Args.is("--filter")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Filter = V;
    } else if (Args.is("--catalogue") || Args.is("--catalog")) {
      UseCatalogue = true;
    } else if (Args.is("--diy")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      DiyArch = V;
    } else if (Args.is("--size")) {
      if (!Args.unsignedValue(DiyOpts.MaxEdges))
        return 2;
    } else if (Args.is("--limit")) {
      unsigned long long Limit = 0; // 0 = unlimited.
      if (!Args.unsignedValue(Limit, /*AllowZero=*/true))
        return 2;
      DiyOpts.Limit = Limit;
    } else if (Args.is("--internal")) {
      DiyOpts.InternalCom = true;
    } else if (Args.is("--mole")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      MolePrograms.push_back(V);
    } else if (Args.is("--run")) {
      RunNative = true;
    } else if (Args.is("--iterations")) {
      if (!Args.unsignedValue(RunOpts.Iterations))
        return 2;
    } else if (Args.is("--seed")) {
      unsigned long long Seed = 0;
      if (!Args.unsignedValue(Seed, /*AllowZero=*/true))
        return 2;
      RunOpts.Seed = Seed;
    } else if (Args.is("--run-model")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      RunModelName = V;
    } else if (Args.is("--json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      JsonPath = V;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else if (Args.isFlag()) {
      Args.unknownOption();
      return usage(argv[0]);
    } else {
      Paths.push_back(Args.arg());
    }
  }

  // Resolve the --run reference model up front.
  const Model *RunModel = nullptr;
  if (RunNative) {
    RunModel = RunModelName.empty() ? &hostReferenceModel()
                                    : modelByName(RunModelName);
    if (!RunModel) {
      std::fprintf(stderr, "cats_mine: unknown model '%s'\n",
                   RunModelName.c_str());
      return 2;
    }
  }

  // Resolve the model set.
  auto Resolved = resolveModels(ModelNames);
  if (!Resolved) {
    std::fprintf(stderr, "cats_mine: %s\n", Resolved.message().c_str());
    return 2;
  }
  std::vector<const Model *> Models = Resolved.take();

  // Resolve the --mole programs up front: a typo must fail before the
  // (potentially long) corpus sweep, not after it.
  std::vector<MoleProgram> Programs;
  for (const std::string &Name : MolePrograms) {
    if (Name == "rcu") {
      Programs.push_back(rcuProgram());
    } else if (Name == "postgres") {
      Programs.push_back(postgresProgram());
    } else if (Name == "apache") {
      Programs.push_back(apacheProgram());
    } else {
      auto Parsed = parseMoleFile(Name);
      if (!Parsed) {
        std::fprintf(stderr, "cats_mine: %s\n", Parsed.message().c_str());
        return 2;
      }
      Programs.push_back(Parsed.take());
    }
  }

  const bool HasCorpus =
      !Paths.empty() || UseCatalogue || !DiyArch.empty();
  if (!HasCorpus && MolePrograms.empty())
    UseCatalogue = true;

  // Sweep the corpus: files/catalogue first, then the diy slice, as one
  // streamed sweep. With --run, the swept tests are teed into a corpus
  // for the native execution pass (the only place the whole corpus
  // materializes, which --run implies anyway).
  cli::applyObsFlags(Obs);
  obs::ProgressReporter Progress("cats_mine", 0, Obs.Progress);

  SweepEngine Engine(SweepOptions{Jobs});
  std::vector<std::string> LoadErrors;
  std::vector<LitmusTest> RunCorpus;
  std::optional<ResultCache> Cache;
  if (!Campaign.CacheDir.empty()) {
    auto Opened = ResultCache::open(Campaign.CacheDir);
    if (!Opened) {
      std::fprintf(stderr, "cats_mine: %s\n", Opened.message().c_str());
      return 2;
    }
    Cache.emplace(Opened.take());
  }
  // Each source is sharded on its own: a shard natively runs (and mines)
  // only the tests it owns, and the shards' unions cover each source
  // exactly.
  std::vector<TestSource> Sources;
  if (!Paths.empty() || UseCatalogue) {
    auto Source =
        streamCampaignTests(Paths, UseCatalogue, Filter, &LoadErrors);
    if (!Source) {
      std::fprintf(stderr, "cats_mine: %s\n", Source.message().c_str());
      return 2;
    }
    Sources.push_back(shardTestSource(Source.take(), Campaign.Shard));
  }
  if (!DiyArch.empty()) {
    if (!parseArch(DiyArch, DiyOpts.Target)) {
      std::fprintf(stderr, "cats_mine: unknown architecture '%s'\n",
                   DiyArch.c_str());
      return 2;
    }
    auto Source = makeDiyTestSource(DiyOpts, Filter, &LoadErrors);
    if (!Source) {
      std::fprintf(stderr, "cats_mine: %s\n", Source.message().c_str());
      return 2;
    }
    Sources.push_back(shardTestSource(Source.take(), Campaign.Shard));
  }
  size_t Current = 0;
  TestSource Corpus = [&](LitmusTest &Out) {
    for (; Current < Sources.size(); ++Current)
      if (Sources[Current](Out)) {
        if (RunNative)
          RunCorpus.push_back(Out);
        return true;
      }
    return false;
  };
  StreamHooks Hooks = Cache ? Cache->hooks(Models) : StreamHooks{};
  if (Progress.enabled())
    Hooks.OnBatch = [&Progress](const SweepReport &SoFar,
                                unsigned long long Consumed) {
      Progress.update(Consumed, SoFar.CacheHits, SoFar.CacheMisses);
    };
  const SweepReport Report =
      Engine.runStreamed(Corpus, Models, SweepEngine::DefaultBatch, Hooks);
  Progress.finish();
  for (const std::string &Problem : LoadErrors)
    std::fprintf(stderr, "cats_mine: %s\n", Problem.c_str());

  // Fold the sweep into per-family statistics.
  MineReport Mined = mineSweepReport(Report);

  // Static mole analyses (programs were resolved before the sweep).
  for (const MoleProgram &Program : Programs)
    Mined.StaticReports.push_back(analyzeProgram(Program));

  // The native execution pass: run the teed corpus on this machine and
  // attach the observed-on-hardware column next to the model verdicts.
  // The sweep above already enumerated every test's candidate space, so
  // when it covered the run model and SC the judge reuses its results
  // instead of enumerating a second time.
  bool RunUnsound = false;
  if (RunNative) {
    std::map<std::string, const MultiSimulationResult *> Swept;
    for (const SweepTestResult &T : Report.Tests)
      if (T.Error.empty())
        Swept.emplace(T.TestName, &T.Result);
    obs::ProgressReporter RunProgress("cats_mine run", RunCorpus.size(),
                                      Obs.Progress);
    RunOpts.OnTest = [&RunProgress](size_t Done, size_t) {
      RunProgress.update(Done);
    };
    RunEngine NativeEngine(RunOpts);
    RunReport Run = NativeEngine.run(
        RunCorpus, *RunModel,
        [&Swept](const std::string &Name) -> const MultiSimulationResult * {
          auto It = Swept.find(Name);
          return It == Swept.end() ? nullptr : It->second;
        });
    RunProgress.finish();
    attachEmpirical(Mined, Run);
    for (const RunTestResult &T : Run.Tests) {
      if (!T.Error.empty())
        std::fprintf(stderr, "cats_mine: native run: %s: %s\n",
                     T.TestName.c_str(), T.Error.c_str());
      else if (!T.sound())
        std::fprintf(stderr,
                     "cats_mine: SOUNDNESS: %s observed %llu outcome(s) "
                     "outside %s\n",
                     T.TestName.c_str(),
                     T.OutsideModel + T.OutsideEnumeration,
                     Run.ModelName.c_str());
      if (!T.sound())
        RunUnsound = true;
    }
  }

  // The family table.
  if (!Quiet) {
    if (!Mined.Families.empty()) {
      std::printf("%-16s %6s", "family", "tests");
      for (const std::string &Model : Mined.Models)
        std::printf(" %16s", Model.c_str());
      if (Mined.HasEmpirical)
        std::printf(" %16s", "observed(hw)");
      std::printf("\n");
      for (const FamilyVerdicts &F : Mined.Families) {
        std::printf("%-16s %6u", F.Family.c_str(), F.Tests);
        for (const FamilyModelStats &S : F.PerModel)
          std::printf(" %8u/%-7u", S.Allowed, S.Forbidden);
        if (Mined.HasEmpirical) {
          if (F.HasEmpirical)
            std::printf(" %8u/%-7u", F.Empirical.Observed,
                        F.Empirical.Tests);
          else
            std::printf(" %16s", "-");
        }
        std::printf("\n");
      }
      std::printf("(columns are allowed/forbidden test counts");
      if (Mined.HasEmpirical)
        std::printf("; observed(hw) is exists-clause-seen/run on %s vs %s",
                    Mined.EmpiricalHost.c_str(),
                    Mined.EmpiricalModel.c_str());
      std::printf(")\n");
    }
    for (const MoleReport &Static : Mined.StaticReports) {
      std::printf("\nstatic %s: %zu group(s), %zu cycle(s)\n",
                  Static.ProgramName.c_str(), Static.Groups.size(),
                  Static.Cycles.size());
      for (const auto &[Pattern, Count] : Static.patternCounts()) {
        std::printf("  %-14s %3u", Pattern.c_str(), Count);
        if (const FamilyVerdicts *F = Mined.family(Pattern)) {
          std::printf("  corpus:");
          for (const FamilyModelStats &S : F->PerModel)
            if (S.Allowed > 0)
              std::printf(" %s", S.Model.c_str());
          std::printf(" observe it");
        }
        std::printf("\n");
      }
    }
    std::printf("\n%u corpus test(s), %zu model(s), %zu famil(ies), "
                "%zu static program(s)\n",
                Mined.CorpusTests, Mined.Models.size(),
                Mined.Families.size(), Mined.StaticReports.size());
    if (Report.CacheUsed)
      std::printf("cache: %llu hit(s), %llu miss(es)\n", Report.CacheHits,
                  Report.CacheMisses);
  }

  // JSON report.
  if (!JsonPath.empty()) {
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "cats_mine: cannot write %s\n",
                   JsonPath.c_str());
      return 1;
    }
    JsonValue Root = mineReportToJson(Mined);
    cli::attachMetrics(Root, Obs);
    Out << Root.dump();
    if (!Quiet)
      std::printf("wrote %s\n", JsonPath.c_str());
  }

  const int ObsFailed = cli::finishObs("cats_mine", Obs, Quiet);
  return (!LoadErrors.empty() || Mined.CorpusErrors || RunUnsound ||
          ObsFailed)
             ? 1
             : 0;
}
