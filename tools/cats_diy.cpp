//===- cats_diy.cpp - Exhaustive cycle enumeration CLI (diycross) ---------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The diycross CLI over src/diy/Enumerate: exhaustively enumerate the
/// canonical critical cycles of an architecture's edge vocabulary, and
/// optionally synthesize the tests, export them as .litmus files, or
/// stream them through the sweep engine.
///
///   cats_diy --arch power --size 6                # enumerate, print names
///   cats_diy --size 4 --filter '^mp' --synthesize # synthesis check
///   cats_diy --size 4 --export out/               # write .litmus files
///   cats_diy --size 5 --sweep --models SC,Power --json report.json
///
//===----------------------------------------------------------------------===//

#include "CampaignCli.h"
#include "CliCommon.h"
#include "diy/Enumerate.h"
#include "model/Registry.h"
#include "support/StringUtils.h"
#include "sweep/SweepEngine.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

using namespace cats;

namespace {

int usage(const char *Argv0) {
  std::vector<cli::FlagDoc> Flags = {
      {"--arch A", "sc | tso | power | arm | c++ra (default: power)"},
      {"--size N", "maximum cycle length in edges (default: 4)"},
      {"--min-size N", "minimum cycle length (default: 3)"},
      {"--limit N", "stop after N matching cycles (default: all)"},
      {"--filter REGEX", "keep cycles whose canonical name matches"},
      {"--no-deps", "drop dependency mechanisms from the vocabulary"},
      {"--no-fences", "drop fences from the vocabulary"},
      {"--internal", "add the internal rfi/fri/wsi detour edges"},
      {"--synthesize", "synthesize each test and report failures"},
      {"--export DIR", "write each synthesized test to DIR/<name>.litmus"},
      {"--sweep", "sweep the synthesized corpus (implies synthesis)"},
      {"--models A,B,C", "models for --sweep (default: all)"},
      {"--jobs N", "sweep worker threads (default: hardware)"},
      {"--json FILE", "write the cats-diy-report/1 JSON report"},
      {"--sweep-json FILE", "also write the sweep leg as a\n"
                            "cats-sweep-report/1 (mergeable by cats_merge)"},
      {"--quiet", "suppress the per-cycle listing"}};
  for (const cli::FlagDoc &F : cli::campaignFlagDocs(/*WithCheckpoint=*/true))
    Flags.push_back(F);
  for (const cli::FlagDoc &F : cli::obsFlagDocs())
    Flags.push_back(F);
  return cli::printUsage(
      Argv0, "[options]",
      "Exhaustively enumerates the well-formed critical cycles of an\n"
      "architecture's edge vocabulary (po/fence/dependency mechanisms x\n"
      "R/W directions x communications), canonicalized modulo rotation,\n"
      "and synthesizes, exports or sweeps the resulting litmus tests.\n"
      "\n"
      "The campaign flags (--shard/--cache/--checkpoint/--resume) apply\n"
      "to the --sweep leg; see docs/campaigns.md for the workflow.",
      Flags);
}

/// Per-cycle record accumulated across the phases.
struct CycleRecord {
  EnumeratedCycle Cycle;
  bool Synthesized = false;
  std::string Error;
  /// Model name -> verdict string, in sweep model order.
  std::vector<std::pair<std::string, std::string>> Verdicts;
};

} // namespace

int main(int argc, char **argv) {
  EnumerateOptions Opts;
  Opts.MaxEdges = 4;
  std::string ArchName = "power", Filter, ExportDir, JsonPath, SweepJsonPath;
  std::vector<std::string> ModelNames;
  bool Synthesize = false, Sweep = false, Quiet = false;
  unsigned Jobs = 0;
  cli::CampaignFlags Campaign;
  cli::ObsFlags Obs;

  cli::ArgCursor Args("cats_diy", argc, argv);
  while (Args.next()) {
    if (Args.isHelp())
      return usage(argv[0]);
    if (int Took = cli::parseCampaignFlag(Args, "cats_diy",
                                          /*WithCheckpoint=*/true, Campaign)) {
      if (Took < 0)
        return 2;
    } else if (int TookObs = cli::parseObsFlag(Args, "cats_diy", Obs)) {
      if (TookObs < 0)
        return 2;
    } else if (Args.is("--arch")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      ArchName = V;
    } else if (Args.is("--size")) {
      if (!Args.unsignedValue(Opts.MaxEdges))
        return 2;
    } else if (Args.is("--min-size")) {
      if (!Args.unsignedValue(Opts.MinEdges))
        return 2;
    } else if (Args.is("--limit")) {
      unsigned long long Limit = 0; // 0 = unlimited.
      if (!Args.unsignedValue(Limit, /*AllowZero=*/true))
        return 2;
      Opts.Limit = Limit;
    } else if (Args.is("--filter")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      Filter = V;
    } else if (Args.is("--no-deps")) {
      Opts.Dependencies = false;
    } else if (Args.is("--no-fences")) {
      Opts.Fences = false;
    } else if (Args.is("--internal")) {
      Opts.InternalCom = true;
    } else if (Args.is("--synthesize")) {
      Synthesize = true;
    } else if (Args.is("--export")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      ExportDir = V;
    } else if (Args.is("--sweep")) {
      Sweep = true;
    } else if (Args.is("--models")) {
      if (!Args.commaList(ModelNames))
        return 2;
    } else if (Args.is("--jobs")) {
      if (!Args.unsignedValue(Jobs))
        return 2;
    } else if (Args.is("--json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      JsonPath = V;
    } else if (Args.is("--sweep-json")) {
      const char *V = Args.value();
      if (!V)
        return 2;
      SweepJsonPath = V;
    } else if (Args.is("--quiet")) {
      Quiet = true;
    } else {
      Args.unknownOption();
      return usage(argv[0]);
    }
  }
  if (Status S = cli::validateCampaignFlags(Campaign); S.failed()) {
    std::fprintf(stderr, "cats_diy: %s\n", S.message().c_str());
    return 2;
  }
  if ((Campaign.active() || !SweepJsonPath.empty()) && !Sweep) {
    std::fprintf(stderr, "cats_diy: the campaign flags and --sweep-json "
                         "need --sweep\n");
    return 2;
  }

  if (!parseArch(ArchName, Opts.Target)) {
    std::fprintf(stderr, "cats_diy: unknown architecture '%s'\n",
                 ArchName.c_str());
    return 2;
  }
  if (Opts.MinEdges > Opts.MaxEdges) {
    std::fprintf(stderr,
                 "cats_diy: --min-size %u exceeds --size %u — nothing to "
                 "enumerate\n",
                 Opts.MinEdges, Opts.MaxEdges);
    return 2;
  }
  const bool NeedTests = Synthesize || Sweep || !ExportDir.empty();
  cli::applyObsFlags(Obs);

  // Phase 1: enumerate the matching cycles (a bad --filter fails here).
  std::vector<CycleRecord> Records;
  {
    auto Matching = enumerateMatching(Opts, Filter);
    if (!Matching) {
      std::fprintf(stderr, "cats_diy: %s\n", Matching.message().c_str());
      return 2;
    }
    Records.reserve(Matching->size());
    for (EnumeratedCycle &Cycle : *Matching) {
      CycleRecord R;
      R.Cycle = std::move(Cycle);
      Records.push_back(std::move(R));
    }
  }

  if (!ExportDir.empty()) {
    std::error_code Ec;
    std::filesystem::create_directories(ExportDir, Ec);
    if (Ec) {
      std::fprintf(stderr, "cats_diy: cannot create %s: %s\n",
                   ExportDir.c_str(), Ec.message().c_str());
      return 1;
    }
  }
  unsigned SynthesisErrors = 0;
  bool ExportFailed = false;
  auto ExportTest = [&](const LitmusTest &Test) {
    const std::string Path = ExportDir + "/" + Test.Name + ".litmus";
    std::ofstream Out(Path);
    if (!Out) {
      std::fprintf(stderr, "cats_diy: cannot write %s\n", Path.c_str());
      ExportFailed = true;
      return;
    }
    Out << Test.toString();
  };

  // The enumeration is done, so the total is known either way.
  obs::ProgressReporter Progress("cats_diy", Records.size(), Obs.Progress);

  // Phase 2: explicit synthesis / export. Skipped when sweeping — the
  // sweep source below synthesizes (and exports) on demand, so each
  // cycle is synthesized exactly once either way.
  if ((Synthesize || !ExportDir.empty()) && !Sweep) {
    for (size_t I = 0; I < Records.size(); ++I) {
      CycleRecord &R = Records[I];
      auto Test = synthesizeTest(R.Cycle.Cycle, Opts.Target);
      Progress.update(I + 1);
      if (!Test) {
        R.Error = Test.message();
        ++SynthesisErrors;
        continue;
      }
      R.Synthesized = true;
      if (!ExportDir.empty())
        ExportTest(*Test);
    }
  }

  // Phase 3: streamed sweep over a source that synthesizes the already
  // enumerated records on demand (no second enumeration pass).
  std::vector<const Model *> Models;
  SweepReport Report;
  bool SweepFailed = false;
  if (Sweep) {
    auto Resolved = resolveModels(ModelNames);
    if (!Resolved) {
      std::fprintf(stderr, "cats_diy: %s\n", Resolved.message().c_str());
      return 2;
    }
    Models = Resolved.take();
    size_t Cursor = 0;
    TestSource Source = [&](LitmusTest &Out) -> bool {
      while (Cursor < Records.size()) {
        CycleRecord &R = Records[Cursor++];
        auto Test = synthesizeTest(R.Cycle.Cycle, Opts.Target);
        if (!Test) {
          R.Error = Test.message();
          ++SynthesisErrors;
          continue;
        }
        R.Synthesized = true;
        if (!ExportDir.empty())
          ExportTest(*Test);
        Out = Test.take();
        return true;
      }
      return false;
    };
    SweepEngine Engine(SweepOptions{Jobs});
    const std::string Spec =
        "tool=cats_diy;arch=" + archName(Opts.Target) +
        strFormat(";min=%u;max=%u;limit=%llu", Opts.MinEdges, Opts.MaxEdges,
                  static_cast<unsigned long long>(Opts.Limit)) +
        ";filter=" + Filter +
        strFormat(";deps=%d;fences=%d;internal=%d", Opts.Dependencies,
                  Opts.Fences, Opts.InternalCom) +
        ";models=" + joinStrings(cli::modelNamesOf(Models), ",") +
        ";shard=" + Campaign.Shard.toString();
    auto Swept = cli::runCampaignSweep("cats_diy", Engine, Source, Models,
                                       Campaign, Spec, &Progress);
    if (!Swept) {
      std::fprintf(stderr, "cats_diy: %s\n", Swept.message().c_str());
      return 2;
    }
    Report = Swept.take();
    SweepFailed = !Report.allOk();
    for (const SweepTestResult &T : Report.Tests)
      if (!T.Error.empty())
        std::fprintf(stderr, "cats_diy: %s: %s\n", T.TestName.c_str(),
                     T.Error.c_str());
    // Attach the verdicts — and any sweep-time validate/compile error —
    // to the records by name (the source skips synthesis failures, so
    // indices need not line up).
    std::map<std::string, const SweepTestResult *> ByName;
    for (const SweepTestResult &T : Report.Tests)
      ByName[T.TestName] = &T;
    for (CycleRecord &R : Records) {
      auto It = ByName.find(R.Cycle.Name);
      if (It == ByName.end())
        continue;
      if (!It->second->Error.empty()) {
        R.Error = It->second->Error;
        continue;
      }
      for (const SimulationResult &M : It->second->Result.PerModel)
        R.Verdicts.push_back({M.ModelName, M.verdict()});
    }
  }

  Progress.finish();

  // Listing.
  if (!Quiet) {
    std::printf("%-40s %5s %8s", "cycle", "size", "threads");
    if (Sweep)
      for (const Model *M : Models)
        std::printf(" %-10s", M->name().c_str());
    std::printf("\n");
    for (const CycleRecord &R : Records) {
      std::printf("%-40s %5zu %8u", R.Cycle.Name.c_str(),
                  R.Cycle.Cycle.size(), [&] {
                    unsigned External = 0;
                    for (const DiyEdge &E : R.Cycle.Cycle)
                      if (isExternalEdge(E.Kind))
                        ++External;
                    return External;
                  }());
      if (!R.Error.empty())
        std::printf("  SYNTHESIS ERROR: %s", R.Error.c_str());
      for (const auto &[Model, Verdict] : R.Verdicts)
        std::printf(" %-10s", Verdict.c_str());
      std::printf("\n");
    }
  }
  std::printf("%zu canonical cycle(s), arch %s, size %u-%u%s\n",
              Records.size(), archName(Opts.Target).c_str(), Opts.MinEdges,
              Opts.MaxEdges,
              SynthesisErrors
                  ? strFormat(", %u synthesis error(s)", SynthesisErrors)
                        .c_str()
                  : "");
  if (Sweep) {
    std::printf("swept %zu test(s) x %zu model(s), %u worker(s), %.3fs\n",
                Report.Tests.size(), Models.size(), Report.Jobs,
                Report.WallSeconds);
    if (Report.CacheUsed)
      std::printf("cache: %llu hit(s), %llu miss(es)\n", Report.CacheHits,
                  Report.CacheMisses);
  }

  // JSON report.
  if (!JsonPath.empty()) {
    JsonValue Root = JsonValue::object();
    Root.set("schema", "cats-diy-report/1");
    Root.set("arch", archName(Opts.Target));
    Root.set("min_size", Opts.MinEdges);
    Root.set("max_size", Opts.MaxEdges);
    Root.set("limit", static_cast<unsigned long long>(Opts.Limit));
    Root.set("filter", Filter);
    Root.set("internal_com", Opts.InternalCom);
    Root.set("enumerated", static_cast<unsigned>(Records.size()));
    Root.set("synthesis_errors", SynthesisErrors);
    JsonValue Cycles = JsonValue::array();
    for (const CycleRecord &R : Records) {
      JsonValue Entry = JsonValue::object();
      Entry.set("name", R.Cycle.Name);
      JsonValue Edges = JsonValue::array();
      for (const DiyEdge &E : R.Cycle.Cycle)
        Edges.push(E.toString());
      Entry.set("edges", std::move(Edges));
      Entry.set("size", static_cast<unsigned>(R.Cycle.Cycle.size()));
      if (NeedTests)
        Entry.set("synthesized", R.Synthesized);
      if (!R.Error.empty())
        Entry.set("error", R.Error);
      if (!R.Verdicts.empty()) {
        JsonValue Verdicts = JsonValue::object();
        for (const auto &[Model, Verdict] : R.Verdicts)
          Verdicts.set(Model, Verdict);
        Entry.set("verdicts", std::move(Verdicts));
      }
      Cycles.push(std::move(Entry));
    }
    Root.set("cycles", std::move(Cycles));
    cli::attachMetrics(Root, Obs);
    std::ofstream Out(JsonPath);
    if (!Out) {
      std::fprintf(stderr, "cats_diy: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    Out << Root.dump();
    if (!Quiet)
      std::printf("wrote %s\n", JsonPath.c_str());
  }

  // The sweep leg as a mergeable cats-sweep-report/1: what a sharded
  // campaign feeds cats_merge (the per-cycle diy report above is keyed by
  // cycle, not stream position, and does not merge).
  if (!SweepJsonPath.empty()) {
    std::ofstream Out(SweepJsonPath);
    if (!Out) {
      std::fprintf(stderr, "cats_diy: cannot write %s\n",
                   SweepJsonPath.c_str());
      return 1;
    }
    JsonValue SweepRoot = cli::campaignSweepJson(Report, Campaign);
    cli::attachMetrics(SweepRoot, Obs);
    Out << SweepRoot.dump();
    if (!Quiet)
      std::printf("wrote %s\n", SweepJsonPath.c_str());
  }

  const int ObsFailed = cli::finishObs("cats_diy", Obs, Quiet);
  return (SynthesisErrors || SweepFailed || ExportFailed || ObsFailed) ? 1
                                                                       : 0;
}
