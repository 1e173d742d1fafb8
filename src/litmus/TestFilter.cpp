//===- TestFilter.cpp - Regex test selection for campaigns ----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "litmus/TestFilter.h"

#include "litmus/Catalog.h"
#include "litmus/Parser.h"

#include <algorithm>
#include <filesystem>
#include <memory>
#include <regex>

using namespace cats;

Expected<std::regex> cats::compileFilterRegex(const std::string &Pattern) {
  using Fail = Expected<std::regex>;
  try {
    return std::regex(Pattern, std::regex::ECMAScript);
  } catch (const std::regex_error &E) {
    return Fail::error("bad filter regex '" + Pattern + "': " + E.what());
  }
}

Expected<std::vector<LitmusTest>>
cats::filterTestsByName(const std::vector<LitmusTest> &Tests,
                        const std::string &Pattern) {
  using Fail = Expected<std::vector<LitmusTest>>;
  if (Pattern.empty())
    return Tests;
  auto Re = compileFilterRegex(Pattern);
  if (!Re)
    return Fail::error(Re.message());
  std::vector<LitmusTest> Out;
  for (const LitmusTest &Test : Tests)
    if (std::regex_search(Test.Name, *Re))
      Out.push_back(Test);
  return Out;
}

Status cats::collectLitmusFiles(const std::string &Path,
                                std::vector<std::string> &Files) {
  namespace fs = std::filesystem;
  std::error_code Ec;
  if (fs::is_directory(Path, Ec)) {
    std::vector<std::string> Found;
    for (const auto &Entry : fs::directory_iterator(Path, Ec))
      if (Entry.path().extension() == ".litmus")
        Found.push_back(Entry.path().string());
    std::sort(Found.begin(), Found.end());
    Files.insert(Files.end(), Found.begin(), Found.end());
    return Status::success();
  }
  if (fs::is_regular_file(Path, Ec))
    Files.push_back(Path);
  else
    return Status::error("no such file or directory: " + Path);
  return Status::success();
}

Expected<CampaignTests>
cats::loadCampaignTests(const std::vector<std::string> &Paths,
                        bool UseCatalogue, const std::string &Filter,
                        std::vector<LitmusTest> Extra) {
  using Fail = Expected<CampaignTests>;
  CampaignTests Out;
  auto Source = streamCampaignTests(Paths, UseCatalogue, Filter, &Out.Errors);
  if (!Source)
    return Fail::error(Source.message());
  for (LitmusTest Test; (*Source)(Test);)
    Out.Tests.push_back(std::move(Test));
  auto Kept = filterTestsByName(Extra, Filter);
  if (!Kept)
    return Fail::error(Kept.message());
  for (LitmusTest &Test : *Kept)
    Out.Tests.push_back(std::move(Test));
  return Out;
}

Expected<TestSource>
cats::streamCampaignTests(const std::vector<std::string> &Paths,
                          bool UseCatalogue, const std::string &Filter,
                          std::vector<std::string> *Errors) {
  using Fail = Expected<TestSource>;
  auto Files = std::make_shared<std::vector<std::string>>();
  for (const std::string &Path : Paths) {
    Status Collected = collectLitmusFiles(Path, *Files);
    if (Collected.failed())
      return Fail::error(Collected.message());
  }
  auto Re = std::make_shared<std::regex>();
  const bool HasFilter = !Filter.empty();
  if (HasFilter) {
    auto Compiled = compileFilterRegex(Filter);
    if (!Compiled)
      return Fail::error(Compiled.message());
    *Re = Compiled.take();
  }

  // Pull state: next file index, then next catalogue index.
  auto FileIdx = std::make_shared<size_t>(0);
  auto CatIdx = std::make_shared<size_t>(0);
  return TestSource([Files, Re, HasFilter, FileIdx, CatIdx, UseCatalogue,
                     Errors](LitmusTest &Out) -> bool {
    auto Keep = [&](const LitmusTest &Test) {
      return !HasFilter || std::regex_search(Test.Name, *Re);
    };
    while (*FileIdx < Files->size()) {
      const std::string &File = (*Files)[(*FileIdx)++];
      auto Test = parseLitmusFile(File);
      if (!Test) {
        if (Errors)
          Errors->push_back(File + ": " + Test.message());
        continue;
      }
      if (!Keep(*Test))
        continue;
      Out = Test.take();
      return true;
    }
    if (UseCatalogue) {
      const std::vector<CatalogEntry> &Catalog = figureCatalog();
      while (*CatIdx < Catalog.size()) {
        const CatalogEntry &Entry = Catalog[(*CatIdx)++];
        if (!Keep(Entry.Test))
          continue;
        Out = Entry.Test;
        return true;
      }
    }
    return false;
  });
}
