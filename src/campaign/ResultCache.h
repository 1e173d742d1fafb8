//===- ResultCache.h - Content-addressed verdict cache --------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence half of the campaign layer: a content-addressed on-disk
/// cache of per-(test, model-set) sweep verdicts, so repeated campaigns —
/// the common case for CI and for any service front end — only pay for
/// what changed. The key is a 128-bit FNV-1a hash over the *concretized*
/// test text (LitmusTest::toString(), which includes the name, code,
/// initial state and final condition) plus the ordered model display
/// names, their definition fingerprints
/// (Model::definitionFingerprint(): the .cat source hash for cat-backed
/// models, the architecture-config identity for native ones) and a cache
/// format version; the value is the test's cats-sweep-report/1 entry.
/// Any edit to the test, the model list, its order, or a model's
/// *definition* therefore misses naturally — editing a .cat file or
/// changing a native model's configuration invalidates exactly the
/// entries that depended on it, with no epoch bookkeeping.
///
/// Layout: <dir>/<kk>/<key>.json, fanned out on the first two key hex
/// digits. Entries are written to a temp file and renamed into place, so
/// concurrent shards sharing one directory race benignly (last writer
/// wins with identical content).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAMPAIGN_RESULTCACHE_H
#define CATS_CAMPAIGN_RESULTCACHE_H

#include "model/Model.h"
#include "support/Error.h"
#include "sweep/SweepEngine.h"

#include <string>
#include <vector>

namespace cats {

/// The cache key of one (test, model-set) pair: 32 hex digits.
std::string resultCacheKey(const LitmusTest &Test,
                           const std::vector<const Model *> &Models);

/// A handle on one cache directory.
class ResultCache {
public:
  /// Opens (creating if needed) the cache rooted at \p Dir.
  static Expected<ResultCache> open(const std::string &Dir);

  /// Looks up the entry for (\p Test, \p Models). On a hit, fills \p Out
  /// with the stored result and returns true. Corrupt or unreadable
  /// entries behave as misses, as do entries whose test name or per-model
  /// names (in order) differ from \p Test and \p Models.
  bool lookup(const LitmusTest &Test,
              const std::vector<const Model *> &Models,
              SweepTestResult &Out) const;

  /// Stores \p Result for (\p Test, \p Models). Errored results are not
  /// cached (they are cheap to reproduce and their messages may change);
  /// write failures are reported but never fail a campaign.
  Status store(const LitmusTest &Test,
               const std::vector<const Model *> &Models,
               const SweepTestResult &Result) const;

  /// The cache root.
  const std::string &dir() const { return Root; }

  /// The lookup/store members packaged as engine hooks
  /// (SweepEngine::runStreamed). The cache must outlive the hooks.
  StreamHooks hooks(const std::vector<const Model *> &Models) const;

private:
  explicit ResultCache(std::string Dir) : Root(std::move(Dir)) {}
  std::string entryPath(const std::string &Key) const;
  std::string Root;
};

} // namespace cats

#endif // CATS_CAMPAIGN_RESULTCACHE_H
