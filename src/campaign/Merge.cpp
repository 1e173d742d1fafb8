//===- Merge.cpp - Folding shard reports back together --------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/Merge.h"

#include "campaign/Shard.h"
#include "mole/Mine.h"
#include "obs/Metrics.h"
#include "obs/Witness.h"
#include "support/StringUtils.h"

#include <algorithm>

using namespace cats;

JsonValue cats::zeroWallTimes(const JsonValue &V) {
  if (V.isArray()) {
    JsonValue Out = JsonValue::array();
    for (const JsonValue &E : V.elements())
      Out.push(zeroWallTimes(E));
    return Out;
  }
  if (V.isObject()) {
    JsonValue Out = JsonValue::object();
    for (const auto &[Key, Member] : V.members())
      Out.set(Key, Key == "wall_seconds" && Member.isNumber()
                       ? JsonValue(0)
                       : zeroWallTimes(Member));
    return Out;
  }
  return V;
}

namespace {

std::string schemaOf(const JsonValue &Doc) {
  const JsonValue *Schema = Doc.get("schema");
  return Schema && Schema->isString() ? Schema->asString() : std::string();
}

/// Folds the optional cats-metrics/1 sections of the inputs into \p Root
/// (counters sum, histograms merge), so a merged campaign report carries
/// fleet-wide totals. Reports without a metrics section contribute
/// nothing; when none carries one, \p Root stays metrics-free. Returns a
/// non-empty error string on a malformed section.
std::string foldMetricsSections(const std::vector<JsonValue> &Inputs,
                                JsonValue &Root) {
  JsonValue Merged;
  bool Any = false;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const JsonValue *Metrics = Inputs[I].get("metrics");
    if (!Metrics)
      continue;
    if (!Any) {
      Merged = *Metrics;
      Any = true;
      continue;
    }
    std::string Error;
    if (!obs::mergeMetricsJson(Merged, *Metrics, Error))
      return strFormat("input %zu: metrics: %s", I + 1, Error.c_str());
  }
  if (Any)
    Root.set("metrics", std::move(Merged));
  return std::string();
}

/// Folds the optional cats-witness/1 sections of the inputs into \p Root:
/// the witness lists simply concatenate in input order (each witness is
/// already tagged with its test and model). Reports without a witness
/// section contribute nothing; when none carries one, \p Root stays
/// witness-free. Returns a non-empty error string on a malformed section.
std::string foldWitnessSections(const std::vector<JsonValue> &Inputs,
                                JsonValue &Root) {
  JsonValue Merged = JsonValue::array();
  bool Any = false;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    const JsonValue *Section = Inputs[I].get("witness");
    if (!Section)
      continue;
    const JsonValue *Schema = Section->get("schema");
    const JsonValue *List = Section->get("witnesses");
    if (!Section->isObject() || !Schema || !Schema->isString() ||
        Schema->asString() != obs::WitnessSchema || !List || !List->isArray())
      return strFormat("input %zu: malformed witness section", I + 1);
    Any = true;
    for (const JsonValue &W : List->elements())
      Merged.push(W);
  }
  if (Any) {
    JsonValue Section = JsonValue::object();
    Section.set("schema", obs::WitnessSchema);
    Section.set("witnesses", std::move(Merged));
    Root.set("witness", std::move(Section));
  }
  return std::string();
}

/// What the sweep merge needs from one input document.
struct SweepInput {
  unsigned Jobs = 0;
  double WallSeconds = 0;
  bool CacheUsed = false;
  unsigned long long CacheHits = 0;
  unsigned long long CacheMisses = 0;
  const JsonValue *Tests = nullptr;
  bool HasShard = false;
  ShardSpec Shard;
};

} // namespace

Expected<JsonValue>
cats::mergeSweepReports(const std::vector<JsonValue> &Inputs) {
  using Ret = Expected<JsonValue>;
  if (Inputs.empty())
    return Ret::error("nothing to merge");

  std::vector<SweepInput> Parts;
  unsigned Sharded = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    auto Where = [&](const std::string &Why) {
      return Ret::error(strFormat("input %zu: %s", I + 1, Why.c_str()));
    };
    const JsonValue &Doc = Inputs[I];
    if (schemaOf(Doc) != "cats-sweep-report/1")
      return Where("not a cats-sweep-report/1 document");
    SweepInput Part;
    std::string Bad;
    if (!readCount(Doc, "jobs", Part.Jobs, Bad))
      return Where(Bad);
    if (const JsonValue *Wall = Doc.get("wall_seconds"))
      Part.WallSeconds = Wall->isNumber() ? Wall->asNumber() : 0;
    if (const JsonValue *Cache = Doc.get("cache")) {
      if (!Cache->isObject())
        return Where("'cache' is not an object");
      Part.CacheUsed = true;
      if (!readCount(*Cache, "hits", Part.CacheHits, Bad) ||
          !readCount(*Cache, "misses", Part.CacheMisses, Bad))
        return Where("cache: " + Bad);
    }
    Part.Tests = Doc.get("tests");
    if (!Part.Tests || !Part.Tests->isArray())
      return Where("report without a 'tests' array");
    if (const JsonValue *Shard = Doc.get("shard")) {
      auto Spec = shardFromJson(*Shard);
      if (!Spec)
        return Where(Spec.message());
      Part.HasShard = true;
      Part.Shard = Spec.take();
      ++Sharded;
    }
    Parts.push_back(Part);
  }

  if (Sharded != 0 && Sharded != Parts.size())
    return Ret::error("cannot mix sharded and unsharded reports");

  // The merged tests array: either the exact inverse of the round-robin
  // partition, or plain concatenation for unsharded inputs.
  std::vector<const JsonValue *> Ordered;
  if (Sharded) {
    const unsigned N = Parts[0].Shard.Count;
    if (Parts.size() != N)
      return Ret::error(strFormat(
          "incomplete shard set: reports declare %u shards, got %zu", N,
          Parts.size()));
    std::vector<const SweepInput *> ByIndex(N, nullptr);
    for (const SweepInput &Part : Parts) {
      if (Part.Shard.Count != N)
        return Ret::error(strFormat(
            "shard counts disagree across reports (%u vs %u)", N,
            Part.Shard.Count));
      const SweepInput *&Slot = ByIndex[Part.Shard.Index - 1];
      if (Slot)
        return Ret::error(
            strFormat("duplicate shard %s", Part.Shard.toString().c_str()));
      Slot = &Part;
    }
    // Stream position Seq lived in shard (Seq % N) at offset Seq / N;
    // walking offsets round-robin over shards 1..N replays the stream.
    for (size_t Offset = 0;; ++Offset) {
      bool Appended = false;
      for (unsigned K = 0; K < N; ++K) {
        const auto &Tests = ByIndex[K]->Tests->elements();
        if (Offset < Tests.size()) {
          Ordered.push_back(&Tests[Offset]);
          Appended = true;
        }
      }
      if (!Appended)
        break;
    }
  } else {
    for (const SweepInput &Part : Parts)
      for (const JsonValue &Test : Part.Tests->elements())
        Ordered.push_back(&Test);
  }

  unsigned Jobs = 0;
  double WallSeconds = 0;
  bool CacheUsed = false;
  unsigned long long CacheHits = 0, CacheMisses = 0;
  for (const SweepInput &Part : Parts) {
    Jobs = std::max(Jobs, Part.Jobs);
    WallSeconds += Part.WallSeconds;
    CacheUsed = CacheUsed || Part.CacheUsed;
    CacheHits += Part.CacheHits;
    CacheMisses += Part.CacheMisses;
  }

  JsonValue Root = JsonValue::object();
  Root.set("schema", "cats-sweep-report/1");
  Root.set("jobs", Jobs);
  Root.set("wall_seconds", WallSeconds);
  if (CacheUsed) {
    JsonValue Cache = JsonValue::object();
    Cache.set("hits", CacheHits);
    Cache.set("misses", CacheMisses);
    Root.set("cache", std::move(Cache));
  }
  JsonValue Tests = JsonValue::array();
  for (const JsonValue *Test : Ordered)
    Tests.push(*Test);
  Root.set("tests", std::move(Tests));
  if (std::string Error = foldMetricsSections(Inputs, Root); !Error.empty())
    return Ret::error(Error);
  if (std::string Error = foldWitnessSections(Inputs, Root); !Error.empty())
    return Ret::error(Error);
  return Root;
}

Expected<JsonValue>
cats::mergeMineReports(const std::vector<JsonValue> &Inputs) {
  using Ret = Expected<JsonValue>;
  if (Inputs.empty())
    return Ret::error("nothing to merge");
  std::vector<MineReport> Parts;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    auto Part = mineReportFromJson(Inputs[I]);
    if (!Part)
      return Ret::error(strFormat("input %zu: %s", I + 1,
                                  Part.message().c_str()));
    Parts.push_back(Part.take());
  }
  auto Merged = mergeMineReports(Parts);
  if (!Merged)
    return Ret::error(Merged.message());
  JsonValue Root = mineReportToJson(*Merged);
  if (std::string Error = foldMetricsSections(Inputs, Root); !Error.empty())
    return Ret::error(Error);
  return Root;
}

Expected<JsonValue> cats::mergeReports(const std::vector<JsonValue> &Inputs) {
  using Ret = Expected<JsonValue>;
  if (Inputs.empty())
    return Ret::error("nothing to merge");
  const std::string Schema = schemaOf(Inputs[0]);
  for (size_t I = 1; I < Inputs.size(); ++I)
    if (schemaOf(Inputs[I]) != Schema)
      return Ret::error(strFormat(
          "inputs mix schemas ('%s' vs '%s'); merge one report kind at a "
          "time",
          Schema.c_str(), schemaOf(Inputs[I]).c_str()));
  if (Schema == "cats-sweep-report/1")
    return mergeSweepReports(Inputs);
  if (Schema == "cats-mine-report/1")
    return mergeMineReports(Inputs);
  if (Schema.empty())
    return Ret::error("input 1 has no 'schema' member");
  return Ret::error(
      strFormat("schema '%s' is not mergeable (sweep and mine reports are)",
                Schema.c_str()));
}
