//===- Checkpoint.cpp - Campaign checkpoint/resume files ------------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "campaign/Checkpoint.h"

#include "support/StringUtils.h"
#include "sweep/ReportIO.h"

#include <cstdio>
#include <filesystem>
#include <fstream>

using namespace cats;

std::string cats::campaignId(const std::string &Spec) {
  // 64-bit FNV-1a; the id only needs to distinguish command lines, not
  // resist adversaries.
  uint64_t H = 14695981039346656037ull;
  for (unsigned char C : Spec) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return strFormat("%016llx", static_cast<unsigned long long>(H));
}

Expected<CheckpointState> cats::loadCheckpoint(const std::string &Path,
                                               const std::string &CampaignId) {
  using Ret = Expected<CheckpointState>;
  std::ifstream In(Path);
  if (!In)
    return Ret::error(strFormat("cannot read checkpoint %s", Path.c_str()));

  std::string Line;
  if (!std::getline(In, Line))
    return Ret::error(strFormat("checkpoint %s is empty", Path.c_str()));
  // The byte offset just past the line getline last read.
  unsigned long long Offset = Line.size() + !In.eof();
  auto Header = JsonValue::parse(Line);
  if (!Header || !Header->isObject())
    return Ret::error(strFormat("checkpoint %s: garbled header", Path.c_str()));
  const JsonValue *Schema = Header->get("schema");
  if (!Schema || !Schema->isString() ||
      Schema->asString() != "cats-checkpoint/1")
    return Ret::error(
        strFormat("checkpoint %s: not a cats-checkpoint/1 file", Path.c_str()));
  const JsonValue *Id = Header->get("campaign");
  if (!Id || !Id->isString() || Id->asString() != CampaignId)
    return Ret::error(strFormat(
        "checkpoint %s belongs to a different campaign (flags or inputs "
        "changed since it was written) — rerun without --resume to restart",
        Path.c_str()));

  // Collect entries, remembering the totals at the last progress line.
  // Anything after it — entries of an interrupted batch append, or a torn
  // final line — is trimmed: resume re-judges from the last completed
  // batch.
  CheckpointState State;
  State.TrustedBytes = Offset;
  std::vector<SweepTestResult> Entries;
  std::string Why; // set by the first line that ends the trusted prefix
  for (size_t LineNo = 2; Why.empty() && std::getline(In, Line); ++LineNo) {
    Offset += Line.size() + !In.eof();
    if (Line.empty())
      continue;
    // Every line is written with its newline; one without was cut short.
    auto Doc = In.eof() ? Expected<JsonValue>::error("no newline")
                        : JsonValue::parse(Line);
    const JsonValue *Entry = Doc ? Doc->get("entry") : nullptr;
    const JsonValue *Progress = Doc ? Doc->get("progress") : nullptr;
    unsigned long long Consumed = 0, Hits = 0, Misses = 0;
    if (Entry) {
      auto T = sweepTestResultFromJson(*Entry);
      if (T)
        Entries.push_back(T.take());
      else
        Why = T.message();
    } else if (!Progress || !Progress->isObject()) {
      Why = Doc ? "unknown line kind" : "torn line";
    } else if (readCount(*Progress, "consumed", Consumed, Why) &&
               readCount(*Progress, "hits", Hits, Why) &&
               readCount(*Progress, "misses", Misses, Why)) {
      if (Consumed > Entries.size()) {
        Why = "progress past the entries before it";
      } else {
        State.Consumed = Consumed;
        State.CacheHits = Hits;
        State.CacheMisses = Misses;
        State.TrustedBytes = Offset;
      }
    }
    if (!Why.empty())
      State.TrimReason = strFormat("line %zu: %s", LineNo, Why.c_str());
  }
  Entries.resize(static_cast<size_t>(State.Consumed));
  State.Tests = std::move(Entries);
  return State;
}

Expected<CheckpointWriter>
cats::CheckpointWriter::create(const std::string &Path,
                               const std::string &CampaignId) {
  using Ret = Expected<CheckpointWriter>;
  std::FILE *File = std::fopen(Path.c_str(), "w");
  if (!File)
    return Ret::error(strFormat("cannot write checkpoint %s", Path.c_str()));
  JsonValue Header = JsonValue::object();
  Header.set("schema", "cats-checkpoint/1");
  Header.set("campaign", CampaignId);
  const std::string Line = Header.dump(0) + "\n";
  if (std::fwrite(Line.data(), 1, Line.size(), File) != Line.size() ||
      std::fflush(File) != 0) {
    std::fclose(File);
    return Ret::error(strFormat("cannot write checkpoint %s", Path.c_str()));
  }
  return CheckpointWriter(File, Path);
}

Expected<CheckpointWriter>
cats::CheckpointWriter::append(const std::string &Path,
                               unsigned long long TrustedBytes) {
  using Ret = Expected<CheckpointWriter>;
  std::error_code EC;
  std::filesystem::resize_file(Path, TrustedBytes, EC);
  std::FILE *File = EC ? nullptr : std::fopen(Path.c_str(), "a");
  if (!File)
    return Ret::error(
        strFormat("cannot append to checkpoint %s", Path.c_str()));
  return CheckpointWriter(File, Path);
}

Status CheckpointWriter::appendBatch(const std::vector<SweepTestResult> &Batch,
                                     unsigned long long Consumed,
                                     unsigned long long Hits,
                                     unsigned long long Misses) {
  if (!File)
    return Status::error("checkpoint writer is closed");
  std::string Chunk;
  for (const SweepTestResult &T : Batch) {
    JsonValue Line = JsonValue::object();
    Line.set("entry", sweepTestResultToJson(T));
    Chunk += Line.dump(0) + "\n";
  }
  JsonValue Progress = JsonValue::object();
  JsonValue Totals = JsonValue::object();
  Totals.set("consumed", Consumed);
  Totals.set("hits", Hits);
  Totals.set("misses", Misses);
  Progress.set("progress", std::move(Totals));
  Chunk += Progress.dump(0) + "\n";
  if (std::fwrite(Chunk.data(), 1, Chunk.size(), File) != Chunk.size() ||
      std::fflush(File) != 0)
    return Status::error(strFormat("checkpoint write to %s failed",
                                   Path.c_str()));
  return Status::success();
}

void CheckpointWriter::remove(const std::string &Path) {
  std::remove(Path.c_str());
}

void CheckpointWriter::close() {
  if (File) {
    std::fclose(File);
    File = nullptr;
  }
}
