//===- ReportIO.h - cats-sweep-report/1 (de)serialization -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Round-tripping sweep results through the cats-sweep-report/1 JSON
/// schema. The writer half has always lived behind sweepReportToJson; this
/// header adds the reader half — parsing a report (or one per-test entry)
/// back into the engine's structs — which is what makes reports
/// *composable*: the campaign layer's result cache replays stored entries
/// into live reports, checkpoint files reload an interrupted campaign's
/// prefix, and cats_merge folds shard reports into one.
///
/// Rendering a parsed entry is byte-identical to rendering the original:
/// the consistent-state keys become the test's outcome table (sorted key
/// strings, each canonicalized through outcomeFromKey), allowed-state
/// keys resolve to rows of that table, and every count is integral (exact
/// in the JSON number type).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_SWEEP_REPORTIO_H
#define CATS_SWEEP_REPORTIO_H

#include "support/Error.h"
#include "sweep/SweepEngine.h"

#include <string>

namespace cats {

/// Renders one per-test entry of the "tests" array (the same rendering
/// sweepReportToJson uses).
JsonValue sweepTestResultToJson(const SweepTestResult &Result);

/// Parses one per-test entry. Unknown members are ignored (forward
/// compatibility within the /1 schema). The consistent_states become the
/// test's outcome table; every model's allowed_states must resolve into
/// it, and a key that does not is an error naming the test and the key.
Expected<SweepTestResult> sweepTestResultFromJson(const JsonValue &Entry);

/// Parses a whole cats-sweep-report/1 document. Fails on a wrong or
/// missing "schema"; top-level members this reader does not know (e.g.
/// the "shard" stanza the campaign CLIs append) are ignored.
Expected<SweepReport> sweepReportFromJson(const JsonValue &Root);

} // namespace cats

#endif // CATS_SWEEP_REPORTIO_H
