//===- Witness.h - Per-execution verdict evidence -------------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The witness/provenance layer (docs/explain.md). A verdict from the
/// judging stack is a single bit; a Witness is the evidence behind it:
///
///  * for a forbidden (test, model) pair, one concrete candidate execution
///    satisfying the final condition plus the minimal cycle violating the
///    first failing axiom, every edge labeled by the derived relation it
///    came from (rf/co/fr/po-loc/ppo/fence:<name>/prop/...);
///  * for an allowed pair, one consistent execution realizing the final
///    condition;
///  * for the pruned backend, the partial-graph cycle that justified a
///    subtree cut (always an SC PER LOCATION argument);
///  * when no consistent candidate reaches the final condition at all, an
///    unreachable-outcome marker (there is no execution to draw).
///
/// Witnesses serialize two ways: the versioned cats-witness/1 JSON section
/// (additive in sweep reports, folded across shards by cats_merge) and
/// herd7-style DOT execution graphs (events as nodes clustered per thread,
/// labeled relation edges, the violating cycle highlighted). The capture
/// hooks live in MultiModelChecker (src/herd/Simulator.h); this header is
/// the data model and its renderers.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_OBS_WITNESS_H
#define CATS_OBS_WITNESS_H

#include "litmus/LitmusTest.h"
#include "model/Model.h"
#include "sweep/Json.h"

#include <string>
#include <vector>

namespace cats {
namespace obs {

/// Version tag of the witness JSON section.
inline constexpr const char *WitnessSchema = "cats-witness/1";

/// What a Witness is evidence of.
enum class WitnessKind : uint8_t {
  /// A consistent execution realizing the final condition (Allow).
  AllowedExecution,
  /// A satisfying execution killed by an axiom, with the violating cycle.
  AxiomCycle,
  /// A partial rf/co assignment cut by the incremental enumerator: the
  /// po-loc | com cycle on the partial graph (SC PER LOCATION evidence
  /// for a whole pruned subtree).
  PruneCut,
  /// No consistent candidate satisfies the final condition, so the
  /// forbidden verdict needs no model axiom and has no execution to show.
  UnreachableOutcome,
};

/// Wire name: "allowed-execution", "axiom-cycle", "prune-cut",
/// "unreachable-outcome".
const char *witnessKindName(WitnessKind K);

/// Parses a wire name; returns false on unknown input.
bool witnessKindFromName(const std::string &Name, WitnessKind &Out);

/// One event node of a witness graph.
struct WitnessEvent {
  EventId Id = 0;
  /// Owning thread; -1 for the fictitious initial writes.
  int Thread = -1;
  /// Rendered label, e.g. "a: Wx=1" (the paper's convention).
  std::string Desc;
  bool Init = false;
};

/// The evidence for one (test, model) verdict. Model is "*" for the
/// model-independent prune-cut witnesses.
struct Witness {
  std::string Test;
  std::string Model;
  /// "Allow" or "Forbid" — the verdict this witness backs.
  std::string Verdict;
  WitnessKind Kind = WitnessKind::AllowedExecution;
  /// axiomName() of the killing axiom; empty for allowed executions.
  std::string Axiom;
  /// Outcome key of the shown execution (empty for unreachable-outcome).
  std::string Outcome;
  /// Event nodes of the shown (possibly partial) execution.
  std::vector<WitnessEvent> Events;
  /// The execution skeleton as drawable edges: po (transitively reduced
  /// per thread), rf, co (reduced), fr.
  std::vector<LabeledEdge> Edges;
  /// The violating cycle as a closed labeled walk E0 -> ... -> E0; empty
  /// for allowed executions and unreachable outcomes.
  std::vector<LabeledEdge> Cycle;
};

//===----------------------------------------------------------------------===//
// Builders
//===----------------------------------------------------------------------===//

/// Fills Events and Edges from \p Exe (nodes, reduced po/co, rf, fr).
void populateExecution(Witness &W, const Execution &Exe);

/// Witness for an allowed outcome: \p Exe realizes the outcome keyed
/// \p OutcomeKey (Outcome::key()) under the model.
Witness makeAllowedWitness(const std::string &Test, const std::string &Model,
                           const Execution &Exe,
                           const std::string &OutcomeKey);

/// Witness for a killed candidate: \p M forbids \p Exe, first failing
/// axiom \p A; the cycle comes from Model::explainViolation.
Witness makeKillWitness(const std::string &Test, const Model &M, Axiom A,
                        const Execution &Exe, const std::string &OutcomeKey);

/// Model-independent witness for an enumerator prune cut: \p Partial is
/// the scratch execution at the cut and \p Cycle the po-loc | com cycle
/// found on its partial graph.
Witness makePruneCutWitness(const std::string &Test, const Execution &Partial,
                            std::vector<LabeledEdge> Cycle);

/// Witness for a forbidden verdict with no satisfying consistent
/// candidate at all.
Witness makeUnreachableWitness(const std::string &Test,
                               const std::string &Model);

//===----------------------------------------------------------------------===//
// JSON (cats-witness/1)
//===----------------------------------------------------------------------===//

JsonValue witnessToJson(const Witness &W);
Expected<Witness> witnessFromJson(const JsonValue &V);

/// The report section: {"schema": "cats-witness/1", "witnesses": [...]}.
JsonValue witnessSectionToJson(const std::vector<Witness> &Witnesses);
Expected<std::vector<Witness>> witnessSectionFromJson(const JsonValue &V);

//===----------------------------------------------------------------------===//
// DOT (herd7-style execution graphs)
//===----------------------------------------------------------------------===//

/// Renders \p W as a DOT digraph: one cluster per thread (init writes at
/// top level), event descriptions as node labels, relation-labeled edges,
/// cycle edges highlighted in red with heavier pens.
std::string witnessToDot(const Witness &W);

/// A filesystem-safe file stem for \p W, e.g. "mp@Power".
std::string witnessFileStem(const Witness &W);

} // namespace obs
} // namespace cats

#endif // CATS_OBS_WITNESS_H
