//===- Simulator.h - Single-event axiomatic simulation (herd) -*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The herd-style simulator (Sec. 8.3): enumerate the candidate executions
/// of a litmus test (every rf map times every coherence order), discard the
/// value-inconsistent ones, check each against a model, and collect the
/// allowed outcomes. A test's headline question — "is the final condition
/// observable under this model?" — is answered by whether any allowed
/// candidate satisfies it.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_HERD_SIMULATOR_H
#define CATS_HERD_SIMULATOR_H

#include "herd/OutcomeSet.h"
#include "litmus/Compiler.h"
#include "model/Model.h"
#include "obs/Witness.h"

#include <array>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

namespace cats {

/// Result of simulating one test under one model.
struct SimulationResult {
  std::string TestName;
  std::string ModelName;
  /// Raw candidate count (rf choices x coherence orders).
  unsigned long long CandidatesTotal = 0;
  /// Candidates surviving value-consistency.
  unsigned long long CandidatesConsistent = 0;
  /// Candidates allowed by the model.
  unsigned long long CandidatesAllowed = 0;
  /// Distinct outcomes of allowed candidates: a subset of the test's
  /// consistent outcome table.
  OutcomeSet AllowedOutcomes;
  /// True if some allowed candidate satisfies the test's final condition.
  bool ConditionReachable = false;

  /// "Allow"/"Forbid" verdict string for the final condition.
  const char *verdict() const {
    return ConditionReachable ? "Allow" : "Forbid";
  }
};

/// Result of simulating one test under a set of models in a single
/// shared-enumeration pass. The candidate space of a test does not depend
/// on the model, so the model-independent fields live here, computed once,
/// while perModel() carries the verdict-specific counts.
struct MultiSimulationResult {
  std::string TestName;
  /// Raw candidate count (rf choices x coherence orders); shared.
  unsigned long long CandidatesTotal = 0;
  /// Candidates surviving value-consistency; shared.
  unsigned long long CandidatesConsistent = 0;
  /// Distinct outcomes over all consistent candidates; shared. Every
  /// model's AllowedOutcomes is a subset of the same outcome table.
  OutcomeSet ConsistentOutcomes;
  /// One entry per requested model, in request order. The shared counts
  /// above are mirrored into each entry; the consistent set lives only
  /// here.
  std::vector<SimulationResult> PerModel;
  /// Verdict evidence, only populated when witness capture was enabled
  /// (docs/explain.md): per model one witness backing its verdict, plus
  /// at most one model-independent prune-cut witness from the incremental
  /// backend. Always empty otherwise, keeping reports byte-identical.
  std::vector<obs::Witness> Witnesses;

  /// The entry for model \p Name; nullptr when the model was not swept.
  const SimulationResult *forModel(const std::string &Name) const;
};

/// Visits every candidate execution of \p Compiled (consistent or not).
/// Return false from the callback to stop early.
void forEachCandidate(const CompiledTest &Compiled,
                      const std::function<bool(const Candidate &)> &Fn);

/// Which engine walks the candidate space behind simulateAll
/// (docs/enumeration.md). Both produce byte-identical results; the
/// differential harness (tests/differential.cpp) pins them to each other
/// over the litmus catalogue and generated diy corpora.
enum class JudgeBackend : uint8_t {
  /// Materialize every full candidate and judge it afterwards — the
  /// reference semantics the pruned backend is checked against.
  Naive,
  /// Incremental backtracking search (src/herd/Enumerator.cpp): commit
  /// rf then per-location coherence choices, prune a partial assignment
  /// as soon as po-loc | com is cyclic, account the model-independent
  /// tallies in closed form per rf choice, and judge each surviving leaf
  /// once. Byte-identical results to Naive; the default.
  Pruned,
};

/// Display/CLI name: "naive", "pruned".
const char *judgeBackendName(JudgeBackend B);

/// Parses a CLI backend name; returns false on unknown input.
bool parseJudgeBackend(const std::string &Name, JudgeBackend &Out);

/// Counters produced by one incremental-enumeration pass; flushed to the
/// judge.pruned.* / judge.candidates_judged metrics by
/// MultiModelChecker::take (docs/observability.md). JudgedCandidates +
/// PrunedCandidates is exactly the pass's consistent-candidate count.
struct EnumerationStats {
  /// Partial rf/co assignments abandoned mid-search on a po-loc | com
  /// cycle (each cut removes a whole subtree of candidates).
  unsigned long long PartialCuts = 0;
  /// Consistent candidates never materialized because every completion
  /// was provably rejected by SC PER LOCATION (the pruned mass).
  unsigned long long PrunedCandidates = 0;
  /// Leaves actually judged by the models.
  unsigned long long JudgedCandidates = 0;
};

/// Accumulates per-model verdicts over a stream of candidates. Both
/// backends share one accounting path: each outcome's key is interned once
/// into a row of the test's outcome table (a key-to-row hash; the final
/// condition is evaluated on first sighting), and a verdict only sets the
/// model's bit in that row. Feed every candidate of one compiled test, then
/// call take(), which sorts the rows by key and hands every model's allowed
/// set out as a bitset over the key table (OutcomeSet).
///
/// This is the engine under both simulate() overloads and the sweep
/// subsystem; instances are single-use and not thread-safe (one checker
/// per worker).
class MultiModelChecker {
public:
  MultiModelChecker(const CompiledTest &Compiled,
                    std::vector<const Model *> Models);

  /// Accounts one candidate under every model (the naive path): checks
  /// each model in full, then accounts the verdicts through accountLeaf.
  void feed(const Candidate &Cand);

  //===--------------------------------------------------------------------===//
  // Incremental-backend interface (src/herd/Enumerator.cpp)
  //
  // The pruned search never materializes full Candidates: it accounts the
  // model-independent tallies in bulk (closed forms per rf choice), then
  // judges and accounts one scratch execution per surviving leaf. A
  // checker instance is driven either by feed() or by these calls, never
  // both.
  //===--------------------------------------------------------------------===//

  /// Adds \p N raw candidates to the shared total.
  void accountTotal(unsigned long long N) { Result.CandidatesTotal += N; }

  /// Adds \p N value-consistent candidates to the shared count.
  void accountConsistent(unsigned long long N) {
    Result.CandidatesConsistent += N;
  }

  /// Records one model-independent consistent outcome and returns its
  /// row. First sighting of a key pays the row append and the
  /// final-condition evaluation; repeats are a hash lookup.
  uint32_t accountConsistentOutcome(const Outcome &O) { return intern(O); }

  unsigned long long consistentCount() const {
    return Result.CandidatesConsistent;
  }

  /// Checks \p Exe against every model; the returned buffer is owned by
  /// the checker and reused across calls. No accounting happens here —
  /// pair each call with accountLeaf.
  ///
  /// The checks exploit the registry's model-strength forest
  /// (strongerModel): models are visited stronger-first, and a model whose
  /// designated ancestor in the set already allowed \p Exe is marked
  /// allowed without running its axioms. SC and TSO are answered by their
  /// reference formulations (Lemma 4.1 for SC) instead of the four-axiom
  /// check.
  /// Both fast paths stay on under metrics (a skipped model is allowed and
  /// kills only count violations; a reference answer books PROPAGATION);
  /// only witness capture turns them off, since a witness needs every
  /// model's failing axiom. The differential harness proves the paths
  /// agree.
  const std::vector<Verdict> &judge(const Execution &Exe);

  /// Accounts the leaf \p Exe just judged with its \p Verdicts; \p Row is
  /// its outcome's row from accountConsistentOutcome. Bumps each allowing
  /// model's count and sets its bit in the row.
  void accountLeaf(const std::vector<Verdict> &Verdicts, const Execution &Exe,
                   uint32_t Row);

  /// Accounts \p N consistent candidates whose every coherence completion
  /// was pruned on a po-loc | com cycle: all of them are rejected by SC
  /// PER LOCATION under every model, so the per-axiom kill tallies credit
  /// that axiom (the naive path may additionally blame other axioms for
  /// the same candidates, hence the documented >= semantics of
  /// judge.kill.*).
  void accountPrunedMass(unsigned long long N);

  /// Hands the enumerator's counters over for the metrics flush in take().
  void setEnumerationStats(const EnumerationStats &S) {
    Stats = S;
    HaveStats = true;
  }

  /// Switches on witness capture (docs/explain.md): the judge() path runs
  /// the full four-axiom check per model (no implication shortcut, no
  /// reference formulations — a witness needs the failing axiom, not just
  /// the bit) and the checker snapshots, per model, the first satisfying
  /// execution it sees allowed and the first it sees killed; take() then
  /// assembles them into Result.Witnesses. Call before the first
  /// candidate; off by default, with zero cost when off.
  void enableWitnessCapture();

  /// True when enableWitnessCapture() was called.
  bool witnessCapture() const { return WitnessMode; }

  /// True once a prune-cut witness has been recorded (the enumerator only
  /// records the first cut).
  bool havePruneCutWitness() const { return HaveCut; }

  /// Records the first prune cut of the incremental backend: \p Partial
  /// is the scratch execution at the cut and \p Cycle the po-loc | com
  /// cycle on its partial graph (see Enumerator.cpp). Witness mode only.
  void recordPruneCut(const Execution &Partial,
                      std::vector<LabeledEdge> Cycle);

  /// Finalizes and returns the result; the checker is spent afterwards.
  MultiSimulationResult take();

private:
  const Condition &Final;
  std::vector<const Model *> Models;
  MultiSimulationResult Result;
  /// Per-model, per-axiom counts of candidates each axiom killed,
  /// tallied in plain locals (the inner loop never touches an atomic)
  /// and flushed to the metrics registry by take(). Only maintained when
  /// metrics were enabled at construction.
  bool Metrics = false;
  std::vector<std::array<unsigned long long, 4>> AxiomKills;
  /// Reused verdict buffer for judge().
  std::vector<Verdict> JudgeBuf;
  /// Index (into Models) of each model's designated stronger ancestor
  /// within this set, or -1; drives the judge() implication shortcut.
  std::vector<int> StrongerIdx;
  /// Model indices in stronger-before-weaker order, so an ancestor's
  /// verdict is always final before its descendants consult it.
  std::vector<size_t> EvalOrder;
  /// Which models the boolean-only judge() path can answer through a
  /// Lemma 4.1 reference formulation instead of the four-axiom check.
  enum class RefFormulation : uint8_t { None, Sc, Tso };
  std::vector<RefFormulation> RefPath;
  /// The test's outcome table under construction, rows in first-sighting
  /// order: RowOf maps a key to its row, Satisfies caches the final
  /// condition per row, and Allowed holds RowWords membership words per
  /// row (bit I = Models[I] allowed some candidate with that outcome).
  /// take() moves the keys out of RowOf, sorts the rows by key and
  /// transposes the bits into one OutcomeSet per model.
  std::unordered_map<std::string, uint32_t> RowOf;
  std::vector<char> Satisfies;
  std::vector<uint64_t> Allowed;
  size_t RowWords = 0;
  /// The row of \p O, appending it on first sighting.
  uint32_t intern(const Outcome &O);
  EnumerationStats Stats;
  bool HaveStats = false;
  /// Witness capture (enableWitnessCapture). Slots hold, per model, the
  /// first satisfying execution seen allowed and the first seen killed,
  /// each with its outcome's row; the cut slot holds the first enumerator
  /// prune cut. take() turns the slots into Result.Witnesses.
  bool WitnessMode = false;
  struct WitnessSlot {
    bool HaveAllow = false;
    bool HaveKill = false;
    Execution AllowExe, KillExe;
    uint32_t AllowRow = 0, KillRow = 0;
    Axiom KillAxiom = Axiom::ScPerLocation;
  };
  std::vector<WitnessSlot> Slots;
  bool HaveCut = false;
  Execution CutExe;
  std::vector<LabeledEdge> CutCycle;
  /// feed()/accountLeaf capture body.
  void captureWitness(size_t ModelIdx, const Verdict &V, const Execution &Exe,
                      uint32_t Row);
};

/// Knobs of one simulateAll run beyond the model set.
struct SimulateOptions {
  JudgeBackend Backend = JudgeBackend::Pruned;
  /// Capture verdict witnesses (MultiSimulationResult::Witnesses). The
  /// capture piggybacks on the main pass; verdicts the pass never
  /// materialized evidence for (pruned subtrees) are completed afterwards
  /// by a targeted naive walk.
  bool Witness = false;
};

/// Runs one shared candidate enumeration of \p Compiled and checks every
/// model in \p Models against each candidate, with explicit options.
MultiSimulationResult simulateAll(const CompiledTest &Compiled,
                                  const std::vector<const Model *> &Models,
                                  const SimulateOptions &Opts);

/// Fills the witnesses missing from \p Result.Witnesses so every model in
/// \p Models has one backing its verdict: Allow verdicts get an allowed
/// execution realizing the final condition, Forbid verdicts the first
/// failing axiom's cycle on a satisfying candidate (or an
/// unreachable-outcome marker when no consistent candidate satisfies the
/// condition). Walks candidates naively with per-model early stop; cheap
/// on litmus-sized tests. Existing witnesses (matched by model name) are
/// kept untouched.
void completeWitnesses(const CompiledTest &Compiled,
                       const std::vector<const Model *> &Models,
                       MultiSimulationResult &Result);

/// Runs one shared candidate enumeration of \p Compiled and checks every
/// model in \p Models against each candidate, using the default backend
/// (Pruned — byte-identical to Naive, just faster).
MultiSimulationResult simulateAll(const CompiledTest &Compiled,
                                  const std::vector<const Model *> &Models);

/// As above with an explicit judging backend.
MultiSimulationResult simulateAll(const CompiledTest &Compiled,
                                  const std::vector<const Model *> &Models,
                                  JudgeBackend Backend);

/// Convenience overload: compiles \p Test first. Asserts on compile errors
/// (use CompiledTest::compile directly for fallible input).
MultiSimulationResult simulateAll(const LitmusTest &Test,
                                  const std::vector<const Model *> &Models);

/// As above with an explicit judging backend.
MultiSimulationResult simulateAll(const LitmusTest &Test,
                                  const std::vector<const Model *> &Models,
                                  JudgeBackend Backend);

/// Runs the full simulation of \p Compiled under \p M (the one-model case
/// of simulateAll).
SimulationResult simulate(const CompiledTest &Compiled, const Model &M);

/// Convenience overload: compiles \p Test first. Asserts on compile errors
/// (use CompiledTest::compile directly for fallible input).
SimulationResult simulate(const LitmusTest &Test, const Model &M);

/// True if the final condition of \p Test is reachable under \p M.
bool allowedBy(const LitmusTest &Test, const Model &M);

/// Renders \p Result in the classic herd output format:
///
///   Test mp Allowed
///   States 3
///   1:r1=0; 1:r2=0;
///   ...
///   Ok
///   Condition exists (1:r1=1 /\ 1:r2=0)
///
/// \p Final is the test's condition (echoed in the footer).
std::string herdStyleReport(const SimulationResult &Result,
                            const Condition &Final);

} // namespace cats

#endif // CATS_HERD_SIMULATOR_H
