//===- Execution.h - Candidate executions (E, po, rf, co) -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A candidate execution in the sense of Sec. 3/4 of the paper: a set of
/// memory events E, the program order po, a read-from map rf and a coherence
/// order co, together with the architectural ingredient relations computed by
/// the instruction semantics (dependencies and fence relations).
///
/// From these the class derives the glossary relations of Tab. II: fr, com,
/// po-loc, and the internal/external splits rfi/rfe, coi/coe, fri/fre.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_EVENT_EXECUTION_H
#define CATS_EVENT_EXECUTION_H

#include "event/Event.h"
#include "relation/Relation.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cats {

/// Canonical fence names shared by the litmus layer, the native models and
/// the cat interpreter builtins.
namespace fence {
inline constexpr const char *Sync = "sync";
inline constexpr const char *LwSync = "lwsync";
inline constexpr const char *Eieio = "eieio";
inline constexpr const char *ISync = "isync";
inline constexpr const char *Dmb = "dmb";
inline constexpr const char *Dsb = "dsb";
inline constexpr const char *DmbSt = "dmb.st";
inline constexpr const char *DsbSt = "dsb.st";
inline constexpr const char *Isb = "isb";
inline constexpr const char *MFence = "mfence";
} // namespace fence

/// A candidate execution. The structural parts (events, po, dependencies,
/// fence relations) are fixed by the program; rf and co vary per candidate
/// and are filled in by the enumerator.
class Execution {
public:
  Execution() = default;

  /// Number of events (including initial writes).
  unsigned numEvents() const { return static_cast<unsigned>(Events.size()); }

  /// Number of program threads (initial writes belong to none).
  unsigned numThreads() const { return NumThreads; }

  /// Adds an event and returns its id. Events must be added thread by
  /// thread in program order; initial writes may be added at any point.
  EventId addEvent(Event E);

  /// Event accessor.
  const Event &event(EventId Id) const { return Events[Id]; }
  Event &event(EventId Id) { return Events[Id]; }
  const std::vector<Event> &events() const { return Events; }

  /// Location-name table (index -> name).
  std::vector<std::string> LocationNames;

  /// Registers a location name, returning its dense index.
  Location internLocation(const std::string &Name);

  /// Builds po from the thread/instruction structure of the events: total
  /// per-thread order following insertion order, no inter-thread pairs,
  /// and no pairs involving initial writes. Call once all events are added.
  void finalizeStructure(unsigned NumThreadsIn);

  //===--------------------------------------------------------------------===//
  // Structural relations (program-determined)
  //===--------------------------------------------------------------------===//

  /// Program order over memory events.
  Relation Po;

  /// Address dependencies (Fig. 22): read -> po-later memory access whose
  /// address data-flows from the read.
  Relation Addr;

  /// Data dependencies: read -> po-later write whose stored value data-flows
  /// from the read.
  Relation Data;

  /// Control dependencies: read -> po-later access after a branch whose
  /// condition data-flows from the read.
  Relation Ctrl;

  /// Control + control-fence dependencies (ctrl+isync / ctrl+isb).
  Relation CtrlCfence;

  /// Fence relations: for fence name F, the pairs (e1, e2) in po with an F
  /// instruction po-between them (footnote 2 of the paper: membership does
  /// not yet say whether the fence *orders* the pair).
  std::map<std::string, Relation> Fences;

  /// Looks up a fence relation; returns the empty relation if the program
  /// contains no such fence.
  Relation fenceRelation(const std::string &Name) const;

  //===--------------------------------------------------------------------===//
  // Data-flow relations (candidate-specific)
  //===--------------------------------------------------------------------===//

  /// Read-from: links each read to the write it takes its value from.
  Relation Rf;

  /// Coherence: total order per location over writes to that location.
  Relation Co;

  //===--------------------------------------------------------------------===//
  // Event-set views
  //===--------------------------------------------------------------------===//

  EventSet reads() const;
  EventSet writes() const;
  EventSet initWrites() const;
  EventSet memoryEvents() const;

  /// Events of thread \p Thread in program order.
  std::vector<EventId> threadEvents(ThreadId Thread) const;

  /// Writes to \p Loc (including the initial write), in insertion order.
  std::vector<EventId> writesTo(Location Loc) const;

  /// The initial write of \p Loc, or -1 if none was added.
  int initWriteOf(Location Loc) const;

  //===--------------------------------------------------------------------===//
  // Derived relations (Tab. II)
  //===--------------------------------------------------------------------===//

  /// Same-location pairs of po.
  Relation poLoc() const;

  /// From-read: r -> w1 when r reads from w0 and w0 co-precedes w1.
  Relation fr() const;

  /// Communications: co | rf | fr.
  Relation com() const;

  /// Internal (same-thread) / external (cross-thread) splits. Initial
  /// writes count as external to every thread, as in herd.
  Relation internal(const Relation &R) const;
  Relation external(const Relation &R) const;

  Relation rfi() const { return internal(Rf); }
  Relation rfe() const;
  Relation coi() const { return internal(Co); }
  Relation coe() const;
  Relation fri() const { return internal(fr()); }
  Relation fre() const;

  /// Read-different-writes (Fig. 27): po-loc & (fre; rfe).
  Relation rdw() const;

  /// Detour (Fig. 28): po-loc & (coe; rfe).
  Relation detour() const;

  /// Reflexive-transitive closure of com (memoized like the relations
  /// above; used by the Power/ARM prop).
  Relation comStar() const;

  /// Pretty-prints the execution (events plus rf/co/fr pairs).
  std::string toString() const;

  //===--------------------------------------------------------------------===//
  // Derived-relation memoization (opt-in)
  //===--------------------------------------------------------------------===//

  /// Enables memoization of the derived relations above (po-loc, fr, com,
  /// the rf/co/fr splits, rdw, detour). Mutating Po/Rf/Co/... after
  /// enabling returns stale derived relations until clearDerived().
  ///
  /// The multi-model checker opts candidates in before judging them, so
  /// when N models are checked against one candidate the shared relations
  /// are computed once instead of once per model. Executions that never
  /// opt in behave exactly as before (no caching).
  void enableDerivedCache() const { DerivedCacheEnabled = true; }

  /// Model-tagged memoization under the same opt-in: caches the result of
  /// \p Compute per (Tag, Slot), where Tag identifies the model instance
  /// and Slot the relation being derived. Model::check and the model
  /// implementations use this so e.g. the Power ppo fixpoint runs once per
  /// candidate even though both the axioms and prop need it. Transparent
  /// (no caching) while the derived cache is disabled.
  Relation modelMemo(const void *Tag, unsigned Slot,
                     const std::function<Relation()> &Compute) const;

  /// Drops every cached derived relation and model-memo entry: a memo
  /// lives for one candidate. The incremental enumerator calls this after
  /// each Rf or Co mutation of its scratch execution.
  void clearDerived() const;

private:
  std::vector<Event> Events;
  unsigned NumThreads = 0;
  std::map<std::string, Location> LocationIds;

  /// Lazily-filled memo slots, live only when DerivedCacheEnabled. Copies
  /// of the execution carry the cache along (same relations, still valid).
  struct DerivedCache {
    std::optional<Relation> PoLoc, Fr, Com, Rfe, Coe, Fre, Rdw, Detour,
        ComStar;
  };
  mutable DerivedCache Cache;
  /// Flat store for modelMemo: a handful of (tag, slot) entries per
  /// candidate, where a linear scan beats a node-based map.
  struct ModelCacheEntry {
    const void *Tag;
    unsigned Slot;
    Relation Rel;
  };
  mutable std::vector<ModelCacheEntry> ModelCache;
  mutable bool DerivedCacheEnabled = false;
};

} // namespace cats

#endif // CATS_EVENT_EXECUTION_H
