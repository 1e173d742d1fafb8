//===- SimpleModels.h - SC, TSO and C++ R-A instances ---------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The strong instances of the framework (Fig. 21):
///
///   SC:      ppo = po                 prop = ppo | fences | rf | fr
///   TSO:     ppo = po \ WR            ffence = mfence
///            prop = ppo | fences | rfe | fr
///   C++ R-A: ppo = sb (= po)          fences = empty    prop = hb+
///            with PROPAGATION weakened to irreflexive(prop; co)
///
/// Lemma 4.1: the SC and TSO instances are equivalent to Lamport SC and
/// Sparc TSO; the tests cross-check this against reference formulations.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_MODEL_SIMPLEMODELS_H
#define CATS_MODEL_SIMPLEMODELS_H

#include "model/Model.h"

namespace cats {

/// Lamport's Sequential Consistency as an instance of the framework.
class ScModel : public Model {
public:
  std::string name() const override { return "SC"; }
  Relation ppo(const Execution &Exe) const override;
  Relation fences(const Execution &Exe) const override;
  Relation prop(const Execution &Exe) const override;
};

/// Sparc/x86 Total Store Order.
class TsoModel : public Model {
public:
  std::string name() const override { return "TSO"; }
  Relation ppo(const Execution &Exe) const override;
  Relation fences(const Execution &Exe) const override;
  Relation prop(const Execution &Exe) const override;
};

/// C++ restricted to release-acquire atomics, in the (slightly stronger
/// than the standard) shape of Fig. 21, with the documented PROPAGATION
/// weakening that makes it match HBVSMO exactly.
class CppRaModel : public Model {
public:
  std::string name() const override { return "C++RA"; }
  Relation ppo(const Execution &Exe) const override;
  Relation fences(const Execution &Exe) const override;
  Relation prop(const Execution &Exe) const override;
  AxiomStyle style() const override {
    AxiomStyle S;
    S.PropagationIrreflexiveOnly = true;
    return S;
  }
};

/// Sparc Partial Store Order: like TSO, but write-write pairs may also
/// be reordered unless fenced. An instantiation exercise in the spirit of
/// Sec. 4.9 ("basic bricks from which one can build a model at will").
class PsoModel : public Model {
public:
  std::string name() const override { return "PSO"; }
  Relation ppo(const Execution &Exe) const override;
  Relation fences(const Execution &Exe) const override;
  Relation prop(const Execution &Exe) const override;
};

/// Sparc Relaxed Memory Order: only dependencies and fences order
/// accesses, and load-load hazards are officially allowed (Sec. 4.9
/// notes RMO permits coRR), which we express with the llh axiom style.
class RmoModel : public Model {
public:
  std::string name() const override { return "RMO"; }
  Relation ppo(const Execution &Exe) const override;
  Relation fences(const Execution &Exe) const override;
  Relation prop(const Execution &Exe) const override;
  AxiomStyle style() const override {
    AxiomStyle S;
    S.AllowLoadLoadHazard = true;
    return S;
  }
};

/// Reference formulation for Lemma 4.1: an execution is SC iff
/// acyclic(po | com) ([Alglave 2012, Def. 21]).
bool isScReference(const Execution &Exe);

/// Reference formulation for Lemma 4.1: an execution is TSO iff
/// acyclic(ppo | co | rfe | fr | fences) with ppo = po \ WR
/// ([Alglave 2012, Def. 23]).
bool isTsoReference(const Execution &Exe);

} // namespace cats

#endif // CATS_MODEL_SIMPLEMODELS_H
