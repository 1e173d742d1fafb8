//===- Simulator.cpp - Single-event axiomatic simulation (herd) -----------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "herd/Simulator.h"

#include "herd/Enumerator.h"
#include "model/Registry.h"
#include "model/SimpleModels.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace cats;

namespace {

/// Per-model counter handles, cached per thread. Registry storage is
/// node-based so Counter addresses are stable for the process lifetime;
/// the cache skips rebuilding the "judge.allowed.<model>" and
/// "judge.kill.<model>.<axiom>" names and taking the registry mutex per
/// model per test — a measurable slice of the metrics overhead on
/// many-small-test campaigns.
struct ModelCounters {
  obs::Counter *Allowed = nullptr;
  std::array<obs::Counter *, 4> Kill{};
};

const ModelCounters &modelCounters(const Model &M) {
  thread_local std::map<const Model *, ModelCounters> Cache;
  auto [It, New] = Cache.try_emplace(&M);
  if (New) {
    const std::string Name = M.name();
    It->second.Allowed = &obs::counter("judge.allowed." + Name);
    for (size_t A = 0; A < It->second.Kill.size(); ++A)
      It->second.Kill[A] = &obs::counter("judge.kill." + Name + "." +
                                         axiomName(static_cast<Axiom>(A)));
  }
  return It->second;
}

} // namespace

const char *cats::judgeBackendName(JudgeBackend B) {
  switch (B) {
  case JudgeBackend::Naive:
    return "naive";
  case JudgeBackend::Pruned:
    return "pruned";
  }
  return "?";
}

bool cats::parseJudgeBackend(const std::string &Name, JudgeBackend &Out) {
  if (Name == "naive")
    Out = JudgeBackend::Naive;
  else if (Name == "pruned")
    Out = JudgeBackend::Pruned;
  else
    return false;
  return true;
}

void cats::forEachCandidate(
    const CompiledTest &Compiled,
    const std::function<bool(const Candidate &)> &Fn) {
  const auto &Reads = Compiled.reads();
  const auto &Writes = Compiled.candidateWrites();
  std::vector<Relation> Cos = Compiled.allCoherenceOrders();

  std::vector<size_t> Pick(Reads.size(), 0);
  std::vector<EventId> Choice(Reads.size());
  while (true) {
    for (size_t I = 0; I < Reads.size(); ++I)
      Choice[I] = Writes[I][Pick[I]];
    for (const Relation &Co : Cos) {
      Candidate Cand = Compiled.concretize(Choice, Co);
      if (!Fn(Cand))
        return;
    }
    // Odometer step over rf choices.
    size_t I = 0;
    for (; I < Reads.size(); ++I) {
      if (++Pick[I] < Writes[I].size())
        break;
      Pick[I] = 0;
    }
    if (I == Reads.size())
      break;
  }
}

const SimulationResult *
MultiSimulationResult::forModel(const std::string &Name) const {
  for (const SimulationResult &R : PerModel)
    if (R.ModelName == Name)
      return &R;
  return nullptr;
}

MultiModelChecker::MultiModelChecker(const CompiledTest &Compiled,
                                     std::vector<const Model *> ModelsIn)
    : Final(Compiled.test().Final), Models(std::move(ModelsIn)) {
  Result.TestName = Compiled.test().Name;
  Result.PerModel.resize(Models.size());
  for (size_t I = 0; I < Models.size(); ++I) {
    Result.PerModel[I].TestName = Result.TestName;
    Result.PerModel[I].ModelName = Models[I]->name();
  }
  RowWords = (Models.size() + 63) / 64;
  Metrics = obs::metricsEnabled();
  if (Metrics)
    AxiomKills.assign(Models.size(), {});

  // Resolve the model-strength forest against this model set: an edge
  // only exists when the designated stronger registry instance is itself
  // part of the set. EvalOrder lists ancestors before descendants (the
  // forest is a few levels deep, so a relaxation loop settles fast).
  StrongerIdx.assign(Models.size(), -1);
  for (size_t I = 0; I < Models.size(); ++I) {
    const Model *Stronger = strongerModel(*Models[I]);
    for (size_t J = 0; Stronger && J < Models.size(); ++J)
      if (Models[J] == Stronger && J != I) {
        StrongerIdx[I] = static_cast<int>(J);
        break;
      }
  }
  std::vector<bool> Placed(Models.size(), false);
  while (EvalOrder.size() < Models.size())
    for (size_t I = 0; I < Models.size(); ++I) {
      if (Placed[I])
        continue;
      int P = StrongerIdx[I];
      if (P < 0 || Placed[static_cast<size_t>(P)]) {
        EvalOrder.push_back(I);
        Placed[I] = true;
      }
    }

  // Lemma 4.1 fast paths: the registry SC and TSO instances are provably
  // equivalent to their one-shot reference formulations (tests/model.cpp
  // re-checks the equivalence on every catalogue candidate), so the
  // boolean-only judge() path can answer them with one or two acyclicity
  // checks instead of the four-axiom evaluation.
  RefPath.assign(Models.size(), RefFormulation::None);
  // The registry lookups allocate (Model::name() is by-value); resolve
  // them once, not per checker.
  static const Model *const ScInstance = modelByName("SC");
  static const Model *const TsoInstance = modelByName("TSO");
  for (size_t I = 0; I < Models.size(); ++I) {
    if (Models[I] == ScInstance)
      RefPath[I] = RefFormulation::Sc;
    else if (Models[I] == TsoInstance)
      RefPath[I] = RefFormulation::Tso;
  }
}

void MultiModelChecker::feed(const Candidate &Cand) {
  ++Result.CandidatesTotal;
  if (!Cand.Consistent)
    return;
  ++Result.CandidatesConsistent;

  // The candidate is final by now: let every model check share one
  // computation of the derived relations (fr, po-loc, com, ...).
  Cand.Exe.enableDerivedCache();

  // check() evaluates all four axioms without short-circuiting either way,
  // so reading the full verdict (for the per-axiom kill tallies) costs the
  // same as the boolean allows().
  JudgeBuf.resize(Models.size());
  for (size_t I = 0; I < Models.size(); ++I)
    JudgeBuf[I] = Models[I]->check(Cand.Exe);
  accountLeaf(JudgeBuf, Cand.Exe, intern(Cand.Out));
}

void MultiModelChecker::enableWitnessCapture() {
  if (WitnessMode)
    return;
  WitnessMode = true;
  Slots.resize(Models.size());
}

void MultiModelChecker::captureWitness(size_t ModelIdx, const Verdict &V,
                                       const Execution &Exe, uint32_t Row) {
  WitnessSlot &S = Slots[ModelIdx];
  if (V.Allowed) {
    if (S.HaveAllow)
      return;
    S.HaveAllow = true;
    S.AllowExe = Exe;
    S.AllowRow = Row;
    return;
  }
  if (S.HaveKill || V.Violated.empty())
    return;
  S.HaveKill = true;
  S.KillExe = Exe;
  S.KillRow = Row;
  S.KillAxiom = V.Violated.front();
}

void MultiModelChecker::recordPruneCut(const Execution &Partial,
                                       std::vector<LabeledEdge> Cycle) {
  if (!WitnessMode || HaveCut)
    return;
  HaveCut = true;
  CutExe = Partial;
  CutCycle = std::move(Cycle);
}

const std::vector<Verdict> &MultiModelChecker::judge(const Execution &Exe) {
  JudgeBuf.resize(Models.size());
  // Stronger-first with the implication shortcut: once a model's
  // designated stronger ancestor allowed the execution, monotonicity of
  // the axioms in (ppo, fences, prop) forces this model to allow it too,
  // so the checks are skipped outright. On executions SC allows this
  // collapses nine model checks into one.
  //
  // The shortcut is exact for the judge.kill.* tallies too: skipped
  // models are allowed, and kill counters only record violations. A
  // reference-formulation answer carries its own attribution: for SC
  // and TSO the reference acyclicity check *is* the PROPAGATION axiom
  // with co | prop spelled out (SC: co|po|rf|fr = po|com, Lemma 4.1;
  // TSO: ppo|mfence|co|rfe|fr), so "forbidden" means propagation is
  // violated and the kill books there without a full check. Other
  // axioms possibly violated on the same candidate are not re-derived
  // on this path — the catalogue documents judge.kill as "at least".
  // Witness capture needs the failing axiom of every model, so it runs
  // the full check for each: a shortcut-skipped model has an empty
  // Violated list and a reference-formulation answer only attributes
  // PROPAGATION, neither of which can seed an axiom-cycle witness.
  if (WitnessMode) {
    for (size_t I = 0; I < Models.size(); ++I)
      JudgeBuf[I] = Models[I]->check(Exe);
    return JudgeBuf;
  }
  for (size_t I : EvalOrder) {
    int P = StrongerIdx[I];
    if (P >= 0 && JudgeBuf[static_cast<size_t>(P)].Allowed) {
      JudgeBuf[I] = Verdict();
      continue;
    }
    if (RefPath[I] != RefFormulation::None) {
      const bool RefAllowed = RefPath[I] == RefFormulation::Sc
                                  ? isScReference(Exe)
                                  : isTsoReference(Exe);
      if (RefAllowed) {
        JudgeBuf[I] = Verdict();
        continue;
      }
      JudgeBuf[I] = Verdict();
      JudgeBuf[I].Allowed = false;
      if (Metrics)
        JudgeBuf[I].Violated.push_back(Axiom::Propagation);
      continue;
    }
    JudgeBuf[I] = Models[I]->check(Exe);
  }
  return JudgeBuf;
}

uint32_t MultiModelChecker::intern(const Outcome &O) {
  auto [It, New] =
      RowOf.try_emplace(O.key(), static_cast<uint32_t>(Satisfies.size()));
  if (New) {
    Satisfies.push_back(O.satisfies(Final));
    Allowed.resize(Allowed.size() + RowWords, 0);
  }
  return It->second;
}

void MultiModelChecker::accountLeaf(const std::vector<Verdict> &Verdicts,
                                    const Execution &Exe, uint32_t Row) {
  const bool Satisfying = Satisfies[Row];
  uint64_t *Bits = &Allowed[Row * RowWords];
  for (size_t I = 0; I < Models.size(); ++I) {
    const Verdict &V = Verdicts[I];
    if (WitnessMode && Satisfying)
      captureWitness(I, V, Exe, Row);
    if (!V.Allowed) {
      if (Metrics)
        for (Axiom A : V.Violated)
          ++AxiomKills[I][static_cast<size_t>(A)];
      continue;
    }
    ++Result.PerModel[I].CandidatesAllowed;
    Bits[I / 64] |= 1ull << (I % 64);
  }
}

void MultiModelChecker::accountPrunedMass(unsigned long long N) {
  if (!Metrics || !N)
    return;
  for (size_t I = 0; I < Models.size(); ++I)
    AxiomKills[I][static_cast<size_t>(Axiom::ScPerLocation)] += N;
}

MultiSimulationResult MultiModelChecker::take() {
  // Move the keys out of RowOf into row order, sort the rows by key once,
  // then transpose each model's column of membership bits into key order.
  // A model reaches the final condition iff it allowed some satisfying
  // outcome.
  const size_t N = Satisfies.size();
  std::vector<std::string> Keys(N);
  while (!RowOf.empty()) {
    auto Node = RowOf.extract(RowOf.begin());
    Keys[Node.mapped()] = std::move(Node.key());
  }
  std::vector<uint32_t> Order(N);
  std::iota(Order.begin(), Order.end(), 0u);
  std::sort(Order.begin(), Order.end(),
            [&](uint32_t A, uint32_t B) { return Keys[A] < Keys[B]; });
  auto Sorted = std::make_shared<OutcomeTable>();
  Sorted->reserve(N);
  std::vector<uint32_t> PosOf(N);
  std::vector<OutcomeSet::Bits> ModelBits(Models.size(),
                                          OutcomeSet::Bits((N + 63) / 64, 0));
  for (size_t Pos = 0; Pos < N; ++Pos) {
    const size_t Row = Order[Pos];
    PosOf[Row] = static_cast<uint32_t>(Pos);
    Sorted->push_back(std::move(Keys[Row]));
    const uint64_t *Bits = &Allowed[Row * RowWords];
    for (size_t I = 0; I < Models.size(); ++I) {
      if (!(Bits[I / 64] >> (I % 64) & 1))
        continue;
      ModelBits[I][Pos / 64] |= 1ull << (Pos % 64);
      if (Satisfies[Row])
        Result.PerModel[I].ConditionReachable = true;
    }
  }
  for (size_t I = 0; I < Models.size(); ++I)
    Result.PerModel[I].AllowedOutcomes =
        OutcomeSet(Sorted, std::move(ModelBits[I]));
  const OutcomeTable &Table = *Sorted;
  Result.ConsistentOutcomes = OutcomeSet::all(std::move(Sorted));

  // Mirror the shared counts so each PerModel entry stands alone.
  for (SimulationResult &R : Result.PerModel) {
    R.CandidatesTotal = Result.CandidatesTotal;
    R.CandidatesConsistent = Result.CandidatesConsistent;
  }

  // Assemble the captured witness slots now that every verdict is final.
  // A slot can be empty when the backend never materialized evidence for
  // the verdict (pruned subtree); completeWitnesses fills those gaps on
  // demand.
  if (WitnessMode) {
    for (size_t I = 0; I < Models.size(); ++I) {
      const SimulationResult &R = Result.PerModel[I];
      const WitnessSlot &S = Slots[I];
      if (R.ConditionReachable && S.HaveAllow)
        Result.Witnesses.push_back(obs::makeAllowedWitness(
            Result.TestName, R.ModelName, S.AllowExe,
            Table[PosOf[S.AllowRow]]));
      else if (!R.ConditionReachable && S.HaveKill)
        Result.Witnesses.push_back(obs::makeKillWitness(
            Result.TestName, *Models[I], S.KillAxiom, S.KillExe,
            Table[PosOf[S.KillRow]]));
    }
    if (HaveCut)
      Result.Witnesses.push_back(obs::makePruneCutWitness(
          Result.TestName, CutExe, std::move(CutCycle)));
  }

  // Flush the local tallies into the metrics registry, once per test.
  // The fixed-name handles resolve once per process (registry addresses
  // are stable), the per-model ones come from the thread-local cache.
  if (Metrics) {
    static obs::Counter &CTests = obs::counter("judge.tests");
    static obs::Counter &CTotal = obs::counter("judge.candidates_total");
    static obs::Counter &CConsistent =
        obs::counter("judge.candidates_consistent");
    static obs::Counter &CInconsistent =
        obs::counter("judge.candidates_inconsistent");
    CTests.add(1);
    CTotal.add(Result.CandidatesTotal);
    CConsistent.add(Result.CandidatesConsistent);
    CInconsistent.add(Result.CandidatesTotal - Result.CandidatesConsistent);
    for (size_t I = 0; I < Models.size(); ++I) {
      const ModelCounters &MC = modelCounters(*Models[I]);
      if (Result.PerModel[I].CandidatesAllowed)
        MC.Allowed->add(Result.PerModel[I].CandidatesAllowed);
      for (size_t A = 0; A < AxiomKills[I].size(); ++A)
        if (AxiomKills[I][A])
          MC.Kill[A]->add(AxiomKills[I][A]);
    }
    if (HaveStats) {
      static obs::Counter &CPartial = obs::counter("judge.pruned.partial");
      static obs::Counter &CPruned = obs::counter("judge.pruned.candidates");
      static obs::Counter &CJudged = obs::counter("judge.candidates_judged");
      CPartial.add(Stats.PartialCuts);
      CPruned.add(Stats.PrunedCandidates);
      CJudged.add(Stats.JudgedCandidates);
    }
  }
  return std::move(Result);
}

MultiSimulationResult
cats::simulateAll(const CompiledTest &Compiled,
                  const std::vector<const Model *> &Models,
                  const SimulateOptions &Opts) {
  MultiModelChecker Checker(Compiled, Models);
  if (Opts.Witness)
    Checker.enableWitnessCapture();
  if (Opts.Backend == JudgeBackend::Naive) {
    forEachCandidate(Compiled, [&](const Candidate &Cand) {
      Checker.feed(Cand);
      return true;
    });
  } else {
    Checker.setEnumerationStats(enumerateIncremental(Compiled, Checker));
  }
  MultiSimulationResult Result = Checker.take();
  if (Opts.Witness) {
    completeWitnesses(Compiled, Models, Result);
    // Deterministic order regardless of which pass produced an entry:
    // request order of the models, the prune-cut witness last.
    auto Rank = [&](const obs::Witness &W) {
      for (size_t I = 0; I < Models.size(); ++I)
        if (W.Model == Models[I]->name())
          return I;
      return Models.size();
    };
    std::stable_sort(
        Result.Witnesses.begin(), Result.Witnesses.end(),
        [&](const obs::Witness &A, const obs::Witness &B) {
          return Rank(A) < Rank(B);
        });
  }
  return Result;
}

MultiSimulationResult
cats::simulateAll(const CompiledTest &Compiled,
                  const std::vector<const Model *> &Models,
                  JudgeBackend Backend) {
  SimulateOptions Opts;
  Opts.Backend = Backend;
  return simulateAll(Compiled, Models, Opts);
}

void cats::completeWitnesses(const CompiledTest &Compiled,
                             const std::vector<const Model *> &Models,
                             MultiSimulationResult &Result) {
  const Condition &Final = Compiled.test().Final;

  // Which models still need evidence (the capture may have covered them).
  std::vector<bool> Have(Models.size(), false);
  for (const obs::Witness &W : Result.Witnesses)
    for (size_t I = 0; I < Models.size(); ++I)
      if (W.Model == Models[I]->name())
        Have[I] = true;
  size_t Missing = 0;
  for (bool H : Have)
    Missing += !H;
  if (!Missing)
    return;

  // When no consistent outcome satisfies the condition the forbidden
  // verdicts are condition-level facts, not axiom kills: emit the marker
  // without walking a single candidate.
  bool Satisfiable = false;
  for (const std::string &Key : Result.ConsistentOutcomes)
    if (outcomeFromKey(Key)->satisfies(Final)) {
      Satisfiable = true;
      break;
    }
  if (!Satisfiable) {
    for (size_t I = 0; I < Models.size(); ++I)
      if (!Have[I])
        Result.Witnesses.push_back(obs::makeUnreachableWitness(
            Result.TestName, Models[I]->name()));
    return;
  }

  // Naive walk over the satisfying consistent candidates, stopping as
  // soon as every missing model has its witness. An Allow verdict is
  // final on the first allowed candidate; a Forbid verdict is killed on
  // *every* satisfying candidate, so the first one seen serves.
  forEachCandidate(Compiled, [&](const Candidate &Cand) {
    if (!Cand.Consistent || !Cand.Out.satisfies(Final))
      return true;
    Cand.Exe.enableDerivedCache();
    for (size_t I = 0; I < Models.size(); ++I) {
      if (Have[I])
        continue;
      const Verdict V = Models[I]->check(Cand.Exe);
      const bool Reachable = Result.PerModel[I].ConditionReachable;
      if (Reachable && V.Allowed) {
        Result.Witnesses.push_back(obs::makeAllowedWitness(
            Result.TestName, Models[I]->name(), Cand.Exe, Cand.Out.key()));
      } else if (!Reachable && !V.Allowed && !V.Violated.empty()) {
        Result.Witnesses.push_back(obs::makeKillWitness(
            Result.TestName, *Models[I], V.Violated.front(), Cand.Exe,
            Cand.Out.key()));
      } else {
        continue;
      }
      Have[I] = true;
      --Missing;
    }
    return Missing != 0;
  });
}

MultiSimulationResult
cats::simulateAll(const CompiledTest &Compiled,
                  const std::vector<const Model *> &Models) {
  return simulateAll(Compiled, Models, JudgeBackend::Pruned);
}

MultiSimulationResult
cats::simulateAll(const LitmusTest &Test,
                  const std::vector<const Model *> &Models,
                  JudgeBackend Backend) {
  auto Compiled = CompiledTest::compile(Test);
  assert(Compiled && "litmus test failed to compile");
  return simulateAll(*Compiled, Models, Backend);
}

MultiSimulationResult
cats::simulateAll(const LitmusTest &Test,
                  const std::vector<const Model *> &Models) {
  return simulateAll(Test, Models, JudgeBackend::Pruned);
}

SimulationResult cats::simulate(const CompiledTest &Compiled,
                                const Model &M) {
  return simulateAll(Compiled, {&M}).PerModel.front();
}

SimulationResult cats::simulate(const LitmusTest &Test, const Model &M) {
  auto Compiled = CompiledTest::compile(Test);
  assert(Compiled && "litmus test failed to compile");
  return simulate(*Compiled, M);
}

bool cats::allowedBy(const LitmusTest &Test, const Model &M) {
  return simulate(Test, M).ConditionReachable;
}

std::string cats::herdStyleReport(const SimulationResult &Result,
                                  const Condition &Final) {
  std::string Out = "Test " + Result.TestName + " " +
                    (Result.ConditionReachable ? "Allowed" : "Forbidden") +
                    "\n";
  Out += "States " + std::to_string(Result.AllowedOutcomes.size()) + "\n";
  for (const std::string &Key : Result.AllowedOutcomes) {
    // The key is already "t:rN=v;loc=v;..." — reformat with spaces.
    std::string Spaced;
    for (char C : Key) {
      Spaced += C;
      if (C == ';')
        Spaced += ' ';
    }
    Out += Spaced + "\n";
  }
  Out += Result.ConditionReachable ? "Ok\n" : "No\n";
  Out += "Condition " + Final.toString() + "\n";
  Out += "Model " + Result.ModelName + "\n";
  return Out;
}
