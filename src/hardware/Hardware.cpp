//===- Hardware.cpp - Simulated chips for litmus campaigns ----------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "hardware/Hardware.h"

#include "model/Registry.h"
#include "model/SimpleModels.h"
#include "support/Rng.h"

#include <unordered_map>

using namespace cats;

//===----------------------------------------------------------------------===//
// Profiles (Sec. 8.1's fleet)
//===----------------------------------------------------------------------===//

namespace {

HardwareProfile basePower(const char *Name, uint64_t Seed) {
  HardwareProfile P;
  P.ChipName = Name;
  P.TargetArch = Arch::Power;
  // The lb pattern is architecturally allowed but not implemented on any
  // tested Power generation (Sec. 8.1.1).
  P.ImplementsLoadBuffering = false;
  P.Seed = Seed;
  return P;
}

HardwareProfile baseArm(const char *Name, uint64_t Seed) {
  HardwareProfile P;
  P.ChipName = Name;
  P.TargetArch = Arch::ARM;
  // All tested ARM machines exhibited the read-after-read hazard bug.
  P.LoadLoadHazard = true;
  P.Seed = Seed;
  return P;
}

} // namespace

HardwareProfile HardwareProfile::powerG5() { return basePower("PowerG5", 11); }
HardwareProfile HardwareProfile::power6() { return basePower("Power6", 12); }
HardwareProfile HardwareProfile::power7() { return basePower("Power7", 13); }

HardwareProfile HardwareProfile::tegra2() { return baseArm("Tegra2", 21); }

HardwareProfile HardwareProfile::tegra3() {
  HardwareProfile P = baseArm("Tegra3", 22);
  // The OBSERVATION anomalies of Fig. 35 were seen on Tegra3 only.
  P.ObservationAnomaly = true;
  return P;
}

HardwareProfile HardwareProfile::apq8060() {
  HardwareProfile P = baseArm("APQ8060", 23);
  // The early-commit (fri-rfi) behaviours of Figs. 32/33.
  P.EarlyCommit = true;
  return P;
}

HardwareProfile HardwareProfile::apq8064() {
  HardwareProfile P = baseArm("APQ8064", 24);
  P.EarlyCommit = true;
  return P;
}

HardwareProfile HardwareProfile::exynos4412() {
  return baseArm("Exynos4412", 25);
}
HardwareProfile HardwareProfile::exynos5250() {
  return baseArm("Exynos5250", 26);
}
HardwareProfile HardwareProfile::appleA6X() {
  return baseArm("AppleA6X", 27);
}

std::vector<HardwareProfile> HardwareProfile::powerFleet() {
  return {powerG5(), power6(), power7()};
}

std::vector<HardwareProfile> HardwareProfile::armFleet() {
  return {tegra2(),     tegra3(),     apq8060(), apq8064(),
          exynos4412(), exynos5250(), appleA6X()};
}

//===----------------------------------------------------------------------===//
// Chip semantics
//===----------------------------------------------------------------------===//

namespace {

/// The chip's baseline model: Power chips implement the Power model;
/// ARM chips implement the proposed ARM model when they exhibit early
/// commit, and the stricter Power-ARM shape otherwise.
const Model &baselineModel(const HardwareProfile &Chip) {
  if (Chip.TargetArch == Arch::Power)
    return *modelByName("Power");
  return *modelByName(Chip.EarlyCommit ? "ARM" : "Power-ARM");
}

/// True when \p Exe shows a load-buffering shape: a cycle through po and
/// read-from, i.e. some read observes a write that depends on a po-later
/// event of the reader's own thread.
bool isLoadBufferingShape(const Execution &Exe) {
  return !(Exe.Po | Exe.Rf).isAcyclic();
}

/// Deterministic exploitation mask: whether the micro-architectural family
/// actually exhibits weak behaviour \p Out of test \p TestName. FNV-1a over
/// stable keys, shared by the whole fleet of an architecture.
bool fleetExploits(const HardwareProfile &Chip,
                   const std::string &TestName, const Outcome &Out) {
  uint64_t Hash = 1469598103934665603ULL;
  auto Mix = [&Hash](const std::string &Text) {
    for (char C : Text) {
      Hash ^= static_cast<unsigned char>(C);
      Hash *= 1099511628211ULL;
    }
  };
  Mix(archName(Chip.TargetArch));
  Mix(TestName);
  Mix(Out.key());
  return Hash % 100 < Chip.ExploitPercent;
}

/// Classifies a candidate against the chip's baseline: 0 = forbidden even
/// with anomalies, 1 = allowed and SC (strong), 2 = allowed and weak,
/// 3 = producible only through an anomaly.
int classify(const HardwareProfile &Chip, const Candidate &Cand,
             const std::string &TestName) {
  const Model &Base = baselineModel(Chip);
  Verdict V = Base.check(Cand.Exe);

  bool AllowedByBase = V.Allowed;
  if (AllowedByBase && !Chip.ImplementsLoadBuffering &&
      isLoadBufferingShape(Cand.Exe))
    return 0; // Architecturally fine, never produced by this chip.

  if (AllowedByBase) {
    if (isScReference(Cand.Exe))
      return 1;
    return fleetExploits(Chip, TestName, Cand.Out) ? 2 : 0;
  }

  // Anomaly paths: the violation set must be fully explained by enabled
  // anomalies.
  bool OnlyScPerLoc = V.Violated.size() == 1 &&
                      V.violates(Axiom::ScPerLocation);
  if (Chip.LoadLoadHazard && OnlyScPerLoc) {
    // Must be precisely a load-load hazard: tolerated by the llh check.
    const Model &Llh = *modelByName("ARM llh");
    AxiomStyle Style = Llh.style();
    Relation PoLoc = Cand.Exe.poLoc();
    PoLoc = PoLoc -
            PoLoc.restrict(Cand.Exe.reads(), Cand.Exe.reads());
    (void)Style;
    bool HazardOnly = (PoLoc | Cand.Exe.com()).isAcyclic();
    if (HazardOnly)
      return 3;
  }
  // The Tegra3 anomalies of Fig. 35 land in the O and OP classes of
  // Table VIII: OBSERVATION is violated, possibly together with
  // PROPAGATION, but never SC PER LOCATION or NO THIN AIR.
  bool ObservationClass =
      V.violates(Axiom::Observation) &&
      !V.violates(Axiom::ScPerLocation) && !V.violates(Axiom::NoThinAir);
  if (Chip.ObservationAnomaly && ObservationClass)
    return 3;
  return 0;
}

} // namespace

bool cats::chipCanProduce(const HardwareProfile &Chip,
                          const Candidate &Cand,
                          const std::string &TestName) {
  return Cand.Consistent && classify(Chip, Cand, TestName) != 0;
}

HardwareRun cats::runOnHardware(const LitmusTest &Test,
                                const HardwareProfile &Chip,
                                uint64_t Samples) {
  HardwareRun Run;
  Run.TestName = Test.Name;
  Run.ChipName = Chip.ChipName;

  auto Compiled = CompiledTest::compile(Test);
  if (!Compiled)
    return Run;

  // Partition the candidates by strength.
  std::vector<Candidate> Strong, Weak, Anomalous;
  forEachCandidate(*Compiled, [&](const Candidate &Cand) {
    if (!Cand.Consistent)
      return true;
    switch (classify(Chip, Cand, Test.Name)) {
    case 1:
      Strong.push_back(Cand);
      break;
    case 2:
      Weak.push_back(Cand);
      break;
    case 3:
      Anomalous.push_back(Cand);
      break;
    default:
      break;
    }
    return true;
  });
  if (Strong.empty() && Weak.empty() && Anomalous.empty())
    return Run;

  // Deterministic sampling: the seed mixes the chip and the test name so
  // campaigns are reproducible but decorrelated.
  uint64_t Mix = Chip.Seed;
  for (char C : Test.Name)
    Mix = Mix * 1099511628211ULL + static_cast<unsigned char>(C);
  Rng R(Mix);

  // Samples tally per candidate and fold into Observed by outcome at the
  // end, so the map compares outcome keys per candidate, not per sample.
  std::unordered_map<const Candidate *, uint64_t> Tally;
  auto Record = [&](const Candidate &Cand) {
    ++Tally[&Cand];
    if (Cand.Out.satisfies(Test.Final)) {
      if (!Run.ConditionObserved)
        Run.ConditionWitnesses.push_back(Cand.Exe);
      Run.ConditionObserved = true;
    }
  };

  for (uint64_t I = 0; I < Samples; ++I) {
    ++Run.Samples;
    if (!Anomalous.empty() && R.chance(1, Chip.AnomalyRarity)) {
      Record(Anomalous[R.nextBelow(Anomalous.size())]);
      continue;
    }
    if (!Weak.empty() && R.chance(Chip.WeakBehaviourPercent, 100)) {
      Record(Weak[R.nextBelow(Weak.size())]);
      continue;
    }
    if (!Strong.empty())
      Record(Strong[R.nextBelow(Strong.size())]);
    else if (!Weak.empty())
      Record(Weak[R.nextBelow(Weak.size())]);
  }
  for (const auto &[Cand, N] : Tally)
    Run.Observed[Cand->Out] += N;
  return Run;
}
