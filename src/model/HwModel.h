//===- HwModel.h - Power and ARM instances (Figs. 17/18/25) ---*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The weak hardware instances of the framework. A HwConfig captures the
/// per-architecture parameters of Sec. 6 and Table VII:
///
///  * which fence instructions are full fences, which are lightweight, and
///    which of those only order write-write pairs (eieio, dmb.st/dsb.st);
///  * whether cc0 includes po-loc (Power yes; the proposed ARM model drops
///    it to admit the early-commit behaviours of Fig. 32/33);
///  * whether SC PER LOCATION tolerates load-load hazards (the "ARM llh"
///    row of Table VII).
///
/// The preserved program order is the ii/ic/ci/cc least fixpoint of Fig. 25
/// and the propagation order follows Fig. 18:
///
///   prop-base = (fences | rfe;fences); hb*
///   prop      = (prop-base & WW) | (com*; prop-base*; ffence; hb*)
///
//===----------------------------------------------------------------------===//

#ifndef CATS_MODEL_HWMODEL_H
#define CATS_MODEL_HWMODEL_H

#include "model/Model.h"

#include <vector>

namespace cats {

/// Architecture parameters for the Power/ARM family.
struct HwConfig {
  std::string Name;
  /// Full fences (strong A-cumulativity), e.g. sync; dmb, dsb.
  std::vector<std::string> FullFences;
  /// Full fences restricted to write-write pairs (dmb.st, dsb.st under the
  /// "st fences are full fences limited to WW" reading of Sec. 4.7).
  std::vector<std::string> FullFencesWW;
  /// Lightweight fences ordering everything but write-read pairs (lwsync).
  std::vector<std::string> LightFencesNoWR;
  /// Lightweight fences ordering only write-write pairs (eieio).
  std::vector<std::string> LightFencesWW;
  /// Whether cc0 includes po-loc (Fig. 25 vs the ARM column of Tab. VII).
  bool Cc0IncludesPoLoc = true;
  /// Whether the rdw and detour "dynamic" edges take part in ppo
  /// (Sec. 8.2 discusses dropping them for a more static ppo).
  bool PpoUsesRdwDetour = true;
  /// SC PER LOCATION weakening for chips with read-after-read hazards.
  bool AllowLoadLoadHazard = false;
  /// Relative insertion costs of the architecture's fences, in the spirit
  /// of the paper's restoration discussion (Sec. 7): lightweight fences
  /// are cheaper than full ones (lwsync < sync, dmb.st < dmb), control
  /// fences cheapest. The repair subsystem ranks candidate insertions by
  /// these; fences absent from the table fall back to repair defaults.
  std::vector<std::pair<std::string, unsigned>> FenceCosts;

  /// The insertion cost of \p FenceName; 0 when not in the table.
  unsigned fenceCost(const std::string &FenceName) const;

  static HwConfig power();
  /// The proposed ARM model (cc0 without po-loc).
  static HwConfig arm();
  /// The Power model applied verbatim to ARM fences ("Power-ARM").
  static HwConfig powerArm();
  /// ARM plus the load-load-hazard weakening ("ARM llh").
  static HwConfig armLlh();
};

/// A model of the Power/ARM family, parameterised by HwConfig.
class HwModel : public Model {
public:
  explicit HwModel(HwConfig Config);

  std::string name() const override { return Config.Name; }
  Relation ppo(const Execution &Exe) const override;
  Relation fences(const Execution &Exe) const override;
  Relation prop(const Execution &Exe) const override;
  AxiomStyle style() const override {
    AxiomStyle S;
    S.AllowLoadLoadHazard = Config.AllowLoadLoadHazard;
    return S;
  }

  /// The full-fence relation (strong half of prop).
  Relation fullFence(const Execution &Exe) const;

  /// The lightweight-fence relation.
  Relation lightFence(const Execution &Exe) const;

  const HwConfig &config() const { return Config; }

  /// Interned per-triple identity: two HwModels whose configs agree on
  /// everything that feeds ppo/fences/prop (fence classes, cc0, the
  /// rdw/detour switch — but not the llh axiom style or the display
  /// name) share one tag, so e.g. ARM llh reuses every relation ARM
  /// already derived for a candidate.
  const void *memoTag() const override { return MemoIdentity; }

  /// Serializes the full HwConfig (triple parameters + axiom style), so
  /// editing any architecture parameter invalidates cached campaign
  /// results for this model.
  std::string definitionFingerprint() const override;

private:
  enum : unsigned { MemoFullFence = MemoFirstSubclassSlot };

  HwConfig Config;
  const void *MemoIdentity;
};

} // namespace cats

#endif // CATS_MODEL_HWMODEL_H
