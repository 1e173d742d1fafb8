//===- CatModel.h - Evaluating cat models over executions -----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cat interpreter: given a parsed cat file and a candidate execution,
/// evaluates every definition to a Relation and every check to a boolean.
/// `let rec ... and ...` groups are solved as least fixpoints over the
/// finite relation lattice, exactly as the ii/ic/ci/cc equations of Fig. 25
/// require.
///
/// Loading resolves every name once, lexically, to a slot: the builtin
/// relations (one table in CatModel.cpp, derived from the Execution) take
/// the first slots and each binding gets its own. A candidate is then
/// judged over a slot-indexed environment with no name lookup at all
/// (docs/cat-language.md has the scoping rules).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAT_CATMODEL_H
#define CATS_CAT_CATMODEL_H

#include "cat/CatAst.h"
#include "event/Execution.h"
#include "support/Error.h"

#include <map>
#include <string>
#include <vector>

namespace cats {
namespace cat {

/// Result of one named check on one execution.
struct CheckResult {
  std::string Name; ///< "as" label, or the check expression text.
  bool Holds = true;
};

/// A compiled cat model, ready to judge executions.
class CatModel {
public:
  /// Parses \p Source and resolves every name in it; fails on the first
  /// unknown one.
  static Expected<CatModel> fromSource(const std::string &Source,
                                       const std::string &Name);

  /// Loads a .cat file from disk.
  static Expected<CatModel> fromFile(const std::string &Path);

  /// Loads a model shipped in the repository's models/ directory by stem,
  /// e.g. "power" -> models/power.cat.
  static Expected<CatModel> builtin(const std::string &Stem);

  const std::string &name() const { return File.Name; }

  /// The text this model was compiled from.
  const std::string &source() const { return Source; }

  /// Evaluates all checks; the execution is allowed iff all hold.
  std::vector<CheckResult> check(const Execution &Exe) const;

  /// True when every check holds on \p Exe.
  bool allows(const Execution &Exe) const;

  /// Evaluates a defined or builtin relation by name on \p Exe, as seen
  /// after the file's last statement; fails for unknown names.
  Expected<Relation> evaluate(const std::string &RelName,
                              const Execution &Exe) const;

  /// True when the file itself binds \p RelName (builtins excluded).
  bool defines(const std::string &RelName) const;

  /// The label of each check in file order: its "as" name, or its
  /// expression text. check() reports results in the same order.
  const std::vector<std::string> &checkNames() const { return CheckNames; }

private:
  explicit CatModel(CatFile File) : File(std::move(File)) {}

  /// Gives every binding a slot, binds every Name expression to one and
  /// fills Scope, NumSlots and CheckNames.
  Status resolve();

  /// Runs the statements on \p Exe over a fresh slot environment and
  /// returns its values. Checks run only when \p Checks is non-null and
  /// append their results to it.
  std::vector<Relation> run(const Execution &Exe,
                            std::vector<CheckResult> *Checks) const;

  CatFile File;
  std::string Source;
  /// Name -> slot after the last statement.
  std::map<std::string, unsigned> Scope;
  unsigned NumSlots = 0;
  std::vector<std::string> CheckNames;
};

} // namespace cat
} // namespace cats

#endif // CATS_CAT_CATMODEL_H
