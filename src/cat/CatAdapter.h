//===- CatAdapter.h - cat files behind the Model interface ----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Adapts a compiled cat model (src/cat/CatModel) to the native Model
/// interface, so .cat files plug into everything built over Model: the
/// multi-model checker, the sweep engine, the witness/provenance layer and
/// the campaign result cache. The adapter evaluates the cat checks for
/// verdicts and maps their "as" names onto the four framework axioms; the
/// architecture triple is recovered from the conventional definition names
/// (`ppo`, `fence`/`fences`, `prop`) the shipped models all use, which is
/// what lets the generic explainViolation machinery label witness edges
/// for cat-defined models too.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAT_CATADAPTER_H
#define CATS_CAT_CATADAPTER_H

#include "cat/CatModel.h"
#include "model/Model.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace cats {

/// A Model backed by a cat file.
class CatAdapterModel : public Model {
public:
  /// Wraps \p Source compiled as a cat model; \p Name is the display name
  /// used when the file's own name is empty.
  static Expected<CatAdapterModel> fromSource(const std::string &Source,
                                              const std::string &Name);

  /// Loads and wraps a .cat file from disk; the fingerprint hashes the
  /// very text that was compiled.
  static Expected<CatAdapterModel> fromFile(const std::string &Path);

  std::string name() const override;

  /// The conventional `ppo` definition; falls back to po when the file
  /// does not define one (sc.cat's ppo is po by construction).
  Relation ppo(const Execution &Exe) const override;

  /// The conventional `fence` (or `fences`) definition; empty otherwise.
  Relation fences(const Execution &Exe) const override;

  /// The conventional `prop` definition; empty otherwise.
  Relation prop(const Execution &Exe) const override;

  /// Evaluates the file's own checks. Failing checks named after the four
  /// framework axioms ("sc-per-location", "uniproc", "no-thin-air",
  /// "observation", "propagation") are classified onto the Verdict's
  /// Violated list; any other failing check still forbids the execution.
  Verdict check(const Execution &Exe) const override;

  /// "cat:<name>:<hash of source text>" — editing the file's text
  /// invalidates cached campaign results.
  std::string definitionFingerprint() const override;

  const cat::CatModel &catModel() const { return *Cat; }

private:
  explicit CatAdapterModel(cat::CatModel CatIn);

  // Shared so the adapter stays copyable (Expected requires it); the
  // wrapped CatModel is immutable after construction.
  std::shared_ptr<const cat::CatModel> Cat;
  std::string SourceHash;
  /// The axiom each check (in file order) is classified onto; none for a
  /// check outside the four-axiom vocabulary.
  std::vector<std::optional<Axiom>> CheckAxioms;
  /// The definitions behind ppo(), fences() and prop(); empty when the
  /// file binds none, and the fallback applies.
  std::string PpoName, FenceName, PropName;
};

} // namespace cats

#endif // CATS_CAT_CATADAPTER_H
