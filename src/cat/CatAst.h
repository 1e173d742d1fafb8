//===- CatAst.h - AST for the cat model language --------------*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the cat language of Sec. 8.3 / Fig. 38: a small
/// relational language in which whole memory models are written. A model is
/// a sequence of (possibly mutually recursive) relation definitions and
/// acyclicity / irreflexivity / emptiness checks.
///
/// Expression grammar (loosest to tightest):
///
///   expr   := inter ('|' inter)*                 union
///   inter  := diff ('&' diff)*                   intersection
///   diff   := seq ('\' seq)*                     difference
///   seq    := post (';' post)*                   sequence (composition)
///   post   := primary ('+' | '*' | '~')*         closures, inverse
///   primary:= name | '0' | name '(' expr ')' | '(' expr ')'
///
/// Direction filters are the function forms RR(e), RW(e), WR(e), WW(e),
/// RM(e), WM(e), MR(e), MW(e), MM(e).
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAT_CATAST_H
#define CATS_CAT_CATAST_H

#include <memory>
#include <string>
#include <vector>

namespace cats {
namespace cat {

/// Expression node kinds.
enum class ExprKind : uint8_t {
  Name,      ///< Reference to a builtin or defined relation.
  Empty,     ///< The literal 0.
  Union,     ///< a | b
  Inter,     ///< a & b
  Diff,      ///< a \ b
  Seq,       ///< a ; b
  Plus,      ///< a+
  Star,      ///< a*
  Inverse,   ///< a~ (written ^-1 in the paper)
  DirFilter, ///< RR(a), RW(a), ... restriction by endpoint directions.
};

/// One expression node.
struct Expr {
  ExprKind Kind;
  /// For Name: the identifier. For DirFilter: "RR".."MM".
  std::string Ident;
  std::unique_ptr<Expr> Lhs;
  std::unique_ptr<Expr> Rhs;
  /// Source line for diagnostics.
  unsigned Line = 0;
  /// Height of this subtree (a leaf is 1); the parser bounds it.
  unsigned Height = 1;
  /// For Name: the environment slot the model's resolver bound it to.
  unsigned Slot = 0;

  static std::unique_ptr<Expr> name(std::string N, unsigned Line);
  static std::unique_ptr<Expr> empty(unsigned Line);
  static std::unique_ptr<Expr> binary(ExprKind K, std::unique_ptr<Expr> L,
                                      std::unique_ptr<Expr> R,
                                      unsigned Line);
  static std::unique_ptr<Expr> unary(ExprKind K, std::unique_ptr<Expr> L,
                                     unsigned Line);
  static std::unique_ptr<Expr> filter(std::string Dirs,
                                      std::unique_ptr<Expr> L,
                                      unsigned Line);

  /// Renders the expression back to cat syntax.
  std::string toString() const;
};

/// One name = expr binding.
struct Binding {
  std::string Name;
  std::unique_ptr<Expr> Body;
  /// The environment slot the model's resolver gave this binding.
  unsigned Slot = 0;
};

/// Kinds of top-level statements.
enum class StmtKind : uint8_t {
  Let,        ///< let (non-recursive) binding group.
  LetRec,     ///< let rec ... and ...: least fixpoint of the group.
  Acyclic,    ///< acyclic expr [as name]
  Irreflexive,///< irreflexive expr [as name]
  Empty       ///< empty expr [as name]
};

/// One top-level statement.
struct Stmt {
  StmtKind Kind;
  std::vector<Binding> Bindings; ///< For Let/LetRec.
  std::unique_ptr<Expr> Check;   ///< For the check statements.
  std::string CheckName;         ///< Optional "as" label.
  unsigned Line = 0;
};

/// A parsed cat model.
struct CatFile {
  /// Leading free-form model name (first (* comment *) or file name).
  std::string Name;
  std::vector<Stmt> Statements;
};

} // namespace cat
} // namespace cats

#endif // CATS_CAT_CATAST_H
