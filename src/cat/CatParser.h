//===- CatParser.h - Lexer and parser for the cat language ----*- C++ -*-===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses cat model files (see CatAst.h for the grammar). Comments are
/// OCaml-style (* ... *) and may nest. Identifiers may contain '-' and '.'
/// (po-loc, prop-base, dmb.st); the postfix closure operators '+' and '*'
/// bind to the preceding expression.
///
//===----------------------------------------------------------------------===//

#ifndef CATS_CAT_CATPARSER_H
#define CATS_CAT_CATPARSER_H

#include "cat/CatAst.h"
#include "support/Error.h"

namespace cats {
namespace cat {

/// The deepest expression (tree height, or parenthesis nesting) a cat file
/// may hold, as for JSON; deeper input is an error, not a stack overflow.
constexpr unsigned MaxCatDepth = 256;

/// Parses cat source text; \p Name is used for diagnostics and as the
/// model's display name.
Expected<CatFile> parseCat(const std::string &Source,
                           const std::string &Name);

} // namespace cat
} // namespace cats

#endif // CATS_CAT_CATPARSER_H
