//===- CatParser.cpp - Lexer and parser for the cat language --------------===//
//
// Part of the cats project.
//
//===----------------------------------------------------------------------===//

#include "cat/CatParser.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cctype>
#include <iterator>
#include <utility>

using namespace cats;
using namespace cats::cat;

//===----------------------------------------------------------------------===//
// AST helpers
//===----------------------------------------------------------------------===//

std::unique_ptr<Expr> Expr::name(std::string N, unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Name;
  E->Ident = std::move(N);
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::empty(unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::Empty;
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::binary(ExprKind K, std::unique_ptr<Expr> L,
                                   std::unique_ptr<Expr> R, unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = K;
  E->Height = 1 + std::max(L->Height, R->Height);
  E->Lhs = std::move(L);
  E->Rhs = std::move(R);
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::unary(ExprKind K, std::unique_ptr<Expr> L,
                                  unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = K;
  E->Height = 1 + L->Height;
  E->Lhs = std::move(L);
  E->Line = Line;
  return E;
}

std::unique_ptr<Expr> Expr::filter(std::string Dirs,
                                   std::unique_ptr<Expr> L, unsigned Line) {
  auto E = std::make_unique<Expr>();
  E->Kind = ExprKind::DirFilter;
  E->Ident = std::move(Dirs);
  E->Height = 1 + L->Height;
  E->Lhs = std::move(L);
  E->Line = Line;
  return E;
}

std::string Expr::toString() const {
  switch (Kind) {
  case ExprKind::Name:
    return Ident;
  case ExprKind::Empty:
    return "0";
  case ExprKind::Union:
    return "(" + Lhs->toString() + "|" + Rhs->toString() + ")";
  case ExprKind::Inter:
    return "(" + Lhs->toString() + "&" + Rhs->toString() + ")";
  case ExprKind::Diff:
    return "(" + Lhs->toString() + "\\" + Rhs->toString() + ")";
  case ExprKind::Seq:
    return "(" + Lhs->toString() + ";" + Rhs->toString() + ")";
  case ExprKind::Plus:
    return Lhs->toString() + "+";
  case ExprKind::Star:
    return Lhs->toString() + "*";
  case ExprKind::Inverse:
    return Lhs->toString() + "~";
  case ExprKind::DirFilter:
    return Ident + "(" + Lhs->toString() + ")";
  }
  return "?";
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

namespace {

enum class TokKind : uint8_t {
  Ident,
  Zero,
  Pipe,
  Amp,
  Backslash,
  Semi,
  Plus,
  Star,
  Tilde,
  LParen,
  RParen,
  Equals,
  KwLet,
  KwRec,
  KwAnd,
  KwAcyclic,
  KwIrreflexive,
  KwEmpty,
  KwAs,
  Newline,
  End
};

struct Token {
  TokKind Kind;
  std::string Text;
  unsigned Line;
};

class Lexer {
public:
  Lexer(const std::string &Source) : Source(Source) {}

  Expected<std::vector<Token>> run() {
    std::vector<Token> Tokens;
    while (Pos < Source.size()) {
      char C = Source[Pos];
      if (C == '\n') {
        Tokens.push_back({TokKind::Newline, "\n", Line});
        ++Line;
        ++Pos;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
        continue;
      }
      if (C == '(' && Pos + 1 < Source.size() && Source[Pos + 1] == '*') {
        if (!skipComment())
          return Expected<std::vector<Token>>::error(
              strFormat("cat lexer: unterminated comment at line %u",
                        Line));
        continue;
      }
      if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
        Tokens.push_back(lexIdent());
        continue;
      }
      TokKind Kind;
      switch (C) {
      case '0':
        Kind = TokKind::Zero;
        break;
      case '|':
        Kind = TokKind::Pipe;
        break;
      case '&':
        Kind = TokKind::Amp;
        break;
      case '\\':
        Kind = TokKind::Backslash;
        break;
      case ';':
        Kind = TokKind::Semi;
        break;
      case '+':
        Kind = TokKind::Plus;
        break;
      case '*':
        Kind = TokKind::Star;
        break;
      case '~':
        Kind = TokKind::Tilde;
        break;
      case '(':
        Kind = TokKind::LParen;
        break;
      case ')':
        Kind = TokKind::RParen;
        break;
      case '=':
        Kind = TokKind::Equals;
        break;
      default:
        return Expected<std::vector<Token>>::error(
            strFormat("cat lexer: unexpected character '%c' at line %u", C,
                      Line));
      }
      Tokens.push_back({Kind, std::string(1, C), Line});
      ++Pos;
    }
    Tokens.push_back({TokKind::End, "", Line});
    return Tokens;
  }

private:
  bool skipComment() {
    unsigned Depth = 0;
    while (Pos + 1 < Source.size()) {
      if (Source[Pos] == '(' && Source[Pos + 1] == '*') {
        ++Depth;
        Pos += 2;
        continue;
      }
      if (Source[Pos] == '*' && Source[Pos + 1] == ')') {
        --Depth;
        Pos += 2;
        if (Depth == 0)
          return true;
        continue;
      }
      if (Source[Pos] == '\n')
        ++Line;
      ++Pos;
    }
    return false;
  }

  Token lexIdent() {
    size_t Start = Pos;
    auto IsIdentChar = [&](size_t I) {
      char C = Source[I];
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
          C == '.')
        return true;
      // '-' continues an identifier only when followed by an identifier
      // character (po-loc, prop-base), so "a - b" still lexes as three
      // tokens if we ever add subtraction.
      if (C == '-' && I + 1 < Source.size() &&
          (std::isalnum(static_cast<unsigned char>(Source[I + 1])) ||
           Source[I + 1] == '_'))
        return true;
      return false;
    };
    while (Pos < Source.size() && IsIdentChar(Pos))
      ++Pos;
    std::string Text = Source.substr(Start, Pos - Start);
    TokKind Kind = TokKind::Ident;
    if (Text == "let")
      Kind = TokKind::KwLet;
    else if (Text == "rec")
      Kind = TokKind::KwRec;
    else if (Text == "and")
      Kind = TokKind::KwAnd;
    else if (Text == "acyclic")
      Kind = TokKind::KwAcyclic;
    else if (Text == "irreflexive")
      Kind = TokKind::KwIrreflexive;
    else if (Text == "empty")
      Kind = TokKind::KwEmpty;
    else if (Text == "as")
      Kind = TokKind::KwAs;
    return {Kind, Text, Line};
  }

  const std::string &Source;
  size_t Pos = 0;
  unsigned Line = 1;
};

//===----------------------------------------------------------------------===//
// Parser
//===----------------------------------------------------------------------===//

const char *DirFilterNames[] = {"RR", "RW", "RM", "WR",
                                "WW", "WM", "MR", "MW", "MM"};

bool isDirFilter(const std::string &Name) {
  for (const char *Dir : DirFilterNames)
    if (Name == Dir)
      return true;
  return false;
}

class Parser {
public:
  Parser(std::vector<Token> Tokens, std::string Name)
      : Tokens(std::move(Tokens)), ModelName(std::move(Name)) {}

  Expected<CatFile> run() {
    CatFile File;
    File.Name = ModelName;
    while (true) {
      skipNewlines();
      if (peek().Kind == TokKind::End)
        break;
      Stmt S;
      if (!parseStmt(S))
        return Expected<CatFile>::error(Error);
      File.Statements.push_back(std::move(S));
    }
    return File;
  }

private:
  const Token &peek() const { return Tokens[Cursor]; }
  Token take() { return Tokens[Cursor++]; }

  void skipNewlines() {
    while (peek().Kind == TokKind::Newline)
      ++Cursor;
  }

  bool fail(const std::string &Msg) {
    Error = strFormat("cat parse error (%s) at line %u: %s",
                      ModelName.c_str(), peek().Line, Msg.c_str());
    return false;
  }

  bool expect(TokKind Kind, const char *What) {
    if (peek().Kind != Kind)
      return fail(std::string("expected ") + What + ", got '" +
                  peek().Text + "'");
    ++Cursor;
    return true;
  }

  bool parseStmt(Stmt &Out) {
    Out.Line = peek().Line;
    switch (peek().Kind) {
    case TokKind::KwLet:
      return parseLet(Out);
    case TokKind::KwAcyclic:
      Out.Kind = StmtKind::Acyclic;
      take();
      return parseCheckTail(Out);
    case TokKind::KwIrreflexive:
      Out.Kind = StmtKind::Irreflexive;
      take();
      return parseCheckTail(Out);
    case TokKind::KwEmpty:
      Out.Kind = StmtKind::Empty;
      take();
      return parseCheckTail(Out);
    default:
      return fail("expected 'let' or a check");
    }
  }

  bool parseCheckTail(Stmt &Out) {
    auto E = parseExpr();
    if (!E)
      return false;
    Out.Check = std::move(E);
    if (peek().Kind == TokKind::KwAs) {
      take();
      if (peek().Kind != TokKind::Ident)
        return fail("expected a check name after 'as'");
      Out.CheckName = take().Text;
    }
    return expectEndOfStmt();
  }

  bool expectEndOfStmt() {
    if (peek().Kind == TokKind::Newline || peek().Kind == TokKind::End) {
      return true;
    }
    return fail("unexpected trailing tokens");
  }

  bool parseLet(Stmt &Out) {
    take(); // let
    Out.Kind = StmtKind::Let;
    if (peek().Kind == TokKind::KwRec) {
      take();
      Out.Kind = StmtKind::LetRec;
    }
    while (true) {
      Binding B;
      if (peek().Kind != TokKind::Ident)
        return fail("expected a binding name");
      B.Name = take().Text;
      if (!expect(TokKind::Equals, "'='"))
        return false;
      auto E = parseExpr();
      if (!E)
        return false;
      B.Body = std::move(E);
      Out.Bindings.push_back(std::move(B));
      // "and" continues the group; it may appear after a newline.
      size_t Save = Cursor;
      skipNewlines();
      if (peek().Kind == TokKind::KwAnd) {
        take();
        continue;
      }
      Cursor = Save;
      break;
    }
    return expectEndOfStmt();
  }

  //===--------------------------------------------------------------------===//
  // Expressions
  //===--------------------------------------------------------------------===//

  std::unique_ptr<Expr> tooDeep() {
    fail(strFormat("expression nested deeper than %u levels", MaxCatDepth));
    return nullptr;
  }

  /// \p E, or null with a diagnostic once it is taller than MaxCatDepth:
  /// the resolver and the evaluator recurse on the tree.
  std::unique_ptr<Expr> bounded(std::unique_ptr<Expr> E) {
    if (E->Height > MaxCatDepth)
      return tooDeep();
    return E;
  }

  /// Each parenthesis or filter call nests one level deeper, so the
  /// parser's own recursion is bounded too.
  std::unique_ptr<Expr> parseExpr() {
    if (Nesting == MaxCatDepth)
      return tooDeep();
    ++Nesting;
    auto E = parseBinary(0);
    --Nesting;
    return E;
  }

  /// The binary operators, loosest first (see CatAst.h); every level is
  /// left-associative.
  static constexpr std::pair<TokKind, ExprKind> BinaryOps[] = {
      {TokKind::Pipe, ExprKind::Union},
      {TokKind::Amp, ExprKind::Inter},
      {TokKind::Backslash, ExprKind::Diff},
      {TokKind::Semi, ExprKind::Seq}};

  /// Parses binary level \p Level and the tighter ones; past the last
  /// level, a postfix expression.
  std::unique_ptr<Expr> parseBinary(size_t Level) {
    if (Level == std::size(BinaryOps))
      return parsePostfix();
    const auto [Op, Kind] = BinaryOps[Level];
    auto L = parseBinary(Level + 1);
    while (L && peek().Kind == Op) {
      unsigned Line = take().Line;
      auto R = parseBinary(Level + 1);
      if (!R)
        return nullptr;
      L = bounded(Expr::binary(Kind, std::move(L), std::move(R), Line));
    }
    return L;
  }

  std::unique_ptr<Expr> parsePostfix() {
    auto L = parsePrimary();
    while (L) {
      ExprKind Kind;
      if (peek().Kind == TokKind::Plus)
        Kind = ExprKind::Plus;
      else if (peek().Kind == TokKind::Star)
        Kind = ExprKind::Star;
      else if (peek().Kind == TokKind::Tilde)
        Kind = ExprKind::Inverse;
      else
        return L;
      L = bounded(Expr::unary(Kind, std::move(L), take().Line));
    }
    return nullptr;
  }

  std::unique_ptr<Expr> parsePrimary() {
    if (peek().Kind == TokKind::Zero)
      return Expr::empty(take().Line);
    if (peek().Kind == TokKind::LParen) {
      take();
      auto E = parseExpr();
      if (!E)
        return nullptr;
      if (!expect(TokKind::RParen, "')'"))
        return nullptr;
      return E;
    }
    if (peek().Kind == TokKind::Ident) {
      Token Tok = take();
      if (isDirFilter(Tok.Text) && peek().Kind == TokKind::LParen) {
        take();
        auto E = parseExpr();
        if (!E)
          return nullptr;
        if (!expect(TokKind::RParen, "')'"))
          return nullptr;
        return bounded(Expr::filter(Tok.Text, std::move(E), Tok.Line));
      }
      return Expr::name(Tok.Text, Tok.Line);
    }
    fail("expected an expression");
    return nullptr;
  }

  std::vector<Token> Tokens;
  std::string ModelName;
  size_t Cursor = 0;
  /// parseExpr calls currently open.
  unsigned Nesting = 0;
  std::string Error;
};

} // namespace

Expected<CatFile> cats::cat::parseCat(const std::string &Source,
                                      const std::string &Name) {
  Lexer Lex(Source);
  auto Tokens = Lex.run();
  if (!Tokens)
    return Expected<CatFile>::error(Tokens.message());
  return Parser(Tokens.take(), Name).run();
}
