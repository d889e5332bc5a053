//===- lang/Parser.h - LoopLang recursive descent parser --------*- C++ -*-===//
//
// Part of the NeuroVectorizer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for LoopLang. Produces the AST consumed by the
/// loop extractor, the embedding generator, and the IR lowering. Loops must
/// be canonical counted loops (see lang/AST.h); anything else is a parse
/// error, which matches the shape of the paper's loop dataset.
///
//===----------------------------------------------------------------------===//

#ifndef NV_LANG_PARSER_H
#define NV_LANG_PARSER_H

#include "lang/AST.h"
#include "lang/Token.h"

#include <optional>
#include <vector>

namespace nv {

/// Parses LoopLang source text into a Program.
class Parser {
public:
  explicit Parser(std::vector<Token> Tokens);

  /// Parses a whole translation unit. Returns std::nullopt on error; the
  /// message is available via \c error().
  std::optional<Program> parseProgram();

  /// Returns the first error message, or empty on success.
  const std::string &error() const { return ErrorMessage; }

  /// The deepest nesting the parser accepts. Deeper input is a parse
  /// error, not a stack overflow. One level each: a statement (so a
  /// statement nested in a block, loop or branch adds one), an expression
  /// in its own context (a parenthesis, subscript, call argument, or the
  /// expression of a statement), an operand of a prefix operator or cast,
  /// a conditional branch, and a binary operator above its deeper operand
  /// (so `a + b + c` nests `a` two levels below the statement's
  /// expression, as its tree does). The suites and generated loops of
  /// dataset/ nest 11 deep at most (measured over 20,000 generated
  /// loops).
  static constexpr int MaxNestingDepth = 256;

private:
  // Token cursor.
  const Token &peek(int Ahead = 0) const;
  const Token &advance();
  bool check(TokenKind Kind) const { return peek().is(Kind); }
  bool accept(TokenKind Kind);
  bool expect(TokenKind Kind, const char *Context);

  // Error handling: sets ErrorMessage (first error wins) and flips Failed.
  void fail(const std::string &Message);
  bool failed() const { return Failed; }
  void failTooDeep(); ///< fail() with the MaxNestingDepth message.

  /// Runs \p Parse one nesting level deeper, or fails (and returns null)
  /// when that would exceed MaxNestingDepth.
  template <typename ParseFn>
  auto nested(ParseFn Parse) -> decltype(Parse());

  // Grammar productions.
  bool parseTopLevel(Program &P);
  std::optional<ScalarType> parseTypeSpecifier();
  bool typeAhead() const;
  void parseGlobal(Program &P, ScalarType Ty, std::string Name);
  void parseFunction(Program &P, ScalarType Ty, bool IsVoid,
                     std::string Name);
  StmtPtr parseBlock();
  StmtPtr parseStmt();
  StmtPtr parseStmtAtDepth(); ///< parseStmt() inside its nesting level.
  StmtPtr parseFor();
  StmtPtr parseIf();
  StmtPtr parseDeclStmt();
  StmtPtr parseAssignOrExprStmt();
  std::optional<VectorPragma> parsePragmaText(const std::string &Text);

  ExprPtr parseExpr();
  ExprPtr parseTernary();
  ExprPtr parseBinary(int MinPrecedence);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  std::vector<Token> Tokens;
  size_t Pos = 0;
  int Depth = 0; ///< Current nesting level (see MaxNestingDepth).
  /// Deepest level reached since parseBinary last reset it; how a binary
  /// chain learns the height of an operand.
  int Deepest = 0;
  std::string ErrorMessage;
  bool Failed = false;
  /// A pragma seen but not yet attached to a following for-statement.
  std::optional<VectorPragma> PendingPragma;
};

/// Convenience: lex + parse \p Source. Returns std::nullopt and fills
/// \p ErrorOut (if non-null) on failure.
std::optional<Program> parseSource(const std::string &Source,
                                   std::string *ErrorOut = nullptr);

} // namespace nv

#endif // NV_LANG_PARSER_H
