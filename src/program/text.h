/// \file text.h
/// \brief Shared tokenizer/cursor for the text formats (schemes,
/// instances, operations, programs).
///
/// Tokens: `{ } ; =` stand alone, quoted strings keep arbitrary
/// characters (labels may contain spaces or '#'), `#` starts a line
/// comment outside quotes.

#ifndef GOOD_PROGRAM_TEXT_H_
#define GOOD_PROGRAM_TEXT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace good::program::text {

struct Token {
  std::string text;
  bool quoted = false;
};

/// Splits `input` into tokens; InvalidArgument on unterminated strings.
Result<std::vector<Token>> Tokenize(std::string_view input);

/// Statement-shaped access over a token stream.
class Cursor {
 public:
  explicit Cursor(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  bool AtEnd() const { return pos_ >= tokens_.size(); }
  const Token& Peek() const { return tokens_[pos_]; }
  Token Next() { return tokens_[pos_++]; }

  /// Consumes the unquoted token `text` or errors.
  Status Expect(const std::string& text);

  /// True (and consumes) iff the next token is the unquoted `text`.
  bool TryConsume(const std::string& text);

  /// Reads a name: a bare word or a quoted string.
  Result<std::string> Word();

 private:
  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

/// Quotes `raw` with backslash escaping.
std::string Quote(const std::string& raw);

/// Writes a label bare when safe, quoted otherwise.
std::string WriteName(const std::string& name);

}  // namespace good::program::text

#endif  // GOOD_PROGRAM_TEXT_H_
