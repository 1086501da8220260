#include "program/text.h"

#include <algorithm>
#include <cctype>

namespace good::program::text {

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> out;
  size_t i = 0;
  const size_t n = input.size();
  while (i < n) {
    char c = input[i];
    if (c == '#') {
      while (i < n && input[i] != '\n') ++i;
    } else if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
    } else if (c == '{' || c == '}' || c == ';' || c == '=') {
      out.push_back(Token{std::string(1, c), false});
      ++i;
    } else if (c == '"') {
      std::string s;
      ++i;
      while (i < n && input[i] != '"') {
        if (input[i] == '\\' && i + 1 < n) ++i;
        s += input[i++];
      }
      if (i >= n) return Status::InvalidArgument("unterminated string");
      ++i;  // Closing quote.
      out.push_back(Token{std::move(s), true});
    } else {
      std::string s;
      while (i < n && !std::isspace(static_cast<unsigned char>(input[i])) &&
             input[i] != '{' && input[i] != '}' && input[i] != ';' &&
             input[i] != '=' && input[i] != '#' && input[i] != '"') {
        s += input[i++];
      }
      out.push_back(Token{std::move(s), false});
    }
  }
  return out;
}

Status Cursor::Expect(const std::string& text) {
  if (AtEnd() || tokens_[pos_].quoted || tokens_[pos_].text != text) {
    return Status::InvalidArgument(
        "expected '" + text + "'" +
        (AtEnd() ? " at end of input"
                 : ", got '" + tokens_[pos_].text + "'"));
  }
  ++pos_;
  return Status::OK();
}

bool Cursor::TryConsume(const std::string& text) {
  if (AtEnd() || tokens_[pos_].quoted || tokens_[pos_].text != text) {
    return false;
  }
  ++pos_;
  return true;
}

Result<std::string> Cursor::Word() {
  if (AtEnd()) return Status::InvalidArgument("unexpected end of input");
  return tokens_[pos_++].text;
}

std::string Quote(const std::string& raw) {
  std::string out = "\"";
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

std::string WriteName(const std::string& name) {
  auto safe = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '-' || c == '.' || c == ':' || c == '$';
  };
  if (!name.empty() && std::all_of(name.begin(), name.end(), safe) &&
      name != "scheme" && name != "instance") {
    return name;
  }
  return Quote(name);
}

}  // namespace good::program::text
