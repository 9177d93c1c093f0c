#include "util/text_reader.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

namespace actg::util {

namespace {

/// The characters `istream >> std::string` splits on.
constexpr std::string_view kSpace = " \t\n\v\f\r";

std::optional<std::uint64_t> ParseUnsigned(std::string_view token,
                                           int base) {
  // from_chars into an unsigned type takes no sign, no whitespace and
  // no prefix, and reports overflow instead of wrapping.
  std::uint64_t value = 0;
  const char* end = token.data() + token.size();
  const auto [ptr, ec] = std::from_chars(token.data(), end, value, base);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

std::optional<std::uint64_t> ParseCount(std::string_view token) {
  return ParseUnsigned(token, 10);
}

TextReader::TextReader(std::istream& is, std::string format)
    : is_(is), format_(std::move(format)) {}

bool TextReader::Next(std::vector<std::string>& tokens) {
  while (std::getline(is_, line_)) {
    ++line_number_;
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    const std::string_view text =
        std::string_view(line_).substr(0, line_.find('#'));
    tokens.clear();
    for (std::size_t pos = text.find_first_not_of(kSpace);
         pos != std::string_view::npos;
         pos = text.find_first_not_of(kSpace, pos)) {
      const std::size_t end = std::min(text.find_first_of(kSpace, pos),
                                       text.size());
      tokens.emplace_back(text.substr(pos, end - pos));
      pos = end;
    }
    if (!tokens.empty()) return true;
  }
  return false;
}

void TextReader::Header(std::string_view header,
                        std::vector<std::string>& tokens) {
  if (!Next(tokens) || tokens.size() != 2 ||
      tokens[0] + ' ' + tokens[1] != header) {
    Fail("expected header '" + std::string(header) + "'");
  }
}

void TextReader::Fail(const std::string& message) const {
  throw InvalidArgument(format_ + " line " + std::to_string(line_number_) +
                        ": " + message);
}

double TextReader::Number(const std::string& token) const {
  try {
    std::size_t used = 0;
    const double value = std::stod(token, &used);
    if (used == token.size()) return value;
  } catch (const std::logic_error&) {
    // Not a number or out of double's range: the diagnostic below.
  }
  Fail("expected a number, got '" + token + "'");
}

std::uint64_t TextReader::Count(const std::string& token) const {
  const std::optional<std::uint64_t> value = ParseCount(token);
  if (!value) Fail("expected a non-negative integer, got '" + token + "'");
  return *value;
}

bool TextReader::Flag(const std::string& token) const {
  if (token != "0" && token != "1") {
    Fail("expected 0 or 1, got '" + token + "'");
  }
  return token == "1";
}

std::uint64_t TextReader::Hex(const std::string& token) const {
  const std::optional<std::uint64_t> value = ParseUnsigned(token, 16);
  if (!value) Fail("expected a hex integer, got '" + token + "'");
  return *value;
}

std::string TextReader::Rest(std::size_t n) const {
  std::size_t pos = 0;
  for (std::size_t i = 0; i < n && pos < line_.size(); ++i) {
    pos = line_.find_first_not_of(kSpace, pos);
    pos = std::min(line_.find_first_of(kSpace, pos), line_.size());
  }
  return pos < line_.size() ? line_.substr(pos + 1) : std::string();
}

}  // namespace actg::util
