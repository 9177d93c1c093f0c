/// \file text_reader.h
/// The line grammar every text format of this library shares: ctg v1,
/// platform v1, faults v1, serve v1, campaign v1, checkpoint v1 and
/// fuzzcase v1.
///
///  - A format is a sequence of lines. `#` starts a comment that runs to
///    the end of the line; lines that hold no token are skipped.
///  - A line splits into whitespace-separated tokens.
///  - A Number is a token that parses completely as a double (so `1e3`,
///    `-0.5`, `inf` are numbers; `4.0x` is not).
///  - A Count is decimal digits only: no sign, exponent, hex prefix or
///    fraction, and at most 2^64-1. Seeds are counts, so every uint64
///    seed round-trips exactly.
///  - A Flag is exactly `0` or `1`.
///  - Every failure reads `<format> line N: <message>`, N counting every
///    physical line including comments and blanks.
///
/// Embedded blocks (the graph inside a fuzzcase) are parsed off the
/// enclosing reader, so their line numbers count from the top of the
/// file.

#ifndef ACTG_UTIL_TEXT_READER_H
#define ACTG_UTIL_TEXT_READER_H

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "util/error.h"

namespace actg::util {

/// The Count grammar above, without a diagnostic: nullopt unless
/// \p token is a decimal uint64.
std::optional<std::uint64_t> ParseCount(std::string_view token);

/// Tokenizing reader over one input stream. It consumes the stream a
/// line at a time, so a parser that stops at its `end` line leaves the
/// rest of the stream unread.
class TextReader {
 public:
  /// \p format names the format in diagnostics ("serve", "campaign").
  TextReader(std::istream& is, std::string format);

  /// Advances to the next line holding a token and splits it into
  /// \p tokens; false at end of input.
  bool Next(std::vector<std::string>& tokens);

  /// Next() and checks the line is exactly \p header ("ctg v1").
  void Header(std::string_view header, std::vector<std::string>& tokens);

  /// Throws InvalidArgument "<format> line N: <message>".
  [[noreturn]] void Fail(const std::string& message) const;

  double Number(const std::string& token) const;
  std::uint64_t Count(const std::string& token) const;
  bool Flag(const std::string& token) const;
  /// A uint64 in hex digits without a `0x` prefix (the checkpoint's
  /// fingerprint and double bit patterns).
  std::uint64_t Hex(const std::string& token) const;

  /// The current line verbatim after its first \p n tokens and the one
  /// separator that follows them, `#` included: the checkpoint's
  /// free-text field.
  std::string Rest(std::size_t n) const;

 private:
  std::istream& is_;
  std::string format_;
  std::string line_;
  int line_number_ = 0;
};

/// Runs the throwing parser \p body and returns its result as a value:
/// the InvalidArgument a malformed input raises becomes a util::Error.
template <typename F>
auto TryParse(F&& body) -> Expected<std::invoke_result_t<F>> {
  try {
    return body();
  } catch (const InvalidArgument& e) {
    return Error::Invalid(e.what());
  }
}

}  // namespace actg::util

#endif  // ACTG_UTIL_TEXT_READER_H
