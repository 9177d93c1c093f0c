#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "cli_common.h"
#include "util/error.h"

namespace actg::cli {
namespace {

/// Mutable argv over owned strings (argv[0] is the program name).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : args_(std::move(args)) {
    args_.insert(args_.begin(), "tool");
    for (std::string& arg : args_) ptrs_.push_back(arg.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> args_;
  std::vector<char*> ptrs_;
};

TEST(ParseCount, AcceptsPlainDecimalDigits) {
  EXPECT_EQ(ParseCount("0"), 0u);
  EXPECT_EQ(ParseCount("7"), 7u);
  EXPECT_EQ(ParseCount("007"), 7u);
  EXPECT_EQ(ParseCount("18446744073709551615"),
            std::numeric_limits<std::size_t>::max());
}

TEST(ParseCount, RejectsSignsWhitespaceGarbageAndOverflow) {
  for (const char* token :
       {"-1", " 7", "7 ", "+3", "7x", "x7", "", "0x10", "1e3", "3.0",
        "18446744073709551616", "99999999999999999999999"}) {
    EXPECT_FALSE(ParseCount(token).has_value()) << "'" << token << "'";
  }
}

TEST(CountFlag, AbsentFlagYieldsFallback) {
  Argv args({"--other", "3"});
  EXPECT_EQ(CountFlag(args.argc(), args.argv(), "--steps", 42), 42u);
}

TEST(CountFlag, ParsesBothSpellings) {
  Argv spaced({"--steps", "12"});
  EXPECT_EQ(CountFlag(spaced.argc(), spaced.argv(), "--steps", 42), 12u);
  Argv joined({"--steps=13"});
  EXPECT_EQ(CountFlag(joined.argc(), joined.argv(), "--steps", 42), 13u);
}

TEST(CountFlag, MalformedValueFailsNamingTheFlag) {
  for (const char* value : {"-1", "+3", " 7", "7x", ""}) {
    Argv args({std::string("--steps=") + value});
    try {
      CountFlag(args.argc(), args.argv(), "--steps", 42);
      ADD_FAILURE() << "accepted '" << value << "'";
    } catch (const InvalidArgument& e) {
      EXPECT_EQ(std::string(e.what()),
                std::string("--steps wants a non-negative decimal count, "
                            "got '") +
                    value + "'");
    }
  }
}

TEST(CountFlag, SeedFlagSharesTheStrictParse) {
  Argv good({"--seed", "9"});
  EXPECT_EQ(SeedFlag(good.argc(), good.argv(), 1), 9u);
  Argv bad({"--seed", "-1"});
  EXPECT_THROW(SeedFlag(bad.argc(), bad.argv(), 1), InvalidArgument);
}

}  // namespace
}  // namespace actg::cli
