// Negative-path tests for the shared CLI flag-parsing helpers
// (tools/cli_common.h): the numeric edge cases a quoting accident or a
// stray shell expansion can produce — inf/nan spellings, out-of-range
// literals, embedded whitespace, partial parses — and the flag-level
// slips of a valued flag missing its value or a flag given twice must
// all be usage errors (exit 2 with the grammar in hand), never
// silently-accepted values. Companion to the fault-plane hardening
// sweep.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cli_common.h"

namespace staleflow {
namespace {

TEST(ParseFlags, ValuedFlagFollowedByAFlagHasNoValue) {
  // "--csv --quiet" must not write the CSV to a file named --quiet.
  try {
    cli::parse_flags({"run", "--csv", "--quiet"}, 1, {"quiet"});
    FAIL() << "expected cli::UsageError";
  } catch (const cli::UsageError& e) {
    EXPECT_STREQ(e.what(), "--csv needs a value");
  }
  EXPECT_THROW(cli::parse_flags({"--seed", "--epochs", "3"}, 0, {}),
               cli::UsageError);
  // A trailing valued flag has no value either.
  EXPECT_THROW(cli::parse_flags({"--quiet", "--csv"}, 0, {"quiet"}),
               cli::UsageError);
  // Values that merely start with one dash are still values.
  const auto flags = cli::parse_flags({"--offset", "-3"}, 0, {});
  EXPECT_EQ(flags.at("offset"), "-3");
}

TEST(ParseFlags, RepeatedFlagIsAnError) {
  EXPECT_THROW(cli::parse_flags({"--seed", "1", "--seed", "2"}, 0, {}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_flags({"--quiet", "--quiet"}, 0, {"quiet"}),
               cli::UsageError);
  EXPECT_THROW(cli::parse_flags({"--seed", "1", "--seed", "1"}, 0, {}),
               cli::UsageError);
}

TEST(ParseNumber, AcceptsOrdinaryFiniteValues) {
  EXPECT_DOUBLE_EQ(cli::parse_number("0.25", "--t"), 0.25);
  EXPECT_DOUBLE_EQ(cli::parse_number("-3", "--t"), -3.0);
  EXPECT_DOUBLE_EQ(cli::parse_number("1e3", "--t"), 1000.0);
  EXPECT_DOUBLE_EQ(cli::parse_number(".5", "--t"), 0.5);
}

TEST(ParseNumber, RejectsNonFiniteSpellingsAndOverflow) {
  // std::stod happily parses every one of these; the tools must not.
  const std::vector<std::string> bad = {"inf",  "INF", "+inf", "-inf",
                                        "infinity", "nan", "NaN", "nan(0)",
                                        "1e999", "-1e999"};
  for (const std::string& text : bad) {
    EXPECT_THROW(cli::parse_number(text, "--t"), cli::UsageError) << text;
  }
}

TEST(ParseNumber, RejectsWhitespaceAndPartialParses) {
  const std::vector<std::string> bad = {" 5",  "\t5", "\n5", "5 ",
                                        "5\t", "1.5x", "x1.5", "", " ",
                                        "--", "1,5"};
  for (const std::string& text : bad) {
    EXPECT_THROW(cli::parse_number(text, "--t"), cli::UsageError) << text;
  }
}

TEST(ParseInteger, RejectsWhitespaceOverflowAndPartialParses) {
  EXPECT_EQ(cli::parse_integer("-7", "--n"), -7);
  const std::vector<std::string> bad = {
      " 5", "5 ", "", "4x", "0x10", "1.5",
      "99999999999999999999",   // > INT64_MAX: out_of_range, not a wrap
      "-99999999999999999999",
  };
  for (const std::string& text : bad) {
    EXPECT_THROW(cli::parse_integer(text, "--n"), cli::UsageError) << text;
  }
}

TEST(ParseCount, RejectsNegativesInsteadOfWrapping) {
  EXPECT_EQ(cli::parse_count("0", "--n"), 0u);
  EXPECT_EQ(cli::parse_count("42", "--n"), 42u);
  EXPECT_THROW(cli::parse_count("-1", "--n"), cli::UsageError);
  EXPECT_THROW(cli::parse_count(" 1", "--n"), cli::UsageError);
}

TEST(SafeRate, NeverDividesByZeroOrReportsInf) {
  // A first progress tick can land inside the clock's resolution: the
  // rate must read "none yet", not inf/nan.
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, -1.0), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, 1e-9), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(100.0, 2.0), 50.0);
  EXPECT_DOUBLE_EQ(cli::safe_rate(0.0, 2.0), 0.0);
}

}  // namespace
}  // namespace staleflow
