#include "util/check.hpp"

#include <gtest/gtest.h>

#include <string>

#include "util/parse.hpp"

namespace mlcr::util {
namespace {

TEST(Check, PassingConditionDoesNothing) {
  EXPECT_NO_THROW(MLCR_CHECK(1 + 1 == 2));
  EXPECT_NO_THROW(MLCR_CHECK_MSG(true, "never shown"));
}

TEST(Check, FailureThrowsCheckError) {
  EXPECT_THROW(MLCR_CHECK(false), CheckError);
  EXPECT_THROW(MLCR_CHECK_MSG(false, "boom"), CheckError);
}

TEST(Check, MessageContainsExpressionLocationAndDetail) {
  try {
    MLCR_CHECK_MSG(2 > 3, "detail " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 > 3"), std::string::npos);
    EXPECT_NE(what.find("test_check.cpp"), std::string::npos);
    EXPECT_NE(what.find("detail 42"), std::string::npos);
  }
}

TEST(Check, IsALogicError) {
  // Callers may catch std::logic_error generically.
  EXPECT_THROW(MLCR_CHECK(false), std::logic_error);
}

TEST(Check, ConditionEvaluatedOnce) {
  int calls = 0;
  auto count = [&] {
    ++calls;
    return true;
  };
  MLCR_CHECK(count());
  EXPECT_EQ(calls, 1);
}

TEST(ParseNumber, ReadsWholeFiniteDecimals) {
  EXPECT_DOUBLE_EQ(parse_number("0.5", "--pool"), 0.5);
  EXPECT_DOUBLE_EQ(parse_number("-2", "--x"), -2.0);
  EXPECT_DOUBLE_EQ(parse_number("1e-3", "--x"), 1e-3);
  EXPECT_DOUBLE_EQ(parse_number("0", "--x"), 0.0);
}

// nan would make every threshold comparison false and "" used to read as 0,
// so both are errors, like a suffix, a space, a sign strtod skips, an
// infinity or an overflow. The message names the flag.
TEST(ParseNumber, RejectsNonFiniteAndMalformedValuesNamingTheFlag) {
  for (const std::string value : {"nan", "NaN", "inf", "-inf", "infinity", "",
                                   "abc", "0.5x", " 1", "+1", "1e999"}) {
    SCOPED_TRACE("'" + value + "'");
    try {
      (void)parse_number(value, "--min-goodput");
      ADD_FAILURE() << "accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(
                    "--min-goodput needs a finite numeric value"),
                std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace mlcr::util
