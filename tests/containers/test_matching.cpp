// Table-I matching semantics, including a parameterized sweep over every
// (OS match?, language match?, runtime match?) combination.
#include "containers/matching.hpp"

#include <gtest/gtest.h>

#include <tuple>

namespace mlcr::containers {
namespace {

struct Fixture {
  PackageCatalog catalog;
  PackageId os_a, os_b, lang_a, lang_b, rt_a, rt_b;

  Fixture() {
    os_a = catalog.add("os-a", Level::kOs, 10.0);
    os_b = catalog.add("os-b", Level::kOs, 10.0);
    lang_a = catalog.add("lang-a", Level::kLanguage, 10.0);
    lang_b = catalog.add("lang-b", Level::kLanguage, 10.0);
    rt_a = catalog.add("rt-a", Level::kRuntime, 10.0);
    rt_b = catalog.add("rt-b", Level::kRuntime, 10.0);
  }
};

using Combo = std::tuple<bool, bool, bool>;  // os/lang/rt equal?

class MatchSweep : public ::testing::TestWithParam<Combo> {};

TEST_P(MatchSweep, TableOneSemantics) {
  const auto [os_eq, lang_eq, rt_eq] = GetParam();
  Fixture f;
  const ImageSpec fn({f.os_a}, {f.lang_a}, {f.rt_a});
  const ImageSpec cont({os_eq ? f.os_a : f.os_b},
                       {lang_eq ? f.lang_a : f.lang_b},
                       {rt_eq ? f.rt_a : f.rt_b});

  MatchLevel expected;
  if (!os_eq)
    expected = MatchLevel::kNoMatch;  // pruned regardless of L2/L3
  else if (!lang_eq)
    expected = MatchLevel::kL1;
  else if (!rt_eq)
    expected = MatchLevel::kL2;
  else
    expected = MatchLevel::kL3;

  EXPECT_EQ(match(fn, cont), expected);
}

INSTANTIATE_TEST_SUITE_P(AllCombos, MatchSweep,
                         ::testing::Combine(::testing::Bool(),
                                            ::testing::Bool(),
                                            ::testing::Bool()));

TEST(Matching, SubsetIsNotEqual) {
  Fixture f;
  // Container has an extra runtime package: Table I compares levels as
  // wholes, so this is only an L2 match, not L3.
  const ImageSpec fn({f.os_a}, {f.lang_a}, {f.rt_a});
  const ImageSpec cont({f.os_a}, {f.lang_a}, {f.rt_a, f.rt_b});
  EXPECT_EQ(match(fn, cont), MatchLevel::kL2);
}

TEST(Matching, EmptyRuntimeLevelsMatch) {
  Fixture f;
  const ImageSpec fn({f.os_a}, {f.lang_a}, {});
  const ImageSpec cont({f.os_a}, {f.lang_a}, {});
  EXPECT_EQ(match(fn, cont), MatchLevel::kL3);
}

TEST(Matching, ReusableAndProvisionCounts) {
  EXPECT_FALSE(reusable(MatchLevel::kNoMatch));
  EXPECT_TRUE(reusable(MatchLevel::kL1));
  EXPECT_TRUE(reusable(MatchLevel::kL3));
}

TEST(Matching, LevelOrderingIsMeaningful) {
  EXPECT_LT(MatchLevel::kNoMatch, MatchLevel::kL1);
  EXPECT_LT(MatchLevel::kL1, MatchLevel::kL2);
  EXPECT_LT(MatchLevel::kL2, MatchLevel::kL3);
}

TEST(Matching, Names) {
  EXPECT_EQ(to_string(MatchLevel::kNoMatch), "no-match");
  EXPECT_EQ(to_string(MatchLevel::kL3), "L3");
}

}  // namespace
}  // namespace mlcr::containers
