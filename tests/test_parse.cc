/**
 * @file
 * Unit tests for the checked parsers (base/parse.hh) and the contract
 * macros (base/check.hh): strictness on garbage/overflow input, fatal
 * behaviour of the OrDie wrappers, and the release/debug split of
 * ACDSE_DCHECK.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "base/check.hh"
#include "base/parse.hh"

namespace acdse
{
namespace
{

TEST(ParseU64, AcceptsPlainDecimals)
{
    EXPECT_EQ(parseU64("0"), 0u);
    EXPECT_EQ(parseU64("42"), 42u);
    EXPECT_EQ(parseU64("18446744073709551615"),
              std::numeric_limits<std::uint64_t>::max());
}

TEST(ParseU64, RejectsGarbageAndOverflow)
{
    EXPECT_FALSE(parseU64(""));
    EXPECT_FALSE(parseU64("abc"));
    EXPECT_FALSE(parseU64("12abc"));   // trailing garbage
    EXPECT_FALSE(parseU64(" 12"));     // leading whitespace
    EXPECT_FALSE(parseU64("12 "));     // trailing whitespace
    EXPECT_FALSE(parseU64("+12"));     // explicit plus
    EXPECT_FALSE(parseU64("1.5"));     // fraction
    EXPECT_FALSE(parseU64("0x10"));    // hex
    // One past uint64 max: strtoull would saturate, atoll would wrap.
    EXPECT_FALSE(parseU64("18446744073709551616"));
    EXPECT_FALSE(parseU64("99999999999999999999999999"));
}

TEST(ParseU64, RejectsNegativeWhereUnsigned)
{
    // strtoull infamously accepts "-1" as 2^64-1; we must not.
    EXPECT_FALSE(parseU64("-1"));
    EXPECT_FALSE(parseU64("-0"));
}

TEST(ParseI64, AcceptsSignedRange)
{
    EXPECT_EQ(parseI64("-42"), -42);
    EXPECT_EQ(parseI64("9223372036854775807"),
              std::numeric_limits<std::int64_t>::max());
    EXPECT_EQ(parseI64("-9223372036854775808"),
              std::numeric_limits<std::int64_t>::min());
}

TEST(ParseI64, RejectsGarbageAndOverflow)
{
    EXPECT_FALSE(parseI64(""));
    EXPECT_FALSE(parseI64("--1"));
    EXPECT_FALSE(parseI64("1-"));
    EXPECT_FALSE(parseI64("9223372036854775808"));   // max + 1
    EXPECT_FALSE(parseI64("-9223372036854775809"));  // min - 1
}

TEST(Parse, SplitListSkipsEmptyItems)
{
    using List = std::vector<std::string>;
    EXPECT_EQ(splitList("gzip,crafty,mcf", ','),
              (List{"gzip", "crafty", "mcf"}));
    EXPECT_EQ(splitList(",a,,b,", ','), (List{"a", "b"}));
    EXPECT_EQ(splitList("", ','), List{});
    EXPECT_EQ(splitList(",,", ','), List{});
    EXPECT_EQ(splitList("0;1;12", ';'), (List{"0", "1", "12"}));
    // Only the named separator splits.
    EXPECT_EQ(splitList("a;b", ','), List{"a;b"});
}

TEST(ParseDeathTest, OrDieWrappersAreFatalWithContext)
{
    EXPECT_EXIT(parseU64OrDie("--batch", "12x"),
                testing::ExitedWithCode(1), "--batch expects");
    EXPECT_EXIT(parseU64OrDie("ACDSE_THREADS", "-1"),
                testing::ExitedWithCode(1), "ACDSE_THREADS expects");
    EXPECT_EXIT(parseI64OrDie("--offset", "abc"),
                testing::ExitedWithCode(1), "--offset expects");
}

TEST(ParseDeathTest, OrDieWrappersPassGoodValuesThrough)
{
    EXPECT_EQ(parseU64OrDie("--batch", "256"), 256u);
    EXPECT_EQ(parseI64OrDie("--offset", "-3"), -3);
}

TEST(CheckDeathTest, CheckPanicsWithFileLineAndMessage)
{
    EXPECT_DEATH(ACDSE_CHECK(1 + 1 == 3, "arithmetic broke"),
                 "check '1 \\+ 1 == 3' failed at .*test_parse.cc:"
                 ".*arithmetic broke");
}

TEST(CheckDeathTest, CheckFiniteRejectsNanAndInf)
{
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    EXPECT_DEATH(ACDSE_CHECK_FINITE(nan, "bad metric"), "not finite");
    EXPECT_DEATH(ACDSE_CHECK_FINITE(inf, "bad metric"), "not finite");
    EXPECT_DEATH(ACDSE_CHECK_FINITE(-inf, "bad metric"), "not finite");
}

TEST(Check, PassingChecksAreSilent)
{
    ACDSE_CHECK(2 + 2 == 4, "never printed");
    ACDSE_CHECK_FINITE(3.14, "never printed");
    ACDSE_DCHECK(true, "never printed");
}

#if ACDSE_DCHECK_ENABLED
TEST(CheckDeathTest, DcheckFiresWhenEnabled)
{
    EXPECT_DEATH(ACDSE_DCHECK(false, "debug contract"),
                 "check 'false' failed.*debug contract");
}
#else
TEST(Check, DcheckCompilesOutInRelease)
{
    // The condition must not even be evaluated: this call would panic
    // if it ran.
    auto boom = []() -> bool {
        ACDSE_CHECK(false, "DCHECK evaluated its condition");
        return false;
    };
    ACDSE_DCHECK(boom(), "never evaluated");
}
#endif

} // namespace
} // namespace acdse
