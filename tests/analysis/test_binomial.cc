/**
 * @file
 * Binomial math tests, including the exact Table 6 values.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "analysis/binomial.hh"

namespace mopac
{
namespace
{

TEST(Binomial, LogCoefficients)
{
    EXPECT_NEAR(static_cast<double>(std::exp(logBinomCoef(5, 2))), 10.0,
                1e-9);
    EXPECT_NEAR(static_cast<double>(std::exp(logBinomCoef(10, 0))), 1.0,
                1e-9);
    EXPECT_NEAR(static_cast<double>(std::exp(logBinomCoef(10, 10))),
                1.0, 1e-9);
    EXPECT_NEAR(static_cast<double>(std::exp(logBinomCoef(52, 5))),
                2598960.0, 1.0);
}

TEST(Binomial, PmfEdgeCases)
{
    EXPECT_DOUBLE_EQ(static_cast<double>(binomialPmf(10, 0, 0.0)), 1.0);
    EXPECT_DOUBLE_EQ(static_cast<double>(binomialPmf(10, 3, 0.0)), 0.0);
    EXPECT_DOUBLE_EQ(static_cast<double>(binomialPmf(10, 10, 1.0)),
                     1.0);
    EXPECT_DOUBLE_EQ(static_cast<double>(binomialPmf(10, 9, 1.0)), 0.0);
}

TEST(Binomial, PmfMatchesClosedForm)
{
    // Binomial(4, 1/2): 1/16, 4/16, 6/16, 4/16, 1/16.
    const double expect[5] = {0.0625, 0.25, 0.375, 0.25, 0.0625};
    for (unsigned k = 0; k <= 4; ++k) {
        EXPECT_NEAR(static_cast<double>(binomialPmf(4, k, 0.5)),
                    expect[k], 1e-12);
    }
}

TEST(Binomial, PmfSumsToOne)
{
    long double sum = 0.0L;
    for (unsigned k = 0; k <= 100; ++k) {
        sum += binomialPmf(100, k, 0.3);
    }
    EXPECT_NEAR(static_cast<double>(sum), 1.0, 1e-12);
}

TEST(Binomial, CdfBelowIsMonotone)
{
    long double prev = 0.0L;
    for (unsigned c = 0; c <= 50; ++c) {
        const long double cur = binomialCdfBelow(472, c, 0.125);
        EXPECT_GE(cur, prev);
        prev = cur;
    }
}

TEST(Binomial, CdfBelowFullRangeIsOne)
{
    EXPECT_NEAR(static_cast<double>(binomialCdfBelow(50, 51, 0.5)), 1.0,
                1e-12);
}

/**
 * Paper Table 6: row failure probability P(N <= C) for MoPAC at the
 * three thresholds (A = ATH, bold-diagonal reproduction).  The
 * paper's C-labelled rows equal our P(N < C+1).
 */
struct Table6Case
{
    Table6Case(unsigned ath_, double p_, unsigned c_, double expect_)
        : ath(ath_), p(p_), c(c_), expect(expect_)
    {
    }

    unsigned ath;
    // gtest names each case after the raw bytes of its parameter, so
    // the alignment gaps are explicit zeroed members: uninitialised
    // padding would give the cases different names on every build.
    unsigned pad0 = 0;
    double p;
    unsigned c;
    unsigned pad1 = 0;
    double expect;
};
static_assert(sizeof(Table6Case) == 32, "no implicit padding");

class Table6 : public ::testing::TestWithParam<Table6Case>
{
};

TEST_P(Table6, MatchesPaper)
{
    const Table6Case &tc = GetParam();
    const double got = static_cast<double>(
        binomialCdfBelow(tc.ath, tc.c + 1, tc.p));
    EXPECT_NEAR(got, tc.expect, tc.expect * 0.05);
}

INSTANTIATE_TEST_SUITE_P(
    Paper, Table6,
    ::testing::Values(
        // T_RH = 250: ATH 219, p = 1/4.
        Table6Case{219, 0.25, 20, 1.9e-9},
        Table6Case{219, 0.25, 21, 6.1e-9},
        Table6Case{219, 0.25, 22, 1.9e-8},
        Table6Case{219, 0.25, 23, 5.6e-8},
        Table6Case{219, 0.25, 25, 4.1e-7},
        // T_RH = 500: ATH 472, p = 1/8.
        Table6Case{472, 0.125, 20, 6.3e-10},
        Table6Case{472, 0.125, 21, 2.0e-9},
        Table6Case{472, 0.125, 22, 5.9e-9},
        Table6Case{472, 0.125, 23, 1.7e-8},
        Table6Case{472, 0.125, 25, 1.2e-7},
        // T_RH = 1000: ATH 975, p = 1/16.
        Table6Case{975, 0.0625, 20, 4.2e-10},
        Table6Case{975, 0.0625, 21, 1.3e-9},
        Table6Case{975, 0.0625, 22, 3.8e-9},
        Table6Case{975, 0.0625, 23, 1.08e-8},
        Table6Case{975, 0.0625, 24, 2.9e-8}));

} // namespace
} // namespace mopac
