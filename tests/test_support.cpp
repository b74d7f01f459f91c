/**
 * @file
 * Support-layer tests: bit helpers, deterministic RNG, least-squares
 * fitting, the table printer, the multi-hook op-observation
 * mechanism everything above relies on, and the fuzz-seed parser.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "fuzz_seed.hpp"
#include "mpn/natural.hpp"
#include "mpn/ophook.hpp"
#include "support/bits.hpp"
#include "support/regression.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace camp;

TEST(Bits, BitLength)
{
    EXPECT_EQ(bit_length(std::uint64_t{0}), 0);
    EXPECT_EQ(bit_length(std::uint64_t{1}), 1);
    EXPECT_EQ(bit_length(std::uint64_t{255}), 8);
    EXPECT_EQ(bit_length(~std::uint64_t{0}), 64);
    EXPECT_EQ(bit_length(static_cast<u128>(1) << 100), 101);
}

TEST(Bits, Logs)
{
    EXPECT_EQ(floor_log2(1), 0);
    EXPECT_EQ(floor_log2(7), 2);
    EXPECT_EQ(floor_log2(8), 3);
    EXPECT_EQ(ceil_log2(1), 0);
    EXPECT_EQ(ceil_log2(7), 3);
    EXPECT_EQ(ceil_log2(8), 3);
    EXPECT_EQ(ceil_log2(9), 4);
    EXPECT_EQ(ceil_div(10, 3), 4u);
    EXPECT_EQ(ceil_div(9, 3), 3u);
}

TEST(Rng, DeterministicAndWellSpread)
{
    Rng a(42), b(42), c(43);
    std::vector<std::uint64_t> seq;
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t v = a.next();
        seq.push_back(v);
        EXPECT_EQ(v, b.next());
    }
    // Different seed diverges immediately.
    EXPECT_NE(seq[0], c.next());
    // below() respects the bound; uniform() in [0, 1).
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(a.below(17), 17u);
        const double u = a.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Regression, ExactLinearData)
{
    const std::vector<double> xs{1, 2, 3, 4, 5};
    std::vector<double> ys;
    for (const double x : xs)
        ys.push_back(3.0 * x + 7.0);
    const LinearFit fit = linear_fit(xs, ys);
    EXPECT_NEAR(fit.slope, 3.0, 1e-12);
    EXPECT_NEAR(fit.intercept, 7.0, 1e-12);
    EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Regression, PowerLawRecovery)
{
    std::vector<double> ns, ts;
    for (const double n : {64.0, 128.0, 256.0, 512.0, 1024.0}) {
        ns.push_back(n);
        ts.push_back(2.5e-9 * std::pow(n, 1.585));
    }
    const LinearFit fit = power_law_fit(ns, ts);
    EXPECT_NEAR(fit.slope, 1.585, 1e-9);
    EXPECT_NEAR(std::exp(fit.intercept), 2.5e-9, 1e-12);
}

TEST(Table, AlignmentAndFormat)
{
    Table table({"name", "value"});
    table.add_row({"alpha", "1"});
    table.add_row({"b", "22222"});
    const std::string out = table.to_string();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    // Columns aligned: the second column starts at the same offset in
    // the header line and in each data line.
    std::vector<std::string> lines;
    std::size_t start = 0;
    while (start < out.size()) {
        const std::size_t end = out.find('\n', start);
        lines.push_back(out.substr(start, end - start));
        start = end + 1;
    }
    ASSERT_GE(lines.size(), 4u);
    EXPECT_EQ(lines[0].find("value"), lines[3].find("22222"));
    EXPECT_EQ(Table::fmt_si(2048.0, 3), "2.05K");
    EXPECT_EQ(Table::fmt_si(5.0e9, 3), "5G");
}

namespace {

/** Records enter/exit order for hook-mechanics tests. */
class RecordingHook : public mpn::OpHook
{
  public:
    void
    on_enter(mpn::OpKind kind, std::uint64_t, std::uint64_t) override
    {
        entered.push_back(kind);
    }
    void on_exit(mpn::OpKind kind) override { exited.push_back(kind); }

    std::vector<mpn::OpKind> entered;
    std::vector<mpn::OpKind> exited;
};

} // namespace

TEST(OpHook, MultipleHooksAllObserve)
{
    RecordingHook h1, h2;
    mpn::add_op_hook(&h1);
    mpn::add_op_hook(&h2);
    {
        const mpn::Natural a(7), b(9);
        const mpn::Natural c = a * b;
        (void)c;
    }
    mpn::remove_op_hook(&h1);
    {
        const mpn::Natural c = mpn::Natural(3) + mpn::Natural(4);
        (void)c;
    }
    mpn::remove_op_hook(&h2);
    EXPECT_FALSE(mpn::op_hooks_active());
    ASSERT_EQ(h1.entered.size(), 1u);
    EXPECT_EQ(h1.entered[0], mpn::OpKind::Mul);
    ASSERT_EQ(h2.entered.size(), 2u);
    EXPECT_EQ(h2.entered[1], mpn::OpKind::Add);
    EXPECT_EQ(h1.entered.size(), h1.exited.size());
    EXPECT_EQ(h2.entered.size(), h2.exited.size());
}

TEST(OpHook, KindNamesAreStable)
{
    EXPECT_STREQ(mpn::op_kind_name(mpn::OpKind::Mul), "Mul");
    EXPECT_STREQ(mpn::op_kind_name(mpn::OpKind::Sqrt), "Sqrt");
    EXPECT_STREQ(mpn::op_kind_name(mpn::OpKind::Gcd), "Gcd");
}

TEST(FuzzSeed, AcceptsDecimalAndHexAndThrowsOnJunk)
{
    // Save/restore so a CI-level CAMP_FUZZ_SEED replay is unaffected.
    const char* saved = std::getenv("CAMP_FUZZ_SEED");
    const std::string saved_value = saved != nullptr ? saved : "";
    ::unsetenv("CAMP_FUZZ_SEED");
    EXPECT_EQ(fuzz_seed(42), 42u);
    const std::pair<const char*, std::uint64_t> good[] = {
        {"0", 0},
        {"12", 12},
        {"012", 12},
        {"0x1f", 31},
        {"0XC0FFEE1234ABCDEF", 0xc0ffee1234abcdefull},
        {"18446744073709551615", ~std::uint64_t{0}},
    };
    for (const auto& [text, value] : good) {
        ::setenv("CAMP_FUZZ_SEED", text, 1);
        EXPECT_EQ(fuzz_seed(7), value) << text;
    }
    for (const char* junk : {"", "12k", "abc", " 12", "-1", "+3", "0x",
                             "0xg", "18446744073709551616"}) {
        ::setenv("CAMP_FUZZ_SEED", junk, 1);
        EXPECT_THROW(fuzz_seed(7), std::invalid_argument)
            << "'" << junk << "'";
    }
    if (saved != nullptr)
        ::setenv("CAMP_FUZZ_SEED", saved_value.c_str(), 1);
    else
        ::unsetenv("CAMP_FUZZ_SEED");
}
