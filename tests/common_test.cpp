// Unit tests for src/common: alignment math, PRNG determinism, checksums,
// table formatting.
#include <gtest/gtest.h>

#include <sstream>

#include "common/checksum.hpp"
#include "common/cpu_clock.hpp"
#include "common/page.hpp"
#include "common/prng.hpp"
#include "common/table.hpp"

namespace {

TEST(PageMath, AlignUpBasics) {
  EXPECT_EQ(common::align_up(0, 16), 0u);
  EXPECT_EQ(common::align_up(1, 16), 16u);
  EXPECT_EQ(common::align_up(16, 16), 16u);
  EXPECT_EQ(common::align_up(17, 16), 32u);
}

TEST(PageMath, AlignDownBasics) {
  EXPECT_EQ(common::align_down(0, 16), 0u);
  EXPECT_EQ(common::align_down(15, 16), 0u);
  EXPECT_EQ(common::align_down(16, 16), 16u);
  EXPECT_EQ(common::align_down(31, 16), 16u);
}

TEST(PageMath, PageRounding) {
  EXPECT_EQ(common::page_round_up(0), 0u);
  EXPECT_EQ(common::page_round_up(1), common::kPageSize);
  EXPECT_EQ(common::page_round_up(common::kPageSize + 1),
            2 * common::kPageSize);
}

TEST(PageMath, PageBase) {
  EXPECT_EQ(common::page_base(0x12345678), 0x12345000u);
  EXPECT_EQ(common::page_base(0x12345000), 0x12345000u);
}

class AlignSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AlignSweep, UpDownInverse) {
  const std::size_t align = GetParam();
  for (std::size_t n = 0; n < 4 * align; ++n) {
    const std::size_t up = common::align_up(n, align);
    const std::size_t down = common::align_down(n, align);
    EXPECT_GE(up, n);
    EXPECT_LE(down, n);
    EXPECT_EQ(up % align, 0u);
    EXPECT_EQ(down % align, 0u);
    EXPECT_LT(up - n, align);
    EXPECT_LT(n - down, align);
  }
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, AlignSweep,
                         ::testing::Values(1, 2, 8, 64, 4096));

TEST(Prng, DeterministicForSeed) {
  common::SplitMix64 a(42);
  common::SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Prng, DifferentSeedsDiffer) {
  common::SplitMix64 a(1);
  common::SplitMix64 b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Prng, NextBelowInRange) {
  common::SplitMix64 g(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(g.next_below(17), 17u);
  }
}

TEST(Prng, NextDoubleInUnitInterval) {
  common::SplitMix64 g(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = g.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Prng, NextDoubleRange) {
  common::SplitMix64 g(9);
  for (int i = 0; i < 1000; ++i) {
    const double d = g.next_double(-3.0, 5.0);
    EXPECT_GE(d, -3.0);
    EXPECT_LT(d, 5.0);
  }
}

TEST(Checksum, SumMatchesManual) {
  const double data[] = {1.0, 2.5, -3.0};
  EXPECT_DOUBLE_EQ(common::checksum_sum<double>(data), 0.5);
}

TEST(Checksum, WeightedDetectsPermutation) {
  const float a[] = {1.0f, 2.0f, 3.0f};
  const float b[] = {3.0f, 2.0f, 1.0f};
  EXPECT_NE(common::checksum_weighted<float>(a),
            common::checksum_weighted<float>(b));
  EXPECT_DOUBLE_EQ(common::checksum_sum<float>(a),
                   common::checksum_sum<float>(b));
}

TEST(Checksum, CloseToleratesTinyError) {
  EXPECT_TRUE(common::checksum_close(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(common::checksum_close(1.0, 1.001));
}

TEST(Checksum, Fnv1aDistinguishesBytes) {
  const std::byte a[] = {std::byte{1}, std::byte{2}};
  const std::byte b[] = {std::byte{2}, std::byte{1}};
  EXPECT_NE(common::fnv1a(a), common::fnv1a(b));
}

TEST(CpuClock, ThreadCpuMonotone) {
  const auto t0 = common::thread_cpu_ns();
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + i;
  const auto t1 = common::thread_cpu_ns();
  EXPECT_GE(t1, t0);
  EXPECT_GT(t1, 0u);
}

TEST(Table, AlignsColumns) {
  common::TextTable t;
  t.header({"name", "value"});
  t.row({"a", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("longer"), std::string::npos);
  EXPECT_NE(s.find("--"), std::string::npos);
}

TEST(Table, NumFormatsPrecision) {
  EXPECT_EQ(common::TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(common::TextTable::num(2.0, 0), "2");
}

}  // namespace
