// Strong unit types: dimensional algebra, literals, and compile-time
// rejection of mis-dimensioned expressions (via requires-expressions; the
// classic negative-compile route lives in tests/units_negative/).
#include "sim/units.h"

#include <gtest/gtest.h>

namespace {

using namespace hybridmr::sim;             // NOLINT
using namespace hybridmr::sim::unit_literals;  // NOLINT

TEST(Units, RateTimesDurationIsSize) {
  const MegaBytes mb = 50_mbps * 4_secs;
  EXPECT_DOUBLE_EQ(mb.value(), 200.0);
  EXPECT_DOUBLE_EQ((4_secs * 50_mbps).value(), 200.0);
}

TEST(Units, SizeOverRateIsDuration) {
  const Duration t = 200_mb / 50_mbps;
  EXPECT_DOUBLE_EQ(t.value(), 4.0);
}

TEST(Units, SizeOverDurationIsRate) {
  const MBps r = 200_mb / 4_secs;
  EXPECT_DOUBLE_EQ(r.value(), 50.0);
}

TEST(Units, PowerTimesDurationIsEnergy) {
  const Joules j = 180_watts * 3600_secs;
  EXPECT_DOUBLE_EQ(j.value(), 648000.0);
  EXPECT_DOUBLE_EQ((3600_secs * 180_watts).value(), 648000.0);
}

TEST(Units, EnergyOverDurationIsPower) {
  EXPECT_DOUBLE_EQ((648000_joules / 3600_secs).value(), 180.0);
}

TEST(Units, EnergyOverPowerIsDuration) {
  EXPECT_DOUBLE_EQ((648000_joules / 180_watts).value(), 3600.0);
}

TEST(Units, SameDimensionArithmetic) {
  MegaBytes a = 100_mb;
  a += 28_mb;
  a -= 8_mb;
  EXPECT_DOUBLE_EQ((a + 10_mb).value(), 130.0);
  EXPECT_DOUBLE_EQ((a - 10_mb).value(), 110.0);
  EXPECT_DOUBLE_EQ((-a).value(), -120.0);
  EXPECT_DOUBLE_EQ((a * 2.0).value(), 240.0);
  EXPECT_DOUBLE_EQ((2.0 * a).value(), 240.0);
  EXPECT_DOUBLE_EQ((a / 2.0).value(), 60.0);
  a *= 0.5;
  a /= 0.5;
  EXPECT_DOUBLE_EQ(a.value(), 120.0);
}

TEST(Units, RatioOfSameDimensionIsDouble) {
  const double ratio = 300_mb / 100_mb;
  EXPECT_DOUBLE_EQ(ratio, 3.0);
}

TEST(Units, FractionScalesAnyQuantity) {
  EXPECT_DOUBLE_EQ((Fraction{0.5} * 100_mb).value(), 50.0);
  EXPECT_DOUBLE_EQ((100_mb * Fraction{0.25}).value(), 25.0);
  EXPECT_DOUBLE_EQ((Fraction{0.1} * 260_watts).value(), 26.0);
}

TEST(Units, Comparisons) {
  EXPECT_TRUE(1_mb < 2_mb);
  EXPECT_TRUE(2_secs >= 2_secs);
  EXPECT_TRUE(3_watts > 2_watts);
}

TEST(Units, DefaultConstructedIsZero) {
  EXPECT_DOUBLE_EQ(Watts{}.value(), 0.0);
  EXPECT_DOUBLE_EQ(CoreShare{}.value(), 0.0);
}

// --- compile-time rejection of mis-dimensioned expressions ----------------
// Each static_assert proves the expression does NOT compile. If someone adds
// a careless operator overload, these fail the build.

template <class A, class B>
concept Addable = requires(A a, B b) { a + b; };
template <class A, class B>
concept Multipliable = requires(A a, B b) { a * b; };
template <class A, class B>
concept Divisible = requires(A a, B b) { a / b; };
template <class A, class B>
concept Assignable = requires(A a, B b) { a = b; };

// Mixing dimensions additively never compiles.
static_assert(!Addable<MBps, Seconds>);
static_assert(!Addable<MegaBytes, MBps>);
static_assert(!Addable<Watts, Joules>);
static_assert(!Addable<Seconds, MegaBytes>);
static_assert(!Addable<CoreShare, Watts>);

// Products without a defined dimension never compile.
static_assert(!Multipliable<Watts, MegaBytes>);
static_assert(!Multipliable<MBps, MBps>);
static_assert(!Multipliable<Joules, MegaBytes>);
static_assert(!Multipliable<Seconds, Seconds>);
static_assert(!Multipliable<CoreShare, MegaBytes>);

// Quotients without a defined dimension never compile.
static_assert(!Divisible<Watts, MegaBytes>);
static_assert(!Divisible<Seconds, MBps>);
static_assert(!Divisible<MegaBytes, Watts>);

// No cross-dimension assignment or implicit double conversion.
static_assert(!Assignable<Watts&, MegaBytes>);
static_assert(!Assignable<Watts&, double>);
static_assert(!std::is_convertible_v<double, MegaBytes>);
static_assert(!std::is_convertible_v<MegaBytes, double>);

// The valid combinations produce exactly the expected dimension.
static_assert(std::is_same_v<decltype(MBps{1} * Seconds{1}), MegaBytes>);
static_assert(std::is_same_v<decltype(Watts{1} * Seconds{1}), Joules>);
static_assert(std::is_same_v<decltype(MegaBytes{1} / MBps{1}), Duration>);
static_assert(std::is_same_v<decltype(MegaBytes{1} / Seconds{1}), MBps>);
static_assert(std::is_same_v<decltype(Joules{1} / Seconds{1}), Watts>);
static_assert(std::is_same_v<decltype(Joules{1} / Watts{1}), Duration>);
static_assert(std::is_same_v<decltype(MegaBytes{2} / MegaBytes{1}), double>);

// Zero-overhead claim: a Quantity is exactly one double.
static_assert(sizeof(MegaBytes) == sizeof(double));
static_assert(sizeof(Joules) == sizeof(double));

}  // namespace
