// Tests for check macros, CLI parsing, ring buffer, RNG, tables, work loops.
#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <sstream>

#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/ring_buffer.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/work.hpp"

namespace ccf::util {
namespace {

TEST(Check, ThrowsWithMessage) {
  try {
    CCF_CHECK(1 == 2, "value was " << 42);
    FAIL() << "should have thrown";
  } catch (const InternalError& e) {
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("value was 42"), std::string::npos);
  }
}

TEST(Check, RequireThrowsInvalidArgument) {
  EXPECT_THROW(CCF_REQUIRE(false, "nope"), InvalidArgument);
  EXPECT_NO_THROW(CCF_REQUIRE(true, "fine"));
}

TEST(Check, ExceptionHierarchy) {
  EXPECT_THROW(throw ProtocolViolation("x"), Error);
  EXPECT_THROW(throw InternalError("x"), std::runtime_error);
}

TEST(Cli, DefaultsAndOverrides) {
  CliParser cli("prog", "test");
  cli.add_option("n", "5", "count");
  cli.add_option("name", "abc", "label");
  cli.add_flag("fast", "go fast");
  const char* argv[] = {"prog", "--n=10", "--fast"};
  ASSERT_TRUE(cli.parse(3, argv));
  EXPECT_EQ(cli.get_int("n"), 10);
  EXPECT_EQ(cli.get("name"), "abc");
  EXPECT_TRUE(cli.get_bool("fast"));
}

TEST(Cli, UnknownOptionThrows) {
  CliParser cli("prog", "test");
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW(cli.parse(2, argv), InvalidArgument);
}

TEST(Cli, MalformedNumbersThrow) {
  CliParser cli("prog", "test");
  cli.add_option("n", "5", "count");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(cli.parse(2, argv));
  EXPECT_THROW(cli.get_int("n"), InvalidArgument);
}

TEST(Cli, PositionalArguments) {
  CliParser cli("prog", "test");
  cli.add_option("n", "5", "count");
  const char* argv[] = {"prog", "one", "--n=3", "two"};
  ASSERT_TRUE(cli.parse(4, argv));
  ASSERT_EQ(cli.positional().size(), 2u);
  EXPECT_EQ(cli.positional()[0], "one");
  EXPECT_EQ(cli.positional()[1], "two");
}

TEST(Cli, ParseLists) {
  const auto ints = parse_int_list("4,8,16,32");
  ASSERT_EQ(ints.size(), 4u);
  EXPECT_EQ(ints[3], 32);
  const auto doubles = parse_double_list("0.5,2.5");
  ASSERT_EQ(doubles.size(), 2u);
  EXPECT_DOUBLE_EQ(doubles[1], 2.5);
  EXPECT_THROW(parse_int_list("1,x"), InvalidArgument);
}

TEST(RingBufferTest, WrapsAndKeepsNewest) {
  RingBuffer<int> ring(3);
  EXPECT_TRUE(ring.empty());
  for (int i = 1; i <= 5; ++i) ring.push(i);
  EXPECT_TRUE(ring.full());
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.oldest(), 3);
  EXPECT_EQ(ring.newest(), 5);
  EXPECT_EQ(ring.at(1), 4);
  const auto snap = ring.snapshot();
  EXPECT_EQ(snap, (std::vector<int>{3, 4, 5}));
}

TEST(RingBufferTest, BoundsChecked) {
  RingBuffer<int> ring(2);
  ring.push(1);
  EXPECT_THROW(ring.at(1), InvalidArgument);
  EXPECT_THROW(RingBuffer<int>(0), InvalidArgument);
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    const double v = rng.uniform(5.0, 6.0);
    EXPECT_GE(v, 5.0);
    EXPECT_LT(v, 6.0);
    const auto k = rng.below(10);
    EXPECT_LT(k, 10u);
  }
}

TEST(Rng, BelowCoversRange) {
  Xoshiro256 rng(99);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.below(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(Table, AlignsColumns) {
  TableWriter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Table, RejectsWrongArity) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), InvalidArgument);
}

TEST(Table, FormatsNumbers) {
  EXPECT_EQ(TableWriter::fmt(3.14159, 2), "3.14");
  EXPECT_EQ(TableWriter::fmt(std::size_t{42}), "42");
}

TEST(Work, SpinIsCalibrated) {
  // spin_for_us is paced by steady_clock, so it never ends early; the upper
  // bound is loose because CI machines are noisy.
  const auto t0 = std::chrono::steady_clock::now();
  spin_for_us(2000);
  const double us =
      std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_GE(us, 2000.0);
  EXPECT_LT(us, 50000.0);
}

TEST(Work, ZeroAndNegativeAreNoops) {
  spin_for_us(0);
  spin_for_us(-5);
  SUCCEED();
}

}  // namespace
}  // namespace ccf::util
