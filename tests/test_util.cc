// Unit tests for the util module: RNG, statistics, env parsing, strings,
// the Status error taxonomy, and the fault-injection framework.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <set>
#include <string>

#include "util/check.h"
#include "util/env.h"
#include "util/fault.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/status.h"
#include "util/strings.h"

namespace leaps::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, IsDeterministicForEqualSeeds) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DiffersAcrossSeeds) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng a(99);
  Rng child = a.fork(1);
  Rng child_again = Rng(99).fork(1);
  EXPECT_EQ(child.next_u64(), child_again.next_u64());
  // Different stream ids diverge.
  Rng c1 = Rng(99).fork(1);
  Rng c2 = Rng(99).fork(2);
  EXPECT_NE(c1.next_u64(), c2.next_u64());
}

TEST(Rng, NextBelowStaysInBounds) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowZeroThrows) {
  Rng rng(7);
  EXPECT_THROW(rng.next_below(0), std::logic_error);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextIntInclusiveRange) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 300; ++i) {
    const std::int64_t v = rng.next_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_THROW(rng.next_int(3, 2), std::logic_error);
}

TEST(Rng, NextBoolEdgeProbabilities) {
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.next_bool(0.0));
    EXPECT_TRUE(rng.next_bool(1.0));
  }
}

TEST(Rng, NextBoolFrequencyTracksP) {
  Rng rng(19);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.next_bool(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, GaussianMomentsAreSane) {
  Rng rng(23);
  RunningStats s;
  for (int i = 0; i < 20000; ++i) s.add(rng.next_gaussian());
  EXPECT_NEAR(s.mean(), 0.0, 0.05);
  EXPECT_NEAR(s.stddev(), 1.0, 0.05);
}

TEST(Rng, SampleWeightedRespectsWeights) {
  Rng rng(29);
  std::vector<double> w = {0.0, 1.0, 3.0};
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 8000; ++i) ++counts[rng.sample_weighted(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[2]) / counts[1], 3.0, 0.5);
}

TEST(Rng, SampleWeightedRejectsDegenerateInput) {
  Rng rng(31);
  EXPECT_THROW(rng.sample_weighted({}), std::logic_error);
  EXPECT_THROW(rng.sample_weighted({0.0, 0.0}), std::logic_error);
  EXPECT_THROW(rng.sample_weighted({1.0, -1.0}), std::logic_error);
}

TEST(Rng, ShuffleIsAPermutation) {
  Rng rng(37);
  std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8};
  auto orig = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, orig);
}

TEST(Rng, HashStringIsStableAndSpread) {
  EXPECT_EQ(hash_string("abc"), hash_string("abc"));
  EXPECT_NE(hash_string("abc"), hash_string("abd"));
  EXPECT_NE(hash_string(""), hash_string("a"));
}

// -------------------------------------------------------------- stats ----

TEST(RunningStats, MatchesDirectComputation) {
  RunningStats s;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0};
  for (double x : xs) s.add(x);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.75);
  EXPECT_NEAR(s.variance(), 9.583333333, 1e-9);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 8.0);
}

TEST(RunningStats, EmptyAndSingle) {
  RunningStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStats, MergeEqualsConcatenation) {
  RunningStats a, b, all;
  for (double x : {1.0, 3.0, 5.0}) {
    a.add(x);
    all.add(x);
  }
  for (double x : {2.0, 4.0}) {
    b.add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-12);
  EXPECT_EQ(a.min(), all.min());
  EXPECT_EQ(a.max(), all.max());
}

TEST(Stats, MeanAndStddevHelpers) {
  EXPECT_DOUBLE_EQ(mean({2.0, 4.0}), 3.0);
  EXPECT_NEAR(stddev({2.0, 4.0}), std::sqrt(2.0), 1e-12);
}

TEST(Stats, PercentileInterpolation) {
  std::vector<double> xs = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 50), 25.0);
  EXPECT_THROW(percentile({}, 50), std::logic_error);
  EXPECT_THROW(percentile(xs, 101), std::logic_error);
}

// ---------------------------------------------------------------- env ----

TEST(Env, StringIntFlagParsing) {
  ::setenv("LEAPS_TEST_STR", "hello", 1);
  ::setenv("LEAPS_TEST_INT", "42", 1);
  ::setenv("LEAPS_TEST_BAD", "4x2", 1);
  ::setenv("LEAPS_TEST_FLAG", "yes", 1);
  EXPECT_EQ(env_string("LEAPS_TEST_STR", "d"), "hello");
  EXPECT_EQ(env_string("LEAPS_TEST_MISSING", "d"), "d");
  EXPECT_EQ(env_int("LEAPS_TEST_INT", 7), 42);
  EXPECT_EQ(env_int("LEAPS_TEST_BAD", 7), 7);
  EXPECT_EQ(env_int("LEAPS_TEST_MISSING", 7), 7);
  EXPECT_TRUE(env_flag("LEAPS_TEST_FLAG"));
  EXPECT_FALSE(env_flag("LEAPS_TEST_MISSING"));
  ::unsetenv("LEAPS_TEST_STR");
  ::unsetenv("LEAPS_TEST_INT");
  ::unsetenv("LEAPS_TEST_BAD");
  ::unsetenv("LEAPS_TEST_FLAG");
}

// ------------------------------------------------------------- strings ----

TEST(Strings, ForEachFieldKeepsEmptyFields) {
  std::vector<std::string_view> parts;
  const auto collect = [&parts](std::string_view f) { parts.push_back(f); };
  for_each_field("a,,b", ',', collect);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  parts.clear();
  for_each_field("", ',', collect);
  EXPECT_EQ(parts, std::vector<std::string_view>{""});
  parts.clear();
  for_each_field("x,", ',', collect);
  EXPECT_EQ(parts, (std::vector<std::string_view>{"x", ""}));
}

TEST(Strings, SplitWsDropsEmptyFields) {
  const auto parts = split_ws("  a \t b\n c  ");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
  EXPECT_TRUE(split_ws("   ").empty());
}

TEST(Strings, Trim) {
  EXPECT_EQ(trim("  x  "), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("  "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(Strings, ParseHexRoundTrip) {
  std::uint64_t v = 0;
  EXPECT_TRUE(parse_hex_u64("0x1f", v));
  EXPECT_EQ(v, 0x1fu);
  EXPECT_TRUE(parse_hex_u64("FFFFFFFFFFFFFFFF", v));
  EXPECT_EQ(v, ~0ULL);
  EXPECT_FALSE(parse_hex_u64("", v));
  EXPECT_FALSE(parse_hex_u64("0x", v));
  EXPECT_FALSE(parse_hex_u64("12g4", v));
  const std::uint64_t addr = 0x00007FF810001200ULL;
  std::uint64_t back = 0;
  EXPECT_TRUE(parse_hex_u64(hex_addr(addr), back));
  EXPECT_EQ(back, addr);
}

TEST(Strings, StartsWithAndFixed) {
  EXPECT_TRUE(starts_with("MODULE x", "MODULE"));
  EXPECT_FALSE(starts_with("MOD", "MODULE"));
  EXPECT_EQ(fixed(0.93251, 3), "0.933");
  EXPECT_EQ(fixed(2.0, 1), "2.0");
}

// --------------------------------------------------------------- check ----

TEST(Check, ThrowsLogicErrorWithContext) {
  try {
    LEAPS_CHECK_MSG(false, "ctx");
    FAIL() << "expected throw";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("ctx"), std::string::npos);
  }
  EXPECT_NO_THROW(LEAPS_CHECK(true));
}

// -------------------------------------------------------------- status ----

TEST(Status, DefaultIsOkAndCarriesCodeAndMessage) {
  EXPECT_TRUE(Status().ok());
  EXPECT_EQ(Status().to_string(), "OK");
  const Status s = corrupt_input("bad magic");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kCorruptInput);
  EXPECT_EQ(s.message(), "bad magic");
  EXPECT_EQ(s.to_string(), "CORRUPT_INPUT: bad magic");
  EXPECT_EQ(s, corrupt_input("bad magic"));
  EXPECT_NE(s, resource_exhausted("bad magic"));
}

TEST(Status, EveryCodeHasAStableName) {
  EXPECT_STREQ(status_code_name(StatusCode::kOk), "OK");
  EXPECT_STREQ(status_code_name(StatusCode::kCorruptInput),
               "CORRUPT_INPUT");
  EXPECT_STREQ(status_code_name(StatusCode::kResourceExhausted),
               "RESOURCE_EXHAUSTED");
  EXPECT_STREQ(status_code_name(StatusCode::kTimeout), "TIMEOUT");
  EXPECT_STREQ(status_code_name(StatusCode::kNotFound), "NOT_FOUND");
  EXPECT_STREQ(status_code_name(StatusCode::kUnavailable), "UNAVAILABLE");
  EXPECT_STREQ(status_code_name(StatusCode::kInvalidArgument),
               "INVALID_ARGUMENT");
  EXPECT_STREQ(status_code_name(StatusCode::kInternal), "INTERNAL");
}

TEST(StatusOr, HoldsValueOrStatus) {
  const StatusOr<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(good.value(), 42);
  EXPECT_EQ(*good, 42);
  EXPECT_EQ(good.value_or(-1), 42);
  EXPECT_TRUE(good.status().ok());

  const StatusOr<int> bad = not_found("no such profile");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(bad.value_or(-1), -1);
  // Accessing the value of an error is a programming error, not UB.
  EXPECT_THROW(bad.value(), std::logic_error);
}

TEST(StatusOr, RefusesConstructionFromOkStatus) {
  EXPECT_THROW(StatusOr<int>{ok_status()}, std::logic_error);
}

// --------------------------------------------------------------- fault ----

TEST(Fault, DisarmedPointsAreInvisible) {
  auto& injector = FaultInjector::instance();
  EXPECT_FALSE(injector.any_armed());
  EXPECT_TRUE(injector.hit("test.nowhere").ok());
  EXPECT_NO_THROW(LEAPS_FAULT_POINT("test.nowhere"));
}

TEST(Fault, ThrowActionThrowsAndCounts) {
  auto& injector = FaultInjector::instance();
  const ScopedFault fault("test.point", {.action = FaultAction::kThrow});
  EXPECT_TRUE(injector.any_armed());
  EXPECT_THROW(LEAPS_FAULT_POINT("test.point"), FaultInjectedError);
  EXPECT_THROW(LEAPS_FAULT_POINT("test.point"), FaultInjectedError);
  EXPECT_EQ(injector.evaluated("test.point"), 2u);
  EXPECT_EQ(injector.injected("test.point"), 2u);
  // Other points stay silent.
  EXPECT_NO_THROW(LEAPS_FAULT_POINT("test.other"));
}

TEST(Fault, ErrorActionReturnsTheArmedStatus) {
  auto& injector = FaultInjector::instance();
  const ScopedFault fault("test.err",
                          {.action = FaultAction::kError,
                           .error_code = StatusCode::kUnavailable});
  const Status s = injector.hit("test.err");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kUnavailable);
}

TEST(Fault, ProbabilityIsDeterministicInTheSeed) {
  auto& injector = FaultInjector::instance();
  const auto run = [&injector](std::uint64_t seed) {
    injector.set_seed(seed);
    const ScopedFault fault("test.prob",
                            {.action = FaultAction::kError,
                             .probability = 0.3});
    std::string pattern;
    for (int i = 0; i < 64; ++i) {
      pattern += injector.hit("test.prob").ok() ? '.' : 'X';
    }
    return pattern;
  };
  const std::string a = run(99);
  EXPECT_EQ(a, run(99));           // same seed → same injections
  EXPECT_NE(a, run(100));          // different seed → different draws
  EXPECT_NE(a.find('X'), std::string::npos);  // some injected
  EXPECT_NE(a.find('.'), std::string::npos);  // some passed
  injector.set_seed(0);
}

TEST(Fault, FilterTargetsMatchingDetailsOnly) {
  auto& injector = FaultInjector::instance();
  const ScopedFault fault("test.filter",
                          {.action = FaultAction::kError,
                           .filter = "victim"});
  EXPECT_FALSE(injector.hit("test.filter", "victim-3:1003").ok());
  EXPECT_TRUE(injector.hit("test.filter", "steady-2:1002").ok());
  EXPECT_TRUE(injector.hit("test.filter").ok());  // no detail, no match
  // Non-matching hits are evaluated but never injected.
  EXPECT_EQ(injector.injected("test.filter"), 1u);
  EXPECT_EQ(injector.evaluated("test.filter"), 3u);
}

TEST(Fault, DelayActionSleepsThenSucceeds) {
  auto& injector = FaultInjector::instance();
  const ScopedFault fault(
      "test.delay",
      {.action = FaultAction::kDelay,
       .delay = std::chrono::microseconds(2000)});
  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_TRUE(injector.hit("test.delay").ok());
  EXPECT_GE(std::chrono::steady_clock::now() - t0,
            std::chrono::microseconds(2000));
}

TEST(Fault, ArmFromSpecParsesTheCliGrammar) {
  auto& injector = FaultInjector::instance();
  EXPECT_TRUE(injector.arm_from_spec("p.a:throw:0.5"));
  EXPECT_TRUE(injector.arm_from_spec("p.b:error:1"));
  EXPECT_TRUE(injector.arm_from_spec("p.c:delay:0.25:1500"));
  // For the exit action the fourth field is the exit status, not a delay.
  EXPECT_TRUE(injector.arm_from_spec("p.e:exit:1:91"));
  EXPECT_TRUE(injector.any_armed());
  injector.disarm_all();
  EXPECT_FALSE(injector.any_armed());

  EXPECT_FALSE(injector.arm_from_spec(""));
  EXPECT_FALSE(injector.arm_from_spec("nocolon"));
  EXPECT_FALSE(injector.arm_from_spec("p:badaction:0.5"));
  EXPECT_FALSE(injector.arm_from_spec("p:throw:notanumber"));
  EXPECT_FALSE(injector.arm_from_spec("p:delay:0.5"));  // delay needs us
  EXPECT_FALSE(injector.arm_from_spec("p:exit:1:300"));  // > 8 bits
  EXPECT_FALSE(injector.any_armed());
}

}  // namespace
}  // namespace leaps::util
