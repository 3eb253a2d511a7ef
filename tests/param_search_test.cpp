// Noise-aware parameter right-sizing: soundness of the tracked bound,
// replay feasibility, and the search fixed point that pins protocol.cpp's
// checked-in configs.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/noise.hpp"
#include "fhe/param_search.hpp"
#include "hhe/profile.hpp"
#include "hhe/protocol.hpp"
#include "kernels/backend.hpp"

namespace poe::fhe {
namespace {

// Measured (secret-key) budget must never be below the tracked bound's
// budget: the bound is conservative, so predicted <= measured. The 0.51
// slack absorbs the log2 rounding in the measured budget.
void expect_sound(const Bgv& bgv, const Ciphertext& ct, const char* where) {
  const double measured = bgv.noise_budget_bits(ct);
  const double predicted = bgv.predicted_budget_bits(ct);
  EXPECT_GT(measured, 0.0) << where << ": circuit ran out of budget";
  EXPECT_LE(predicted, measured + 0.51)
      << where << ": tracked bound claims more budget than is really left";
}

// One seeded random walk through every noise-relevant op the evaluators
// use, checking predicted <= measured after each step.
void random_circuit_soundness(const BgvParams& params, std::uint64_t seed) {
  const Bgv bgv(params);
  Xoshiro256 rng(seed);
  const GaloisKeys keys = bgv.make_rotation_keys({1, 3});

  auto random_plain = [&](std::size_t len) {
    Plaintext pt;
    pt.coeffs.resize(len);
    for (auto& c : pt.coeffs) c = rng.below(params.t);
    return pt;
  };

  Ciphertext a = bgv.encrypt(random_plain(params.n));
  Ciphertext b = bgv.encrypt(random_plain(params.n));
  expect_sound(bgv, a, "fresh");

  for (int step = 0; step < 24; ++step) {
    switch (rng.below(10)) {
      case 0:
        bgv.match_levels(a, b);
        bgv.add_inplace(a, b);
        break;
      case 1:
        bgv.add_plain_inplace(a, random_plain(params.n));
        break;
      case 2:
        bgv.add_scalar_inplace(a, rng.below(params.t));
        break;
      case 3:
        bgv.mul_scalar_inplace(a, rng.below(params.t));
        break;
      case 4:
        bgv.mul_plain_inplace(a, random_plain(params.n));
        break;
      case 5: {
        if (a.level < 3) break;
        bgv.match_levels(a, b);
        // The tensor's bound is a + b + log_n + 1: only multiply when the
        // tracked budget keeps the product comfortably decryptable.
        if (bgv.predicted_budget_bits(a) < b.noise_bits + 31.0) break;
        Ciphertext prod = bgv.multiply(a, b);
        expect_sound(bgv, prod, "multiply (3-part)");
        bgv.relinearize_inplace(prod);
        a = std::move(prod);
        break;
      }
      case 6:
        bgv.rotate_columns_inplace(a, 1, keys);
        break;
      case 7: {
        // Hoisted rotation must track the same bound as the plain rotate.
        const HoistedCt hoisted = bgv.hoist(a);
        Ciphertext rot;
        bgv.rotate_hoisted_into(hoisted, 3, keys, rot);
        expect_sound(bgv, rot, "rotate_hoisted_into");
        a = std::move(rot);
        break;
      }
      case 8:
        if (a.level > 2) bgv.mod_switch_inplace(a);
        break;
      case 9:
        bgv.auto_switch_inplace(a);
        break;
    }
    expect_sound(bgv, a, "random step");
    if (bgv.noise_budget_bits(a) < 40.0) {
      a = bgv.encrypt(random_plain(params.n));  // re-arm before exhaustion
    }
  }
}

TEST(NoiseBoundSoundness, RandomCircuitsAcrossKernelBackends) {
  const BgvParams params = hhe::HheConfig::test().bgv;
  for (const kernels::Backend* backend : kernels::available_backends()) {
    ASSERT_EQ(
        setenv("POE_KERNEL_BACKEND", std::string(backend->name()).c_str(), 1),
        0);
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(std::string(backend->name()) +
                   " seed=" + std::to_string(seed));
      random_circuit_soundness(params, seed);
    }
  }
  ASSERT_EQ(unsetenv("POE_KERNEL_BACKEND"), 0);
}

TEST(NoiseBoundSoundness, IngestSwitchTracksKeySwitchNoise) {
  const BgvParams params = hhe::HheConfig::batched_test().bgv;
  const Bgv bgv(params);
  BgvParams foreign_params = params;
  foreign_params.seed += 17;
  const Bgv foreign(foreign_params);
  const KswKey ingest_key = bgv.make_ingest_key(foreign);

  Plaintext pt;
  pt.coeffs.assign(4, 7);
  const Ciphertext uploaded = foreign.encrypt(pt);
  const Ciphertext switched = bgv.ingest_switch(uploaded, ingest_key);
  expect_sound(bgv, switched, "ingest_switch");
  // The switch costs noise: the tracked bound must reflect that, not stay
  // at the fresh-encryption bound.
  EXPECT_GT(switched.noise_bits, uploaded.noise_bits);
}

TEST(NoiseEstimator, TrimSpendsSurplusButKeepsTheBand) {
  const BgvParams params = hhe::HheConfig::batched_test().bgv;
  const NoiseEstimator est(params);
  const double floor = est.mod_switch_floor(2);
  // Plenty of surplus: the trim should walk down to the last level whose
  // post-switch budget still clears keep_bits.
  const std::size_t target = est.trim_target(floor, 12, 2, 8.0);
  ASSERT_LT(target, 12u);
  double noise = floor;
  for (std::size_t lvl = 12; lvl > target; --lvl) noise = est.mod_switch(noise, 2);
  EXPECT_GE(est.budget(noise, target), 8.0);
  // One more drop would violate the band (or the level floor).
  if (target > 1) {
    EXPECT_LT(est.budget(est.mod_switch(noise, 2), target - 1), 8.0);
  }
}

TEST(NoiseEstimator, AutoDropTargetIsContracting) {
  // Two trajectories whose bounds differ by less than a prime converge to
  // the same level, and their post-drop bounds land within one switch's
  // rounding floor of each other — the property that keeps live and
  // replayed schedules from bifurcating on sub-bit bound differences.
  const BgvParams params = hhe::HheConfig::batched_test().bgv;
  const NoiseEstimator est(params);
  const double hi = 120.0;
  for (double delta = 0.25; delta <= 8.0; delta *= 2.0) {
    EXPECT_EQ(est.auto_drop_target(hi, 12, 2),
              est.auto_drop_target(hi + delta, 12, 2))
        << "delta=" << delta;
  }
}

// Replaying the recorded circuit under the checked-in parameters must be
// feasible with the output budget inside the safety band — and a chain too
// short for the circuit must be rejected.
TEST(Simulate, CheckedInParamsAreFeasible) {
  const hhe::HheConfig checked_in = hhe::HheConfig::batched_test();
  const CircuitProfile profile = hhe::record_batched_profile(checked_in);
  ASSERT_FALSE(profile.tape.empty());
  ASSERT_FALSE(profile.outputs.empty());

  const SearchConstraints c;
  const SimResult ok = simulate(profile, checked_in.bgv, c.band_low);
  EXPECT_TRUE(ok.feasible);
  EXPECT_GE(ok.min_output_budget, c.band_low);
  EXPECT_LE(ok.min_output_budget, c.band_high);
  EXPECT_GT(ok.mod_switches, 0u);

  BgvParams starved = checked_in.bgv;
  starved.num_primes = 2;
  const SimResult bad = simulate(profile, starved, c.band_low);
  EXPECT_FALSE(bad.feasible);
}

// Every recorded node must be an output or some node's operand: the replay
// charges each node's work and schedules switches on it, so a node nothing
// consumes prices an op whose result the circuit never uses (such as a key
// switch per rotation that a double-hoisted affine layer no longer runs).
TEST(Simulate, BatchedTapesHaveNoUnconsumedNodes) {
  for (const hhe::HheConfig& config :
       {hhe::HheConfig::batched_test(), hhe::HheConfig::batched_demo()}) {
    const CircuitProfile profile = hhe::record_batched_profile(config);
    std::vector<bool> consumed(profile.tape.size(), false);
    for (const std::int32_t out : profile.outputs) {
      consumed.at(static_cast<std::size_t>(out)) = true;
    }
    for (const TapeNode& node : profile.tape) {
      for (const std::int32_t operand : {node.a, node.b}) {
        if (operand >= 0) consumed.at(static_cast<std::size_t>(operand)) = true;
      }
    }
    std::vector<std::size_t> idle;
    for (std::size_t i = 0; i < consumed.size(); ++i) {
      if (!consumed[i]) idle.push_back(i);
    }
    EXPECT_TRUE(idle.empty())
        << profile.name << ": " << idle.size() << " of " << consumed.size()
        << " nodes have no consumer, the first node " << idle.front()
        << " (op " << static_cast<int>(profile.tape[idle.front()].op) << ")";
  }
}

// The fixed point that pins protocol.cpp: recording the circuits under the
// checked-in configs and re-running the search must reproduce exactly the
// BgvParams of HheConfig::test() / batched_test(). If this fails, either
// the estimator, the scheduler policy, the security table, or the circuit
// changed — re-run build/bench/bench_param_search and paste its output into
// protocol.cpp.
TEST(SearchFixedPoint, CoefficientTestConfig) {
  const hhe::HheConfig checked_in = hhe::HheConfig::test();
  const CircuitProfile profile = hhe::record_coefficient_profile(checked_in);
  SearchConstraints c;
  c.t = checked_in.bgv.t;
  c.seed = checked_in.bgv.seed;
  const SearchResult r = search_params(profile, c);
  ASSERT_TRUE(r.found);
  const BgvParams expected = checked_in.bgv;
  EXPECT_EQ(r.params.n, expected.n);
  EXPECT_EQ(r.params.num_primes, expected.num_primes);
  EXPECT_EQ(r.params.prime_bits, expected.prime_bits);
  EXPECT_EQ(r.params.relin_digit_bits, expected.relin_digit_bits);
  EXPECT_EQ(r.log_q, key_log_q(r.params));  // log2(PQ), not log2(q)
  EXPECT_LE(r.log_q, r.security_cap);
}

TEST(SearchFixedPoint, BatchedTestConfig) {
  const hhe::HheConfig checked_in = hhe::HheConfig::batched_test();
  const CircuitProfile profile = hhe::record_batched_profile(checked_in);
  SearchConstraints c;
  c.t = checked_in.bgv.t;
  c.seed = checked_in.bgv.seed;
  const SearchResult r = search_params(profile, c);
  ASSERT_TRUE(r.found);
  const BgvParams expected = checked_in.bgv;
  EXPECT_EQ(r.params.n, expected.n);
  EXPECT_EQ(r.params.num_primes, expected.num_primes);
  EXPECT_EQ(r.params.prime_bits, expected.prime_bits);
  EXPECT_EQ(r.params.relin_digit_bits, expected.relin_digit_bits);
  EXPECT_EQ(r.log_q, key_log_q(r.params));  // log2(PQ), not log2(q)
  EXPECT_LE(r.log_q, r.security_cap);
}

// The keys live mod PQ, so the ceiling bounds the chain plus the special
// primes: batched_demo's 12 x 60-bit chain fits under the 990-bit demo cap
// on its own (720 bits), but not with alpha = 5 special primes (1020 bits).
TEST(SecurityTable, CeilingCountsTheSpecialPrimes) {
  BgvParams p = hhe::HheConfig::batched_demo().bgv;
  p.num_primes = 12;
  p.prime_bits = 60;
  p.relin_digit_bits = 5 * 60;
  const double cap = max_log_q(p.n, SecurityLevel::kDemo);
  EXPECT_LE(static_cast<double>(p.num_primes * p.prime_bits), cap);
  EXPECT_EQ(key_log_q(p), 17.0 * 60.0);
  EXPECT_FALSE(within_security_ceiling(p, SecurityLevel::kDemo));
  p.relin_digit_bits = 4 * 60;  // 16 x 60 = 960 bits fits
  EXPECT_TRUE(within_security_ceiling(p, SecurityLevel::kDemo));
}

TEST(SecurityTable, DemoCeilingNeverGrowsPastLegacy) {
  // kDemo is "no more modulus than the legacy demo configs shipped":
  // 18 x 55-bit primes.
  EXPECT_EQ(max_log_q(1024, SecurityLevel::kDemo), 990.0);
  EXPECT_EQ(max_log_q(32768, SecurityLevel::kDemo), 990.0);
  // The 128-bit classical column is monotone in n and zero off-table.
  double prev = 0.0;
  for (std::size_t n = 1024; n <= 32768; n *= 2) {
    const double cap = max_log_q(n, SecurityLevel::k128Classical);
    EXPECT_GT(cap, prev);
    prev = cap;
  }
  EXPECT_EQ(max_log_q(512, SecurityLevel::k128Classical), 0.0);
}

}  // namespace
}  // namespace poe::fhe
