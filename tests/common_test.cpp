#include <gtest/gtest.h>

#include "common/bignum.hpp"
#include "common/bits.hpp"
#include "common/error.hpp"
#include "common/exec_context.hpp"
#include "common/parallel.hpp"
#include "common/pool.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

namespace poe {
namespace {

TEST(Bits, RotlMatchesManual) {
  EXPECT_EQ(rotl64(1, 1), 2u);
  EXPECT_EQ(rotl64(0x8000000000000000ull, 1), 1u);
  EXPECT_EQ(rotl64(0x0123456789ABCDEFull, 0), 0x0123456789ABCDEFull);
}

TEST(Bits, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0u);
  EXPECT_EQ(ceil_log2(2), 1u);
  EXPECT_EQ(ceil_log2(3), 2u);
  EXPECT_EQ(ceil_log2(65537), 17u);
  EXPECT_EQ(ceil_log2(65536), 16u);
}

TEST(Bits, LoadStoreRoundtrip) {
  std::uint8_t buf[8];
  store_le64(buf, 0x1122334455667788ull);
  EXPECT_EQ(buf[0], 0x88);
  EXPECT_EQ(load_le64(buf), 0x1122334455667788ull);
  store_be64(buf, 0x1122334455667788ull);
  EXPECT_EQ(buf[0], 0x11);
  EXPECT_EQ(buf[7], 0x88);
}

TEST(Error, EnsureThrowsWithMessage) {
  try {
    POE_ENSURE(1 == 2, "custom " << 42);
    FAIL() << "expected throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("custom 42"), std::string::npos);
  }
}

TEST(Rng, Deterministic) {
  Xoshiro256 a(123), b(123), c(124);
  EXPECT_EQ(a.next(), b.next());
  EXPECT_NE(a.next(), c.next());
}

TEST(Rng, BelowInRange) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.below(97), 97u);
  }
}

TEST(Bignum, AddSubRoundtrip) {
  UBig a(0xFFFFFFFFFFFFFFFFull);
  a.add(UBig(1));
  EXPECT_EQ(a.bit_length(), 65u);
  a.sub(UBig(1));
  EXPECT_EQ(a.low_u64(), 0xFFFFFFFFFFFFFFFFull);
  EXPECT_EQ(a.bit_length(), 64u);
}

TEST(Bignum, MulDivRoundtrip) {
  UBig a(1);
  for (int i = 0; i < 10; ++i) a.mul_u64(1000000007ull);
  UBig b = a;
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(b.divmod_u64(1000000007ull), 0u);
  }
  EXPECT_EQ(b.low_u64(), 1u);
  EXPECT_TRUE(b == UBig::one());
}

TEST(Bignum, ModU64MatchesDivmod) {
  UBig a(123456789);
  a.mul_u64(987654321).add_u64(55);
  UBig b = a;
  EXPECT_EQ(a.mod_u64(1000003), b.divmod_u64(1000003));
}

TEST(Bignum, ProductAndToString) {
  UBig p = UBig::product({10, 10, 10});
  EXPECT_EQ(p.to_string(), "1000");
  EXPECT_EQ(UBig{}.to_string(), "0");
}

TEST(Bignum, ModBySubtraction) {
  UBig m = UBig::product({65537, 65537});
  UBig v = m;
  v.add(m).add(UBig(42));  // 3m + 42 > value is 2m+42... build k*m + 42
  v.mod_by_subtraction(m);
  EXPECT_EQ(v.low_u64(), 42u);
}

TEST(Bignum, Shr1) {
  UBig a(1);
  a.mul_u64(1ull << 63).mul_u64(2);  // 2^64
  a.shr1();
  EXPECT_EQ(a.bit_length(), 64u);
  EXPECT_EQ(a.low_u64(), 0x8000000000000000ull);
}

TEST(Bignum, SubUnderflowThrows) {
  UBig a(5);
  EXPECT_THROW(a.sub(UBig(6)), Error);
}

TEST(Bignum, FuzzAgainstInt128) {
  // Random add/sub/mul_u64/mod chains cross-checked against native
  // 128-bit arithmetic while values fit.
  Xoshiro256 rng(99);
  for (int trial = 0; trial < 200; ++trial) {
    unsigned __int128 ref = rng.below(1ull << 62);
    UBig big(static_cast<std::uint64_t>(ref));
    for (int op = 0; op < 8; ++op) {
      const std::uint64_t v = 1 + rng.below(1u << 30);
      switch (rng.below(3)) {
        case 0:
          if (ref <= (unsigned __int128)1 << 96) {
            ref *= v;
            big.mul_u64(v);
          }
          break;
        case 1:
          ref += v;
          big.add_u64(v);
          break;
        case 2: {
          const std::uint64_t m = 2 + rng.below(1u << 20);
          EXPECT_EQ(big.mod_u64(m), static_cast<std::uint64_t>(ref % m))
              << "trial " << trial;
          break;
        }
      }
    }
    // Final value comparison through limbs.
    UBig check;
    check = UBig(static_cast<std::uint64_t>(ref & 0xFFFFFFFFFFFFFFFFull));
    UBig hi(static_cast<std::uint64_t>(ref >> 64));
    for (int i = 0; i < 64; ++i) hi.mul_u64(2);
    check.add(hi);
    EXPECT_TRUE(big == check) << "trial " << trial;
  }
}

TEST(Parallel, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); },
               /*max_threads=*/4);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Parallel, ZeroAndSingleElement) {
  int calls = 0;
  parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(1, [&](std::size_t i) { calls += static_cast<int>(i) + 1; });
  EXPECT_EQ(calls, 1);
}

TEST(Parallel, PropagatesExceptions) {
  EXPECT_THROW(
      parallel_for(
          100,
          [&](std::size_t i) {
            if (i == 57) throw Error("boom");
          },
          4),
      Error);
}

TEST(Parallel, DeterministicResultsAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    std::vector<std::uint64_t> out(256);
    parallel_for(
        256, [&](std::size_t i) { out[i] = i * i + 7; }, threads);
    return out;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Parallel, ParseThreadsEnv) {
  unsigned hw = std::thread::hardware_concurrency();
  if (hw == 0) hw = 1;
  EXPECT_EQ(ThreadPool::parse_threads_env(nullptr), hw);
  EXPECT_EQ(ThreadPool::parse_threads_env(""), hw);
  EXPECT_EQ(ThreadPool::parse_threads_env("0"), hw);
  EXPECT_EQ(ThreadPool::parse_threads_env("pasta"), hw);
  EXPECT_EQ(ThreadPool::parse_threads_env("-2"), hw);
  EXPECT_EQ(ThreadPool::parse_threads_env("1"), 1u);
  EXPECT_EQ(ThreadPool::parse_threads_env("6"), 6u);
}

TEST(Parallel, CancellationChecksBeforeInvoking) {
  // Regression test for the cancellation protocol: once one body throws, no
  // NEW body invocation may begin. Uses a dedicated pool (the global one has
  // zero workers on single-core machines, which would serialise the loop and
  // mask the race). One executor parks inside body(0) until body(1) is about
  // to throw, so both executors are pinned while indices 2..999 are pending.
  ThreadPool pool(1);  // one worker + the calling thread = 2 executors
  std::atomic<bool> blocked_entered{false};
  std::atomic<bool> about_to_throw{false};
  std::atomic<int> invocations{0};
  auto body = [&](std::size_t i) {
    invocations.fetch_add(1, std::memory_order_relaxed);
    if (i == 0) {
      blocked_entered.store(true);
      while (!about_to_throw.load()) std::this_thread::yield();
      // body(1) announces the throw before the exception has unwound into
      // the pool and raised the failure flag. Stay parked for a grace
      // period so this executor's next claim observes the flag instead of
      // racing through the pending indices inside that window.
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    } else if (i == 1) {
      while (!blocked_entered.load()) std::this_thread::yield();
      about_to_throw.store(true);
      throw Error("boom");
    }
  };
  using Body = decltype(body);
  EXPECT_THROW(
      pool.run(1000, std::addressof(body),
               [](void* ctx, std::size_t i) { (*static_cast<Body*>(ctx))(i); }),
      Error);
  // Indices 0 and 1 always run; after the failure the pre-invoke check stops
  // both executors. A couple of racing claims may slip through while the
  // exception unwinds, but nothing close to the remaining 998 indices.
  EXPECT_GE(invocations.load(), 2);
  EXPECT_LE(invocations.load(), 16);
}

TEST(Parallel, NestedRunOnCallingThreadRunsInline) {
  // Regression test for a caller-side deadlock: run() holds the pool's run
  // lock while the calling thread executes indices, so a body that calls
  // run() again on that thread must execute inline, exactly as it does on a
  // pool worker. body(0) parks until body(1) has started, so the two indices
  // land on different executors and the caller always runs one of them.
  ThreadPool pool(2);
  std::atomic<bool> second_started{false};
  std::atomic<int> nested_hits{0};
  auto inner = [&](std::size_t) {
    nested_hits.fetch_add(1, std::memory_order_relaxed);
  };
  using Inner = decltype(inner);
  auto body = [&](std::size_t i) {
    if (i == 0) {
      while (!second_started.load()) std::this_thread::yield();
    } else {
      second_started.store(true);
    }
    pool.run(8, std::addressof(inner), [](void* ctx, std::size_t j) {
      (*static_cast<Inner*>(ctx))(j);
    });
  };
  using Body = decltype(body);
  pool.run(2, std::addressof(body),
           [](void* ctx, std::size_t i) { (*static_cast<Body*>(ctx))(i); });
  EXPECT_EQ(nested_hits.load(), 16);

  // The caller's in-job mark is scoped to its own run(): a later top-level
  // run() on this thread hands indices to the workers again. body(0) waits
  // (bounded) for body(1), which only a second executor can start — a
  // leaked mark would serialise the loop and time the wait out.
  std::atomic<bool> partner_started{false};
  bool overlapped = false;
  auto pair = [&](std::size_t i) {
    if (i == 1) {
      partner_started.store(true);
      return;
    }
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (!partner_started.load() &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
    overlapped = partner_started.load();
  };
  using Pair = decltype(pair);
  pool.run(2, std::addressof(pair),
           [](void* ctx, std::size_t i) { (*static_cast<Pair*>(ctx))(i); });
  EXPECT_TRUE(overlapped) << "the caller's in-job mark outlived its run()";
}

TEST(BufferPool, MissThenHitReusesSlab) {
  BufferPool pool;
  std::uint64_t* raw = nullptr;
  {
    PolyBuffer b = pool.acquire(256);
    raw = b.data();
    EXPECT_EQ(pool.misses(), 1u);
    EXPECT_EQ(pool.hits(), 0u);
    EXPECT_EQ(pool.outstanding(), 1u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(raw) % 64, 0u);  // cache line
    for (std::size_t i = 0; i < 256; ++i) EXPECT_EQ(b.data()[i], 0u);
  }
  EXPECT_EQ(pool.outstanding(), 0u);
  const PolyBuffer c = pool.acquire(256, /*zero=*/false);
  EXPECT_EQ(c.data(), raw);  // recycled the very same slab
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  const PolyBuffer d = pool.acquire(256);  // first slab lent out -> fresh
  EXPECT_EQ(pool.misses(), 2u);
  EXPECT_EQ(pool.outstanding(), 2u);
}

TEST(BufferPool, BiggerSlabServesSmallerRequest) {
  BufferPool pool;
  {
    PolyBuffer big = pool.acquire(1024, /*zero=*/false);
    big.data()[5] = 77;  // stale coefficient to be cleared on recycle
  }
  const PolyBuffer small = pool.acquire(64, /*zero=*/true);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_GE(small.size(), 1024u);  // slab keeps its original size class
  EXPECT_EQ(small.data()[5], 0u);
}

TEST(BufferPool, TrimFreesCachedSlabs) {
  BufferPool pool;
  { const PolyBuffer a = pool.acquire(128); }
  EXPECT_EQ(pool.cached_bytes(), 128 * sizeof(std::uint64_t));
  pool.trim();
  EXPECT_EQ(pool.cached_bytes(), 0u);
  const PolyBuffer b = pool.acquire(128);  // cache emptied -> fresh again
  EXPECT_EQ(pool.misses(), 2u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  BufferPool pool;
  PolyBuffer a = pool.acquire(32);
  std::uint64_t* raw = a.data();
  PolyBuffer b = std::move(a);
  EXPECT_TRUE(a.empty());
  EXPECT_EQ(b.data(), raw);
  EXPECT_EQ(pool.outstanding(), 1u);
  b.reset();
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(pool.outstanding(), 0u);
}

TEST(ExecContext, SnapshotDeltas) {
  ExecContext ctx;
  const CounterSnapshot before = ctx.snapshot();
  ctx.counters().bump(ctx.counters().ntt_forward, 3);
  ctx.counters().bump(ctx.counters().ct_ct_mul);
  { const PolyBuffer p = ctx.pool().acquire(16); }  // miss, then returned
  const PolyBuffer q = ctx.pool().acquire(16);      // hit
  const CounterSnapshot delta = ctx.snapshot() - before;
  EXPECT_EQ(delta.ntt_forward, 3u);
  EXPECT_EQ(delta.ntts(), 3u);
  EXPECT_EQ(delta.ct_ct_mul, 1u);
  EXPECT_EQ(delta.pool_misses, 1u);
  EXPECT_EQ(delta.pool_hits, 1u);
  EXPECT_DOUBLE_EQ(delta.pool_hit_rate(), 0.5);
}

TEST(Table, RendersAllCells) {
  TextTable t("demo");
  t.header({"a", "bb"});
  t.row({"1", "2"}).separator().row({"333", "4"});
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("333"), std::string::npos);
  EXPECT_NE(s.find("bb"), std::string::npos);
}

TEST(Table, Formatters) {
  EXPECT_EQ(with_commas(1234567), "1,234,567");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(percent(0.333, 1), "33.3%");
}

TEST(FaultInjector, FiresInsideArrivalWindowOnly) {
  FaultInjector fi;
  fi.arm(FaultSpec{.site = "x", .after = 2, .count = 2});
  fi.visit("x");  // arrival 0
  fi.visit("x");  // arrival 1
  EXPECT_THROW(fi.visit("x"), FaultInjectedError);  // 2
  EXPECT_THROW(fi.visit("x"), FaultInjectedError);  // 3
  fi.visit("x");  // 4: window exhausted
  EXPECT_EQ(fi.arrivals("x"), 5u);
  EXPECT_EQ(fi.fired(FaultClass::kThrow), 2u);
  EXPECT_EQ(fi.fired_total(), 2u);
  EXPECT_EQ(fi.fired_by_site().at("x"), 2u);
  // Other sites are counted but never fire.
  fi.visit("y");
  EXPECT_EQ(fi.arrivals("y"), 1u);
  EXPECT_EQ(fi.fired_total(), 2u);
}

TEST(FaultInjector, ClassesAreIndependentPerSite) {
  FaultInjector fi;
  // Arrival counters are per SITE, shared by every hook type: the kThrow
  // visit below consumes arrival 0, so the stall is armed for arrival 1.
  fi.arm(FaultSpec{.site = "s", .kind = FaultClass::kStall, .after = 1,
                   .arg = 1500});
  fi.arm(FaultSpec{.site = "f", .kind = FaultClass::kForce, .after = 1});
  // A kThrow visit at a site armed only with kStall does not fire.
  fi.visit("s");
  EXPECT_EQ(fi.fired_total(), 0u);
  // stall_s charges the full arg in seconds (real sleep is bounded).
  EXPECT_DOUBLE_EQ(fi.stall_s("s"), 1.5);
  EXPECT_DOUBLE_EQ(fi.stall_s("s"), 0.0);  // count=1: second arrival is clean
  EXPECT_FALSE(fi.forced("f"));  // arrival 0, armed after=1
  EXPECT_TRUE(fi.forced("f"));   // arrival 1
  EXPECT_FALSE(fi.forced("f"));
  EXPECT_EQ(fi.fired(FaultClass::kStall), 1u);
  EXPECT_EQ(fi.fired(FaultClass::kForce), 1u);
}

TEST(FaultInjector, CorruptMarksWordsOutOfRnsRange) {
  FaultInjector fi(99);
  fi.arm(FaultSpec{.site = "c", .kind = FaultClass::kCorrupt, .arg = 3});
  std::vector<std::uint64_t> words(16, 7);
  ASSERT_TRUE(fi.corrupt("c", words));
  std::size_t mangled = 0;
  for (const std::uint64_t w : words) {
    if (w == 7) continue;
    ++mangled;
    // The top bit guarantees the word exceeds any supported RNS prime.
    EXPECT_GE(w, std::uint64_t{1} << 63);
  }
  EXPECT_GE(mangled, 1u);
  EXPECT_LE(mangled, 3u);  // seeded positions may collide
  EXPECT_FALSE(fi.corrupt("c", words));  // window exhausted
}

TEST(FaultInjector, RandomScheduleIsDeterministicAndOnMenu) {
  constexpr FaultInjector::MenuEntry menu[] = {
      {"a", FaultClass::kThrow},
      {"b", FaultClass::kStall},
      {"c", FaultClass::kCorrupt},
  };
  const auto s1 = FaultInjector::random_schedule(31337, menu, 8);
  const auto s2 = FaultInjector::random_schedule(31337, menu, 8);
  ASSERT_EQ(s1.size(), 8u);
  for (std::size_t i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1[i].site, s2[i].site);
    EXPECT_EQ(s1[i].kind, s2[i].kind);
    EXPECT_EQ(s1[i].after, s2[i].after);
    EXPECT_EQ(s1[i].count, s2[i].count);
    EXPECT_EQ(s1[i].arg, s2[i].arg);
    bool on_menu = false;
    for (const auto& m : menu) {
      on_menu |= s1[i].site == m.site && s1[i].kind == m.kind;
    }
    EXPECT_TRUE(on_menu) << s1[i].site;
    EXPECT_LT(s1[i].after, 8u);
    EXPECT_GE(s1[i].count, 1u);
  }
  // A different seed produces a different schedule.
  const auto s3 = FaultInjector::random_schedule(31338, menu, 8);
  bool any_diff = false;
  for (std::size_t i = 0; i < s1.size(); ++i) {
    any_diff |= s1[i].site != s3[i].site || s1[i].after != s3[i].after ||
                s1[i].arg != s3[i].arg;
  }
  EXPECT_TRUE(any_diff);
}

TEST(FaultInjector, ExecContextHelpersRespectRegistration) {
  ExecContext exec;
  // Unregistered: helpers are inert.
  fault_point(exec, "z");
  EXPECT_DOUBLE_EQ(fault_stall_s(exec, "z"), 0.0);
  EXPECT_FALSE(fault_forced(exec, "z"));

  FaultInjector fi;
  fi.arm(FaultSpec{.site = "z", .kind = FaultClass::kForce});
  exec.set_fault_injector(&fi);
  EXPECT_TRUE(fault_forced(exec, "z"));
  exec.set_fault_injector(nullptr);
  EXPECT_FALSE(fault_forced(exec, "z"));
}

TEST(FaultInjector, ArmedPoolAcquireSimulatesAllocationFailure) {
  ExecContext exec;
  FaultInjector fi;
  fi.arm(FaultSpec{.site = "pool.acquire", .kind = FaultClass::kAllocFail});
  exec.set_fault_injector(&fi);
  EXPECT_THROW(exec.pool().acquire(64), FaultInjectedError);
  // The failure is transient: the next acquire succeeds and the slab is
  // usable.
  auto slab = exec.pool().acquire(64);
  EXPECT_GE(slab.size(), 64u);
  exec.set_fault_injector(nullptr);
}

}  // namespace
}  // namespace poe
