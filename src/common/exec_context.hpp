// Shared execution resources for the FHE/HHE hot path.
//
// ExecContext bundles the three things every layer of the homomorphic stack
// needs but none should own privately:
//   * a BufferPool — recyclable flat slabs backing every RnsPoly, so a
//     warmed-up circuit evaluation is allocation-free,
//   * the kernel backend every hot loop dispatches to,
//   * atomic operation counters (NTTs, ct-ct multiplications, key switches,
//     modulus switches, batch encodes) that, together with the pool's
//     hit/miss counters, make every performance PR measurable.
// Loops fork on the process-wide ThreadPool (parallel_for), not on a pool
// of the context's own.
//
// RnsContext (and therefore Bgv, the HHE servers, and poe::Accelerator)
// holds a pointer to an ExecContext; the process-wide ExecContext::global()
// is the default, and tests/benches snapshot its counters for deltas.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string_view>

#include "common/fault.hpp"
#include "common/pool.hpp"
#include "kernels/backend.hpp"

namespace poe {

/// Plain-value snapshot of an ExecContext's counters; subtract two to get
/// the cost of a code region.
struct CounterSnapshot {
  std::uint64_t ntt_forward = 0;
  std::uint64_t ntt_inverse = 0;
  std::uint64_t ct_ct_mul = 0;
  std::uint64_t key_switch = 0;
  std::uint64_t mod_switch = 0;
  std::uint64_t encode = 0;
  std::uint64_t automorphisms = 0;
  std::uint64_t hoisted_rotations = 0;
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  std::uint64_t bytes_copied = 0;
  std::uint64_t key_bytes_read = 0;

  CounterSnapshot operator-(const CounterSnapshot& o) const {
    return CounterSnapshot{ntt_forward - o.ntt_forward,
                           ntt_inverse - o.ntt_inverse,
                           ct_ct_mul - o.ct_ct_mul,
                           key_switch - o.key_switch,
                           mod_switch - o.mod_switch,
                           encode - o.encode,
                           automorphisms - o.automorphisms,
                           hoisted_rotations - o.hoisted_rotations,
                           pool_hits - o.pool_hits,
                           pool_misses - o.pool_misses,
                           bytes_copied - o.bytes_copied,
                           key_bytes_read - o.key_bytes_read};
  }

  std::uint64_t ntts() const { return ntt_forward + ntt_inverse; }
  /// Fraction of slab requests served from the pool's free lists.
  double pool_hit_rate() const {
    const std::uint64_t total = pool_hits + pool_misses;
    return total == 0 ? 1.0 : static_cast<double>(pool_hits) / total;
  }
};

/// Atomic operation counters. Increments use relaxed ordering — they are
/// statistics, not synchronisation.
struct OpCounters {
  std::atomic<std::uint64_t> ntt_forward{0};  ///< per RNS component
  std::atomic<std::uint64_t> ntt_inverse{0};
  std::atomic<std::uint64_t> ct_ct_mul{0};   ///< tensor products
  std::atomic<std::uint64_t> key_switch{0};  ///< relin + Galois switches
  std::atomic<std::uint64_t> mod_switch{0};  ///< per ciphertext
  std::atomic<std::uint64_t> encode{0};      ///< batch encodes/decodes
  std::atomic<std::uint64_t> automorphism{0};       ///< Galois applications
  std::atomic<std::uint64_t> hoisted_rotation{0};   ///< rotations served from
                                                    ///< a shared decomposition
  std::atomic<std::uint64_t> bytes_copied{0};  ///< whole-poly copy traffic
                                               ///< (RnsPoly copy ctor/assign)
  std::atomic<std::uint64_t> key_bytes_read{0};  ///< key-switching key rows
                                                 ///< the inner products read

  void bump(std::atomic<std::uint64_t>& c, std::uint64_t by = 1) {
    c.fetch_add(by, std::memory_order_relaxed);
  }
};

class ExecContext {
 public:
  /// Owns a fresh BufferPool and counters. Kernel dispatch happens here,
  /// once: `backend` pins a specific kernel backend (tests use this to
  /// compare implementations); nullptr reads POE_KERNEL_BACKEND / probes
  /// CPUID via kernels::select_backend().
  explicit ExecContext(const kernels::Backend* backend = nullptr)
      : kernels_(backend != nullptr ? backend : &kernels::select_backend()) {}
  ExecContext(const ExecContext&) = delete;
  ExecContext& operator=(const ExecContext&) = delete;

  /// Process-wide default context (what RnsContext uses unless told
  /// otherwise).
  static ExecContext& global();

  BufferPool& pool() { return pool_; }
  const BufferPool& pool() const { return pool_; }
  OpCounters& counters() { return counters_; }

  /// The kernel backend every hot loop under this context runs on.
  const kernels::Backend& kernels() const { return *kernels_; }
  /// Convenience for reports/benches: "scalar", "avx2", "avx512".
  std::string_view kernel_backend_name() const { return kernels_->name(); }

  /// Register (or clear, with nullptr) a chaos-test fault injector. The
  /// injector is also handed to the pool so allocation sites can fail.
  /// Unarmed (the default), every fault point reduces to one relaxed
  /// null-pointer load — see the free helpers below.
  void set_fault_injector(FaultInjector* f) {
    fault_.store(f, std::memory_order_release);
    pool_.set_fault_injector(f);
  }
  FaultInjector* fault_injector() const {
    return fault_.load(std::memory_order_acquire);
  }

  CounterSnapshot snapshot() const {
    CounterSnapshot s;
    s.ntt_forward = counters_.ntt_forward.load(std::memory_order_relaxed);
    s.ntt_inverse = counters_.ntt_inverse.load(std::memory_order_relaxed);
    s.ct_ct_mul = counters_.ct_ct_mul.load(std::memory_order_relaxed);
    s.key_switch = counters_.key_switch.load(std::memory_order_relaxed);
    s.mod_switch = counters_.mod_switch.load(std::memory_order_relaxed);
    s.encode = counters_.encode.load(std::memory_order_relaxed);
    s.automorphisms =
        counters_.automorphism.load(std::memory_order_relaxed);
    s.hoisted_rotations =
        counters_.hoisted_rotation.load(std::memory_order_relaxed);
    s.pool_hits = pool_.hits();
    s.pool_misses = pool_.misses();
    s.bytes_copied = counters_.bytes_copied.load(std::memory_order_relaxed);
    s.key_bytes_read =
        counters_.key_bytes_read.load(std::memory_order_relaxed);
    return s;
  }

 private:
  BufferPool pool_;
  const kernels::Backend* kernels_;
  mutable OpCounters counters_;
  std::atomic<FaultInjector*> fault_{nullptr};
};

// --- Fault-point helpers -----------------------------------------------
// The instrumentation the serving stack sprinkles through its hot path.
// Unarmed they cost one predictable-branch pointer load.

/// Throws FaultInjectedError when a kThrow/kAllocFail fault is armed here.
inline void fault_point(const ExecContext& exec, std::string_view site) {
  if (FaultInjector* f = exec.fault_injector()) [[unlikely]] {
    f->visit(site);
  }
}

/// Seconds of injected virtual stall to charge to the current stage.
inline double fault_stall_s(const ExecContext& exec, std::string_view site) {
  if (FaultInjector* f = exec.fault_injector()) [[unlikely]] {
    return f->stall_s(site);
  }
  return 0;
}

/// True when a kForce fault (saturation/truncation) fires here.
inline bool fault_forced(const ExecContext& exec, std::string_view site) {
  if (FaultInjector* f = exec.fault_injector()) [[unlikely]] {
    return f->forced(site);
  }
  return false;
}

/// Mangles words when a kCorrupt fault fires here; returns true if it did.
inline bool fault_corrupt(const ExecContext& exec, std::string_view site,
                          std::span<std::uint64_t> words) {
  if (FaultInjector* f = exec.fault_injector()) [[unlikely]] {
    return f->corrupt(site, words);
  }
  return false;
}

}  // namespace poe
