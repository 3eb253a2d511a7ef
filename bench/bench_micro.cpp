// Google-benchmark microbenchmarks for the primitive layers: Keccak-f,
// SHAKE squeeze throughput, modular multiplication, the NTT, PASTA block
// encryption (the CPU baseline of Table II), and BGV primitives.
#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>

#include "common/exec_context.hpp"
#include "kernels/backend.hpp"
#include "common/rng.hpp"
#include "fhe/bgv.hpp"
#include "fhe/encoding.hpp"
#include "fhe/ntt.hpp"
#include "keccak/shake.hpp"
#include "modular/primes.hpp"
#include "fhe/serialize.hpp"
#include "hhe/protocol.hpp"
#include "hhe/simd_batch.hpp"
#include "hw/accelerator.hpp"
#include "pasta/cipher.hpp"
#include "pasta/serialize.hpp"

namespace {

using namespace poe;

void BM_KeccakF1600(benchmark::State& state) {
  keccak::State s{};
  s[0] = 1;
  for (auto _ : state) {
    keccak::f1600(s);
    benchmark::DoNotOptimize(s);
  }
}
BENCHMARK(BM_KeccakF1600);

void BM_Shake128Squeeze(benchmark::State& state) {
  keccak::Shake xof = keccak::Shake::shake128();
  std::uint8_t seed[16] = {1};
  xof.absorb(seed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(xof.squeeze_u64());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 8);
}
BENCHMARK(BM_Shake128Squeeze);

void BM_ModMul(benchmark::State& state) {
  const mod::Modulus m(pasta::pasta_prime(static_cast<unsigned>(state.range(0))));
  Xoshiro256 rng(1);
  std::uint64_t a = rng.below(m.value()), b = rng.below(m.value());
  for (auto _ : state) {
    a = m.mul(a, b);
    benchmark::DoNotOptimize(a);
  }
}
BENCHMARK(BM_ModMul)->Arg(17)->Arg(33)->Arg(60);

void BM_FermatReduce(benchmark::State& state) {
  Xoshiro256 rng(2);
  mod::u128 x = static_cast<mod::u128>(rng.next()) * 65536;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mod::fermat_reduce(x, 16, 65537));
  }
}
BENCHMARK(BM_FermatReduce);

void BM_Ntt(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const auto q = mod::ntt_prime_chain(1, 50, n)[0];
  fhe::Ntt ntt(q, n);
  Xoshiro256 rng(3);
  std::vector<std::uint64_t> a(n);
  for (auto& x : a) x = rng.below(q);
  for (auto _ : state) {
    ntt.forward(a);
    benchmark::DoNotOptimize(a.data());
  }
}
BENCHMARK(BM_Ntt)->Arg(1024)->Arg(4096)->Arg(8192);

void BM_PastaBlockEncrypt(benchmark::State& state) {
  const auto params =
      state.range(0) == 3 ? pasta::pasta3() : pasta::pasta4();
  Xoshiro256 rng(4);
  pasta::PastaCipher cipher(params,
                            pasta::PastaCipher::random_key(params, rng));
  std::uint64_t ctr = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cipher.keystream(1, ctr++));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(params.t));
}
BENCHMARK(BM_PastaBlockEncrypt)->Arg(3)->Arg(4);

void BM_BgvEncrypt(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto pt = enc.encode({1, 2, 3});
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgv.encrypt(pt));
  }
}
BENCHMARK(BM_BgvEncrypt);

void BM_BgvMultiplyRelin(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto ct = bgv.encrypt(enc.encode({5, 6}));
  for (auto _ : state) {
    benchmark::DoNotOptimize(bgv.multiply_relin(ct, ct));
  }
}
BENCHMARK(BM_BgvMultiplyRelin);

void BM_BgvRotation(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  static fhe::GaloisKeys keys = bgv.make_rotation_keys({1});
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto base = bgv.encrypt(enc.encode({1, 2, 3, 4}));
  for (auto _ : state) {
    fhe::Ciphertext ct = base;
    bgv.rotate_columns_inplace(ct, 1, keys);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BgvRotation);

void BM_BgvModSwitch(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto base = bgv.encrypt(enc.encode({9, 8}));
  for (auto _ : state) {
    fhe::Ciphertext ct = base;
    bgv.mod_switch_inplace(ct);
    benchmark::DoNotOptimize(ct);
  }
}
BENCHMARK(BM_BgvModSwitch);

void BM_SerializeCiphertext(benchmark::State& state) {
  static fhe::Bgv bgv(fhe::BgvParams::toy());
  fhe::BatchEncoder enc(bgv.params().n, bgv.params().t);
  const auto ct = bgv.encrypt(enc.encode({5}));
  std::size_t bytes = 0;
  for (auto _ : state) {
    const auto wire = fhe::serialize_ciphertext(bgv.rns(), ct);
    bytes = wire.size();
    benchmark::DoNotOptimize(wire.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_SerializeCiphertext);

void BM_PastaPackElements(benchmark::State& state) {
  const auto params = pasta::pasta4(pasta::pasta_prime(33));
  Xoshiro256 rng(9);
  std::vector<std::uint64_t> elems(1024);
  for (auto& e : elems) e = rng.below(params.p);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pasta::pack_elements(params, elems));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          1024);
}
BENCHMARK(BM_PastaPackElements);

void BM_AcceleratorBlock(benchmark::State& state) {
  // Host-side cost of simulating one accelerator block (meta-benchmark:
  // how fast the simulator itself runs).
  const auto params =
      state.range(0) == 3 ? pasta::pasta3() : pasta::pasta4();
  Xoshiro256 rng(10);
  const auto key = pasta::PastaCipher::random_key(params, rng);
  hw::AcceleratorSim sim(params);
  std::uint64_t nonce = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.run_block(key, nonce++, 0));
  }
}
BENCHMARK(BM_AcceleratorBlock)->Arg(3)->Arg(4);

// ---- Kernel-backend comparison epilogue. ---------------------------------
// Times the three hot kernels (forward NTT, pointwise Barrett mul, lazy ksw
// inner product) on EVERY backend usable on this machine and splices the
// results into BENCH_hhe.json as "kernel_backends", so a regression in the
// SIMD paths is visible next to the end-to-end transcipher numbers. The ksw
// inner product is timed twice: one hot limb that fits in L2, and one whole
// rotation at the serving shape, whose key rows stream from beyond L2; the
// mod-down that closes each serving-shape switch gets its own row, and so
// does one whole double-hoisted affine layer (Bgv::diagonal_sum).

/// ns/op of `op`, timed until the sample is at least ~30 ms long.
template <typename F>
double time_ns_per_op(F&& op) {
  using Clock = std::chrono::steady_clock;
  op();  // warm caches and page in the tables
  std::size_t reps = 1;
  for (;;) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < reps; ++i) op();
    const double s = std::chrono::duration<double>(Clock::now() - t0).count();
    if (s >= 0.03) return s * 1e9 / static_cast<double>(reps);
    reps = s <= 0 ? reps * 16 : static_cast<std::size_t>(
                                    static_cast<double>(reps) * 0.05 / s) + 1;
  }
}

void run_kernel_backend_comparison() {
  const std::size_t n = 4096;
  const std::size_t nd = 16;  // digits in the ksw inner product
  const auto q = mod::ntt_prime_chain(1, 50, n)[0];
  const mod::Modulus m(q);
  const fhe::Ntt ntt(q, n);
  const auto tables = ntt.tables();
  Xoshiro256 rng(42);

  std::vector<std::uint64_t> a(n), b(n), lo(n), hi(n);
  for (auto& x : a) x = rng.below(q);
  for (auto& x : b) x = rng.below(q);
  std::vector<std::vector<std::uint64_t>> dig(nd), kb(nd), ka(nd);
  std::vector<const std::uint64_t*> dig_p(nd), kb_p(nd), ka_p(nd);
  for (std::size_t w = 0; w < nd; ++w) {
    dig[w].resize(n), kb[w].resize(n), ka[w].resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      dig[w][i] = rng.below(q), kb[w][i] = rng.below(q),
      ka[w][i] = rng.below(q);
    }
    dig_p[w] = dig[w].data(), kb_p[w] = kb[w].data(), ka_p[w] = ka[w].data();
  }

  struct Row {
    std::string kernel;
    std::vector<std::pair<std::string, double>> ns;  // backend -> ns/op
  };
  // Serving shape: one hoisted rotation at the top level of the
  // batched_test ring (n = 1024): ceil(L / alpha) digits over L + alpha
  // key-basis limbs, overwrite mode as in rotate_hoisted_into, cycling the
  // engine's distinct rotation keys as an affine layer does. Timed in ns per
  // rotation.
  const hhe::HheConfig serving = hhe::HheConfig::batched_test();
  const std::size_t rn = serving.bgv.n, chain = serving.bgv.num_primes;
  const std::size_t alpha = serving.bgv.special_primes();
  const std::size_t limbs = chain + alpha, rnd = (chain + alpha - 1) / alpha;
  const std::size_t nkeys =
      hhe::SimdBatchEngine::rotation_steps(serving).size();
  const auto primes = mod::bgv_prime_chain(limbs, serving.bgv.prime_bits, rn,
                                           serving.bgv.t);
  const std::vector<mod::Modulus> mods(primes.begin(), primes.end());
  std::vector<std::uint64_t> rdig(limbs * rnd * rn);
  std::vector<std::uint64_t> rkey(nkeys * limbs * 2 * rnd * rn);
  std::vector<std::uint64_t> rout(2 * limbs * rn);
  std::vector<const std::uint64_t*> rdig_p(limbs * rnd);
  std::vector<const std::uint64_t*> rkb_p(nkeys * limbs * rnd);
  std::vector<const std::uint64_t*> rka_p(nkeys * limbs * rnd);
  for (std::size_t l = 0; l < limbs; ++l) {
    for (std::size_t w = 0; w < rnd; ++w) {
      std::uint64_t* row = rdig.data() + (l * rnd + w) * rn;
      for (std::size_t i = 0; i < rn; ++i) row[i] = rng.below(primes[l]);
      rdig_p[l * rnd + w] = row;
      for (std::size_t k = 0; k < nkeys; ++k) {
        const std::size_t at = (k * limbs + l) * rnd + w;
        std::uint64_t* kbr = rkey.data() + 2 * at * rn;
        std::uint64_t* kar = kbr + rn;
        for (std::size_t i = 0; i < rn; ++i) {
          kbr[i] = rng.below(primes[l]), kar[i] = rng.below(primes[l]);
        }
        rkb_p[at] = kbr, rka_p[at] = kar;
      }
    }
  }
  const std::string shape = std::to_string(rn) + "_" + std::to_string(limbs) +
                            "x" + std::to_string(rnd);
  const std::string rotation_row =
      "ksw_rotation_" + shape + "_" + std::to_string(nkeys) + "keys";

  // The mod-down that follows each such inner product: both outputs'
  // special limbs leave NTT form and take their scale, then per chain limb
  // the fast conversion from the special limbs (alpha products), a forward
  // NTT, the subtraction and the P^{-1} scale — Bgv::key_switch's kernel
  // calls on random residues and constants.
  std::vector<std::unique_ptr<fhe::Ntt>> rntt;
  for (const auto p : primes) rntt.push_back(std::make_unique<fhe::Ntt>(p, rn));
  std::vector<std::uint64_t> rconst(limbs * (alpha + 2)), rconst_shoup;
  for (std::size_t l = 0; l < limbs; ++l) {
    for (std::size_t k = 0; k < alpha + 2; ++k) {
      const std::uint64_t w = rng.below(primes[l]);
      rconst[l * (alpha + 2) + k] = w;
      rconst_shoup.push_back(kernels::shoup_precompute(w, primes[l]));
    }
  }
  std::vector<std::uint64_t> racc(2 * limbs * rn), rdelta(rn), rtmp(rn);
  for (std::size_t j = 0; j < racc.size(); ++j) {
    racc[j] = rng.below(primes[(j / rn) % limbs]);
  }
  const std::string mod_down_row = "mod_down_" + std::to_string(rn) + "_" +
                                   std::to_string(chain) + "+" +
                                   std::to_string(alpha);
  const auto mod_down = [&](const kernels::Backend& bk) {
    for (std::size_t part = 0; part < 2; ++part) {
      std::uint64_t* acc = racc.data() + part * limbs * rn;
      for (std::size_t k = chain; k < limbs; ++k) {
        const std::size_t c = k * (alpha + 2);
        bk.intt_inplace(acc + k * rn, rntt[k]->tables());
        bk.mul_shoup(acc + k * rn, acc + k * rn, rn, rconst[c],
                     rconst_shoup[c], primes[k]);
      }
      const std::uint64_t* special = acc + chain * rn;
      for (std::size_t i = 0; i < chain; ++i) {
        const std::size_t c = i * (alpha + 2);
        bk.mul_shoup(rdelta.data(), special, rn, rconst[c], rconst_shoup[c],
                     primes[i]);
        for (std::size_t k = 1; k < alpha; ++k) {
          bk.mul_shoup(rtmp.data(), special + k * rn, rn, rconst[c + k],
                       rconst_shoup[c + k], primes[i]);
          bk.add(rdelta.data(), rtmp.data(), rn, mods[i]);
        }
        bk.ntt_inplace(rdelta.data(), rntt[i]->tables());
        bk.sub(acc + i * rn, rdelta.data(), rn, mods[i]);
        bk.mul_shoup(acc + i * rn, acc + i * rn, rn, rconst[c + alpha + 1],
                     rconst_shoup[c + alpha + 1], primes[i]);
      }
    }
  };

  // One affine layer at the serving shape: Bgv::diagonal_sum of a
  // top-level ciphertext over the engine's 2t - 1 hoisted steps into its two
  // accumulators (the in-tile one with a k = 0 term, the wrap one without),
  // with random slot diagonals, on a Bgv pinned to each backend.
  const std::size_t s = serving.pasta.state_size();
  const fhe::BatchEncoder encoder(rn, serving.bgv.t);
  std::array<std::vector<fhe::Plaintext>, 2> diags;
  for (std::size_t v = 0; v < 2; ++v) {
    diags[v].resize(s);
    for (std::size_t k = v; k < s; ++k) {
      std::vector<std::uint64_t> slots(rn);
      for (auto& x : slots) x = rng.below(serving.bgv.t);
      diags[v][k] = encoder.encode(slots);
    }
  }
  const std::string layer_row = "diagonal_sum_" + std::to_string(rn) + "_" +
                                std::to_string(chain) + "+" +
                                std::to_string(alpha);

  std::vector<Row> rows = {{"ntt_4096", {}},
                           {"pointwise_mul_4096", {}},
                           {"ksw_accumulate_4096x16", {}},
                           {rotation_row, {}},
                           {mod_down_row, {}},
                           {layer_row, {}}};
  for (const kernels::Backend* bk : kernels::available_backends()) {
    // NTT output is < q < 4q, so feeding it back in is a legal steady state.
    std::vector<std::uint64_t> x = a;
    rows[0].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              bk->ntt_inplace(x.data(), tables);
                            }));
    std::vector<std::uint64_t> d = a;
    rows[1].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              bk->mul(d.data(), b.data(), n, m);
                            }));
    std::vector<std::uint64_t> d0 = a, d1 = b;
    rows[2].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              bk->ksw_accumulate(d0.data(), d1.data(),
                                                 dig_p.data(), kb_p.data(),
                                                 ka_p.data(), nd, n, nullptr,
                                                 m);
                            }));
    std::size_t key = 0;
    rows[3].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              key = (key + 1) % nkeys;
                              for (std::size_t l = 0; l < limbs; ++l) {
                                const std::size_t at = (key * limbs + l) * rnd;
                                bk->ksw_accumulate(
                                    rout.data() + 2 * l * rn,
                                    rout.data() + (2 * l + 1) * rn,
                                    rdig_p.data() + l * rnd, rkb_p.data() + at,
                                    rka_p.data() + at, rnd, rn, nullptr,
                                    mods[l], false, false);
                              }
                            }));
    rows[4].ns.emplace_back(bk->name(),
                            time_ns_per_op([&] { mod_down(*bk); }));
    ExecContext exec(bk);
    const fhe::Bgv bgv(serving.bgv, &exec);
    const auto keys =
        hhe::SimdBatchEngine::make_shared_rotation_keys(serving, bgv);
    const fhe::Ciphertext ct = bgv.encrypt(diags[0][0]);
    fhe::Ciphertext sums[2];
    rows[5].ns.emplace_back(bk->name(), time_ns_per_op([&] {
                              bgv.diagonal_sum(ct, diags, *keys, sums);
                            }));
  }

  std::cout << "\nkernel backends (ns/op, speedup vs scalar):\n";
  std::ostringstream js;
  js << "  \"kernel_backends\": {\n    \"selected\": \""
     << kernels::select_backend().name() << "\"";
  for (const Row& row : rows) {
    std::cout << "  " << row.kernel << ":";
    js << ",\n    \"" << row.kernel << "\": {";
    const double scalar_ns = row.ns.front().second;
    for (std::size_t i = 0; i < row.ns.size(); ++i) {
      const auto& [name, ns] = row.ns[i];
      std::cout << "  " << name << "=" << static_cast<std::uint64_t>(ns);
      if (i > 0) {
        std::cout << " (" << std::fixed << std::setprecision(2)
                  << scalar_ns / ns << "x)" << std::defaultfloat;
      }
      js << (i > 0 ? ", " : "") << "\"" << name
         << "\": " << static_cast<std::uint64_t>(ns);
    }
    js << "}";
    std::cout << "\n";
  }
  js << "\n  }";

  // Splice into BENCH_hhe.json (idempotent: an existing kernel_backends
  // section is replaced; a missing file gets a minimal skeleton).
  std::string doc;
  {
    std::ifstream in("BENCH_hhe.json");
    if (in) {
      std::ostringstream ss;
      ss << in.rdbuf();
      doc = ss.str();
    }
  }
  const std::string marker = ",\n  \"kernel_backends\"";
  if (const auto pos = doc.find(marker); pos != std::string::npos) {
    doc.erase(pos);
  } else {
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
    if (!doc.empty() && doc.back() == '}') doc.pop_back();
    while (!doc.empty() && (doc.back() == '\n' || doc.back() == ' ')) {
      doc.pop_back();
    }
  }
  if (doc.empty()) doc = "{\n  \"config\": \"micro-only\"";
  std::ofstream out("BENCH_hhe.json");
  out << doc << ",\n" << js.str() << "\n}\n";
  std::cout << "(spliced kernel_backends into BENCH_hhe.json)\n";
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  // Cumulative ExecContext counters across every benchmark above — a quick
  // sanity check that the BGV benches hit the pool instead of the allocator.
  const poe::CounterSnapshot ops = poe::ExecContext::global().snapshot();
  std::cout << "exec counters (cumulative): " << ops.ntts() << " NTTs, "
            << ops.ct_ct_mul << " ct-ct mults, " << ops.key_switch
            << " key switches, " << ops.mod_switch << " mod switches, "
            << ops.encode << " encodes, pool " << ops.pool_hits << " hits / "
            << ops.pool_misses << " misses\n";
  run_kernel_backend_comparison();
  return 0;
}
