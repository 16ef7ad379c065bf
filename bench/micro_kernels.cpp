// Kernel microbenchmark suite — times the NN compute kernels this
// reproduction bottoms out in (GEMM, Conv2d fwd/bwd) against their retained
// naive oracles, plus the two protocol kernels whose quadratic cost the
// paper's Fig. 2a / Fig. 8 overhead model rests on (SecAgg mask expansion,
// FLAME pairwise cosine, gated bitwise against its per-pair loop), and the
// per-sample normal synthesis behind every minibatch (gated bitwise on the
// stored float casts against the glibc Box–Muller loop). Emits
// BENCH_kernels.json so the kernel perf trajectory is tracked.
//
//   ./micro_kernels            full timed run (writes BENCH_kernels.json)
//   ./micro_kernels --smoke    fast correctness-weighted pass for ctest:
//                              tiny rep budget, hard-fails if an optimized
//                              kernel diverges from its oracle beyond its
//                              per-precision tolerance (fp32 1e-4; bf16
//                              widens to its storage rounding — see
//                              docs/DEVELOPMENT.md "Mixed precision")
//
// GEMM shapes are the paper-relevant ones: the 256³ reference point, the
// MLP surrogate's forward/backward (eval batch 256, feature 32, hidden 64),
// the dense-backward dX shapes of the three perfbench workloads, and the
// im2col'd first layers of ResNet3 (CIFAR task) and CNN5 (Speech Commands
// task) at batch 32.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "backdoor/cosine.hpp"
#include "bench_common.hpp"
#include "nn/layer.hpp"
#include "nn/precision.hpp"
#include "nn/tensor.hpp"
#include "runtime/rng.hpp"
#include "runtime/timer.hpp"
#include "secagg/prg.hpp"
#include "util/ascii_plot.hpp"
#include "util/csv.hpp"
#include "util/format.hpp"

using namespace groupfel;

namespace {

struct KernelReport {
  std::string name;
  std::string shape;
  double flops = 0.0;         // per call
  double naive_gflops = 0.0;  // oracle implementation
  double opt_gflops = 0.0;    // shipped implementation
  double speedup = 0.0;
  double max_rel_err = 0.0;   // optimized vs oracle
  double tolerance = 1e-4;    // smoke gate for max_rel_err (per precision)
  std::string note;
};

std::atomic<bool> g_smoke{false};

/// Best-of-reps seconds per call; reps shrink to 1 under --smoke.
template <typename Fn>
double time_best(Fn&& fn, std::size_t reps) {
  if (g_smoke.load()) reps = 1;
  double best = 1e300;
  for (std::size_t r = 0; r < reps; ++r) {
    runtime::Timer t;
    fn();
    best = std::min(best, t.seconds());
  }
  return best;
}

void fill_random(nn::Tensor& t, runtime::Rng& rng) {
  for (auto& v : t.data()) v = static_cast<float>(rng.normal());
}

double max_rel_error(const nn::Tensor& got, const nn::Tensor& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double g = static_cast<double>(got[i]);
    const double w = static_cast<double>(want[i]);
    const double denom = std::max(1.0, std::abs(w));
    worst = std::max(worst, std::abs(g - w) / denom);
  }
  return worst;
}

/// Times one matmul variant (0 = A·B, 1 = A·Bᵀ, 2 = Aᵀ·B) against its
/// naive oracle. m/k/n are the logical GEMM dims (out is always [m, n]).
KernelReport bench_gemm(const std::string& name, int variant, std::size_t m,
                        std::size_t k, std::size_t n, std::size_t reps) {
  runtime::Rng rng(m * 1315423911u + k * 2654435761u + n);
  nn::Tensor a, b;
  if (variant == 2) {
    a = nn::Tensor({k, m});  // matmul_at: out[m, n] from a stored [k, m]
    b = nn::Tensor({k, n});
  } else if (variant == 1) {
    a = nn::Tensor({m, k});  // matmul_bt: b stored [n, k]
    b = nn::Tensor({n, k});
  } else {
    a = nn::Tensor({m, k});
    b = nn::Tensor({k, n});
  }
  nn::Tensor out({m, n}), ref({m, n});
  fill_random(a, rng);
  fill_random(b, rng);

  const auto opt = [&] {
    if (variant == 0) nn::matmul(a, b, out);
    if (variant == 1) nn::matmul_bt(a, b, out);
    if (variant == 2) nn::matmul_at(a, b, out);
  };
  const auto naive = [&] {
    if (variant == 0) nn::matmul_naive(a, b, ref);
    if (variant == 1) nn::matmul_bt_naive(a, b, ref);
    if (variant == 2) nn::matmul_at_naive(a, b, ref);
  };

  KernelReport r;
  r.name = name;
  r.shape = "m" + std::to_string(m) + "_k" + std::to_string(k) + "_n" +
            std::to_string(n);
  r.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
            static_cast<double>(n);
  opt();  // warms the workspace arena; result reused for the error check
  naive();
  r.max_rel_err = max_rel_error(out, ref);
  r.opt_gflops = r.flops / time_best(opt, reps) * 1e-9;
  r.naive_gflops = r.flops / time_best(naive, reps) * 1e-9;
  r.speedup = r.opt_gflops / r.naive_gflops;
  return r;
}

/// Times a bf16-storage GEMM against the fp32 BLOCKED kernel (not the naive
/// oracle): both operands are value-rounded to bf16 once, accumulation stays
/// fp32, so max_rel_err is pure storage-rounding error. The tolerance follows
/// bf16's rounding envelope at this shape class (docs/DEVELOPMENT.md "Mixed
/// precision"): with unit-normal operands the worst absolute error grows
/// like sqrt(k) * 2^-(significand bits), so at k = 256 the max over entries
/// with |ref| near the denominator floor of 1 reaches ~1.5e-1 for bf16's
/// 8-bit significand; the gate sits above with margin.
KernelReport bench_gemm_bf16(const std::string& name, std::size_t m,
                             std::size_t k, std::size_t n, std::size_t reps) {
  runtime::Rng rng(m * 1315423911u + k * 2654435761u + n);
  nn::Tensor a({m, k}), b({k, n});
  nn::Tensor out({m, n}), ref({m, n});
  fill_random(a, rng);
  fill_random(b, rng);

  const auto opt = [&] {
    nn::matmul(a, b, out, nn::StoragePrecision::kBf16);
  };
  const auto fp32 = [&] { nn::matmul(a, b, ref); };

  KernelReport r;
  r.name = name;
  r.shape = "m" + std::to_string(m) + "_k" + std::to_string(k) + "_n" +
            std::to_string(n);
  r.flops = 2.0 * static_cast<double>(m) * static_cast<double>(k) *
            static_cast<double>(n);
  r.tolerance = 2.5e-1;
  opt();  // warms the workspace arena; result reused for the error check
  fp32();
  r.max_rel_err = max_rel_error(out, ref);
  r.opt_gflops = r.flops / time_best(opt, reps) * 1e-9;
  r.naive_gflops = r.flops / time_best(fp32, reps) * 1e-9;
  r.speedup = r.opt_gflops / r.naive_gflops;
  r.note = "baseline is the fp32 blocked kernel; bf16 storage, fp32 "
           "accumulation";
  return r;
}

/// Conv2d forward/backward (im2col path) vs the conv_reference oracles.
std::pair<KernelReport, KernelReport> bench_conv(
    const std::string& name, std::size_t batch, std::size_t cin,
    std::size_t cout, std::size_t side_h, std::size_t side_w, std::size_t k,
    std::size_t pad, std::size_t reps) {
  runtime::Rng rng(cin * 977 + cout * 31 + side_h);
  nn::Conv2d conv(cin, cout, k, pad);
  conv.init(rng);
  nn::Tensor weight, bias;
  int visit = 0;
  conv.for_each_param([&](nn::Tensor& p, nn::Tensor&) {
    (visit++ == 0 ? weight : bias) = p;
  });

  nn::Tensor x({batch, cin, side_h, side_w});
  fill_random(x, rng);
  const std::size_t ho = side_h + 2 * pad - k + 1;
  const std::size_t wo = side_w + 2 * pad - k + 1;
  nn::Tensor gout({batch, cout, ho, wo});
  fill_random(gout, rng);

  const std::string shape =
      "n" + std::to_string(batch) + "_c" + std::to_string(cin) + "x" +
      std::to_string(side_h) + "x" + std::to_string(side_w) + "_k" +
      std::to_string(k) + "_p" + std::to_string(pad) + "_cout" +
      std::to_string(cout);
  const double mac = static_cast<double>(batch) * static_cast<double>(cout) *
                     static_cast<double>(ho * wo) *
                     static_cast<double>(cin * k * k);

  KernelReport fwd;
  fwd.name = name + "_fwd";
  fwd.shape = shape;
  fwd.flops = 2.0 * mac;
  nn::Tensor got = conv.forward(x, /*train=*/false);
  const nn::Tensor want = nn::conv_reference_forward(x, weight, bias, pad);
  fwd.max_rel_err = max_rel_error(got, want);
  fwd.opt_gflops =
      fwd.flops / time_best([&] { got = conv.forward(x, false); }, reps) *
      1e-9;
  fwd.naive_gflops =
      fwd.flops /
      time_best(
          [&] { (void)nn::conv_reference_forward(x, weight, bias, pad); },
          reps) *
      1e-9;
  fwd.speedup = fwd.opt_gflops / fwd.naive_gflops;

  KernelReport bwd;
  bwd.name = name + "_bwd";
  bwd.shape = shape;
  // dW (2·mac) + dX (2·mac) + the dY gather / bias reduction (small); count
  // the two GEMM-sized products. Same convention for the oracle.
  bwd.flops = 4.0 * mac;
  nn::Tensor ref_gw({cout, cin, k, k}), ref_gb({1, cout});
  const nn::Tensor ref_gin =
      nn::conv_reference_backward(x, weight, gout, pad, ref_gw, ref_gb);
  (void)conv.forward(x, true);
  const nn::Tensor got_gin = conv.backward(gout);
  bwd.max_rel_err = max_rel_error(got_gin, ref_gin);
  bwd.opt_gflops = bwd.flops / time_best(
                                   [&] {
                                     (void)conv.forward(x, true);
                                     (void)conv.backward(gout);
                                   },
                                   reps) *
                   1e-9;
  bwd.naive_gflops =
      bwd.flops /
      time_best(
          [&] {
            (void)nn::conv_reference_backward(x, weight, gout, pad, ref_gw,
                                              ref_gb);
          },
          reps) *
      1e-9;
  bwd.speedup = bwd.opt_gflops / bwd.naive_gflops;
  bwd.note = "optimized timing includes the paired forward (activation cache)";
  return {fwd, bwd};
}

/// SecAgg mask expansion — protocol kernel, single implementation; tracked
/// so a PRG regression shows up in the perf trajectory.
KernelReport bench_secagg_mask(std::size_t n, std::size_t reps) {
  KernelReport r;
  r.name = "secagg_mask_expand";
  r.shape = "n" + std::to_string(n);
  r.flops = static_cast<double>(n);  // unit: field elements, not FLOPs
  std::uint64_t sink = 0;
  const double secs = time_best(
      [&] {
        secagg::ChaChaPrg prg(0x5eedull, 0x90511ull);
        const auto mask = prg.mask(n);
        sink ^= mask.back().value();
      },
      reps);
  if (sink == 0xdeadbeef) std::cout << "";  // keep the loop observable
  r.naive_gflops = r.opt_gflops = r.flops / secs * 1e-9;
  r.speedup = 1.0;
  r.note = "single implementation; value is Gelem/s of field elements";
  return r;
}

/// Naive oracle for the FLAME row: the per-pair loop the Gram kernel
/// replaced (both norms recomputed per pair, three serial double sums).
std::vector<std::vector<double>> naive_pairwise_cosine_distance(
    const std::vector<std::vector<float>>& updates) {
  const std::size_t n = updates.size();
  std::vector<std::vector<double>> dist(n, std::vector<double>(n, 0.0));
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) {
      double dot = 0.0, na = 0.0, nb = 0.0;
      for (std::size_t k = 0; k < updates[i].size(); ++k) {
        const double x = updates[i][k], y = updates[j][k];
        dot += x * y;
        na += x * x;
        nb += y * y;
      }
      const double sim = (na == 0.0 || nb == 0.0)
                             ? 0.0
                             : dot / (std::sqrt(na) * std::sqrt(nb));
      dist[i][j] = dist[j][i] = 1.0 - sim;
    }
  return dist;
}

/// FLAME pairwise cosine matrix — the O(|g|²·d) group operation. The Gram
/// kernel must match the per-pair oracle bit for bit (tolerance 0).
KernelReport bench_flame_cosine(std::size_t clients, std::size_t dim,
                                std::size_t reps) {
  runtime::Rng rng(17);
  std::vector<std::vector<float>> updates(clients,
                                          std::vector<float>(dim));
  for (auto& u : updates)
    for (auto& v : u) v = static_cast<float>(rng.normal());
  KernelReport r;
  r.name = "flame_pairwise_cosine";
  r.shape = "g" + std::to_string(clients) + "_d" + std::to_string(dim);
  r.flops = 2.0 * static_cast<double>(clients) *
            static_cast<double>(clients) * static_cast<double>(dim);
  r.tolerance = 0.0;
  std::vector<std::vector<double>> got, want;
  const auto opt = [&] { got = backdoor::pairwise_cosine_distance(updates); };
  const auto naive = [&] { want = naive_pairwise_cosine_distance(updates); };
  opt();
  naive();
  for (std::size_t i = 0; i < clients; ++i)
    for (std::size_t j = 0; j < clients; ++j)
      if (std::memcmp(&got[i][j], &want[i][j], sizeof(double)) != 0)
        r.max_rel_err = std::max(
            {r.max_rel_err, std::abs(got[i][j] - want[i][j]) /
                                std::max(1.0, std::abs(want[i][j])),
             std::numeric_limits<double>::min()});
  r.opt_gflops = r.flops / time_best(opt, reps) * 1e-9;
  r.naive_gflops = r.flops / time_best(naive, reps) * 1e-9;
  r.speedup = r.opt_gflops / r.naive_gflops;
  r.note = "Gram kernel vs per-pair loop; bitwise";
  return r;
}

/// The scalar Box–Muller through glibc that Rng::normal() was before its
/// transform became the libm-free lane kernel: same draws, same caching.
class LibmNormal {
 public:
  explicit LibmNormal(std::uint64_t seed) : rng_(seed) {}
  double next() {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    double u1 = rng_.next_double();
    while (u1 <= 1e-300) u1 = rng_.next_double();
    const double u2 = rng_.next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    const double theta = 2.0 * M_PI * u2;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

 private:
  runtime::Rng rng_;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

/// Per-sample noise synthesis: `samples` draws of `dim` normals, as
/// data::synthesize_sample makes them, through Rng::normals_into against
/// the glibc loop. The float casts at the spec's noise scale (what a
/// sample stores) must match bit for bit (tolerance 0). "flops" counts
/// normals, so the rates are 1e9 normals/s.
KernelReport bench_synth_normals(std::size_t dim, double noise_scale,
                                 std::size_t samples, std::size_t reps) {
  KernelReport r;
  r.name = "synth_normals";
  r.shape = "d" + std::to_string(dim);
  r.flops = static_cast<double>(dim * samples);
  r.tolerance = 0.0;
  std::vector<double> got(dim * samples), want(dim * samples);
  const auto opt = [&] {
    runtime::Rng rng(23);
    for (std::size_t i = 0; i < samples; ++i)
      rng.normals_into(std::span<double>(got).subspan(i * dim, dim));
  };
  const auto naive = [&] {
    LibmNormal libm(23);
    for (auto& v : want) v = libm.next();
  };
  opt();
  naive();
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto g = static_cast<float>(got[i] * noise_scale);
    const auto w = static_cast<float>(want[i] * noise_scale);
    if (std::memcmp(&g, &w, sizeof(float)) != 0) {
      const auto gd = static_cast<double>(g);
      const auto wd = static_cast<double>(w);
      r.max_rel_err =
          std::max({r.max_rel_err,
                    std::abs(gd - wd) / std::max(1.0, std::abs(wd)),
                    std::numeric_limits<double>::min()});
    }
  }
  r.opt_gflops = r.flops / time_best(opt, reps) * 1e-9;
  r.naive_gflops = r.flops / time_best(naive, reps) * 1e-9;
  r.speedup = r.opt_gflops / r.naive_gflops;
  r.note = "normals_into vs glibc Box-Muller; float casts bitwise; Gnormal/s";
  return r;
}

void write_json(const std::vector<KernelReport>& reports,
                const std::string& path) {
  std::ofstream out(path);
  out << "{\n  \"schema\": \"groupfel-kernel-bench-v1\",\n  \"context\": "
      << bench::hardware_context_json() << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    out << "    {\"name\": \"" << r.name << "\", \"shape\": \"" << r.shape
        << "\", \"flops\": " << util::format_double(r.flops)
        << ", \"naive_gflops\": " << util::format_double(r.naive_gflops)
        << ", \"opt_gflops\": " << util::format_double(r.opt_gflops)
        << ", \"speedup\": " << util::format_double(r.speedup)
        << ", \"max_rel_err\": " << util::format_double(r.max_rel_err)
        << ", \"tolerance\": " << util::format_double(r.tolerance);
    if (!r.note.empty()) out << ", \"note\": \"" << r.note << "\"";
    out << "}";
    if (i + 1 < reports.size()) out << ",";
    out << "\n";
  }
  out << "  ]\n}\n";
  std::cout << "wrote " << path << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::string(argv[i]) == "--smoke") g_smoke = true;

  std::vector<KernelReport> reports;

  // GEMM: the 256³ reference point for all three transpose variants.
  reports.push_back(bench_gemm("gemm", 0, 256, 256, 256, 7));
  reports.push_back(bench_gemm("gemm_bt", 1, 256, 256, 256, 7));
  reports.push_back(bench_gemm("gemm_at", 2, 256, 256, 256, 7));
  // bf16-storage GEMM at the same reference point, measured against the
  // fp32 blocked kernel (the fp32-vs-bf16 rows the perf gate reads), plus
  // the MLP eval shape where the skinny-dispatch fallback engages.
  reports.push_back(bench_gemm_bf16("gemm_bf16", 256, 256, 256, 7));
  reports.push_back(bench_gemm_bf16("gemm_bf16_mlp_eval", 256, 32, 64, 51));
  // MLP surrogate shapes: train batch 8 and eval batch 256 over the CIFAR
  // feature width (32 → hidden 64).
  reports.push_back(bench_gemm("gemm_mlp_train", 0, 8, 32, 64, 51));
  reports.push_back(bench_gemm("gemm_mlp_eval", 0, 256, 32, 64, 51));
  // Dense-backward dX = dY·Wᵀ at the training shapes (m = batch, k = layer
  // outputs, n = layer inputs): a round_mlp hidden layer, the fleet_1m
  // last layer (batch 32, 10 classes, hidden 32) and the round_secure last
  // layer (35 classes, hidden 64).
  reports.push_back(bench_gemm("gemm_bt_dx", 1, 8, 64, 64, 51));
  reports.push_back(bench_gemm("gemm_bt_dx", 1, 32, 10, 32, 51));
  reports.push_back(bench_gemm("gemm_bt_dx", 1, 8, 35, 64, 51));
  // im2col'd conv layers at batch 32: ResNet3 layer 1 (CIFAR 3×16×16,
  // cout 8) and CNN5 layer 2 (post-pool 8×16×8, cout 16).
  reports.push_back(bench_gemm("gemm_resnet3_l1", 0, 8, 27, 32 * 16 * 16, 21));
  reports.push_back(bench_gemm("gemm_cnn5_l2", 0, 16, 72, 32 * 16 * 8, 21));

  // Conv2d vs reference oracle.
  {
    auto [fwd, bwd] = bench_conv("conv_resnet3_l1", 32, 3, 8, 16, 16, 3, 1,
                                 g_smoke ? 1 : 5);
    reports.push_back(fwd);
    reports.push_back(bwd);
  }
  {
    auto [fwd, bwd] = bench_conv("conv_cnn5_l1", 32, 1, 8, 32, 16, 3, 1,
                                 g_smoke ? 1 : 5);
    reports.push_back(fwd);
    reports.push_back(bwd);
  }

  // Protocol kernels (Fig. 2a / Fig. 8 cost drivers).
  reports.push_back(bench_secagg_mask(g_smoke ? 4096 : 65536, 9));
  reports.push_back(bench_flame_cosine(16, g_smoke ? 2048 : 16384, 9));
  // The fleet_1m shape: groups of ~100 clients, the 2442-parameter MLP.
  reports.push_back(bench_flame_cosine(100, 2442, 9));
  // Sample synthesis: the CIFAR-like (d32, noise 1.4) and SC-like (d40,
  // noise 1.8) feature vectors.
  reports.push_back(bench_synth_normals(32, 1.4, g_smoke ? 512 : 16384, 9));
  reports.push_back(bench_synth_normals(40, 1.8, g_smoke ? 512 : 16384, 9));

  std::cout << util::ascii_table(
      "Kernel microbenchmarks (naive vs optimized)",
      {"kernel", "shape", "naive GF/s", "opt GF/s", "speedup", "max rel err"},
      [&] {
        std::vector<std::vector<std::string>> rows;
        for (const auto& r : reports)
          rows.push_back({r.name, r.shape, util::fixed(r.naive_gflops, 2),
                          util::fixed(r.opt_gflops, 2),
                          util::fixed(r.speedup, 2),
                          util::format_double(r.max_rel_err)});
        return rows;
      }());

  write_json(reports, "BENCH_kernels.json");

  // Correctness gate (the ctest smoke target relies on this): each row
  // carries its own tolerance — 1e-4 for fp32 kernels, widened for the
  // bf16-storage rows to their documented rounding envelope.
  bool ok = true;
  for (const auto& r : reports) {
    if (r.max_rel_err > r.tolerance) {
      std::cerr << "FAIL: " << r.name << " diverges from oracle (max rel err "
                << r.max_rel_err << " > tolerance " << r.tolerance << ")\n";
      ok = false;
    }
  }
  if (!ok) return 1;
  std::cout << (g_smoke ? "smoke ok\n" : "done\n");
  return 0;
}
