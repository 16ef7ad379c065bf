#include "nn/gemm.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "runtime/thread_pool.hpp"
#include "runtime/workspace.hpp"
#include "util/half.hpp"

// The AMX-BF16 tile path needs the tile intrinsics plus the Linux
// per-process permission syscall (XTILEDATA is opt-in); it is only compiled
// when -march=native advertises the units on the build host and is still
// gated at runtime by amx_available() below.
#if defined(__AMX_BF16__) && defined(__AMX_TILE__) && defined(__linux__) && \
    (defined(__GNUC__) || defined(__clang__))
#define GROUPFEL_GEMM_AMX 1
#include <immintrin.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

namespace groupfel::nn::detail {
namespace {

// Register tile. MR*NR accumulators must fit the architectural register
// file with headroom for the A broadcast and B loads: 6×16 is 6 zmm under
// AVX-512, 12 ymm under AVX2 — comfortable on both.
constexpr std::size_t MR = 6;
constexpr std::size_t NR = 16;

// Cache blocking: the packed A panel (Mc×Kc ≈ 96 KiB) targets L2, each
// Kc×NR sliver of packed B (16 KiB) targets L1, and Nc bounds the packed B
// block (Kc×Nc ≈ 2 MiB) so it stays inside LLC.
constexpr std::size_t MC = 96;   // multiple of MR
constexpr std::size_t KC = 256;
constexpr std::size_t NC = 2048;  // multiple of NR

inline std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

// Autovectorizers are unreliable on the scalar form of this kernel: GCC 12
// at -O3 -march=native tiles it with 128-bit vectors (observed via objdump),
// leaving 4× throughput on the table on AVX-512 hardware. GNU vector
// extensions pin the layout instead — one NR-lane vector per C row, one
// broadcast-FMA per (row, p) — and legalize on any target the compiler
// supports, so no runtime dispatch is needed.
#if defined(__GNUC__) || defined(__clang__)
#define GROUPFEL_GEMM_VECTOR_EXT 1
typedef float v16f __attribute__((vector_size(NR * sizeof(float))));
// Unaligned, aliasing-safe view used for all loads/stores through float*.
typedef float v16f_u __attribute__((vector_size(NR * sizeof(float)),
                                    aligned(alignof(float)), may_alias));
// 8×8 transpose tiles (transpose_pad).
typedef float v8f __attribute__((vector_size(8 * sizeof(float))));
typedef float v8f_u __attribute__((vector_size(8 * sizeof(float)),
                                   aligned(alignof(float)), may_alias));
static_assert(MR == 6, "kernels below spell out one accumulator per row");
#endif

#ifdef GROUPFEL_GEMM_VECTOR_EXT

/// Full MR×NR tile: C += packed-A-sliver · packed-B-sliver over kc.
void kernel_full(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, float* __restrict c,
                 std::size_t ldc) {
  v16f acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (std::size_t p = 0; p < kc; ++p) {
    const v16f bv = *reinterpret_cast<const v16f_u*>(b + p * NR);
    const float* __restrict ap = a + p * MR;
    acc0 += ap[0] * bv;
    acc1 += ap[1] * bv;
    acc2 += ap[2] * bv;
    acc3 += ap[3] * bv;
    acc4 += ap[4] * bv;
    acc5 += ap[5] * bv;
  }
  const v16f acc[MR] = {acc0, acc1, acc2, acc3, acc4, acc5};
  for (std::size_t i = 0; i < MR; ++i) {
    v16f_u* crow = reinterpret_cast<v16f_u*>(c + i * ldc);
    *crow = static_cast<v16f>(*crow) + acc[i];
  }
}

/// Edge tile: same full-width compute (packs are zero-padded), then a
/// partial store through a stack staging tile.
void kernel_edge(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, std::size_t mr, std::size_t nr,
                 float* __restrict c, std::size_t ldc) {
  v16f acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (std::size_t p = 0; p < kc; ++p) {
    const v16f bv = *reinterpret_cast<const v16f_u*>(b + p * NR);
    const float* __restrict ap = a + p * MR;
    acc0 += ap[0] * bv;
    acc1 += ap[1] * bv;
    acc2 += ap[2] * bv;
    acc3 += ap[3] * bv;
    acc4 += ap[4] * bv;
    acc5 += ap[5] * bv;
  }
  const v16f acc[MR] = {acc0, acc1, acc2, acc3, acc4, acc5};
  for (std::size_t i = 0; i < mr; ++i) {
    const float* arow = reinterpret_cast<const float*>(&acc[i]);
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += arow[j];
  }
}

#else  // portable scalar fallback (non-GNU compilers)

void kernel_full(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, float* __restrict c,
                 std::size_t ldc) {
  float acc[MR][NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict ap = a + p * MR;
    const float* __restrict bp = b + p * NR;
    for (std::size_t i = 0; i < MR; ++i)
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += ap[i] * bp[j];
  }
  for (std::size_t i = 0; i < MR; ++i)
    for (std::size_t j = 0; j < NR; ++j) c[i * ldc + j] += acc[i][j];
}

void kernel_edge(std::size_t kc, const float* __restrict a,
                 const float* __restrict b, std::size_t mr, std::size_t nr,
                 float* __restrict c, std::size_t ldc) {
  float acc[MR][NR] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const float* __restrict ap = a + p * MR;
    const float* __restrict bp = b + p * NR;
    for (std::size_t i = 0; i < MR; ++i)
      for (std::size_t j = 0; j < NR; ++j) acc[i][j] += ap[i] * bp[j];
  }
  for (std::size_t i = 0; i < mr; ++i)
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += acc[i][j];
}

#endif  // GROUPFEL_GEMM_VECTOR_EXT

/// Packs A[i0 .. i0+mc, p0 .. p0+kc] into MR-row slivers, zero-padding the
/// ragged last sliver so the kernel never branches on mr.
void pack_a(MatView a, std::size_t i0, std::size_t mc, std::size_t p0,
            std::size_t kc, float* __restrict dst) {
  for (std::size_t i = 0; i < mc; i += MR) {
    const std::size_t mr = std::min(MR, mc - i);
    const float* src = a.p + (i0 + i) * a.rs + p0 * a.cs;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* col = src + p * a.cs;
      std::size_t ii = 0;
      for (; ii < mr; ++ii) dst[ii] = col[ii * a.rs];
      for (; ii < MR; ++ii) dst[ii] = 0.0f;
      dst += MR;
    }
  }
}

/// Packs B[p0 .. p0+kc, j0 .. j0+nc] into NR-column slivers (zero-padded).
void pack_b(MatView b, std::size_t p0, std::size_t kc, std::size_t j0,
            std::size_t nc, float* __restrict dst) {
  for (std::size_t j = 0; j < nc; j += NR) {
    const std::size_t nr = std::min(NR, nc - j);
    const float* src = b.p + p0 * b.rs + (j0 + j) * b.cs;
    if (b.cs == 1) {
      for (std::size_t p = 0; p < kc; ++p) {
        std::memcpy(dst, src + p * b.rs, nr * sizeof(float));
        for (std::size_t jj = nr; jj < NR; ++jj) dst[jj] = 0.0f;
        dst += NR;
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const float* row = src + p * b.rs;
        std::size_t jj = 0;
        for (; jj < nr; ++jj) dst[jj] = row[jj * b.cs];
        for (; jj < NR; ++jj) dst[jj] = 0.0f;
        dst += NR;
      }
    }
  }
}

/// One Mc×kc row panel of C against the packed B block.
void run_row_panel(MatView a, std::size_t ic, std::size_t mc, std::size_t pc,
                   std::size_t kc, const float* b_pack, std::size_t jc,
                   std::size_t nc, float* c, std::size_t ldc) {
  auto a_buf =
      runtime::WorkspaceArena::local().acquire(ceil_div(mc, MR) * MR * kc);
  pack_a(a, ic, mc, pc, kc, a_buf.data());
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const float* bp = b_pack + (jr / NR) * (NR * kc);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const float* ap = a_buf.data() + (ir / MR) * (MR * kc);
      float* cp = c + (ic + ir) * ldc + jc + jr;
      if (mr == MR && nr == NR)
        kernel_full(kc, ap, bp, cp, ldc);
      else
        kernel_edge(kc, ap, bp, mr, nr, cp, ldc);
    }
  }
}

#ifdef GROUPFEL_GEMM_VECTOR_EXT

/// With C this skinny (m ≤ 2·MR) the packed path wastes most of every MR-row
/// tile and re-packs B for almost no reuse, so keep every C row's
/// accumulators live in registers and stream B rows directly instead.
constexpr std::size_t kSkinnyRows = 2 * MR;

/// Below this many multiply-adds packing never amortizes even for taller C
/// (the Aᵀ·B weight-gradient shapes: m = in_features, k = batch), so route
/// them through the register-tiled skinny kernel as well.
constexpr std::size_t kSkinnyFlops = 128 * 1024;

/// One tile of up to MT ≤ 4 C rows across the full width n. B must be
/// row-contiguous; A may be strided. MT is a template parameter so the
/// accumulator array has constant bounds and stays in registers. `tail`
/// (row stride `trs`) holds B's last n%NR columns zero-padded to NR lanes
/// (nullptr when NR divides n): the ragged edge computes vectorized instead
/// of one scalar column at a time.
template <std::size_t MT>
void skinny_tile(std::size_t n, std::size_t k, const float* __restrict arow,
                 std::size_t ars, std::size_t acs, const float* __restrict bp,
                 std::size_t brs, const float* __restrict tail,
                 std::size_t trs, float* __restrict c) {
  std::size_t j = 0;
  for (; j + 4 * NR <= n; j += 4 * NR) {
    v16f acc[MT][4] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const float* brow = bp + p * brs + j;
      v16f bv[4];
      for (std::size_t q = 0; q < 4; ++q)
        bv[q] = *reinterpret_cast<const v16f_u*>(brow + q * NR);
      for (std::size_t i = 0; i < MT; ++i) {
        const float av = arow[i * ars + p * acs];
        for (std::size_t q = 0; q < 4; ++q) acc[i][q] += av * bv[q];
      }
    }
    for (std::size_t i = 0; i < MT; ++i)
      for (std::size_t q = 0; q < 4; ++q) {
        v16f_u* cp = reinterpret_cast<v16f_u*>(c + i * n + j + q * NR);
        *cp = static_cast<v16f>(*cp) + acc[i][q];
      }
  }
  for (; j + NR <= n; j += NR) {
    v16f acc[MT] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const v16f bv = *reinterpret_cast<const v16f_u*>(bp + p * brs + j);
      for (std::size_t i = 0; i < MT; ++i)
        acc[i] += arow[i * ars + p * acs] * bv;
    }
    for (std::size_t i = 0; i < MT; ++i) {
      v16f_u* cp = reinterpret_cast<v16f_u*>(c + i * n + j);
      *cp = static_cast<v16f>(*cp) + acc[i];
    }
  }
  if (j < n) {
    const std::size_t nt = n - j;
    v16f acc[MT] = {};
    for (std::size_t p = 0; p < k; ++p) {
      const v16f bv = *reinterpret_cast<const v16f_u*>(tail + p * trs);
      for (std::size_t i = 0; i < MT; ++i)
        acc[i] += arow[i * ars + p * acs] * bv;
    }
    for (std::size_t i = 0; i < MT; ++i) {
      const float* lanes = reinterpret_cast<const float*>(&acc[i]);
      for (std::size_t jj = 0; jj < nt; ++jj) c[i * n + j + jj] += lanes[jj];
    }
  }
}

/// Every C row tile of the skinny kernel over row-contiguous B (b.cs == 1)
/// and its staged ragged tail.
void skinny_rows(std::size_t m, std::size_t n, std::size_t k, MatView a,
                 MatView b, const float* tail, std::size_t trs, float* c) {
  for (std::size_t i0 = 0; i0 < m; i0 += 4) {
    const float* arow = a.p + i0 * a.rs;
    float* crow = c + i0 * n;
    switch (std::min<std::size_t>(4, m - i0)) {
      case 4:
        skinny_tile<4>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, trs, crow);
        break;
      case 3:
        skinny_tile<3>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, trs, crow);
        break;
      case 2:
        skinny_tile<2>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, trs, crow);
        break;
      default:
        skinny_tile<1>(n, k, arow, a.rs, a.cs, b.p, b.rs, tail, trs, crow);
        break;
    }
  }
}

/// Skinny A·B over row-contiguous B (b.cs == 1).
void gemm_skinny(std::size_t m, std::size_t n, std::size_t k, MatView a,
                 MatView b, float* c) {
  // Stage the ragged last columns once; every row tile then runs fully
  // vectorized (the narrow final layers, n = num_classes, hit this hard).
  runtime::WorkspaceArena::Buffer tail_buf;
  const float* tail = nullptr;
  const std::size_t nt = n % NR;
  if (nt != 0) {
    tail_buf = runtime::WorkspaceArena::local().acquire(k * NR);
    float* tp = tail_buf.data();
    const float* src = b.p + (n - nt);
    for (std::size_t p = 0; p < k; ++p, tp += NR) {
      std::size_t jj = 0;
      for (; jj < nt; ++jj) tp[jj] = src[p * b.rs + jj];
      for (; jj < NR; ++jj) tp[jj] = 0.0f;
    }
    tail = tail_buf.data();
  }
  skinny_rows(m, n, k, a, b, tail, NR, c);
}

/// Skinny A·Bᵀ (b.rs == 1: B's columns are contiguous, the dX shape of
/// dense backward). Bᵀ is staged once into a row-major k×ldp panel, ldp
/// padded to an NR multiple with zero columns, so the skinny kernel runs on
/// it as on any row-contiguous B and reads its ragged tail in place.
void gemm_skinny_bt(std::size_t m, std::size_t n, std::size_t k, MatView a,
                    MatView b, float* c) {
  const std::size_t ldp = ceil_div(n, NR) * NR;
  auto panel = runtime::WorkspaceArena::local().acquire(k * ldp);
  transpose_pad(b.p, n, k, b.cs, panel.data(), ldp);
  const float* tail = n % NR != 0 ? panel.data() + (n - n % NR) : nullptr;
  skinny_rows(m, n, k, a, {panel.data(), ldp, 1}, tail, ldp, c);
}

#endif  // GROUPFEL_GEMM_VECTOR_EXT

/// Below this many multiply-adds the packing setup costs more than it
/// saves; fall back to a plain register-blocked loop on the strided views.
constexpr std::size_t kSmallFlops = 16 * 1024;

void gemm_small(std::size_t m, std::size_t n, std::size_t k, MatView a,
                MatView b, float* __restrict c) {
  for (std::size_t i = 0; i < m; ++i) {
    float* crow = c + i * n;
    for (std::size_t p = 0; p < k; ++p) {
      const float av = a.p[i * a.rs + p * a.cs];
      const float* brow = b.p + p * b.rs;
      if (b.cs == 1) {
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      } else {
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j * b.cs];
      }
    }
  }
}

/// Row-panel parallelism pays off once a panel's work dwarfs the dispatch
/// cost; 2 MFLOP per task keeps small training-shape GEMMs inline.
constexpr std::size_t kParallelFlops = 1u << 21;

/// Shared accumulate-into-C body for fp32 storage. Every kernel path adds
/// onto whatever C already holds, so gemm() zero-fills first and gemm_acc()
/// does not.
void gemm_impl_fp32(std::size_t m, std::size_t n, std::size_t k, MatView a,
                    MatView b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef GROUPFEL_GEMM_VECTOR_EXT
  if (b.cs == 1 && (m <= kSkinnyRows || m * n * k <= kSkinnyFlops)) {
    gemm_skinny(m, n, k, a, b, c);
    return;
  }
  if (a.cs == 1 && b.rs == 1 && m * n * k <= kSkinnyFlops) {
    gemm_skinny_bt(m, n, k, a, b, c);
    return;
  }
#endif
  if (m * n * k <= kSmallFlops) {
    gemm_small(m, n, k, a, b, c);
    return;
  }

  auto& pool = runtime::ThreadPool::global();
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      auto b_buf = runtime::WorkspaceArena::local().acquire(
          ceil_div(nc, NR) * NR * kc);
      pack_b(b, pc, kc, jc, nc, b_buf.data());

      const std::size_t panels = ceil_div(m, MC);
      const bool parallel = pool.size() > 1 && panels > 1 &&
                            m * nc * kc >= kParallelFlops * panels;
      if (parallel) {
        // Disjoint C row panels + fixed per-element accumulation order keep
        // the result independent of the pool size.
        pool.parallel_for(panels, [&](std::size_t pi) {
          const std::size_t ic = pi * MC;
          run_row_panel(a, ic, std::min(MC, m - ic), pc, kc, b_buf.data(),
                        jc, nc, c, n);
        });
      } else {
        for (std::size_t ic = 0; ic < m; ic += MC)
          run_row_panel(a, ic, std::min(MC, m - ic), pc, kc, b_buf.data(),
                        jc, nc, c, n);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// bf16 storage paths (bf16 operand packs, fp32 accumulation).
//
// Value semantics for every shape and every sub-path: each operand element
// passes through bf16 exactly once (RNE) on its way into a pack or an
// operand copy, and all arithmetic downstream is fp32. The blocked path
// stores B packs (and, on AMX, A packs) half-width so the micro-kernel
// streams half the bytes; shapes the fp32 dispatch routes
// around the blocked path instead run the fp32 kernels over storage-rounded
// dense operand copies. Dispatch depends only on shape and process-constant
// hardware facts, never on pool size, so per-precision bit-identity across
// pool sizes carries over from the fp32 path.
// ---------------------------------------------------------------------------

/// Dense row-major bf16-rounded copy of a strided view.
void round_dense(MatView src, std::size_t rows, std::size_t cols,
                 float* __restrict dst) {
  for (std::size_t r = 0; r < rows; ++r) {
    const float* row = src.p + r * src.rs;
    for (std::size_t c = 0; c < cols; ++c)
      dst[r * cols + c] = util::half::round_bf16(row[c * src.cs]);
  }
}

/// Small/skinny shapes: round both operands into dense copies once, then
/// reuse the fp32 kernels unchanged.
void gemm_rounded_copy(std::size_t m, std::size_t n, std::size_t k, MatView a,
                       MatView b, float* c) {
  auto& arena = runtime::WorkspaceArena::local();
  auto a_buf = arena.acquire(m * k);
  auto b_buf = arena.acquire(k * n);
  round_dense(a, m, k, a_buf.data());
  round_dense(b, k, n, b_buf.data());
  gemm_impl_fp32(m, n, k, MatView{a_buf.data(), k, 1},
                 MatView{b_buf.data(), n, 1}, c);
}

#ifdef GROUPFEL_GEMM_VECTOR_EXT

namespace hv = util::half::simd;

/// Full MR×NR tile over a bf16 packed B sliver. The A sliver holds fp32
/// values pre-rounded through bf16 at pack time: the A panel is L2-resident
/// and reused across every column sliver, so widening it costs no streaming
/// bandwidth, while B — the operand the kernel actually streams — is read
/// half-width and expanded in registers.
void kernel_full_h(std::size_t kc, const float* __restrict a,
                   const std::uint16_t* __restrict b, float* __restrict c,
                   std::size_t ldc) {
  hv::v16f acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (std::size_t p = 0; p < kc; ++p) {
    hv::v16f bv;
    hv::expand_bf16(b + p * NR, bv);
    const float* __restrict ap = a + p * MR;
    acc0 += ap[0] * bv;
    acc1 += ap[1] * bv;
    acc2 += ap[2] * bv;
    acc3 += ap[3] * bv;
    acc4 += ap[4] * bv;
    acc5 += ap[5] * bv;
  }
  const hv::v16f acc[MR] = {acc0, acc1, acc2, acc3, acc4, acc5};
  for (std::size_t i = 0; i < MR; ++i) {
    hv::v16f_u* crow = reinterpret_cast<hv::v16f_u*>(c + i * ldc);
    *crow = static_cast<hv::v16f>(*crow) + acc[i];
  }
}

void kernel_edge_h(std::size_t kc, const float* __restrict a,
                   const std::uint16_t* __restrict b, std::size_t mr,
                   std::size_t nr, float* __restrict c, std::size_t ldc) {
  hv::v16f acc0{}, acc1{}, acc2{}, acc3{}, acc4{}, acc5{};
  for (std::size_t p = 0; p < kc; ++p) {
    hv::v16f bv;
    hv::expand_bf16(b + p * NR, bv);
    const float* __restrict ap = a + p * MR;
    acc0 += ap[0] * bv;
    acc1 += ap[1] * bv;
    acc2 += ap[2] * bv;
    acc3 += ap[3] * bv;
    acc4 += ap[4] * bv;
    acc5 += ap[5] * bv;
  }
  const hv::v16f acc[MR] = {acc0, acc1, acc2, acc3, acc4, acc5};
  for (std::size_t i = 0; i < mr; ++i) {
    const float* arow = reinterpret_cast<const float*>(&acc[i]);
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += arow[j];
  }
}

/// pack_a with each element rounded through bf16 (stored fp32 — see
/// kernel_full_h for why A stays widened).
void pack_a_rounded(MatView a, std::size_t i0, std::size_t mc, std::size_t p0,
                    std::size_t kc, float* __restrict dst) {
  for (std::size_t i = 0; i < mc; i += MR) {
    const std::size_t mr = std::min(MR, mc - i);
    const float* src = a.p + (i0 + i) * a.rs + p0 * a.cs;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* col = src + p * a.cs;
      std::size_t ii = 0;
      for (; ii < mr; ++ii) dst[ii] = util::half::round_bf16(col[ii * a.rs]);
      for (; ii < MR; ++ii) dst[ii] = 0.0f;
      dst += MR;
    }
  }
}

/// pack_b converting to bf16 bits (zero-padded like the fp32 pack).
void pack_b_h(MatView b, std::size_t p0, std::size_t kc, std::size_t j0,
              std::size_t nc, std::uint16_t* __restrict dst) {
  for (std::size_t j = 0; j < nc; j += NR) {
    const std::size_t nr = std::min(NR, nc - j);
    const float* src = b.p + p0 * b.rs + (j0 + j) * b.cs;
    for (std::size_t p = 0; p < kc; ++p) {
      const float* row = src + p * b.rs;
      std::size_t jj = 0;
      for (; jj < nr; ++jj) dst[jj] = util::half::to_bf16_bits(row[jj * b.cs]);
      for (; jj < NR; ++jj) dst[jj] = 0;
      dst += NR;
    }
  }
}

void run_row_panel_h(MatView a, std::size_t ic, std::size_t mc,
                     std::size_t pc, std::size_t kc,
                     const std::uint16_t* b_pack, std::size_t jc,
                     std::size_t nc, float* c, std::size_t ldc) {
  auto a_buf =
      runtime::WorkspaceArena::local().acquire(ceil_div(mc, MR) * MR * kc);
  pack_a_rounded(a, ic, mc, pc, kc, a_buf.data());
  for (std::size_t jr = 0; jr < nc; jr += NR) {
    const std::size_t nr = std::min(NR, nc - jr);
    const std::uint16_t* bp = b_pack + (jr / NR) * (NR * kc);
    for (std::size_t ir = 0; ir < mc; ir += MR) {
      const std::size_t mr = std::min(MR, mc - ir);
      const float* ap = a_buf.data() + (ir / MR) * (MR * kc);
      float* cp = c + (ic + ir) * ldc + jc + jr;
      if (mr == MR && nr == NR)
        kernel_full_h(kc, ap, bp, cp, ldc);
      else
        kernel_edge_h(kc, ap, bp, mr, nr, cp, ldc);
    }
  }
}

/// Blocked bf16-storage path: identical blocking and parallel split to the
/// fp32 path, with B packed half-width and expanded in registers.
void gemm_blocked_half(std::size_t m, std::size_t n, std::size_t k, MatView a,
                       MatView b, float* c) {
  auto& pool = runtime::ThreadPool::global();
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const std::size_t b_u16 = ceil_div(nc, NR) * NR * kc;
      auto b_buf = runtime::WorkspaceArena::local().acquire(
          ceil_div(b_u16, 2) + 1);
      auto* b_half = reinterpret_cast<std::uint16_t*>(b_buf.data());
      pack_b_h(b, pc, kc, jc, nc, b_half);

      const std::size_t panels = ceil_div(m, MC);
      const bool parallel = pool.size() > 1 && panels > 1 &&
                            m * nc * kc >= kParallelFlops * panels;
      if (parallel) {
        pool.parallel_for(panels, [&](std::size_t pi) {
          const std::size_t ic = pi * MC;
          run_row_panel_h(a, ic, std::min(MC, m - ic), pc, kc, b_half,
                              jc, nc, c, n);
        });
      } else {
        for (std::size_t ic = 0; ic < m; ic += MC)
          run_row_panel_h(a, ic, std::min(MC, m - ic), pc, kc, b_half,
                              jc, nc, c, n);
      }
    }
  }
}

#endif  // GROUPFEL_GEMM_VECTOR_EXT

#ifdef GROUPFEL_GEMM_AMX

// AMX-BF16 tile path. The tile units multiply 16×32 bf16 A-tiles against
// pair-interleaved 16×16-dword B-tiles into 16×16 fp32 accumulators
// (TDPBF16PS) — measured ~9x the fp32 blocked path at 256³ on the bench
// host. Both operands are stored genuinely half-width in the packs.
constexpr std::size_t TM = 16;  // tile rows
constexpr std::size_t TK = 32;  // bf16 values per tile row (16 dword pairs)
constexpr std::size_t TN = 16;  // tile columns (fp32 accumulator width)
constexpr std::size_t RB = 2 * TM;  // C row-block height (2×2 tile kernel)

struct alignas(64) TileConfig {
  std::uint8_t palette = 1;
  std::uint8_t start_row = 0;
  std::uint8_t reserved[14] = {};
  std::uint16_t colsb[16] = {};
  std::uint8_t rows[16] = {};
};

/// XTILEDATA is opt-in per process on Linux; the syscall result is a
/// process-constant, so dispatch never varies at runtime (determinism).
bool amx_available() {
  static const bool ok = [] {
    constexpr long kArchReqXcompPerm = 0x1023;
    constexpr long kXfeatureXtiledata = 18;
    return syscall(SYS_arch_prctl, kArchReqXcompPerm, kXfeatureXtiledata) == 0;
  }();
  return ok;
}

/// Every thread touching tile registers needs its own palette config; pool
/// workers are long-lived so configure lazily once per thread.
void amx_configure_thread() {
  thread_local const bool configured = [] {
    TileConfig cfg;
    for (int t = 0; t < 8; ++t) {
      cfg.colsb[t] = 64;  // 16 dwords / 32 bf16 per row
      cfg.rows[t] = TM;
    }
    _tile_loadconfig(&cfg);
    return true;
  }();
  (void)configured;
}

/// Packs A rows [ic, ic+mb) × k [pc, pc+kc) into per-k-block pairs of
/// 16×32 bf16 tiles: dst[((kb*2 + t)*TM + r)*TK + c], zero-padded.
void amx_pack_a(MatView a, std::size_t ic, std::size_t mb, std::size_t pc,
                std::size_t kc, std::size_t nkb, std::uint16_t* dst) {
  std::memset(dst, 0, nkb * 2 * TM * TK * sizeof(std::uint16_t));
  for (std::size_t r = 0; r < mb; ++r) {
    const float* src = a.p + (ic + r) * a.rs + pc * a.cs;
    const std::size_t t = r / TM, rr = r % TM;
    for (std::size_t kb = 0; kb < nkb; ++kb) {
      std::uint16_t* drow = dst + ((kb * 2 + t) * TM + rr) * TK;
      const std::size_t p0 = kb * TK;
      const std::size_t pe = std::min(kc, p0 + TK);
      if (a.cs == 1) {
        util::half::encode_bf16({src + p0, pe - p0}, drow);
      } else {
        for (std::size_t p = p0; p < pe; ++p)
          drow[p - p0] = util::half::to_bf16_bits(src[p * a.cs]);
      }
    }
  }
}

/// Packs B k [pc, pc+kc) × cols [jc, jc+nc) into 16-column panels of
/// pair-interleaved tiles: dst[((pj*nkb + kb)*TM + pr)*TN + j] holds the
/// (k = 2·pr, k = 2·pr+1) bf16 pair for column j of panel pj.
void amx_pack_b(MatView b, std::size_t pc, std::size_t kc, std::size_t jc,
                std::size_t nc, std::size_t nkb, std::uint32_t* dst) {
  const std::size_t npj = ceil_div(nc, TN);
  std::memset(dst, 0, npj * nkb * TM * TN * sizeof(std::uint32_t));
  for (std::size_t pj = 0; pj < npj; ++pj) {
    const std::size_t j0 = pj * TN;
    const std::size_t jn = std::min(TN, nc - j0);
    for (std::size_t p = 0; p < kc; p += 2) {
      const float* lo = b.p + (pc + p) * b.rs + (jc + j0) * b.cs;
      const bool has_hi = p + 1 < kc;
      std::uint32_t* drow =
          dst + ((pj * nkb + p / TK) * TM + (p % TK) / 2) * TN;
      for (std::size_t j = 0; j < jn; ++j)
        drow[j] = util::half::pair_bf16(
            lo[j * b.cs], has_hi ? lo[b.rs + j * b.cs] : 0.0f);
    }
  }
}

/// One 32×32 C block: 2×2 fp32 accumulator tiles (0-3), A row-panel tiles
/// (4-5), B column-panel tiles (6-7). Full interior blocks accumulate
/// directly in tile registers (load C, dp, store); edge blocks stage
/// through a zeroed 32×32 scratch and add the valid region.
void amx_block_2x2(const std::uint16_t* ap, const std::uint32_t* bp0,
                   const std::uint32_t* bp1, std::size_t nkb, std::size_t mb,
                   std::size_t jn, float* c, std::size_t ldc) {
  const bool full = mb == RB && jn == 2 * TN;
  const int stride_c = static_cast<int>(ldc * sizeof(float));
  if (full) {
    _tile_loadd(0, c, stride_c);
    _tile_loadd(1, c + TN, stride_c);
    _tile_loadd(2, c + TM * ldc, stride_c);
    _tile_loadd(3, c + TM * ldc + TN, stride_c);
  } else {
    _tile_zero(0);
    _tile_zero(1);
    _tile_zero(2);
    _tile_zero(3);
  }
  for (std::size_t kb = 0; kb < nkb; ++kb) {
    _tile_loadd(4, ap + (kb * 2 + 0) * TM * TK, 64);
    _tile_loadd(6, bp0 + kb * TM * TN, 64);
    _tile_dpbf16ps(0, 4, 6);
    if (bp1 != nullptr) {
      _tile_loadd(7, bp1 + kb * TM * TN, 64);
      _tile_dpbf16ps(1, 4, 7);
    }
    _tile_loadd(5, ap + (kb * 2 + 1) * TM * TK, 64);
    _tile_dpbf16ps(2, 5, 6);
    if (bp1 != nullptr) _tile_dpbf16ps(3, 5, 7);
  }
  if (full) {
    _tile_stored(0, c, stride_c);
    _tile_stored(1, c + TN, stride_c);
    _tile_stored(2, c + TM * ldc, stride_c);
    _tile_stored(3, c + TM * ldc + TN, stride_c);
    return;
  }
  alignas(64) float scratch[RB * 2 * TN];
  _tile_stored(0, scratch, 2 * TN * sizeof(float));
  _tile_stored(2, scratch + TM * 2 * TN, 2 * TN * sizeof(float));
  if (bp1 != nullptr) {
    _tile_stored(1, scratch + TN, 2 * TN * sizeof(float));
    _tile_stored(3, scratch + TM * 2 * TN + TN, 2 * TN * sizeof(float));
  }
  for (std::size_t i = 0; i < mb; ++i)
    for (std::size_t j = 0; j < jn; ++j)
      c[i * ldc + j] += scratch[i * 2 * TN + j];
}

/// Blocked bf16 path on AMX tiles: same NC/KC cache blocking as the fp32
/// path, row-parallel over disjoint 32-row C blocks (fixed accumulation
/// order per block, so pool size never changes results).
void gemm_blocked_amx(std::size_t m, std::size_t n, std::size_t k, MatView a,
                      MatView b, float* c) {
  auto& pool = runtime::ThreadPool::global();
  for (std::size_t jc = 0; jc < n; jc += NC) {
    const std::size_t nc = std::min(NC, n - jc);
    for (std::size_t pc = 0; pc < k; pc += KC) {
      const std::size_t kc = std::min(KC, k - pc);
      const std::size_t nkb = ceil_div(kc, TK);
      const std::size_t npj = ceil_div(nc, TN);
      auto b_buf =
          runtime::WorkspaceArena::local().acquire(npj * nkb * TM * TN);
      auto* b_pack = reinterpret_cast<std::uint32_t*>(b_buf.data());
      amx_pack_b(b, pc, kc, jc, nc, nkb, b_pack);

      const std::size_t blocks = ceil_div(m, RB);
      const bool parallel = pool.size() > 1 && blocks > 1 &&
                            m * nc * kc >= kParallelFlops * blocks;
      auto run_block = [&](std::size_t bi) {
        amx_configure_thread();
        const std::size_t ic = bi * RB;
        const std::size_t mb = std::min(RB, m - ic);
        auto a_buf = runtime::WorkspaceArena::local().acquire(nkb * TM * TK);
        auto* a_pack = reinterpret_cast<std::uint16_t*>(a_buf.data());
        amx_pack_a(a, ic, mb, pc, kc, nkb, a_pack);
        for (std::size_t j0 = 0; j0 < nc; j0 += 2 * TN) {
          const std::size_t pj = j0 / TN;
          const std::size_t jn = std::min(2 * TN, nc - j0);
          const std::uint32_t* bp0 = b_pack + pj * nkb * TM * TN;
          const std::uint32_t* bp1 =
              jn > TN ? b_pack + (pj + 1) * nkb * TM * TN : nullptr;
          amx_block_2x2(a_pack, bp0, bp1, nkb, mb, jn,
                        c + ic * n + jc + j0, n);
        }
      };
      if (parallel) {
        pool.parallel_for(blocks, run_block);
      } else {
        for (std::size_t bi = 0; bi < blocks; ++bi) run_block(bi);
      }
    }
  }
}

#endif  // GROUPFEL_GEMM_AMX

/// bf16-storage dispatch. Shapes the fp32 dispatch keeps out of the blocked
/// path (register-tiled skinny and small fast paths) compute on
/// storage-rounded operand copies instead — identical value semantics, and
/// the copies are tiny exactly where those paths apply.
void gemm_impl_bf16(std::size_t m, std::size_t n, std::size_t k, MatView a,
                    MatView b, float* c) {
  if (m == 0 || n == 0 || k == 0) return;
#ifdef GROUPFEL_GEMM_VECTOR_EXT
  if (m <= kSkinnyRows || m * n * k <= kSkinnyFlops) {
    gemm_rounded_copy(m, n, k, a, b, c);
    return;
  }
#ifdef GROUPFEL_GEMM_AMX
  if (amx_available()) {
    gemm_blocked_amx(m, n, k, a, b, c);
    return;
  }
#endif
  gemm_blocked_half(m, n, k, a, b, c);
#else   // no GNU vector extensions: rounded copies + portable fp32 kernels
  gemm_rounded_copy(m, n, k, a, b, c);
#endif  // GROUPFEL_GEMM_VECTOR_EXT
}

void gemm_impl(std::size_t m, std::size_t n, std::size_t k, MatView a,
               MatView b, float* c, StoragePrecision sp) {
  if (sp == StoragePrecision::kFp32)
    gemm_impl_fp32(m, n, k, a, b, c);
  else
    gemm_impl_bf16(m, n, k, a, b, c);
}

}  // namespace

void gemm(std::size_t m, std::size_t n, std::size_t k, MatView a, MatView b,
          float* c, StoragePrecision sp) {
  std::fill_n(c, m * n, 0.0f);
  gemm_impl(m, n, k, a, b, c, sp);
}

void gemm_acc(std::size_t m, std::size_t n, std::size_t k, MatView a,
              MatView b, float* c, StoragePrecision sp) {
  gemm_impl(m, n, k, a, b, c, sp);
}

void transpose_pad(const float* __restrict src, std::size_t rows,
                   std::size_t cols, std::size_t lds, float* __restrict dst,
                   std::size_t ldd) {
#ifdef GROUPFEL_GEMM_VECTOR_EXT
  // 8×8 tiles in registers: eight row loads, three rounds of two-input
  // shuffles (interleave row pairs, then pairs of pairs, then halves),
  // eight column stores.
  const std::size_t rb = rows - rows % 8, cb = cols - cols % 8;
  for (std::size_t r0 = 0; r0 < rb; r0 += 8)
    for (std::size_t c0 = 0; c0 < cb; c0 += 8) {
      v8f r[8], s[8], t[8];
      for (std::size_t i = 0; i < 8; ++i)
        r[i] = *reinterpret_cast<const v8f_u*>(src + (r0 + i) * lds + c0);
      for (std::size_t i = 0; i < 8; i += 2) {
        s[i] = __builtin_shufflevector(r[i], r[i + 1], 0, 8, 2, 10, 4, 12, 6,
                                       14);
        s[i + 1] = __builtin_shufflevector(r[i], r[i + 1], 1, 9, 3, 11, 5,
                                           13, 7, 15);
      }
      for (std::size_t i = 0; i < 8; i += 4)
        for (std::size_t q = 0; q < 2; ++q) {
          t[i + q] = __builtin_shufflevector(s[i + q], s[i + q + 2], 0, 1, 8,
                                             9, 4, 5, 12, 13);
          t[i + q + 2] = __builtin_shufflevector(s[i + q], s[i + q + 2], 2,
                                                 3, 10, 11, 6, 7, 14, 15);
        }
      for (std::size_t q = 0; q < 4; ++q) {
        *reinterpret_cast<v8f_u*>(dst + (c0 + q) * ldd + r0) =
            __builtin_shufflevector(t[q], t[q + 4], 0, 1, 2, 3, 8, 9, 10, 11);
        *reinterpret_cast<v8f_u*>(dst + (c0 + q + 4) * ldd + r0) =
            __builtin_shufflevector(t[q], t[q + 4], 4, 5, 6, 7, 12, 13, 14,
                                    15);
      }
    }
#else
  const std::size_t rb = 0, cb = 0;
#endif
  // Ragged right columns of the tiled rows, then the ragged bottom rows.
  for (std::size_t r = 0; r < rb; ++r)
    for (std::size_t c = cb; c < cols; ++c)
      dst[c * ldd + r] = src[r * lds + c];
  for (std::size_t r = rb; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c)
      dst[c * ldd + r] = src[r * lds + c];
  for (std::size_t c = 0; c < cols; ++c)
    std::fill(dst + c * ldd + rows, dst + (c + 1) * ldd, 0.0f);
}

}  // namespace groupfel::nn::detail
