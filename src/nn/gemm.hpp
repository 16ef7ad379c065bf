// Blocked, packed single-precision GEMM — the compute core behind
// matmul/matmul_bt/matmul_at and the im2col convolution path.
//
// Scheme (GotoBLAS/BLIS): C is computed in Nc-wide column blocks; for each
// Kc-deep slice, B is packed into Kc×NR column slivers (streamed from L1)
// and A into MR-row slivers of an Mc×Kc panel (resident in L2). The
// MR×NR micro-kernel is plain C with constant trip counts so the
// autovectorizer lifts it to the widest SIMD the build allows (this
// translation unit is compiled -O3 -ffast-math and, when supported,
// -march=native — see src/CMakeLists.txt).
//
// Transposed operands are handled by the pack routines via strided views,
// so A·B, A·Bᵀ, and Aᵀ·B share one kernel. Row panels of C are split over
// runtime::ThreadPool for large shapes; each panel's accumulation order is
// fixed, so results are bit-identical for any pool size.
//
// fp32 dispatch, by shape (the training GEMMs are small):
//   - row-contiguous B (b.cs == 1) with m ≤ 12 or m·n·k ≤ 128K: the skinny
//     kernel keeps up to 4 C rows × n in registers and broadcast-FMAs A
//     elements against streamed B rows (forward and Aᵀ·B weight gradients);
//   - A·Bᵀ (a.cs == 1, b.rs == 1) with m·n·k ≤ 128K, the dX = dY·Wᵀ shape of
//     dense backward: B is staged once into a row-major panel by an 8×8
//     register-blocked transpose (transpose_pad), padded to a 16-column
//     multiple, and runs on the same skinny kernel;
//   - other shapes under 16K multiply-adds: a plain strided loop;
//   - everything else: the blocked, packed path above.
//
// Mixed precision: gemm/gemm_acc take a StoragePrecision selector. For bf16
// the pack step rounds each operand element once (RNE, via util/half.hpp)
// and stores it half-width, so the blocked micro-kernel streams half the
// bytes while still accumulating in fp32. On hosts with AMX-BF16 the bf16
// path runs on tile units (TDPBF16PS). Shapes the fp32 dispatch would route
// around the blocked path instead compute on storage-rounded operand
// copies, so the value semantics — "every operand element passed through
// bf16 exactly once" — hold on every shape, and results remain
// bit-identical across pool sizes per precision.
#pragma once

#include <cstddef>

#include "nn/precision.hpp"

namespace groupfel::nn::detail {

/// Strided read-only matrix view: element (r, c) = p[r * rs + c * cs].
struct MatView {
  const float* p;
  std::size_t rs;  ///< row stride
  std::size_t cs;  ///< column stride
};

/// C (row-major m×n, leading dimension n) = A(m×k) · B(k×n), overwriting C.
/// A and B are strided views, so callers express transposes as views of the
/// untransposed storage. `sp` selects the operand storage width (fp32
/// default; accumulation is always fp32).
void gemm(std::size_t m, std::size_t n, std::size_t k, MatView a, MatView b,
          float* c, StoragePrecision sp = StoragePrecision::kFp32);

/// C += A·B — identical dispatch to gemm() minus the zero-fill. Lets weight
/// gradients accumulate across micro-batches directly into the gradient
/// tensor, with no staging buffer and no extra elementwise add pass.
void gemm_acc(std::size_t m, std::size_t n, std::size_t k, MatView a,
              MatView b, float* c,
              StoragePrecision sp = StoragePrecision::kFp32);

/// dst[c·ldd + r] = src[r·lds + c] for the rows×cols matrix at src, and
/// zero for rows ≤ r < ldd, so each of the cols rows of dst is ldd wide.
/// Register-blocked in 8×8 tiles where GNU vector extensions are available.
/// Stages Bᵀ for the A·Bᵀ dispatch; exported for its test.
void transpose_pad(const float* src, std::size_t rows, std::size_t cols,
                   std::size_t lds, float* dst, std::size_t ldd);

}  // namespace groupfel::nn::detail
