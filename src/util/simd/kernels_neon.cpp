// NEON kernels (2-wide doubles, aarch64). NEON is baseline on aarch64 so no
// extra -m flags; -ffp-contract=off matters here because GCC contracts
// mul+add into fused ops by default on this target.
//
// Only the stencil kernels are vectorized: aarch64 integer NEON lacks the
// 64-bit variable shifts and gathers the codec loops lean on, and the
// stencils dominate the paper's workloads. The rest inherit scalar pointers.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/util/simd/kernels_impl.hpp"

#if defined(__aarch64__)
#include <arm_neon.h>

namespace greenvis::util::simd {
namespace {

void jacobi2d_row_neon(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n, double tr,
                       double inv_diag, std::size_t ib, std::size_t ie) {
  const float64x2_t vtr = vdupq_n_f64(tr);
  const float64x2_t vinv = vdupq_n_f64(inv_diag);
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const float64x2_t w = vld1q_f64(row + i - 1);
    const float64x2_t e = vld1q_f64(row + i + 1);
    const float64x2_t s = vld1q_f64(row_s + i);
    const float64x2_t n = vld1q_f64(row_n + i);
    const float64x2_t sum = vaddq_f64(vaddq_f64(vaddq_f64(w, e), s), n);
    const float64x2_t r = vaddq_f64(vld1q_f64(rhs + i), vmulq_f64(vtr, sum));
    vst1q_f64(out + i, vmulq_f64(r, vinv));
  }
  for (; i < ie; ++i) {
    out[i] = detail::jacobi2d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], tr, inv_diag);
  }
}

void jacobi3d_row_neon(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n,
                       const double* row_d, const double* row_u, double r,
                       double inv_diag, std::size_t ib, std::size_t ie) {
  const float64x2_t vr = vdupq_n_f64(r);
  const float64x2_t vinv = vdupq_n_f64(inv_diag);
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    float64x2_t sum = vaddq_f64(vld1q_f64(row + i - 1), vld1q_f64(row + i + 1));
    sum = vaddq_f64(sum, vld1q_f64(row_s + i));
    sum = vaddq_f64(sum, vld1q_f64(row_n + i));
    sum = vaddq_f64(sum, vld1q_f64(row_d + i));
    sum = vaddq_f64(sum, vld1q_f64(row_u + i));
    const float64x2_t acc =
        vaddq_f64(vld1q_f64(rhs + i), vmulq_f64(vr, sum));
    vst1q_f64(out + i, vmulq_f64(acc, vinv));
  }
  for (; i < ie; ++i) {
    out[i] = detail::jacobi3d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], row_d[i], row_u[i], r, inv_diag);
  }
}

double defect2d_row_neon(const double* rhs, const double* row,
                         const double* row_s, const double* row_n, double tr,
                         std::size_t ib, std::size_t ie, double acc) {
  const float64x2_t vtr = vdupq_n_f64(tr);
  const float64x2_t vdiag = vdupq_n_f64(1.0 + 4.0 * tr);
  float64x2_t vmax = vdupq_n_f64(0.0);
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const float64x2_t c = vld1q_f64(row + i);
    const float64x2_t sum = vaddq_f64(
        vaddq_f64(vaddq_f64(vld1q_f64(row + i - 1), vld1q_f64(row + i + 1)),
                  vld1q_f64(row_s + i)),
        vld1q_f64(row_n + i));
    const float64x2_t defect = vsubq_f64(
        vsubq_f64(vmulq_f64(vdiag, c), vmulq_f64(vtr, sum)),
        vld1q_f64(rhs + i));
    // std::max(acc, cand) ignores NaN candidates; vmaxq would propagate
    // them, so select explicitly: cand > acc ? cand : acc.
    const float64x2_t cand = vabsq_f64(defect);
    vmax = vbslq_f64(vcgtq_f64(cand, vmax), cand, vmax);
  }
  acc = std::max(acc, vgetq_lane_f64(vmax, 0));
  acc = std::max(acc, vgetq_lane_f64(vmax, 1));
  for (; i < ie; ++i) {
    const double defect = detail::defect2d_cell(
        rhs[i], row[i], row[i - 1], row[i + 1], row_s[i], row_n[i], tr);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

double defect3d_row_neon(const double* rhs, const double* row,
                         const double* row_s, const double* row_n,
                         const double* row_d, const double* row_u, double r,
                         std::size_t ib, std::size_t ie, double acc) {
  const float64x2_t vr = vdupq_n_f64(r);
  const float64x2_t vdiag = vdupq_n_f64(1.0 + 6.0 * r);
  float64x2_t vmax = vdupq_n_f64(0.0);
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const float64x2_t c = vld1q_f64(row + i);
    float64x2_t sum =
        vaddq_f64(vld1q_f64(row + i - 1), vld1q_f64(row + i + 1));
    sum = vaddq_f64(sum, vld1q_f64(row_s + i));
    sum = vaddq_f64(sum, vld1q_f64(row_n + i));
    sum = vaddq_f64(sum, vld1q_f64(row_d + i));
    sum = vaddq_f64(sum, vld1q_f64(row_u + i));
    const float64x2_t defect = vsubq_f64(
        vsubq_f64(vmulq_f64(vdiag, c), vmulq_f64(vr, sum)),
        vld1q_f64(rhs + i));
    const float64x2_t cand = vabsq_f64(defect);
    vmax = vbslq_f64(vcgtq_f64(cand, vmax), cand, vmax);
  }
  acc = std::max(acc, vgetq_lane_f64(vmax, 0));
  acc = std::max(acc, vgetq_lane_f64(vmax, 1));
  for (; i < ie; ++i) {
    const double defect =
        detail::defect3d_cell(rhs[i], row[i], row[i - 1], row[i + 1],
                              row_s[i], row_n[i], row_d[i], row_u[i], r);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

bool composite_block_neon(const double* vs, std::size_t n,
                          const CompositeTf* tf, double step, double early,
                          double* acc) {
  // Same structure as the SSE2 row: vector lanes carry the clamped
  // intensities and skip whole transparent (all v <= lo) blocks; the alpha
  // chain stays sequential through the shared reference op. NaN lanes take
  // the reference op (vcle/vceq are false on NaN; vmin/vmax would disagree
  // with the branch clamp there).
  std::size_t s = 0;
  if (tf->hi > tf->lo) {
    const bool zero_transparent =
        detail::composite_zero_opacity(*tf, step) <= 0.0;
    const float64x2_t vlo = vdupq_n_f64(tf->lo);
    const float64x2_t vrange = vdupq_n_f64(tf->hi - tf->lo);
    const float64x2_t vone = vdupq_n_f64(1.0);
    const float64x2_t vzero = vdupq_n_f64(0.0);
    const auto both = [](uint64x2_t m) {
      return vgetq_lane_u64(m, 0) != 0 && vgetq_lane_u64(m, 1) != 0;
    };
    double ts[2];
    for (; s + 2 <= n; s += 2) {
      const float64x2_t v = vld1q_f64(vs + s);
      if (zero_transparent && both(vcleq_f64(v, vlo))) {
        continue;
      }
      if (!both(vceqq_f64(v, v))) {
        for (std::size_t k = s; k < s + 2; ++k) {
          if (detail::composite_one(detail::composite_intensity(vs[k], *tf),
                                    *tf, step, early, acc)) {
            return true;
          }
        }
        continue;
      }
      const float64x2_t raw = vdivq_f64(vsubq_f64(v, vlo), vrange);
      vst1q_f64(ts, vmaxq_f64(vminq_f64(raw, vone), vzero));
      for (double t : ts) {
        if (detail::composite_one(t, *tf, step, early, acc)) {
          return true;
        }
      }
    }
  }
  for (; s < n; ++s) {
    if (detail::composite_one(detail::composite_intensity(vs[s], *tf), *tf,
                              step, early, acc)) {
      return true;
    }
  }
  return false;
}

}  // namespace

const KernelTable* neon_table() {
  static const KernelTable t = [] {
    KernelTable k = scalar_table();
    k.path = IsaPath::kNeon;
    k.jacobi2d_row = &jacobi2d_row_neon;
    k.jacobi3d_row = &jacobi3d_row_neon;
    k.defect2d_row = &defect2d_row_neon;
    k.defect3d_row = &defect3d_row_neon;
    k.composite_block = &composite_block_neon;
    // pseudocolor_row keeps the scalar row: a NEON version needs an aarch64
    // host to verify its bit identity against the reference before it ships.
    return k;
  }();
  return &t;
}

}  // namespace greenvis::util::simd

#else  // !__aarch64__

namespace greenvis::util::simd {
const KernelTable* neon_table() { return nullptr; }
}  // namespace greenvis::util::simd

#endif
