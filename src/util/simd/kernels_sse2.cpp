// SSE2 kernels (2-wide doubles). SSE2 is the x86-64 baseline, so this TU
// needs no extra -m flags — only -ffp-contract=off to pin the arithmetic.
//
// SSE2 has no gathers, no variable 64-bit shifts, and no 64-bit compare, so
// only the stencil rows, the codec prescan/quantize/zigzag, the compositing
// intensities and the pseudocolor colour stage are vectorized here; the
// remaining entries inherit the scalar pointers.
// Missing 64-bit ops are emulated:
//  - int32 -> int64 sign extension: unpacklo with the srai(31) sign word
//    (cvtepi32_epi64 is SSE4.1);
//  - the >>63 zigzag sign mask: srai_epi32 on the high halves, then
//    shuffle_epi32 to replicate them across each 64-bit lane.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>

#include "src/util/simd/kernels_impl.hpp"

#if defined(__SSE2__) || (defined(_M_X64) && !defined(_M_ARM64EC))
#include <emmintrin.h>

namespace greenvis::util::simd {
namespace {

void jacobi2d_row_sse2(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n, double tr,
                       double inv_diag, std::size_t ib, std::size_t ie) {
  const __m128d vtr = _mm_set1_pd(tr);
  const __m128d vinv = _mm_set1_pd(inv_diag);
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const __m128d w = _mm_loadu_pd(row + i - 1);
    const __m128d e = _mm_loadu_pd(row + i + 1);
    const __m128d s = _mm_loadu_pd(row_s + i);
    const __m128d n = _mm_loadu_pd(row_n + i);
    const __m128d sum = _mm_add_pd(_mm_add_pd(_mm_add_pd(w, e), s), n);
    const __m128d r = _mm_add_pd(_mm_loadu_pd(rhs + i), _mm_mul_pd(vtr, sum));
    _mm_storeu_pd(out + i, _mm_mul_pd(r, vinv));
  }
  for (; i < ie; ++i) {
    out[i] = detail::jacobi2d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], tr, inv_diag);
  }
}

void jacobi3d_row_sse2(double* out, const double* rhs, const double* row,
                       const double* row_s, const double* row_n,
                       const double* row_d, const double* row_u, double r,
                       double inv_diag, std::size_t ib, std::size_t ie) {
  const __m128d vr = _mm_set1_pd(r);
  const __m128d vinv = _mm_set1_pd(inv_diag);
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    __m128d sum =
        _mm_add_pd(_mm_loadu_pd(row + i - 1), _mm_loadu_pd(row + i + 1));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_s + i));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_n + i));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_d + i));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_u + i));
    const __m128d acc =
        _mm_add_pd(_mm_loadu_pd(rhs + i), _mm_mul_pd(vr, sum));
    _mm_storeu_pd(out + i, _mm_mul_pd(acc, vinv));
  }
  for (; i < ie; ++i) {
    out[i] = detail::jacobi3d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], row_d[i], row_u[i], r, inv_diag);
  }
}

double defect2d_row_sse2(const double* rhs, const double* row,
                         const double* row_s, const double* row_n, double tr,
                         std::size_t ib, std::size_t ie, double acc) {
  const __m128d vtr = _mm_set1_pd(tr);
  const __m128d vdiag = _mm_set1_pd(1.0 + 4.0 * tr);
  const __m128d sign = _mm_set1_pd(-0.0);
  __m128d vmax = _mm_setzero_pd();
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const __m128d c = _mm_loadu_pd(row + i);
    const __m128d sum = _mm_add_pd(
        _mm_add_pd(_mm_add_pd(_mm_loadu_pd(row + i - 1),
                              _mm_loadu_pd(row + i + 1)),
                   _mm_loadu_pd(row_s + i)),
        _mm_loadu_pd(row_n + i));
    const __m128d defect =
        _mm_sub_pd(_mm_sub_pd(_mm_mul_pd(vdiag, c), _mm_mul_pd(vtr, sum)),
                   _mm_loadu_pd(rhs + i));
    // max_pd(candidate, acc) keeps acc when the candidate is NaN — same as
    // std::max(acc, candidate).
    vmax = _mm_max_pd(_mm_andnot_pd(sign, defect), vmax);
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, vmax);
  acc = std::max(acc, lanes[0]);
  acc = std::max(acc, lanes[1]);
  for (; i < ie; ++i) {
    const double defect = detail::defect2d_cell(
        rhs[i], row[i], row[i - 1], row[i + 1], row_s[i], row_n[i], tr);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

double defect3d_row_sse2(const double* rhs, const double* row,
                         const double* row_s, const double* row_n,
                         const double* row_d, const double* row_u, double r,
                         std::size_t ib, std::size_t ie, double acc) {
  const __m128d vr = _mm_set1_pd(r);
  const __m128d vdiag = _mm_set1_pd(1.0 + 6.0 * r);
  const __m128d sign = _mm_set1_pd(-0.0);
  __m128d vmax = _mm_setzero_pd();
  std::size_t i = ib;
  for (; i + 2 <= ie; i += 2) {
    const __m128d c = _mm_loadu_pd(row + i);
    __m128d sum =
        _mm_add_pd(_mm_loadu_pd(row + i - 1), _mm_loadu_pd(row + i + 1));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_s + i));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_n + i));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_d + i));
    sum = _mm_add_pd(sum, _mm_loadu_pd(row_u + i));
    const __m128d defect =
        _mm_sub_pd(_mm_sub_pd(_mm_mul_pd(vdiag, c), _mm_mul_pd(vr, sum)),
                   _mm_loadu_pd(rhs + i));
    vmax = _mm_max_pd(_mm_andnot_pd(sign, defect), vmax);
  }
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, vmax);
  acc = std::max(acc, lanes[0]);
  acc = std::max(acc, lanes[1]);
  for (; i < ie; ++i) {
    const double defect =
        detail::defect3d_cell(rhs[i], row[i], row[i - 1], row[i + 1],
                              row_s[i], row_n[i], row_d[i], row_u[i], r);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

ScanResult scan_abs_finite_sse2(const double* v, std::size_t n) {
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d zero = _mm_setzero_pd();
  __m128d vmax = zero;
  __m128d vfin = _mm_castsi128_pd(_mm_set1_epi32(-1));
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d x = _mm_loadu_pd(v + i);
    vmax = _mm_max_pd(_mm_andnot_pd(sign, x), vmax);
    const __m128d d = _mm_sub_pd(x, x);
    vfin = _mm_and_pd(vfin, _mm_cmpeq_pd(d, zero));
  }
  ScanResult r;
  alignas(16) double lanes[2];
  _mm_store_pd(lanes, vmax);
  r.max_abs = std::max(lanes[0], lanes[1]);
  r.finite = _mm_movemask_pd(vfin) == 0x3;
  for (; i < n; ++i) {
    r.max_abs = std::max(r.max_abs, std::fabs(v[i]));
    r.finite = r.finite && (v[i] - v[i] == 0.0);
  }
  return r;
}

void quantize_sse2(const double* v, std::int64_t* q, double inv,
                   std::size_t n) {
  const __m128d vinv = _mm_set1_pd(inv);
  const __m128d sign = _mm_set1_pd(-0.0);
  const __m128d half = _mm_set1_pd(0.5);
  const __m128d lim = _mm_set1_pd(2147483648.0);  // 2^31
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128d t = _mm_mul_pd(_mm_loadu_pd(v + i), vinv);
    const __m128d h = _mm_or_pd(_mm_and_pd(t, sign), half);
    const __m128d s = _mm_add_pd(t, h);
    const __m128d abs_s = _mm_andnot_pd(sign, s);
    if (_mm_movemask_pd(_mm_cmplt_pd(abs_s, lim)) == 0x3) {
      const __m128i s32 = _mm_cvttpd_epi32(s);  // int32 in lanes 0,1
      const __m128i ext = _mm_srai_epi32(s32, 31);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(q + i),
                       _mm_unpacklo_epi32(s32, ext));
    } else {
      alignas(16) double tmp[2];
      _mm_store_pd(tmp, s);
      q[i + 0] = static_cast<std::int64_t>(tmp[0]);
      q[i + 1] = static_cast<std::int64_t>(tmp[1]);
    }
  }
  for (; i < n; ++i) {
    q[i] = detail::quantize_one(v[i], inv);
  }
}

std::uint64_t delta_zigzag_sse2(const std::int64_t* q, std::uint64_t* zz,
                                std::size_t n) {
  __m128i vall = _mm_setzero_si128();
  std::size_t i = 1;
  for (; i + 2 <= n; i += 2) {
    const __m128i cur =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    const __m128i prev =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i - 1));
    const __m128i d = _mm_sub_epi64(cur, prev);
    // d >> 63 (arithmetic, per 64-bit lane): sign of the high words,
    // replicated across each lane.
    const __m128i mask =
        _mm_shuffle_epi32(_mm_srai_epi32(d, 31), _MM_SHUFFLE(3, 3, 1, 1));
    const __m128i z = _mm_xor_si128(_mm_slli_epi64(d, 1), mask);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(zz + i), z);
    vall = _mm_or_si128(vall, z);
  }
  alignas(16) std::uint64_t lanes[2];
  _mm_store_si128(reinterpret_cast<__m128i*>(lanes), vall);
  std::uint64_t all = lanes[0] | lanes[1];
  for (; i < n; ++i) {
    const std::uint64_t z = detail::zigzag(q[i] - q[i - 1]);
    zz[i] = z;
    all |= z;
  }
  return all;
}

bool composite_block_sse2(const double* vs, std::size_t n,
                          const CompositeTf* tf, double step, double early,
                          double* acc) {
  // The alpha chain is sequential, so accumulation runs per lane through
  // the shared reference op. Two block-level wins: (a) when zero-intensity
  // samples are transparent (the common transfer function), a block whose
  // samples are all v <= lo skips pow and the colormap entirely; (b) other
  // blocks reuse the vector-computed clamped intensities, bit-identical to
  // the scalar clamp for non-NaN samples (NaN lanes take the reference op:
  // cmple/cmpeq are false on NaN, and min/max would disagree with the
  // branch clamp there).
  std::size_t s = 0;
  if (tf->hi > tf->lo) {
    const bool zero_transparent =
        detail::composite_zero_opacity(*tf, step) <= 0.0;
    const __m128d vlo = _mm_set1_pd(tf->lo);
    const __m128d vrange = _mm_set1_pd(tf->hi - tf->lo);
    const __m128d vone = _mm_set1_pd(1.0);
    const __m128d vzero = _mm_setzero_pd();
    alignas(16) double ts[2];
    for (; s + 2 <= n; s += 2) {
      const __m128d v = _mm_loadu_pd(vs + s);
      if (zero_transparent &&
          _mm_movemask_pd(_mm_cmple_pd(v, vlo)) == 0x3) {
        continue;
      }
      if (_mm_movemask_pd(_mm_cmpeq_pd(v, v)) != 0x3) {
        for (std::size_t k = s; k < s + 2; ++k) {
          if (detail::composite_one(detail::composite_intensity(vs[k], *tf),
                                    *tf, step, early, acc)) {
            return true;
          }
        }
        continue;
      }
      const __m128d raw = _mm_div_pd(_mm_sub_pd(v, vlo), vrange);
      _mm_store_pd(ts, _mm_max_pd(_mm_min_pd(raw, vone), vzero));
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

/// Lane select without SSE4.1's blendv: mask ? a : b.
__m128d select(__m128d mask, __m128d a, __m128d b) {
  return _mm_or_pd(_mm_and_pd(mask, a), _mm_andnot_pd(mask, b));
}

/// detail::quantize_channel on two lanes: max(c, 0) returns its second
/// operand when c is NaN, so the clamp maps NaN to 0 like the reference;
/// then r = trunc(x) minus the all-ones mask of x - r >= 0.5 — exact
/// because x is in [0, 255]. Returns the bytes in the two low int32 lanes.
__m128i quantize_channels(__m128d c) {
  const __m128d x = _mm_mul_pd(
      _mm_min_pd(_mm_max_pd(c, _mm_setzero_pd()), _mm_set1_pd(1.0)),
      _mm_set1_pd(255.0));
  const __m128i r = _mm_cvttpd_epi32(x);
  const __m128i up = _mm_castpd_si128(
      _mm_cmpge_pd(_mm_sub_pd(x, _mm_cvtepi32_pd(r)), _mm_set1_pd(0.5)));
  // The low dword of each 64-bit mask lane, packed like r's lanes.
  return _mm_sub_epi32(r, _mm_shuffle_epi32(up, _MM_SHUFFLE(3, 3, 2, 0)));
}

void pseudocolor_row_sse2(const double* row0, const double* row1, double fy,
                          double gy, const PseudocolorSpec* spec,
                          std::uint8_t* rgb, std::size_t n) {
  // Bilinear corners are scalar loads (no gathers); the lerps, the range
  // divide, the branch-free segment select (one mask per interior stop:
  // since positions increase, the last stop below t wins), the segment
  // divide and the channel quantization run two pixels wide. Degenerate or
  // NaN ranges take the reference op. A NaN t needs no fallback: every
  // compare is false on NaN, so it keeps segment 1 like the reference
  // search, and the channel clamp max(c, 0) returns 0 for the NaN channel
  // exactly as quantize_channel does.
  const PseudocolorSpec& sp = *spec;
  const ColorStops& s = sp.stops;
  std::size_t x = 0;
  if (sp.hi > sp.lo) {
    const __m128d vfy = _mm_set1_pd(fy);
    const __m128d vgy = _mm_set1_pd(gy);
    const __m128d vlo = _mm_set1_pd(sp.lo);
    const __m128d vrange = _mm_set1_pd(sp.hi - sp.lo);
    const __m128d zero = _mm_setzero_pd();
    const __m128d one = _mm_set1_pd(1.0);
    for (; x + 2 <= n; x += 2) {
      const std::int32_t* i0 = sp.i0 + x;
      const std::int32_t* i1 = sp.i1 + x;
      const __m128d gx = _mm_loadu_pd(sp.gx + x);
      const __m128d fx = _mm_loadu_pd(sp.fx + x);
      const __m128d a =
          _mm_add_pd(_mm_mul_pd(_mm_set_pd(row0[i0[1]], row0[i0[0]]), gx),
                     _mm_mul_pd(_mm_set_pd(row0[i1[1]], row0[i1[0]]), fx));
      const __m128d b =
          _mm_add_pd(_mm_mul_pd(_mm_set_pd(row1[i0[1]], row1[i0[0]]), gx),
                     _mm_mul_pd(_mm_set_pd(row1[i1[1]], row1[i1[0]]), fx));
      __m128d t = _mm_div_pd(
          _mm_sub_pd(_mm_add_pd(_mm_mul_pd(a, vgy), _mm_mul_pd(b, vfy)), vlo),
          vrange);
      // std::clamp(t, 0, 1) bit-exactly: max/min return their second
      // operand on equality or NaN, so -0.0 and NaN pass through.
      t = _mm_min_pd(one, _mm_max_pd(zero, t));
      __m128d p0 = _mm_set1_pd(s.pos[0]), p1 = _mm_set1_pd(s.pos[1]);
      __m128d r0 = _mm_set1_pd(s.r[0]), r1 = _mm_set1_pd(s.r[1]);
      __m128d g0 = _mm_set1_pd(s.g[0]), g1 = _mm_set1_pd(s.g[1]);
      __m128d b0 = _mm_set1_pd(s.b[0]), b1 = _mm_set1_pd(s.b[1]);
      for (std::size_t k = 1; k + 1 < s.count; ++k) {
        const __m128d m = _mm_cmplt_pd(_mm_set1_pd(s.pos[k]), t);
        p0 = select(m, _mm_set1_pd(s.pos[k]), p0);
        p1 = select(m, _mm_set1_pd(s.pos[k + 1]), p1);
        r0 = select(m, _mm_set1_pd(s.r[k]), r0);
        r1 = select(m, _mm_set1_pd(s.r[k + 1]), r1);
        g0 = select(m, _mm_set1_pd(s.g[k]), g0);
        g1 = select(m, _mm_set1_pd(s.g[k + 1]), g1);
        b0 = select(m, _mm_set1_pd(s.b[k]), b0);
        b1 = select(m, _mm_set1_pd(s.b[k + 1]), b1);
      }
      const __m128d f =
          _mm_div_pd(_mm_sub_pd(t, p0), _mm_sub_pd(p1, p0));
      const auto chan = [&](__m128d c0, __m128d c1) {
        return quantize_channels(
            _mm_add_pd(c0, _mm_mul_pd(f, _mm_sub_pd(c1, c0))));
      };
      const __m128i px = _mm_or_si128(
          chan(r0, r1), _mm_or_si128(_mm_slli_epi32(chan(g0, g1), 8),
                                     _mm_slli_epi32(chan(b0, b1), 16)));
      // x86 is little-endian: the low three bytes of each lane are r, g, b.
      const auto p0_bits = static_cast<std::uint32_t>(_mm_cvtsi128_si32(px));
      const auto p1_bits =
          static_cast<std::uint32_t>(_mm_cvtsi128_si32(_mm_srli_si128(px, 4)));
      std::memcpy(rgb + 3 * x, &p0_bits, 3);
      std::memcpy(rgb + 3 * x + 3, &p1_bits, 3);
    }
  }
  for (; x < n; ++x) {
    detail::pseudocolor_one(row0, row1, fy, gy, sp, x, rgb + 3 * x);
  }
}

}  // namespace

const KernelTable* sse2_table() {
  static const KernelTable t = [] {
    KernelTable k = scalar_table();
    k.path = IsaPath::kSse2;
    k.jacobi2d_row = &jacobi2d_row_sse2;
    k.jacobi3d_row = &jacobi3d_row_sse2;
    k.defect2d_row = &defect2d_row_sse2;
    k.defect3d_row = &defect3d_row_sse2;
    k.scan_abs_finite = &scan_abs_finite_sse2;
    k.quantize = &quantize_sse2;
    k.delta_zigzag = &delta_zigzag_sse2;
    k.composite_block = &composite_block_sse2;
    k.pseudocolor_row = &pseudocolor_row_sse2;
    return k;
  }();
  return &t;
}

}  // namespace greenvis::util::simd

#else  // !__SSE2__

namespace greenvis::util::simd {
const KernelTable* sse2_table() { return nullptr; }
}  // namespace greenvis::util::simd

#endif
