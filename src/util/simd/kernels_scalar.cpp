// Scalar reference kernels — the arithmetic contract every ISA path must
// match bit-for-bit. Compiled with -ffp-contract=off (see CMakeLists) so no
// FMA contraction can sneak in on targets where FMA is baseline.
#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "src/util/simd/kernels_impl.hpp"

namespace greenvis::util::simd {
namespace {

void jacobi2d_row_scalar(double* out, const double* rhs, const double* row,
                         const double* row_s, const double* row_n, double tr,
                         double inv_diag, std::size_t ib, std::size_t ie) {
  for (std::size_t i = ib; i < ie; ++i) {
    out[i] = detail::jacobi2d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], tr, inv_diag);
  }
}

void jacobi3d_row_scalar(double* out, const double* rhs, const double* row,
                         const double* row_s, const double* row_n,
                         const double* row_d, const double* row_u, double r,
                         double inv_diag, std::size_t ib, std::size_t ie) {
  for (std::size_t i = ib; i < ie; ++i) {
    out[i] = detail::jacobi3d_cell(rhs[i], row[i - 1], row[i + 1], row_s[i],
                                   row_n[i], row_d[i], row_u[i], r, inv_diag);
  }
}

double defect2d_row_scalar(const double* rhs, const double* row,
                           const double* row_s, const double* row_n,
                           double tr, std::size_t ib, std::size_t ie,
                           double acc) {
  for (std::size_t i = ib; i < ie; ++i) {
    const double defect = detail::defect2d_cell(
        rhs[i], row[i], row[i - 1], row[i + 1], row_s[i], row_n[i], tr);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

double defect3d_row_scalar(const double* rhs, const double* row,
                           const double* row_s, const double* row_n,
                           const double* row_d, const double* row_u, double r,
                           std::size_t ib, std::size_t ie, double acc) {
  for (std::size_t i = ib; i < ie; ++i) {
    const double defect =
        detail::defect3d_cell(rhs[i], row[i], row[i - 1], row[i + 1],
                              row_s[i], row_n[i], row_d[i], row_u[i], r);
    acc = std::max(acc, std::abs(defect));
  }
  return acc;
}

ScanResult scan_abs_finite_scalar(const double* v, std::size_t n) {
  ScanResult r;
  for (std::size_t i = 0; i < n; ++i) {
    r.max_abs = std::max(r.max_abs, std::fabs(v[i]));
    r.finite = r.finite && (v[i] - v[i] == 0.0);
  }
  return r;
}

void quantize_scalar(const double* v, std::int64_t* q, double inv,
                     std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    q[i] = detail::quantize_one(v[i], inv);
  }
}

std::uint64_t delta_zigzag_scalar(const std::int64_t* q, std::uint64_t* zz,
                                  std::size_t n) {
  std::uint64_t all = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::uint64_t z = detail::zigzag(q[i] - q[i - 1]);
    zz[i] = z;
    all |= z;
  }
  return all;
}

std::size_t pack_deltas_scalar(const std::uint64_t* zz, std::uint8_t bits,
                               std::uint64_t* words, std::size_t n) {
  std::uint64_t acc = 0;
  unsigned used = 0;
  std::size_t w = 0;
  auto insert = [&](std::uint64_t chunk, unsigned width) {
    acc |= chunk << used;
    used += width;
    if (used >= 64) {
      words[w++] = acc;
      used -= 64;
      acc = used == 0 ? 0 : chunk >> (width - used);
    }
  };
  std::size_t i = 1;
  // The stream is LSB-first, so packing consecutive values is associative:
  // pre-ORing a group into one chunk and inserting it at the combined width
  // emits exactly the same bits, but pays the accumulator/spill bookkeeping
  // once per group instead of once per value.
  if (bits <= 16) {
    const unsigned b = bits;
    for (; i + 4 <= n; i += 4) {
      insert(zz[i] | (zz[i + 1] << b) | (zz[i + 2] << (2 * b)) |
                 (zz[i + 3] << (3 * b)),
             4 * b);
    }
  } else if (bits <= 32) {
    const unsigned b = bits;
    for (; i + 2 <= n; i += 2) {
      insert(zz[i] | (zz[i + 1] << b), 2 * b);
    }
  }
  for (; i < n; ++i) {
    insert(zz[i], bits);
  }
  if (used > 0) {
    words[w++] = acc;
  }
  return w;
}

void unpack_deltas_scalar(const std::uint8_t* packed, std::size_t nwords,
                          std::uint8_t bits, std::int64_t* deltas,
                          std::size_t n) {
  (void)nwords;
  const std::uint64_t mask = (std::uint64_t{1} << bits) - 1;
  std::size_t bitpos = 0;
  for (std::size_t i = 1; i < n; ++i) {
    deltas[i] = detail::unpack_one(packed, bitpos, bits, mask);
    bitpos += bits;
  }
}

void trilinear_block_scalar(const double* field, std::size_t nx,
                            std::size_t ny, std::size_t nz, const double* xs,
                            const double* ys, const double* zs, double* out,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = detail::trilinear_one(field, nx, ny, nz, xs[i], ys[i], zs[i]);
  }
}

bool composite_block_scalar(const double* vs, std::size_t n,
                            const CompositeTf* tf, double step, double early,
                            double* acc) {
  for (std::size_t s = 0; s < n; ++s) {
    if (detail::composite_one(detail::composite_intensity(vs[s], *tf), *tf,
                              step, early, acc)) {
      return true;
    }
  }
  return false;
}

void pseudocolor_row_scalar(const double* row0, const double* row1, double fy,
                            double gy, const PseudocolorSpec* spec,
                            std::uint8_t* rgb, std::size_t n) {
  for (std::size_t x = 0; x < n; ++x) {
    detail::pseudocolor_one(row0, row1, fy, gy, *spec, x, rgb + 3 * x);
  }
}

}  // namespace

void map_color(double t, const ColorStops& stops, std::uint8_t* rgb) {
  detail::colormap_rgb(t, stops, rgb);
}

const KernelTable& scalar_table() {
  static const KernelTable t{
      IsaPath::kScalar,     jacobi2d_row_scalar,   jacobi3d_row_scalar,
      defect2d_row_scalar,  defect3d_row_scalar,   scan_abs_finite_scalar,
      quantize_scalar,      delta_zigzag_scalar,   pack_deltas_scalar,
      unpack_deltas_scalar, trilinear_block_scalar,
      composite_block_scalar, pseudocolor_row_scalar};
  return t;
}

}  // namespace greenvis::util::simd
