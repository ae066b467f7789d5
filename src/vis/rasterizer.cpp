#include "src/vis/rasterizer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/util/error.hpp"
#include "src/util/simd/simd.hpp"

namespace greenvis::vis {

namespace {

/// Pixel -> field-coordinate mapping `coord = pixel * scale + offset` that
/// covers the degenerate extents: a 1-pixel axis samples the field-axis
/// center (not its left edge), and a 1-cell field axis pins every pixel to
/// coordinate 0 instead of dividing by zero.
struct AxisMap {
  double scale{0.0};
  double offset{0.0};
};

AxisMap axis_map(std::size_t field_cells, std::size_t pixels) {
  const double extent = static_cast<double>(field_cells - 1);
  if (pixels <= 1) {
    return {0.0, extent / 2.0};
  }
  return {extent / static_cast<double>(pixels - 1), 0.0};
}

/// Parallel dispatch pays off only with real workers and enough rows per
/// worker to amortize the wake/claim round trip. Below that, the serial
/// path is both faster and allocation-free (pixels are identical either
/// way: rows are disjoint).
bool worth_parallel(const util::ThreadPool* pool, std::size_t rows) {
  return pool != nullptr && pool->size() > 1 && rows >= 4 * pool->size();
}

/// bilinear_sample's per-axis set-up: clamp the coordinate to the field,
/// truncate to its cell, clamp the neighbor, and take the weight.
struct AxisSample {
  std::size_t c0;
  std::size_t c1;
  double f;
};

AxisSample axis_sample(double c, std::size_t cells) {
  c = std::clamp(c, 0.0, static_cast<double>(cells - 1));
  const auto c0 = static_cast<std::size_t>(c);
  return {c0, std::min(c0 + 1, cells - 1), c - static_cast<double>(c0)};
}

AxisSample axis_sample(const AxisMap& m, std::size_t pixel,
                       std::size_t cells) {
  return axis_sample(static_cast<double>(pixel) * m.scale + m.offset, cells);
}

/// Column tables of the row kernel. Per calling thread and reused across
/// frames, so a steady-state render allocates nothing.
struct ColumnTables {
  std::vector<std::int32_t> i0, i1;
  std::vector<double> fx, gx;
};

}  // namespace

double bilinear_sample(const util::Field2D& field, double x, double y) {
  const AxisSample sx = axis_sample(x, field.nx());
  const AxisSample sy = axis_sample(y, field.ny());
  const double a = field.at(sx.c0, sy.c0) * (1.0 - sx.f) +
                   field.at(sx.c1, sy.c0) * sx.f;
  const double b = field.at(sx.c0, sy.c1) * (1.0 - sx.f) +
                   field.at(sx.c1, sy.c1) * sx.f;
  return a * (1.0 - sy.f) + b * sy.f;
}

Image render_pseudocolor(const util::Field2D& field, const ColorMap& cmap,
                         std::size_t width, std::size_t height, double lo,
                         double hi, util::ThreadPool* pool) {
  Image image;
  render_pseudocolor_into(field, cmap, width, height, lo, hi, pool, image);
  return image;
}

void render_pseudocolor_into(const util::Field2D& field, const ColorMap& cmap,
                             std::size_t width, std::size_t height, double lo,
                             double hi, util::ThreadPool* pool, Image& image) {
  GREENVIS_REQUIRE(width > 0 && height > 0);
  GREENVIS_REQUIRE(field.nx() > 0 && field.ny() > 0);
  GREENVIS_REQUIRE(field.nx() <= std::numeric_limits<std::int32_t>::max());
  static_assert(sizeof(Rgb) == 3, "rows are written as packed RGB bytes");
  image.reset(width, height);
  const AxisMap mx = axis_map(field.nx(), width);
  const AxisMap my = axis_map(field.ny(), height);

  // Everything that does not depend on the row is computed once here:
  // bilinear_sample's column indices and weights, and the colormap view.
  thread_local ColumnTables tables;
  tables.i0.resize(width);
  tables.i1.resize(width);
  tables.fx.resize(width);
  tables.gx.resize(width);
  for (std::size_t x = 0; x < width; ++x) {
    const AxisSample s = axis_sample(mx, x, field.nx());
    tables.i0[x] = static_cast<std::int32_t>(s.c0);
    tables.i1[x] = static_cast<std::int32_t>(s.c1);
    tables.fx[x] = s.f;
    tables.gx[x] = 1.0 - s.f;
  }
  const util::simd::PseudocolorSpec spec{
      tables.i0.data(), tables.i1.data(), tables.fx.data(), tables.gx.data(),
      lo,               hi,               cmap.stop_arrays()};
  const util::simd::KernelTable& kern = util::simd::kernels();
  const double* values = field.values().data();
  const std::size_t nx = field.nx();

  auto rows = [&](std::size_t y_begin, std::size_t y_end) {
    for (std::size_t y = y_begin; y < y_end; ++y) {
      const AxisSample s = axis_sample(my, y, field.ny());
      kern.pseudocolor_row(values + s.c0 * nx, values + s.c1 * nx, s.f,
                           1.0 - s.f, &spec,
                           reinterpret_cast<std::uint8_t*>(&image.at(0, y)),
                           width);
    }
  };
  if (worth_parallel(pool, height)) {
    pool->parallel_for(0, height, rows);
  } else {
    rows(0, height);
  }
}

void draw_segments(Image& image, std::span<const Segment> segments,
                   std::size_t field_nx, std::size_t field_ny, Rgb color) {
  GREENVIS_REQUIRE(field_nx >= 2 && field_ny >= 2);
  const double sx = static_cast<double>(image.width() - 1) /
                    static_cast<double>(field_nx - 1);
  const double sy = static_cast<double>(image.height() - 1) /
                    static_cast<double>(field_ny - 1);
  for (const Segment& s : segments) {
    const double x0 = s.x0 * sx, y0 = s.y0 * sy;
    const double x1 = s.x1 * sx, y1 = s.y1 * sy;
    const double steps =
        std::max(1.0, std::ceil(std::max(std::abs(x1 - x0), std::abs(y1 - y0))));
    for (double k = 0.0; k <= steps; k += 1.0) {
      const double t = k / steps;
      image.set_clipped(std::llround(x0 + (x1 - x0) * t),
                        std::llround(y0 + (y1 - y0) * t), color);
    }
  }
}

}  // namespace greenvis::vis
