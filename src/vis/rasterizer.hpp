// Software rasterization: pseudocolor fields and contour overlays.
#pragma once

#include <span>
#include <vector>

#include "src/util/field.hpp"
#include "src/util/thread_pool.hpp"
#include "src/vis/contour.hpp"
#include "src/vis/image.hpp"

namespace greenvis::vis {

/// Bilinear sample of `field` at fractional cell coordinates (clamped).
[[nodiscard]] double bilinear_sample(const util::Field2D& field, double x,
                                     double y);

/// Render `field` as a pseudocolor image of the given size using bilinear
/// resampling. `lo`/`hi` fix the transfer-function range (pass min/max for
/// auto). Every pixel equals cmap.map_range(bilinear_sample(...), lo, hi):
/// the column tables are built once per call and each row is one
/// `util::simd` pseudocolor_row kernel call, bit-identical on every ISA
/// path. Row-parallel over `pool` when it has >1 worker and enough rows to
/// amortize dispatch; otherwise the serial path runs (identical pixels —
/// rows are disjoint).
[[nodiscard]] Image render_pseudocolor(const util::Field2D& field,
                                       const ColorMap& cmap, std::size_t width,
                                       std::size_t height, double lo,
                                       double hi,
                                       util::ThreadPool* pool = nullptr);

/// In-place variant for the hot loop: renders into `image` (reset to the
/// given size first), allocating nothing once the image has capacity.
void render_pseudocolor_into(const util::Field2D& field, const ColorMap& cmap,
                             std::size_t width, std::size_t height, double lo,
                             double hi, util::ThreadPool* pool, Image& image);

/// Draw contour segments (field coordinates) onto an image rendered from an
/// nx-by-ny field — coordinates scale accordingly. DDA line drawing.
void draw_segments(Image& image, std::span<const Segment> segments,
                   std::size_t field_nx, std::size_t field_ny, Rgb color);

}  // namespace greenvis::vis
