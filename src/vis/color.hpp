// Colors and transfer functions for pseudocolor rendering.
#pragma once

#include <cstdint>
#include <vector>

#include "src/util/simd/simd.hpp"

namespace greenvis::vis {

struct Rgb {
  std::uint8_t r{0};
  std::uint8_t g{0};
  std::uint8_t b{0};

  friend constexpr bool operator==(Rgb a, Rgb b2) {
    return a.r == b2.r && a.g == b2.g && a.b == b2.b;
  }
};

/// Piecewise-linear colormap over normalized [0, 1].
class ColorMap {
 public:
  struct Stop {
    double position;  // in [0, 1], strictly increasing
    double r, g, b;   // in [0, 1] (finite; map() clamps the lerp)
  };

  explicit ColorMap(std::vector<Stop> stops);

  /// Map a normalized value (clamped to [0, 1]).
  [[nodiscard]] Rgb map(double t) const;

  /// Map a raw value given a data range (degenerate range maps to 0).
  [[nodiscard]] Rgb map_range(double v, double lo, double hi) const;

  /// The classic blue-white-red diverging map (ParaView's default look for
  /// temperature fields).
  [[nodiscard]] static ColorMap cool_warm();
  /// Black-red-yellow-white "hot" map.
  [[nodiscard]] static ColorMap hot();
  [[nodiscard]] static ColorMap grayscale();

  /// SoA view of the stops for the raster and compositing kernels (valid
  /// while this ColorMap lives).
  [[nodiscard]] util::simd::ColorStops stop_arrays() const {
    return {pos_.data(), r_.data(), g_.data(), b_.data(), pos_.size()};
  }

 private:
  // Flattened once at construction so no renderer re-flattens per call.
  std::vector<double> pos_, r_, g_, b_;
};

}  // namespace greenvis::vis
