#include "src/vis/color.hpp"

#include <cmath>

#include "src/util/error.hpp"

namespace greenvis::vis {

ColorMap::ColorMap(std::vector<Stop> stops) {
  GREENVIS_REQUIRE(stops.size() >= 2);
  GREENVIS_REQUIRE(stops.front().position == 0.0);
  GREENVIS_REQUIRE(stops.back().position == 1.0);
  for (std::size_t i = 0; i < stops.size(); ++i) {
    const Stop& s = stops[i];
    GREENVIS_REQUIRE(i == 0 || s.position > stops[i - 1].position);
    GREENVIS_REQUIRE(std::isfinite(s.r) && std::isfinite(s.g) &&
                     std::isfinite(s.b));
    pos_.push_back(s.position);
    r_.push_back(s.r);
    g_.push_back(s.g);
    b_.push_back(s.b);
  }
}

Rgb ColorMap::map(double t) const {
  std::uint8_t rgb[3];
  util::simd::map_color(t, stop_arrays(), rgb);
  return Rgb{rgb[0], rgb[1], rgb[2]};
}

Rgb ColorMap::map_range(double v, double lo, double hi) const {
  if (hi <= lo) {
    return map(0.0);
  }
  return map((v - lo) / (hi - lo));
}

ColorMap ColorMap::cool_warm() {
  return ColorMap{{
      {0.0, 0.230, 0.299, 0.754},
      {0.5, 0.865, 0.865, 0.865},
      {1.0, 0.706, 0.016, 0.150},
  }};
}

ColorMap ColorMap::hot() {
  return ColorMap{{
      {0.0, 0.0, 0.0, 0.0},
      {0.375, 0.9, 0.0, 0.0},
      {0.75, 1.0, 0.9, 0.0},
      {1.0, 1.0, 1.0, 1.0},
  }};
}

ColorMap ColorMap::grayscale() {
  return ColorMap{{
      {0.0, 0.0, 0.0, 0.0},
      {1.0, 1.0, 1.0, 1.0},
  }};
}

}  // namespace greenvis::vis
