// Seeded request viewports for the load generators (kdvtool serve-sim and
// the deterministic simulator).
//
// Interactive clients both revisit viewports (pan back, refresh, many
// users on one hot spot) and ask for new ones. Request i of a stream asks,
// with even odds, for one of kRepeated recurring viewports, id 0 being the
// whole extent, or for a viewport of its own. Every viewport but the
// extent is zoomed 1-4x about a point of the extent and stays inside it.
// The viewport depends only on (seed, i), not on which client thread sends
// the request or when, so a seed names its whole stream.
#ifndef QUADKDV_VIZ_VIEWPORT_STREAM_H_
#define QUADKDV_VIZ_VIEWPORT_STREAM_H_

#include <cmath>
#include <cstdint>

#include "geom/rect.h"
#include "util/random.h"
#include "viz/pixel_grid.h"

namespace kdv {

class ViewportStream {
 public:
  static constexpr uint64_t kRepeated = 4;

  ViewportStream(int width, int height, const Rect& extent, uint64_t seed)
      : width_(width), height_(height), extent_(extent), seed_(seed) {}

  // Id of request i's viewport: below kRepeated for a recurring viewport,
  // kRepeated + i for the request's own.
  uint64_t ViewportId(uint64_t request) const {
    Rng rng(Mix(seed_, request));
    return rng.NextUint64() % 2 == 0 ? rng.UniformInt(kRepeated)
                                     : kRepeated + request;
  }

  PixelGrid Viewport(uint64_t id) const {
    if (id == 0) return PixelGrid(width_, height_, extent_);
    Rng rng(Mix(~seed_, id));
    const double zoom = std::exp2(2.0 * rng.NextDouble());
    Rect view = extent_;
    for (int d = 0; d < 2; ++d) {
      const double half = 0.5 * extent_.Length(d) / zoom;
      const double center =
          rng.Uniform(extent_.lo(d) + half, extent_.hi(d) - half);
      view.set_lo(d, center - half);
      view.set_hi(d, center + half);
    }
    return PixelGrid(width_, height_, view);
  }

  PixelGrid Request(uint64_t request) const {
    return Viewport(ViewportId(request));
  }

 private:
  static uint64_t Mix(uint64_t seed, uint64_t i) {
    return seed ^ (i * 0x9E3779B97F4A7C15ull);
  }

  int width_;
  int height_;
  Rect extent_;
  uint64_t seed_;
};

}  // namespace kdv

#endif  // QUADKDV_VIZ_VIEWPORT_STREAM_H_
