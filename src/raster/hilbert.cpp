#include "src/raster/hilbert.h"

namespace stj {

namespace {

// One quadrant rotation/reflection step of the curve construction.
inline void Rotate(uint32_t n, uint32_t* x, uint32_t* y, uint32_t rx,
                   uint32_t ry) {
  if (ry == 0) {
    if (rx == 1) {
      *x = n - 1 - *x;
      *y = n - 1 - *y;
    }
    const uint32_t t = *x;
    *x = *y;
    *y = t;
  }
}

}  // namespace

uint64_t HilbertXYToD(uint32_t order, uint32_t x, uint32_t y) {
  uint64_t d = 0;
  for (uint32_t s = order; s-- > 0;) {
    const uint32_t rx = (x >> s) & 1u;
    const uint32_t ry = (y >> s) & 1u;
    d += (static_cast<uint64_t>((3u * rx) ^ ry)) << (2 * s);
    Rotate(1u << s, &x, &y, rx, ry);
  }
  return d;
}

void HilbertDToXY(uint32_t order, uint64_t d, uint32_t* x, uint32_t* y) {
  uint32_t cx = 0;
  uint32_t cy = 0;
  for (uint32_t s = 0; s < order; ++s) {
    const uint32_t rx = static_cast<uint32_t>(d >> 1) & 1u;
    const uint32_t ry = static_cast<uint32_t>(d ^ rx) & 1u;
    Rotate(1u << s, &cx, &cy, rx, ry);
    cx += rx << s;
    cy += ry << s;
    d >>= 2;
  }
  *x = cx;
  *y = cy;
}

}  // namespace stj
