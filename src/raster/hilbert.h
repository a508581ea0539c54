#pragma once

#include <cstdint>

namespace stj {

/// Hilbert space-filling curve on a 2^order x 2^order grid.
///
/// The curve enumerates all cells so that consecutive indices are adjacent
/// cells; APRIL relies on this locality to keep the number of intervals per
/// object near the square root of the number of covered cells (Sec. 2.3).
/// Supported orders: 1..31 (order 16 gives the paper's 2^16 x 2^16 grid).

/// Distance along the Hilbert curve of cell (x, y); x, y < 2^order.
uint64_t HilbertXYToD(uint32_t order, uint32_t x, uint32_t y);

/// Inverse: cell coordinates of curve position \p d.
void HilbertDToXY(uint32_t order, uint64_t d, uint32_t* x, uint32_t* y);

}  // namespace stj
