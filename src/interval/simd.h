#pragma once

namespace stj::simd {

/// The interval relations have one scalar implementation
/// (interval_algebra.cpp). This header remains only for the `simd` field of
/// perfbench/driver.cpp's environment stamp, its one caller.
enum class Level { kScalar };

constexpr Level ActiveLevel() { return Level::kScalar; }
constexpr const char* ToString(Level) { return "scalar"; }

}  // namespace stj::simd
