#pragma once

// Shared fixtures and helpers for the stjoin test suite.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "src/datasets/blob.h"
#include "src/geometry/polygon.h"
#include "src/util/rng.h"

namespace stj::test {

/// The hardware threads, at least one.
inline unsigned HardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

/// Twice the hardware threads: thread sweeps also run oversubscribed.
inline unsigned Oversubscribed() { return 2 * HardwareThreads(); }

/// A scratch path in gtest's TempDir for \p name, qualified by the running
/// test's name and the process id. ctest runs every test case as its own
/// process against one shared TempDir, so cases running at the same time
/// (or two runs of the suite) never read or remove each other's files.
inline std::string TempPath(const std::string& name) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return std::string(::testing::TempDir()) + "/" +
         (info != nullptr ? info->name() : "unknown") + "_" +
         std::to_string(::getpid()) + "_" + name;
}

/// Axis-aligned square polygon [x0,x1] x [y0,y1].
inline Polygon Square(double x0, double y0, double x1, double y1) {
  return Polygon(Ring({Point{x0, y0}, Point{x1, y0}, Point{x1, y1},
                       Point{x0, y1}}));
}

/// The unit square [0,1]^2.
inline Polygon UnitSquare() { return Square(0, 0, 1, 1); }

/// Square [x0,x1]^2 x [y0,y1] with a centred square hole of half-width hw.
inline Polygon SquareWithHole(double x0, double y0, double x1, double y1,
                              double hw) {
  const double cx = 0.5 * (x0 + x1);
  const double cy = 0.5 * (y0 + y1);
  Ring hole({Point{cx - hw, cy - hw}, Point{cx + hw, cy - hw},
             Point{cx + hw, cy + hw}, Point{cx - hw, cy + hw}});
  return Polygon(Ring({Point{x0, y0}, Point{x1, y0}, Point{x1, y1},
                       Point{x0, y1}}),
                 {std::move(hole)});
}

/// A simple triangle.
inline Polygon Triangle(Point a, Point b, Point c) {
  return Polygon(Ring({a, b, c}));
}

/// Random star-shaped blob for property tests.
inline Polygon RandomBlob(Rng* rng, Point center, double radius,
                          size_t vertices, double hole_probability = 0.0) {
  BlobParams params;
  params.center = center;
  params.mean_radius = radius;
  params.vertices = vertices;
  params.irregularity = rng->Uniform(0.2, 0.6);
  params.harmonics = static_cast<int>(rng->UniformInt(3, 6));
  params.hole_probability = hole_probability;
  return MakeBlob(rng, params);
}

}  // namespace stj::test
