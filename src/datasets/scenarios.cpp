#include "src/datasets/scenarios.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <numbers>
#include <thread>

#include "src/datasets/blob.h"
#include "src/datasets/buildings.h"
#include "src/datasets/tessellation.h"
#include "src/geometry/point_on_surface.h"
#include "src/util/check.h"
#include "src/util/parallel_for.h"
#include "src/util/rng.h"
#include "src/util/thread_annotations.h"

namespace stj {

namespace {

// All synthetic regions live in a 100x100 world; each scenario grids its own
// combined dataspace, as the paper does per data scenario.
const Box kRegion{Point{0.0, 0.0}, Point{100.0, 100.0}};

uint64_t SubSeed(uint64_t seed, std::string_view tag) {
  uint64_t h = 1469598103934665603ull ^ seed;
  for (const char c : tag) {
    h ^= static_cast<uint64_t>(static_cast<unsigned char>(c));
    h *= 1099511628211ull;
  }
  return h;
}

size_t Scaled(double base, double scale) {
  return static_cast<size_t>(std::max(1.0, std::round(base * scale)));
}

// A generated blob plus the placement metadata needed to nest other objects
// inside it.
struct BlobInfo {
  Polygon polygon;
  Point center;
  double safe_radius;  ///< Disc around center guaranteed inside the polygon.
  double mean_radius;
};

// Complexity-correlated blob: radius grows sublinearly with vertex count, so
// high-vertex objects are physically larger (as in OSM), which is what makes
// refinement cost grow superlinearly with complexity level (Fig. 8(b)).
// With probability `elongate_probability` the blob is stretched into a
// stringy shape (river/strip analogue) whose MBR is mostly empty — those
// produce the MBR-overlapping-but-raster-disjoint pairs the APRIL and P+C
// filters prune.
BlobInfo MakeSizedBlob(Rng* rng, const Box& region, double radius_base,
                       size_t min_vertices, size_t max_vertices,
                       double hole_probability,
                       double elongate_probability = 0.0) {
  const size_t vertices = static_cast<size_t>(rng->LogUniform(
      static_cast<double>(min_vertices), static_cast<double>(max_vertices)));
  const double radius = radius_base *
                        std::pow(static_cast<double>(vertices), 0.55) *
                        rng->Uniform(0.6, 1.6);
  BlobParams params;
  params.center = Point{rng->Uniform(region.min.x, region.max.x),
                        rng->Uniform(region.min.y, region.max.y)};
  params.mean_radius = radius;
  params.irregularity = rng->Uniform(0.25, 0.6);
  params.vertices = vertices;
  params.harmonics = static_cast<int>(rng->UniformInt(3, 7));
  params.hole_probability = hole_probability;

  BlobInfo info;
  info.polygon = MakeBlob(rng, params);
  info.center = params.center;
  info.mean_radius = radius;
  double elongation = 1.0;
  if (elongate_probability > 0.0 && rng->Bernoulli(elongate_probability)) {
    const double stretch = rng->LogUniform(2.0, 6.0);
    // Shrink the minor axis so the area stays comparable.
    info.polygon = AffineAbout(info.polygon, info.center, stretch,
                               1.0 / stretch,
                               rng->Uniform(0.0, std::numbers::pi));
    elongation = 1.0 / stretch;
    info.mean_radius = radius * stretch;
  }
  // Star-shaped: the inscribed disc is bounded below by the minimum vertex
  // radius shaved by the chord-sag factor (recomputed here from the ring).
  double min_r = radius * 10.0;
  for (const Point& p : info.polygon.Outer().Vertices()) {
    min_r = std::min(min_r, Distance(p, info.center));
  }
  info.safe_radius =
      min_r *
      std::cos(std::numbers::pi /
               static_cast<double>(info.polygon.Outer().Size())) *
      0.8 * elongation;  // anisotropic scaling shrinks the inscribed disc
  // Holes eat into the disc; keep nested placements clear of them by not
  // trusting the disc at all when holes exist.
  if (!info.polygon.Holes().empty()) info.safe_radius = 0.0;
  return info;
}

std::vector<BlobInfo> MakeParks(uint64_t seed, std::string_view tag,
                                size_t count, double radius_base,
                                size_t max_vertices) {
  Rng rng(SubSeed(seed, tag));
  std::vector<BlobInfo> parks;
  parks.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    parks.push_back(MakeSizedBlob(&rng, kRegion, radius_base, 12, max_vertices,
                                  /*hole_probability=*/0.25,
                                  /*elongate_probability=*/0.12));
  }
  return parks;
}

Dataset FromPolygons(std::string name, std::string description,
                     std::vector<Polygon> polygons) {
  Dataset dataset;
  dataset.name = std::move(name);
  dataset.description = std::move(description);
  dataset.objects.reserve(polygons.size());
  for (uint32_t i = 0; i < polygons.size(); ++i) {
    dataset.objects.push_back(SpatialObject{i, std::move(polygons[i])});
  }
  return dataset;
}

// --- Dataset builders -----------------------------------------------------

// TC (counties) and TZ (zip codes) come from one nested tessellation so that
// zips genuinely refine counties with bit-exact shared boundaries.
NestedTessellation BuildAdminTessellation(double scale, uint64_t seed) {
  Rng rng(SubSeed(seed, "TC-TZ-tessellation"));
  TessellationParams params;
  params.region = kRegion;
  const double dim_scale = std::sqrt(std::max(scale, 1e-4));
  params.cols = std::max(2u, static_cast<uint32_t>(std::lround(72 * dim_scale)));
  params.rows = params.cols;
  params.jitter = 0.3;
  // TIGER counties/zip codes are vertex-heavy (thousands of vertices); give
  // each shared chain enough intermediate points that a county ends up with
  // several hundred vertices and refinement cost is realistic.
  params.edge_points = 12;
  params.edge_wiggle = 0.1;
  return MakeNestedTessellation(&rng, params, /*block=*/6);
}

// Water areas: independent blobs, some with holes (islands).
std::vector<Polygon> BuildWaterPolygons(double scale, uint64_t seed) {
  Rng rng(SubSeed(seed, "TW"));
  const size_t count = Scaled(25000, scale);
  std::vector<Polygon> polygons;
  polygons.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    polygons.push_back(
        MakeSizedBlob(&rng, kRegion, 0.012, 8, 600, 0.15, 0.35).polygon);
  }
  return polygons;
}

// Landmarks: blobs of mixed size, plus "interlinked twin" copies of water
// areas (a lake that is also a landmark): exact copies (equals pairs),
// hole-filled copies (covers pairs), and shrunken copies (inside pairs).
Dataset BuildLandmarks(double scale, uint64_t seed) {
  Rng rng(SubSeed(seed, "TL"));
  const size_t count = Scaled(9000, scale);
  std::vector<Polygon> polygons;
  polygons.reserve(count);
  const size_t twins = std::max<size_t>(3, count / 60);
  std::vector<Polygon> water = BuildWaterPolygons(scale, seed);
  for (size_t i = 0; i < twins && i < water.size(); ++i) {
    const size_t pick = rng.NextBounded(water.size());
    const Polygon& source = water[pick];
    switch (i % 3) {
      case 0:
        polygons.push_back(source);  // equals twin
        break;
      case 1:
        polygons.push_back(FillHoles(source));  // covers twin (if holes)
        break;
      default: {
        Point anchor;
        if (PointOnSurface(source, &anchor)) {
          polygons.push_back(ScaleAbout(source, anchor, 0.55));  // inside twin
        } else {
          polygons.push_back(source);
        }
        break;
      }
    }
  }
  while (polygons.size() < count) {
    polygons.push_back(
        MakeSizedBlob(&rng, kRegion, 0.02, 8, 400, 0.1, 0.2).polygon);
  }
  return FromPolygons("TL", "US landmarks (blobs + water twins)",
                      std::move(polygons));
}

// Lakes: complexity-heavy blobs coupled to the park dataset of the same
// collection: a share sits strictly inside parks, a share straddles park
// boundaries, a few fill park holes exactly (meets pairs), and a few are
// verbatim park copies (equals pairs).
Dataset BuildLakes(std::string name, std::string_view park_tag,
                   size_t base_count, size_t park_count, double park_radius,
                   size_t park_max_vertices, size_t max_vertices, double scale,
                   uint64_t seed) {
  Rng rng(SubSeed(seed, name));
  const std::vector<BlobInfo> parks =
      MakeParks(seed, park_tag, Scaled(static_cast<double>(park_count), scale),
                park_radius, park_max_vertices);
  const size_t count = Scaled(static_cast<double>(base_count), scale);
  std::vector<Polygon> polygons;
  polygons.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const double mix = rng.NextDouble();
    if (mix < 0.25 && !parks.empty()) {
      // Strictly inside a park: fit the lake into the park's safe disc.
      const BlobInfo& park = parks[rng.NextBounded(parks.size())];
      if (park.safe_radius > 1e-4) {
        const size_t vertices =
            static_cast<size_t>(rng.LogUniform(8, static_cast<double>(max_vertices)));
        BlobParams params;
        params.vertices = vertices;
        params.irregularity = rng.Uniform(0.2, 0.5);
        params.harmonics = static_cast<int>(rng.UniformInt(3, 6));
        const double max_extent = park.safe_radius * rng.Uniform(0.3, 0.85);
        params.mean_radius = max_extent / (1.0 + params.irregularity);
        const double slack = park.safe_radius - max_extent;
        const double angle = rng.Uniform(0.0, 2.0 * std::numbers::pi);
        const double dist = rng.Uniform(0.0, std::max(0.0, slack));
        params.center = Point{park.center.x + dist * std::cos(angle),
                              park.center.y + dist * std::sin(angle)};
        polygons.push_back(MakeBlob(&rng, params));
        continue;
      }
    } else if (mix < 0.35 && !parks.empty()) {
      // Centred on a park boundary vertex: guaranteed to intersect it.
      const BlobInfo& park = parks[rng.NextBounded(parks.size())];
      const Ring& ring = park.polygon.Outer();
      const Point& anchor = ring[rng.NextBounded(ring.Size())];
      BlobParams params;
      params.center = anchor;
      params.vertices = static_cast<size_t>(
          rng.LogUniform(8, static_cast<double>(max_vertices)));
      params.irregularity = rng.Uniform(0.2, 0.5);
      params.harmonics = static_cast<int>(rng.UniformInt(3, 6));
      params.mean_radius = park.mean_radius * rng.Uniform(0.15, 0.6);
      polygons.push_back(MakeBlob(&rng, params));
      continue;
    } else if (mix < 0.37 && !parks.empty()) {
      // Fill a park hole exactly: lake meets park along the full hole ring.
      const BlobInfo& park = parks[rng.NextBounded(parks.size())];
      if (!park.polygon.Holes().empty()) {
        const Ring& hole =
            park.polygon.Holes()[rng.NextBounded(park.polygon.Holes().size())];
        polygons.push_back(Polygon(hole));  // winding normalised by Polygon
        continue;
      }
    } else if (mix < 0.38 && !parks.empty()) {
      // Verbatim park copy: an equals pair for geo-interlinking.
      polygons.push_back(parks[rng.NextBounded(parks.size())].polygon);
      continue;
    } else if (mix < 0.405 && !parks.empty()) {
      // Carved park copy: the park with an extra hole punched into it. The
      // lake shares the park's entire outer boundary but covers less — a
      // covered-by pair with dimension-1 boundary contact.
      const BlobInfo& park = parks[rng.NextBounded(parks.size())];
      if (park.safe_radius > 1e-3 && park.polygon.Holes().empty()) {
        BlobParams hole_params;
        hole_params.center = park.center;
        hole_params.mean_radius = park.safe_radius * rng.Uniform(0.2, 0.4);
        hole_params.vertices = static_cast<size_t>(rng.UniformInt(8, 24));
        hole_params.irregularity = 0.25;
        Ring hole = MakeBlob(&rng, hole_params).Outer();
        polygons.push_back(
            Polygon(park.polygon.Outer(), {std::move(hole)}));
        continue;
      }
    }
    polygons.push_back(
        MakeSizedBlob(&rng, kRegion, 0.011, 8, max_vertices, 0.12, 0.3).polygon);
  }
  return FromPolygons(std::move(name), "lakes (complexity-heavy blobs)",
                      std::move(polygons));
}

Dataset BuildParksDataset(std::string name, std::string_view tag,
                          size_t base_count, double radius_base,
                          size_t max_vertices, double scale, uint64_t seed) {
  const std::vector<BlobInfo> parks = MakeParks(
      seed, tag, Scaled(static_cast<double>(base_count), scale), radius_base,
      max_vertices);
  std::vector<Polygon> polygons;
  polygons.reserve(parks.size());
  for (const BlobInfo& park : parks) polygons.push_back(park.polygon);
  return FromPolygons(std::move(name), "parks (large blobs with holes)",
                      std::move(polygons));
}

Dataset BuildBuildingsDataset(std::string name, std::string_view park_tag,
                              size_t base_count, size_t park_count,
                              double park_radius, size_t park_max_vertices,
                              size_t clusters, double scale, uint64_t seed) {
  Rng rng(SubSeed(seed, name));
  const std::vector<BlobInfo> parks =
      MakeParks(seed, park_tag, Scaled(static_cast<double>(park_count), scale),
                park_radius, park_max_vertices);
  BuildingParams params;
  params.region = kRegion;
  params.count = Scaled(static_cast<double>(base_count), scale);
  params.clusters = std::max<size_t>(4, Scaled(static_cast<double>(clusters), scale));
  params.cluster_spread = 0.012;
  params.min_size = 0.015;
  params.max_size = 0.12;
  std::vector<Polygon> polygons = MakeBuildings(&rng, params);
  // Re-anchor 60% of the clusters onto park centres: buildings in and around
  // green areas, the relation mix the OBx-OPx scenarios are about.
  // (MakeBuildings clustered around random centres; move a share of the
  // buildings near park centres instead.)
  if (!parks.empty()) {
    for (Polygon& building : polygons) {
      if (!rng.Bernoulli(0.6)) continue;
      const BlobInfo& park = parks[rng.NextBounded(parks.size())];
      const double spread = std::max(park.mean_radius * 0.7, 0.05);
      const Point target{park.center.x + rng.Normal() * spread,
                         park.center.y + rng.Normal() * spread};
      const Point current = building.Bounds().Center();
      building =
          Translate(building, target.x - current.x, target.y - current.y);
    }
  }
  return FromPolygons(std::move(name), "buildings (clustered small footprints)",
                      std::move(polygons));
}

}  // namespace

std::vector<Box> Dataset::Mbrs() const {
  std::vector<Box> mbrs;
  mbrs.reserve(objects.size());
  for (const SpatialObject& object : objects) {
    mbrs.push_back(object.geometry.Bounds());
  }
  return mbrs;
}

size_t Dataset::TotalVertices() const {
  size_t total = 0;
  for (const SpatialObject& object : objects) {
    total += object.geometry.VertexCount();
  }
  return total;
}

size_t Dataset::GeometryByteSize() const {
  size_t total = 0;
  for (const SpatialObject& object : objects) {
    total += object.geometry.VertexCount() * 2 * sizeof(double) +
             object.geometry.RingCount() * 8 + 24;
  }
  return total;
}

size_t ScenarioData::AprilByteSize(bool of_r) const {
  const std::vector<AprilApproximation>& lists = of_r ? r_april : s_april;
  size_t total = 0;
  for (const AprilApproximation& april : lists) total += april.ByteSize();
  return total;
}

const std::vector<std::string>& DatasetNames() {
  static const std::vector<std::string> kNames = {
      "TL", "TW", "TC", "TZ", "OBE", "OLE", "OPE", "OBN", "OLN", "OPN"};
  return kNames;
}

const std::vector<std::string>& ScenarioNames() {
  static const std::vector<std::string> kNames = {
      "TL-TW", "TL-TC", "TC-TZ", "OLE-OPE", "OLN-OPN", "OBE-OPE", "OBN-OPN"};
  return kNames;
}

Dataset BuildDataset(std::string_view name, double scale, uint64_t seed) {
  if (name == "TL") return BuildLandmarks(scale, seed);
  if (name == "TW") {
    return FromPolygons("TW", "US water areas (blobs with island holes)",
                        BuildWaterPolygons(scale, seed));
  }
  if (name == "TC") {
    return FromPolygons("TC", "US counties (coarse level of the nested grid)",
                        BuildAdminTessellation(scale, seed).coarse);
  }
  if (name == "TZ") {
    return FromPolygons("TZ", "US zip codes (fine level of the nested grid)",
                        BuildAdminTessellation(scale, seed).fine);
  }
  if (name == "OPE") {
    return BuildParksDataset("OPE", "OPE-parks", 9000, 0.015, 6000, scale, seed);
  }
  if (name == "OPN") {
    return BuildParksDataset("OPN", "OPN-parks", 4000, 0.018, 5000, scale, seed);
  }
  if (name == "OLE") {
    return BuildLakes("OLE", "OPE-parks", 7000, 9000, 0.015, 6000, 4000, scale,
                      seed);
  }
  if (name == "OLN") {
    return BuildLakes("OLN", "OPN-parks", 9000, 4000, 0.018, 5000, 3000, scale,
                      seed);
  }
  if (name == "OBE") {
    return BuildBuildingsDataset("OBE", "OPE-parks", 50000, 9000, 0.015, 6000,
                                 400, scale, seed);
  }
  if (name == "OBN") {
    return BuildBuildingsDataset("OBN", "OPN-parks", 20000, 4000, 0.018, 5000,
                                 200, scale, seed);
  }
  return Dataset{};
}

std::vector<AprilApproximation> BuildAprilApproximations(
    const Dataset& dataset, const RasterGrid& grid, unsigned num_threads,
    ExecContext* exec, const std::vector<uint8_t>* demand) {
  const size_t count = dataset.objects.size();
  STJ_CHECK(demand == nullptr || demand->size() == count);
  // Every record starts unusable and Build() sets the flag of each one it
  // completes, so a record left out by the demand mask, or abandoned by a
  // trip, reads as degraded: a pair that still reaches it refines instead
  // of filtering on empty lists.
  std::vector<AprilApproximation> out(count);
  for (AprilApproximation& a : out) a.usable = false;
  if (num_threads == 0) {
    num_threads = std::max(1u, std::thread::hardware_concurrency());
  }
  // Objects differ in cost by orders of magnitude, so workers claim blocks
  // of them from one cursor, as the join does, rather than owning static
  // chunks. Results are written at their object index, so the vector does
  // not depend on which worker built what. Each worker owns an
  // AprilBuilder because a builder's scratch is not shareable.
  constexpr size_t kBlock = 16;
  const auto workers = static_cast<unsigned>(
      std::min<size_t>(num_threads, (count + kBlock - 1) / kBlock));
  STJ_ATOMIC_DOC(
      "object-block cursor; fetch_add by every worker, each block is "
      "claimed once; the records are read after RunWorkers joins");
  std::atomic<size_t> next{0};
  internal::RunWorkers(workers, [&](unsigned /*worker*/) {
    const AprilBuilder builder(&grid);
    ExecContext::Scope scope(exec);
    for (size_t begin = next.fetch_add(kBlock); begin < count;
         begin = next.fetch_add(kBlock)) {
      const size_t end = std::min(count, begin + kBlock);
      for (size_t i = begin; i < end; ++i) {
        if (demand != nullptr && (*demand)[i] == 0) continue;
        // Rasterising one object is the expensive work unit: check in on
        // every one.
        if (scope.CheckIn()) return;
        out[i] = builder.Build(dataset.objects[i].geometry);
        if (exec != nullptr && !exec->TryCharge(out[i].ByteSize())) {
          // Budget trip: drop the record that overflowed the budget; the
          // next check-in stops the other workers.
          out[i] = AprilApproximation{};
          out[i].usable = false;
          return;
        }
      }
    }
  });
  return out;
}

ScenarioData BuildScenario(std::string_view name,
                           const ScenarioOptions& options) {
  const size_t dash = std::string_view(name).find('-');
  ScenarioData scenario;
  scenario.name = std::string(name);
  scenario.grid_order = options.grid_order;
  scenario.r = BuildDataset(name.substr(0, dash), options.scale, options.seed);
  scenario.s = BuildDataset(name.substr(dash + 1), options.scale, options.seed);

  for (const SpatialObject& object : scenario.r.objects) {
    scenario.dataspace.Expand(object.geometry.Bounds());
  }
  for (const SpatialObject& object : scenario.s.objects) {
    scenario.dataspace.Expand(object.geometry.Bounds());
  }

  if (options.build_april) {
    const RasterGrid grid(scenario.dataspace, options.grid_order);
    const auto t0 = std::chrono::steady_clock::now();
    scenario.r_april = BuildAprilApproximations(scenario.r, grid,
                                                /*num_threads=*/0);
    scenario.s_april = BuildAprilApproximations(scenario.s, grid,
                                                /*num_threads=*/0);
    scenario.preprocess_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
  }
  if (options.run_join) {
    scenario.candidates = MbrJoin::Join(scenario.r.Mbrs(), scenario.s.Mbrs());
  }
  return scenario;
}

}  // namespace stj
