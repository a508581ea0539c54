#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/geometry/polygon.h"
#include "src/join/mbr_join.h"
#include "src/raster/april.h"
#include "src/raster/grid.h"
#include "src/topology/pipeline.h"
#include "src/util/exec_context.h"

namespace stj {

/// A named polygon dataset — the synthetic analogue of one of the paper's
/// ten TIGER/OSM datasets (Table 2).
struct Dataset {
  std::string name;
  std::string description;
  std::vector<SpatialObject> objects;

  /// Materialises the per-object MBRs (input to the filter-step join).
  std::vector<Box> Mbrs() const;

  size_t TotalVertices() const;

  /// Approximate serialised size of the raw polygons (16 bytes per vertex
  /// plus small per-ring/object headers) for Table 2 reporting.
  size_t GeometryByteSize() const;

  /// Size of the MBR table (4 doubles per object).
  size_t MbrByteSize() const { return objects.size() * 4 * sizeof(double); }
};

/// Everything a scenario run needs: the two datasets, their per-scenario
/// APRIL approximations, and the MBR-join candidate pairs.
struct ScenarioData {
  std::string name;  ///< e.g. "OLE-OPE"
  Dataset r;
  Dataset s;
  Box dataspace;        ///< Combined bounds both datasets were rastered on.
  uint32_t grid_order;  ///< The scenario grid is 2^order x 2^order.
  std::vector<AprilApproximation> r_april;
  std::vector<AprilApproximation> s_april;
  std::vector<CandidatePair> candidates;
  /// Wall time spent building the APRIL approximations (both datasets); the
  /// paper's preprocessing-throughput experiments report from this.
  double preprocess_seconds = 0.0;

  DatasetView RView() const { return DatasetView{&r.objects, &r_april}; }
  DatasetView SView() const { return DatasetView{&s.objects, &s_april}; }

  size_t AprilByteSize(bool of_r) const;
};

/// Knobs shared by all scenario builders.
struct ScenarioOptions {
  ScenarioOptions() {}
  /// Multiplier on all object counts (1.0 = benchmark default, use ~0.02 in
  /// unit tests). The paper's absolute dataset sizes are scaled down so the
  /// full suite runs on one core; see DESIGN.md for the substitution note.
  double scale = 1.0;
  /// log2 of the scenario grid resolution. The paper uses 16; the default 12
  /// keeps per-object cell counts comparable on the scaled-down dataspace.
  uint32_t grid_order = 12;
  uint64_t seed = 7;
  /// Skip building approximations / running the join (for callers that only
  /// need the raw polygons).
  bool build_april = true;
  bool run_join = true;
};

/// The ten dataset names of Table 2 (TL, TW, TC, TZ, OBE, OLE, OPE, OBN,
/// OLN, OPN).
const std::vector<std::string>& DatasetNames();

/// The seven scenario names of Table 3 (e.g. "TL-TW", "OLE-OPE").
const std::vector<std::string>& ScenarioNames();

/// Builds one dataset by name. Deterministic in (name, scale, seed);
/// datasets that are semantically coupled (TZ refines TC; OLE lakes sit in
/// OPE parks; OBx buildings cluster near OPx parks) derive the partner's
/// geometry from the same sub-seed so the coupling is consistent with the
/// partner dataset built separately.
Dataset BuildDataset(std::string_view name, double scale, uint64_t seed);

/// Builds a scenario: both datasets, the per-scenario raster grid and APRIL
/// approximations (built on all cores; the result does not depend on the
/// thread count), and the MBR-join candidates.
ScenarioData BuildScenario(std::string_view name,
                           const ScenarioOptions& options = ScenarioOptions());

/// Builds APRIL approximations for the objects of \p dataset on \p grid,
/// fanning them out over \p num_threads workers (0 = hardware concurrency,
/// 1 = serial) that claim blocks of objects from a shared cursor. Each
/// worker owns its own AprilBuilder — and so its own rasterizer and merge
/// scratch — and writes results index-aligned into a pre-sized output, so
/// the returned vector is byte-identical regardless of thread count.
///
/// \p demand (optional, one byte per object) restricts the build to the
/// objects with a nonzero byte, as FilterDemandOf (pipeline.h) computes
/// them for a join; every other record is left empty and usable=false.
/// Null builds every object.
///
/// \p exec (optional) makes the build cancellable: workers check in once
/// per rasterised object and charge each record's interval payload against
/// the soft memory budget. On a trip the vector keeps every record built
/// before the cut and flags the unbuilt remainder usable=false — exactly
/// the shape of a degraded APRIL load, so a join over the partial build
/// stays exact via refinement fallback. Consult exec->StopRequested() /
/// ToStatus() to distinguish a partial build from a complete one.
std::vector<AprilApproximation> BuildAprilApproximations(
    const Dataset& dataset, const RasterGrid& grid, unsigned num_threads = 1,
    ExecContext* exec = nullptr, const std::vector<uint8_t>* demand = nullptr);

}  // namespace stj
