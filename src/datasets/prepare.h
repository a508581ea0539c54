#pragma once

#include <cstdint>
#include <string>

#include "src/datasets/dataset_io.h"
#include "src/join/partitioner.h"
#include "src/raster/shard_io.h"
#include "src/util/exec_context.h"
#include "src/util/status.h"

namespace stj {

/// Knobs of PrepareShardSets.
struct PrepareOptions {
  LoadMode mode = LoadMode::kStrict;
  /// The raster grid covers the joint bounds of both inputs at this order.
  uint32_t grid_order = 12;
  PartitionOptions partition;
  /// Workers of the load, the list builds and the tile writer (0 =
  /// hardware concurrency). No output byte depends on it.
  unsigned num_threads = 0;
  /// Optional: cancels, bounds the wall time, and charges what the prepare
  /// holds — each object's flat lists until they are encoded, the
  /// compressed lists of the side being written, the writer's buffers —
  /// giving all of it back by the return.
  ExecContext* exec = nullptr;
};

/// What PrepareShardSets did, for the report lines of the CLI.
struct PrepareReport {
  struct Side {
    bool loaded = false;  ///< The load finished; the four fields below hold.
    LoadReport load;
    uint64_t objects = 0;
    uint64_t vertices = 0;
    double load_seconds = 0.0;
    uint64_t built = 0;  ///< Objects whose lists were built.
    /// Of the side's shard set, once written.
    ShardWriteStats write;
    double imbalance = 1.0;  ///< TilePartition::MaxImbalance of the set.
  };
  Side r;
  Side s;
  bool build_started = false;
  double build_seconds = 0.0;  ///< Both sides' list builds.
  double write_seconds = 0.0;  ///< Both sides' shard writes.
};

/// The out-of-core prepare: writes the WKT files \p r_path and \p s_path as
/// the shard sets \p dir/r and \p dir/s over their joint raster grid, whose
/// manifests record that grid. The sets are byte-identical to BuildShardSet
/// over LoadWktDataset's datasets and their lists, but the inputs are never
/// resident:
///
/// - Pass 1 loads each file with StreamWktDataset. Each accepted object's
///   polygon record goes to a GeometrySpill (an unnamed file on the
///   filesystem of \p dir, or of its nearest existing ancestor), and only
///   its SpilledObject stays in memory.
/// - Pass 2, one side at a time, reads the spill back a run of objects at
///   a time on each worker, builds and compresses each object's lists and
///   frees them, then partitions the side and writes its tiles from the
///   spill and the compressed lists (BuildShardSet). That side's lists are
///   freed before the next side is built.
///
/// A failure or a tripped \p options.exec leaves no spill file, removes
/// the directories the prepare created and the manifest of any side it
/// wrote; a side it did not reach keeps the set it held. *report says how
/// far it got. Returns the load's Status, the stop cause, or the writer's.
[[nodiscard]] Status PrepareShardSets(const std::string& r_path,
                                      const std::string& s_path,
                                      const std::string& dir,
                                      const PrepareOptions& options,
                                      PrepareReport* report);

}  // namespace stj
