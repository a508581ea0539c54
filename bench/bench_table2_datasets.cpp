// Reproduces Table 2: per-dataset polygon counts and the sizes of the raw
// geometry, the MBRs, and the P+C approximations.
//
// The synthetic datasets are scaled-down analogues of TIGER/OSM (see
// DESIGN.md); the point of the table — P+C lists are far smaller than the
// geometry they approximate, often comparable to the MBR table — must hold.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "src/raster/april_compressed.h"
#include "src/util/stats.h"

namespace stj::bench {
namespace {

double Mb(size_t bytes) { return static_cast<double>(bytes) / 1e6; }

void Run(const BenchOptions& options) {
  PrintTitle("Table 2: dataset descriptions");
  std::printf("%-6s %-44s %12s %12s %12s %12s %14s\n", "name", "entity type",
              "# polygons", "size (MB)", "MBRs (MB)", "P+C (MB)",
              "P+C.codec (MB)");
  for (const std::string& name : DatasetNames()) {
    const Dataset dataset = BuildDataset(name, options.scale, options.seed);
    // Per-dataset grid over its own bounds, as each scenario would grid it.
    Box bounds;
    for (const SpatialObject& object : dataset.objects) {
      bounds.Expand(object.geometry.Bounds());
    }
    const RasterGrid grid(bounds, options.grid_order);
    const std::vector<AprilApproximation> april =
        BuildAprilApproximations(dataset, grid);
    size_t april_bytes = 0;
    for (const AprilApproximation& a : april) april_bytes += a.ByteSize();
    // The same lists in the block codec, as the shard files store them:
    // the compressed store's arenas, offset tables and flags.
    const size_t compressed_bytes =
        CompressedAprilStore::FromStore(AprilStore::FromApproximations(april))
            .ByteSize();
    std::printf("%-6s %-44s %12s %12.1f %12.2f %12.2f %14.2f\n",
                dataset.name.c_str(), dataset.description.c_str(),
                FormatApproxCount(dataset.objects.size()).c_str(),
                Mb(dataset.GeometryByteSize()), Mb(dataset.MbrByteSize()),
                Mb(april_bytes), Mb(compressed_bytes));
    std::fflush(stdout);
  }
}

}  // namespace
}  // namespace stj::bench

int main(int argc, char** argv) {
  stj::bench::Run(stj::bench::BenchOptions::Parse(argc, argv));
  return 0;
}
