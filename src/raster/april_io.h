#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/raster/april_compressed.h"
#include "src/raster/april_store.h"
#include "src/util/status.h"

namespace stj {

/// Binary (de)serialisation of APRIL approximations. The paper precomputes
/// the P and C lists once per dataset and loads them at join time; these
/// helpers provide that persistence, hardened against truncated and
/// bit-flipped files.
///
/// Format (version 3, the only one): "APRB" magic, u32 version, u64 object
/// count, then one framed record per object:
///
///   u64 payload_bytes | u64 fnv1a64(payload) | payload
///
/// The payload is the block codec of interval_codec.h, C list then P list:
/// per list a varint interval count and block count, the block headers
/// (varint first_cell, range span, count, payload length), then the
/// concatenated block payloads. The frame makes every record independently
/// verifiable and skippable: a corrupt record is detected by its checksum
/// and the reader resynchronises at the next frame, so one flipped byte
/// costs one object, not the file. Beyond the checksum, every record passes
/// deep codec validation at load; a record that verifies its checksum but
/// fails codec validation is isolated as a placeholder and counted
/// separately (codec_corrupt), since it indicates a writer bug or targeted
/// corruption rather than bit rot. All integers native-endian
/// (little-endian on every supported target).

/// Per-load accounting of what a (possibly corrupt) APRIL file yielded.
struct AprilLoadReport {
  uint32_t version = 0;        ///< Format version encountered.
  uint64_t declared_count = 0; ///< Object count claimed by the header.
  uint64_t loaded = 0;         ///< Records decoded and verified.
  uint64_t corrupt = 0;        ///< Records unusable (bad checksum, or missing
                               ///< due to truncation).
  /// Records whose frame checksum verified but whose blocked payload failed
  /// deep codec validation (interval_codec.h). Disjoint from `corrupt`;
  /// such records also become usable=false placeholders.
  uint64_t codec_corrupt = 0;
  bool truncated = false;      ///< File ended before declared_count records.
  /// Indices (into the declared object order) of unusable records (checksum
  /// or codec failures) that are physically present in the output as
  /// usable=false placeholders. A truncated tail is NOT enumerated here:
  /// every index >= the output's size is missing (see truncated /
  /// declared_count).
  std::vector<uint64_t> corrupt_indices;

  /// True when anything at all was lost.
  bool Degraded() const {
    return truncated || corrupt != 0 || codec_corrupt != 0;
  }
};

/// Writes \p store as a version-3 file. Corruption placeholders are written
/// as empty records (the usable flag is not persisted). Returns false on any
/// I/O error.
bool SaveAprilStoreBlocked(const std::string& path,
                           const CompressedAprilStore& store);

/// Reads a file into a CompressedAprilStore, keeping the block codec as
/// stored. Checksum failures and codec-validation failures each cost one
/// record (usable=false placeholder + report entry, so later records keep
/// their object index); truncation keeps the verified prefix. Returns a
/// non-ok Status only for structural failures: missing file, unreadable
/// header, unknown magic or version. \p report may be null.
Status LoadCompressedAprilStore(const std::string& path,
                                CompressedAprilStore* out,
                                AprilLoadReport* report = nullptr);

/// Reads a file straight into an arena-backed store in one pass (no
/// per-object heap lists): the same frame loop and tolerance semantics as
/// LoadCompressedAprilStore, with each verified record decoded to flat
/// canonical intervals.
Status LoadAprilStore(const std::string& path, AprilStore* out,
                      AprilLoadReport* report = nullptr);

}  // namespace stj
