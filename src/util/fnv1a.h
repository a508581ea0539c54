#pragma once

#include <cstddef>
#include <cstdint>

namespace stj {

/// FNV-1a 64-bit offset basis: the hash of zero bytes.
inline constexpr uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

/// FNV-1a 64 over \p size bytes of \p data, continuing from \p h, so a hash
/// over several spans is one call per span. The shard format's checksum
/// (src/raster/shard_io.h): every segment and manifest payload, and every
/// APRIL list record (CompressedAprilStore::RecordChecksum).
inline uint64_t Fnv1a64(const void* data, size_t size,
                        uint64_t h = kFnv1a64Basis) {
  const uint8_t* bytes = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace stj
