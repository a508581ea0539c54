#pragma once

// Deterministic corruption helpers for the fault-injection suite: read a
// file into memory, damage specific bytes, write it back. No randomness —
// every scenario is reproducible from the test source alone.

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include <gtest/gtest.h>

#include "src/raster/shard_io.h"

namespace stj::test {

inline std::string ReadFileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  EXPECT_NE(f, nullptr) << path;
  std::string bytes;
  if (f != nullptr) {
    char buf[1 << 16];
    size_t n = 0;
    while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
    std::fclose(f);
  }
  return bytes;
}

inline void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr) << path;
  if (!bytes.empty()) {
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  }
  ASSERT_EQ(std::fclose(f), 0);
}

/// The original bytes with byte \p index inverted (XOR 0xFF — guaranteed to
/// change the byte, unlike XOR with a random mask).
inline std::string WithFlippedByte(const std::string& bytes, size_t index) {
  std::string damaged = bytes;
  damaged[index] = static_cast<char>(~static_cast<unsigned char>(bytes[index]));
  return damaged;
}

/// The first \p size bytes of the original.
inline std::string TruncatedTo(const std::string& bytes, size_t size) {
  return bytes.substr(0, size);
}

/// Locates the segment of \p kind in the image of a shard file (layout per
/// src/raster/shard_io.h: a 40-byte header, then 32-byte table entries of
/// { u32 kind | u32 pad | u64 offset | u64 bytes | u64 fnv }). False when
/// the table has no such entry.
inline bool FindShardSegment(const void* file, uint32_t kind,
                             uint64_t* offset, uint64_t* bytes) {
  constexpr size_t kHeader = 40, kEntry = 32;
  const char* data = static_cast<const char*>(file);
  for (size_t e = 0; e < shard::kNumSegments; ++e) {
    const char* entry = data + kHeader + e * kEntry;
    uint32_t k = 0;
    std::memcpy(&k, entry, sizeof(k));
    if (k != kind) continue;
    std::memcpy(offset, entry + 8, sizeof(*offset));
    std::memcpy(bytes, entry + 16, sizeof(*bytes));
    return true;
  }
  return false;
}

}  // namespace stj::test
