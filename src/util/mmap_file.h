#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace stj {

/// Read-only memory mapping of a whole file — the storage primitive behind
/// the out-of-core shard layer (src/raster/shard_io.h).
///
/// On POSIX targets the file is mmap-ed PROT_READ/MAP_PRIVATE, so shard
/// segments are paged in lazily by first touch and paged out under memory
/// pressure — the property that lets a join run against shards far larger
/// than RAM. On targets without mmap the file is read into an owned buffer
/// instead; Data()/Size() behave identically (everything still works, it
/// just is not out-of-core), and IsMapped() tells telemetry which mode
/// served the bytes.
///
/// Platform isolation: this is the single translation unit in src/ allowed
/// to include platform headers (<sys/mman.h> & co.) — tools/stj_analyzer.py
/// enforces the confinement (platform-confined rule), which keeps every
/// other shard-layer file portable.
class MappedFile {
 public:
  MappedFile() = default;
  ~MappedFile() { Close(); }

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;
  MappedFile(MappedFile&& other) noexcept;
  MappedFile& operator=(MappedFile&& other) noexcept;

  /// Maps \p path read-only into \p out (closing any previous mapping).
  /// kNotFound / kIoError name the precise failure. An empty file maps
  /// successfully with Size() == 0.
  static Status Open(const std::string& path, MappedFile* out);

  /// First byte of the mapping; null when nothing is open. Valid for
  /// Size() bytes until Close() or destruction.
  const uint8_t* Data() const { return data_; }
  size_t Size() const { return size_; }
  bool IsOpen() const { return open_; }

  /// True when the bytes are served by a real memory mapping (lazy page-in);
  /// false when the portable read-into-buffer fallback was used.
  bool IsMapped() const { return mapped_; }

  /// Unmaps / frees; the object returns to the default-constructed state.
  void Close();

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  bool open_ = false;
  bool mapped_ = false;
  /// Owned storage of the non-mmap fallback (empty in mapped mode).
  std::vector<uint8_t> fallback_;
};

}  // namespace stj
