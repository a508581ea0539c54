#pragma once

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
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

  /// Gives back the resident pages of [offset, offset + bytes) — every page
  /// that span touches (madvise MADV_DONTNEED). The bytes stay readable: a
  /// later read faults them in from the file again. For spans a reader has
  /// consumed and will not read again; a no-op in the fallback mode.
  void DropPages(size_t offset, size_t bytes) const;

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

/// \p dir, or its nearest ancestor that exists ("." for a relative path
/// none of whose components exists).
std::filesystem::path NearestExisting(const std::string& dir);

/// A scratch file that has no name: it lives on a filesystem only while it
/// is open, so nothing is left behind however the process ends. The
/// out-of-core prepare spills geometry to one (shard_io.h GeometrySpill).
///
/// WriteAt and ReadAt take explicit offsets (pwrite / pread), so several
/// threads may write disjoint spans, or read, at once. Without POSIX the
/// file is a std::tmpfile (on the temporary directory's filesystem) whose
/// accesses are serialised by one process-wide mutex.
class SpillFile {
 public:
  SpillFile() = default;
  ~SpillFile() { Close(); }

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;
  SpillFile(SpillFile&& other) noexcept;
  SpillFile& operator=(SpillFile&& other) noexcept;

  /// Creates an empty unnamed file on the filesystem that holds \p dir, or
  /// its nearest existing ancestor when \p dir does not exist (nothing is
  /// created in its place): O_TMPFILE where the filesystem supports it,
  /// else a file that is unlinked as soon as it is open.
  [[nodiscard]] static Status Create(const std::string& dir, SpillFile* out);

  /// Writes \p bytes of \p data at \p offset.
  [[nodiscard]] Status WriteAt(uint64_t offset, const void* data,
                               size_t bytes) const;
  /// Reads \p bytes at \p offset into \p data; a short read is an error.
  [[nodiscard]] Status ReadAt(uint64_t offset, void* data,
                              size_t bytes) const;

  /// Closes the file, which frees its blocks.
  void Close();

 private:
#if defined(__unix__) || defined(__APPLE__)
  int fd_ = -1;
#else
  std::FILE* file_ = nullptr;
#endif
};

}  // namespace stj
