#include "src/util/mmap_file.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <mutex>
#include <system_error>
#include <utility>

// The one src/ translation unit allowed to touch platform headers (see the
// platform-confined rule in tools/stj_analyzer.py). Everything below the
// #if is POSIX; the #else branch is the portable read-into-buffer fallback.
#if defined(__unix__) || defined(__APPLE__)
#define STJ_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#else
#define STJ_HAVE_MMAP 0
#endif

namespace stj {

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(other.data_),
      size_(other.size_),
      open_(other.open_),
      mapped_(other.mapped_),
      fallback_(std::move(other.fallback_)) {
  if (!mapped_ && open_) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.open_ = false;
  other.mapped_ = false;
}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this == &other) return *this;
  Close();
  data_ = other.data_;
  size_ = other.size_;
  open_ = other.open_;
  mapped_ = other.mapped_;
  fallback_ = std::move(other.fallback_);
  if (!mapped_ && open_) data_ = fallback_.data();
  other.data_ = nullptr;
  other.size_ = 0;
  other.open_ = false;
  other.mapped_ = false;
  return *this;
}

void MappedFile::DropPages(size_t offset, size_t bytes) const {
#if STJ_HAVE_MMAP
  if (!mapped_ || data_ == nullptr || bytes == 0 || offset >= size_) return;
  const auto page = static_cast<size_t>(::sysconf(_SC_PAGESIZE));
  const size_t first = offset / page * page;
  const size_t last = std::min(size_, offset + bytes);
  // Discarded: dropping pages only returns memory early; a mapping whose
  // pages stay resident reads the same bytes.
  (void)::madvise(const_cast<uint8_t*>(data_) + first, last - first,
                  MADV_DONTNEED);
#else
  (void)offset;  // Discarded: the fallback holds no pages to give back.
  (void)bytes;
#endif
}

void MappedFile::Close() {
  if (!open_) return;
#if STJ_HAVE_MMAP
  if (mapped_ && data_ != nullptr && size_ != 0) {
    // Discarded: the mapping is being torn down; there is no recovery from
    // a failed munmap and the address range is gone either way.
    (void)::munmap(const_cast<uint8_t*>(data_), size_);
  }
#endif
  fallback_.clear();
  fallback_.shrink_to_fit();
  data_ = nullptr;
  size_ = 0;
  open_ = false;
  mapped_ = false;
}

Status MappedFile::Open(const std::string& path, MappedFile* out) {
  out->Close();
#if STJ_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::NotFound("cannot open file for mapping").WithFile(path);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat file for mapping").WithFile(path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    // mmap of length 0 is EINVAL; an empty mapping needs no pages.
    ::close(fd);
    out->open_ = true;
    out->mapped_ = true;
    return Status::Ok();
  }
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping holds its own reference; the descriptor is not needed after
  // mmap either way.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IoError("mmap failed").WithFile(path);
  }
  out->data_ = static_cast<const uint8_t*>(addr);
  out->size_ = size;
  out->open_ = true;
  out->mapped_ = true;
  return Status::Ok();
#else
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound("cannot open file").WithFile(path);
  }
  std::fseek(f, 0, SEEK_END);
  const long end = std::ftell(f);
  if (end < 0) {
    std::fclose(f);
    return Status::IoError("cannot size file").WithFile(path);
  }
  std::fseek(f, 0, SEEK_SET);
  out->fallback_.resize(static_cast<size_t>(end));
  const size_t read =
      end == 0 ? 0 : std::fread(out->fallback_.data(), 1, out->fallback_.size(), f);
  std::fclose(f);
  if (read != out->fallback_.size()) {
    out->fallback_.clear();
    return Status::IoError("short read").WithFile(path);
  }
  out->data_ = out->fallback_.data();
  out->size_ = out->fallback_.size();
  out->open_ = true;
  out->mapped_ = false;
  return Status::Ok();
#endif
}

std::filesystem::path NearestExisting(const std::string& dir) {
  std::filesystem::path path = dir.empty() ? "." : dir;
  std::error_code ec;
  while (!std::filesystem::exists(path, ec)) {
    if (!path.has_relative_path() || path.parent_path() == path) break;
    path = path.parent_path();
    if (path.empty()) return ".";
  }
  return path;
}

SpillFile::SpillFile(SpillFile&& other) noexcept { *this = std::move(other); }

#if STJ_HAVE_MMAP

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void SpillFile::Close() {
  if (fd_ < 0) return;
  // Discarded: closing the last descriptor of an unnamed file frees it;
  // there is nothing to recover from a failed close.
  (void)::close(fd_);
  fd_ = -1;
}

Status SpillFile::Create(const std::string& dir, SpillFile* out) {
  out->Close();
  const std::string where = NearestExisting(dir).string();
#ifdef O_TMPFILE
  out->fd_ = ::open(where.c_str(), O_TMPFILE | O_RDWR | O_CLOEXEC, 0600);
  if (out->fd_ >= 0) return Status::Ok();
#endif
  // No O_TMPFILE here: a uniquely named file, unlinked before it is used.
  std::string name =
      (std::filesystem::path(where) / ".stj_spill_XXXXXX").string();
  const int fd = ::mkstemp(name.data());
  if (fd < 0) {
    return Status::IoError("cannot create a spill file").WithFile(where);
  }
  if (::unlink(name.c_str()) != 0) {
    ::close(fd);
    return Status::IoError("cannot unlink the spill file").WithFile(name);
  }
  out->fd_ = fd;
  return Status::Ok();
}

Status SpillFile::WriteAt(uint64_t offset, const void* data,
                          size_t bytes) const {
  const auto* p = static_cast<const uint8_t*>(data);
  while (bytes != 0) {
    const ssize_t n = ::pwrite(fd_, p, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("spill file write failed");
    p += n;
    offset += static_cast<uint64_t>(n);
    bytes -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

Status SpillFile::ReadAt(uint64_t offset, void* data,
                         size_t bytes) const {
  auto* p = static_cast<uint8_t*>(data);
  while (bytes != 0) {
    const ssize_t n = ::pread(fd_, p, bytes, static_cast<off_t>(offset));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return Status::IoError("spill file read failed");
    p += n;
    offset += static_cast<uint64_t>(n);
    bytes -= static_cast<size_t>(n);
  }
  return Status::Ok();
}

#else

namespace {
/// Serialises every seek-then-access of the fallback's stdio files.
std::mutex& SpillMutex() {
  static std::mutex mutex;
  return mutex;
}
}  // namespace

SpillFile& SpillFile::operator=(SpillFile&& other) noexcept {
  if (this != &other) {
    Close();
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

void SpillFile::Close() {
  if (file_ == nullptr) return;
  std::fclose(file_);
  file_ = nullptr;
}

Status SpillFile::Create(const std::string& dir, SpillFile* out) {
  out->Close();
  out->file_ = std::tmpfile();
  if (out->file_ == nullptr) {
    return Status::IoError("cannot create a spill file").WithFile(dir);
  }
  return Status::Ok();
}

Status SpillFile::WriteAt(uint64_t offset, const void* data,
                          size_t bytes) const {
  const std::lock_guard<std::mutex> lock(SpillMutex());
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fwrite(data, 1, bytes, file_) != bytes) {
    return Status::IoError("spill file write failed");
  }
  return Status::Ok();
}

Status SpillFile::ReadAt(uint64_t offset, void* data,
                         size_t bytes) const {
  const std::lock_guard<std::mutex> lock(SpillMutex());
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0 ||
      std::fread(data, 1, bytes, file_) != bytes) {
    return Status::IoError("spill file read failed");
  }
  return Status::Ok();
}

#endif

}  // namespace stj
