#include "src/util/mmap_file.h"

#include <cstdio>
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

}  // namespace stj
