#include "src/datasets/dataset_io.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <system_error>
#include <thread>
#include <utility>
#include <vector>

#include "src/geometry/validate.h"
#include "src/geometry/wkt.h"
#include "src/util/parallel_for.h"

namespace stj {

namespace {

/// Bytes a load worker reads at a time, at most. Its window grows only to
/// hold a longer line; the file as a whole is never resident.
constexpr size_t kWindowBytes = size_t{1} << 20;

/// Objects a SaveWktDataset worker formats per slice.
constexpr size_t kSaveSlice = 1024;

unsigned ResolveThreads(unsigned requested) {
  return requested != 0 ? requested
                        : std::max(1u, std::thread::hardware_concurrency());
}

struct FileCloser {
  void operator()(std::FILE* file) const { std::fclose(file); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

/// Splits a file into lines through one reusable window. A line excludes
/// its '\n'; a last line without one is still a line.
class LineReader {
 public:
  /// \p offset is the file position \p file is at.
  LineReader(std::FILE* file, uint64_t offset, size_t window_bytes)
      : file_(file), offset_(offset), window_(window_bytes) {}

  /// The next line, valid until the next call; false at the end of the
  /// file or on a read error (failed()).
  bool Next(std::string_view* line) {
    for (;;) {
      const char* first = window_.data() + head_;
      const size_t held = tail_ - head_;
      if (const void* newline = std::memchr(first, '\n', held)) {
        const auto length =
            static_cast<size_t>(static_cast<const char*>(newline) - first);
        *line = std::string_view(first, length);
        Consume(length + 1);
        return true;
      }
      if (failed_) return false;
      if (eof_) {
        if (held == 0) return false;
        *line = std::string_view(first, held);
        Consume(held);
        return true;
      }
      Refill();
    }
  }

  /// File offset of the next line's first byte.
  uint64_t offset() const { return offset_; }
  bool failed() const { return failed_; }

 private:
  void Consume(size_t bytes) {
    head_ += bytes;
    offset_ += bytes;
  }

  /// Moves the partial line to the front of the window, doubles the window
  /// if that line fills it, and reads the rest.
  void Refill() {
    std::memmove(window_.data(), window_.data() + head_, tail_ - head_);
    tail_ -= head_;
    head_ = 0;
    if (tail_ == window_.size()) window_.resize(2 * window_.size());
    const size_t wanted = window_.size() - tail_;
    const size_t got = std::fread(window_.data() + tail_, 1, wanted, file_);
    tail_ += got;
    if (got < wanted) {
      failed_ = std::ferror(file_) != 0;
      eof_ = !failed_;
    }
  }

  std::FILE* file_;
  uint64_t offset_;  ///< File offset of window_[head_].
  std::vector<char> window_;
  size_t head_ = 0;  ///< First byte not yet returned.
  size_t tail_ = 0;  ///< One past the last byte read.
  bool eof_ = false;
  bool failed_ = false;
};

/// What one byte range of the file produced. Line numbers, in the issues
/// and in the error, count from 1 at the range's first line; MergeRanges
/// adds the lines of the ranges before it.
struct RangeLoad {
  std::vector<SpatialObject> objects;  ///< Ids are assigned by the merge.
  LoadReport report;  ///< Issues capped at max_issues, like the merge.
  uint64_t line_count = 0;  ///< Every line that starts in the range.
  Status error;  ///< Strict rejection or read failure; ends the range.
};

void RecordIssue(const LoadOptions& options, LoadReport* report, uint64_t line,
                 LineIssue::Action action, std::string reason) {
  if (report->issues.size() < options.max_issues) {
    report->issues.push_back(LineIssue{line, action, std::move(reason)});
  } else {
    ++report->issues_dropped;
  }
}

/// Loads one non-blank, non-comment line. Returns false when the line ends
/// a strict load; range->error then says why.
bool LoadLine(std::string_view text, uint64_t line, const LoadOptions& options,
              RangeLoad* range) {
  LoadReport& report = range->report;
  const bool permissive = options.mode == LoadMode::kPermissive;
  ++report.lines;

  Result<Polygon> polygon = ParseWktPolygon(text);
  if (!polygon.has_value()) {
    Status error = polygon.status();
    error.WithLine(line);
    if (!permissive) {
      RecordIssue(options, &report, line, LineIssue::Action::kRejected,
                  error.message());
      range->error = std::move(error);
      return false;
    }
    ++report.skipped;
    RecordIssue(options, &report, line, LineIssue::Action::kSkipped,
                error.message());
    return true;
  }

  // Structural soundness: strict mode rejects a ring of zero area (the
  // O(n) part of validation; the rest is opt-in below); permissive mode
  // repairs what it can and skips the rest so one mangled row never
  // discards the dataset.
  bool was_repaired = false;
  std::string repairs;
  if (!permissive) {
    const ValidationResult areas = ValidateRingAreas(*polygon);
    if (!areas.valid) {
      Status error = Status::InvalidArgument("degenerate polygon: " +
                                             areas.reason);
      error.WithLine(line);
      RecordIssue(options, &report, line, LineIssue::Action::kRejected,
                  error.message());
      range->error = std::move(error);
      return false;
    }
  } else {
    Polygon repaired;
    switch (RepairPolygon(*polygon, &repaired, &repairs)) {
      case RepairOutcome::kUnchanged:
        break;
      case RepairOutcome::kRepaired:
        *polygon = std::move(repaired);
        was_repaired = true;
        break;
      case RepairOutcome::kUnrepairable:
        ++report.skipped;
        RecordIssue(options, &report, line, LineIssue::Action::kSkipped,
                    "degenerate outer ring (fewer than 3 distinct vertices "
                    "or zero area)");
        return true;
    }
  }

  if (options.validate) {
    const ValidationResult validity = ValidatePolygon(*polygon);
    if (!validity.valid) {
      Status error = Status::InvalidArgument("invalid polygon: " +
                                             validity.reason);
      error.WithLine(line);
      if (!permissive) {
        range->error = std::move(error);
        return false;
      }
      ++report.skipped;
      RecordIssue(options, &report, line, LineIssue::Action::kSkipped,
                  error.message());
      return true;
    }
  }

  if (was_repaired) {
    ++report.repaired;
    RecordIssue(options, &report, line, LineIssue::Action::kRepaired,
                repairs);
  } else {
    ++report.accepted;
  }
  range->objects.push_back(SpatialObject{0, std::move(*polygon)});
  return true;
}

/// Parses the lines that start in [begin, end) of \p file, which is
/// positioned at byte max(begin, 1) - 1. A range that does not start at
/// byte 0 begins just past the first '\n' at or after begin - 1, so each
/// line belongs to the range that holds its first byte.
void LoadRange(std::FILE* file, uint64_t begin, uint64_t end,
               const LoadOptions& options, RangeLoad* range) {
  const uint64_t start = begin == 0 ? 0 : begin - 1;
  // A window larger than the range would only hold other ranges' bytes.
  LineReader reader(file, start, std::min<uint64_t>(kWindowBytes, end - start));
  std::string_view text;
  // The line holding byte begin - 1 belongs to an earlier range.
  if (begin != 0) reader.Next(&text);
  while (reader.offset() < end && reader.Next(&text)) {
    ++range->line_count;
    if (text.empty() || text[0] == '#') continue;
    if (!LoadLine(text, range->line_count, options, range)) return;
  }
  if (reader.failed()) {
    range->error = Status::IoError("read error").WithLine(range->line_count);
  }
}

/// Concatenates the ranges in file order into what one pass over the file
/// would have produced: the earliest failing range ends the merge, with
/// its counters stopped at the failing line and no objects kept.
Status MergeRanges(std::vector<RangeLoad>* ranges, const std::string& path,
                   const LoadOptions& options, Dataset* out,
                   LoadReport* report) {
  LoadReport merged;
  Status status;
  uint64_t base = 0;  // lines in the ranges before this one
  uint32_t id = 0;
  for (RangeLoad& range : *ranges) {
    merged.lines += range.report.lines;
    merged.accepted += range.report.accepted;
    merged.repaired += range.report.repaired;
    merged.skipped += range.report.skipped;
    merged.issues_dropped += range.report.issues_dropped;
    for (LineIssue& issue : range.report.issues) {
      RecordIssue(options, &merged, base + issue.line, issue.action,
                  std::move(issue.reason));
    }
    if (!range.error.ok()) {
      status = std::move(range.error);
      status.WithFile(path).WithLine(base + status.line());
      out->objects.clear();
      break;
    }
    for (SpatialObject& object : range.objects) {
      object.id = id++;
      out->objects.push_back(std::move(object));
    }
    range.objects = {};
    base += range.line_count;
  }
  if (report != nullptr) *report = std::move(merged);
  return status;
}

}  // namespace

bool SaveWktDataset(const std::string& path, const Dataset& dataset,
                    unsigned num_threads) {
  File file(std::fopen(path.c_str(), "wb"));
  if (file == nullptr) return false;
  const std::string header = "# stjoin dataset: " + dataset.name + " — " +
                             dataset.description + "\n";
  bool ok = std::fwrite(header.data(), 1, header.size(), file.get()) ==
            header.size();
  const size_t threads = ResolveThreads(num_threads);
  const size_t n = dataset.objects.size();
  std::vector<std::string> slices(threads);
  for (size_t base = 0; base < n && ok; base += threads * kSaveSlice) {
    const size_t count =
        std::min(threads, (n - base + kSaveSlice - 1) / kSaveSlice);
    internal::RunChunks(
        static_cast<unsigned>(threads), count,
        [&](unsigned /*worker*/, size_t first, size_t last) {
          for (size_t k = first; k < last; ++k) {
            std::string& text = slices[k];
            text.clear();
            const size_t end = std::min(n, base + (k + 1) * kSaveSlice);
            for (size_t i = base + k * kSaveSlice; i < end; ++i) {
              text += ToWkt(dataset.objects[i].geometry);
              text += '\n';
            }
          }
        });
    for (size_t k = 0; k < count && ok; ++k) {
      ok = std::fwrite(slices[k].data(), 1, slices[k].size(), file.get()) ==
           slices[k].size();
    }
  }
  return std::fclose(file.release()) == 0 && ok;
}

Status LoadWktDataset(const std::string& path, const std::string& name,
                      const LoadOptions& options, Dataset* out,
                      LoadReport* report) {
  out->objects.clear();
  out->name = name;
  if (report != nullptr) *report = LoadReport{};
  // Range 0 reads through this handle, so a pipe is opened only once.
  File first(std::fopen(path.c_str(), "rb"));
  if (first == nullptr) {
    return Status::NotFound("cannot open dataset file").WithFile(path);
  }
  // Only a regular file has a size to split; anything else is one range.
  std::error_code error;
  const uint64_t size = std::filesystem::file_size(path, error);
  const uint64_t ranges =
      error ? 1
            : std::clamp<uint64_t>(ResolveThreads(options.num_threads), 1,
                                   std::max<uint64_t>(size, 1));
  // Range i starts at floor(size * i / ranges), computed without forming
  // size * i; the last range runs to the end of the file.
  const auto range_begin = [&](uint64_t i) {
    return size / ranges * i + size % ranges * i / ranges;
  };
  std::vector<RangeLoad> loads(ranges);
  internal::RunChunks(
      static_cast<unsigned>(ranges), ranges,
      [&](unsigned /*worker*/, size_t i, size_t /*i + 1*/) {
        const uint64_t begin = range_begin(i);
        const uint64_t end = i + 1 == ranges
                                 ? std::numeric_limits<uint64_t>::max()
                                 : range_begin(i + 1);
        File own;
        if (i != 0) {
          own.reset(std::fopen(path.c_str(), "rb"));
          if (own == nullptr ||
              std::fseek(own.get(), static_cast<long>(begin - 1), SEEK_SET) !=
                  0) {
            loads[i].error = Status::IoError("read error");
            return;
          }
        }
        LoadRange(i == 0 ? first.get() : own.get(), begin, end, options,
                  &loads[i]);
      });
  return MergeRanges(&loads, path, options, out, report);
}

bool LoadWktDataset(const std::string& path, const std::string& name,
                    Dataset* out) {
  return LoadWktDataset(path, name, LoadOptions{}, out).ok();
}

}  // namespace stj
