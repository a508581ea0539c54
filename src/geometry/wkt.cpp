#include "src/geometry/wkt.h"

#include <charconv>
#include <cmath>
#include <vector>

#include "src/util/check.h"

namespace stj {

namespace {

/// Appends \p v as printf's "%.17g" would in the C locale: the standard
/// defines to_chars with chars_format::general and a precision as exactly
/// that conversion, and it ignores the process locale. The longest result
/// is 24 bytes ("-2.2250738585072014e-308").
void AppendCoord(std::string* out, double v) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                       std::chars_format::general, 17);
  STJ_DCHECK(ec == std::errc());
  out->append(buf, end);
}

void AppendRing(std::string* out, const Ring& ring) {
  out->push_back('(');
  for (size_t i = 0; i < ring.Size(); ++i) {
    if (i != 0) out->append(", ");
    AppendCoord(out, ring[i].x);
    out->push_back(' ');
    AppendCoord(out, ring[i].y);
  }
  // Close the ring explicitly.
  if (ring.Size() > 0) {
    out->append(", ");
    AppendCoord(out, ring[0].x);
    out->push_back(' ');
    AppendCoord(out, ring[0].y);
  }
  out->push_back(')');
}

/// The C locale's white space: ' ', '\t', '\n', '\v', '\f' and '\r'. Tested
/// inline rather than through std::isspace, which costs a call per byte
/// and follows the process locale (some locales count 0x1C or 0xA0).
constexpr bool IsSpace(char c) {
  return c == ' ' || (c >= '\t' && c <= '\r');
}

/// Minimal recursive-descent scanner over a WKT string. Tracks the byte
/// position so parse errors can name the exact offset that failed.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  /// Matches the upper-case keyword \p kw in either case.
  bool ConsumeKeyword(std::string_view kw) {
    SkipSpace();
    if (text_.size() - pos_ < kw.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      const char c = text_[pos_ + i];
      if ((c >= 'a' && c <= 'z' ? static_cast<char>(c - 'a' + 'A') : c) !=
          kw[i]) {
        return false;
      }
    }
    pos_ += kw.size();
    return true;
  }

  bool ConsumeChar(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ParseDouble(double* out) {
    SkipSpace();
    const char* begin = text_.data() + pos_;
    const char* end = text_.data() + text_.size();
    const auto [ptr, ec] = std::from_chars(begin, end, *out);
    if (ec != std::errc() || ptr == begin) return false;
    // from_chars also reads "nan" and "inf"; both fail the range test.
    const double magnitude = std::fabs(*out);
    if (magnitude != 0.0 && !(magnitude >= kCoordinateMagnitude.min &&
                              magnitude <= kCoordinateMagnitude.max)) {
      return false;
    }
    pos_ += static_cast<size_t>(ptr - begin);
    return true;
  }

  bool AtEnd() {
    SkipSpace();
    return pos_ == text_.size();
  }

  /// Current byte offset (after any skipped whitespace of the last call).
  size_t Pos() const { return pos_; }

  /// An InvalidArgument Status describing what was expected at the current
  /// position, e.g. "expected ')' but found 'x'".
  Status Error(std::string expected) {
    SkipSpace();
    std::string message = "expected " + std::move(expected);
    if (pos_ < text_.size()) {
      message += " but found '";
      message += text_[pos_];
      message += '\'';
    } else {
      message += " but input ended";
    }
    return Status::InvalidArgument(std::move(message)).WithOffset(pos_);
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

Status ParseRing(Scanner* sc, Ring* out) {
  if (!sc->ConsumeChar('(')) return sc->Error("'(' to open a ring");
  // One pass over the ring's bytes: the vertices go to this thread's
  // scratch vector, and the ring gets a copy of exactly their count.
  // Growing the ring's own vector instead would leave freed blocks behind
  // in every load worker's malloc arena.
  thread_local std::vector<Point> scratch;
  scratch.clear();
  do {
    Point p;
    if (!sc->ParseDouble(&p.x)) return sc->Error("x coordinate");
    if (!sc->ParseDouble(&p.y)) return sc->Error("y coordinate");
    scratch.push_back(p);
  } while (sc->ConsumeChar(','));
  if (!sc->ConsumeChar(')')) return sc->Error("',' or ')' in ring");
  // Ring() drops an explicit closing vertex.
  *out = Ring(std::vector<Point>(scratch.begin(), scratch.end()));
  return Status::Ok();
}

}  // namespace

std::string ToWkt(const Point& p) {
  std::string out = "POINT (";
  AppendCoord(&out, p.x);
  out.push_back(' ');
  AppendCoord(&out, p.y);
  out.push_back(')');
  return out;
}

std::string ToWkt(const Polygon& poly) {
  if (poly.Empty()) return "POLYGON EMPTY";
  std::string out = "POLYGON (";
  AppendRing(&out, poly.Outer());
  for (const Ring& hole : poly.Holes()) {
    out.append(", ");
    AppendRing(&out, hole);
  }
  out.push_back(')');
  return out;
}

Result<Point> ParseWktPoint(std::string_view wkt) {
  Scanner sc(wkt);
  if (!sc.ConsumeKeyword("POINT")) return sc.Error("keyword POINT");
  if (!sc.ConsumeChar('(')) return sc.Error("'('");
  Point p;
  if (!sc.ParseDouble(&p.x)) return sc.Error("x coordinate");
  if (!sc.ParseDouble(&p.y)) return sc.Error("y coordinate");
  if (!sc.ConsumeChar(')')) return sc.Error("')'");
  if (!sc.AtEnd()) return sc.Error("end of input");
  return p;
}

Result<Polygon> ParseWktPolygon(std::string_view wkt) {
  Scanner sc(wkt);
  if (!sc.ConsumeKeyword("POLYGON")) return sc.Error("keyword POLYGON");
  if (sc.ConsumeKeyword("EMPTY")) {
    if (!sc.AtEnd()) return sc.Error("end of input after EMPTY");
    return Polygon{};
  }
  if (!sc.ConsumeChar('(')) return sc.Error("'(' to open the ring list");
  Ring outer;
  if (Status st = ParseRing(&sc, &outer); !st.ok()) return st;
  std::vector<Ring> holes;
  while (sc.ConsumeChar(',')) {
    Ring hole;
    if (Status st = ParseRing(&sc, &hole); !st.ok()) return st;
    holes.push_back(std::move(hole));
  }
  if (!sc.ConsumeChar(')')) return sc.Error("',' or ')' closing the ring list");
  if (!sc.AtEnd()) return sc.Error("end of input");
  return Polygon(std::move(outer), std::move(holes));
}

}  // namespace stj
