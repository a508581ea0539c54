#include "src/geometry/wkt.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <vector>

namespace stj {

namespace {

void AppendCoord(std::string* out, double v) {
  char buf[32];
  const int len = std::snprintf(buf, sizeof buf, "%.17g", v);
  out->append(buf, static_cast<size_t>(len));
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

/// Minimal recursive-descent scanner over a WKT string. Tracks the byte
/// position so parse errors can name the exact offset that failed.
class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool ConsumeKeyword(std::string_view kw) {
    SkipSpace();
    if (text_.size() - pos_ < kw.size()) return false;
    for (size_t i = 0; i < kw.size(); ++i) {
      if (std::toupper(static_cast<unsigned char>(text_[pos_ + i])) != kw[i]) {
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

  /// The vertex count of a well-formed ring whose '(' was just consumed:
  /// one per ',' before the next ')', plus the first. A vertex takes at
  /// least four bytes ("0 0,"), so the cap at a quarter of the ring's bytes
  /// changes no well-formed count and keeps a run of commas from reserving
  /// more than four times its own size.
  size_t RingVertexBound() const {
    const std::string_view rest = text_.substr(pos_);
    const std::string_view ring = rest.substr(0, rest.find(')'));
    const auto commas =
        static_cast<size_t>(std::count(ring.begin(), ring.end(), ','));
    return std::min(commas, ring.size() / 4) + 1;
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
  // Growing the vector instead leaves freed blocks behind in every load
  // worker's malloc arena.
  std::vector<Point> pts;
  pts.reserve(sc->RingVertexBound());
  do {
    Point p;
    if (!sc->ParseDouble(&p.x)) return sc->Error("x coordinate");
    if (!sc->ParseDouble(&p.y)) return sc->Error("y coordinate");
    pts.push_back(p);
  } while (sc->ConsumeChar(','));
  if (!sc->ConsumeChar(')')) return sc->Error("',' or ')' in ring");
  *out = Ring(std::move(pts));  // Ring() drops an explicit closing vertex.
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
