#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "src/de9im/mask.h"
#include "src/de9im/matrix.h"

namespace stj::de9im {

/// The eight topological relations of the paper (Fig. 1(a) / Table 1).
///
/// Values are ordered most-specific-first: when several relations hold
/// simultaneously (the Venn diagram of Fig. 2 — e.g. `equals` implies
/// `covers`, `covered by` and `intersects`), the smallest enum value that
/// matches is the most specific relation.
enum class Relation : uint8_t {
  kEquals = 0,
  kInside = 1,     ///< r inside s (r within s, no boundary contact).
  kContains = 2,   ///< r contains s.
  kCoveredBy = 3,  ///< r covered by s.
  kCovers = 4,     ///< r covers s.
  kMeets = 5,      ///< Boundaries touch, interiors disjoint.
  kIntersects = 6,
  kDisjoint = 7,
};

inline constexpr int kNumRelations = 8;

/// A set of candidate relations, as produced by the MBR and intermediate
/// filters before refinement.
class RelationSet {
 public:
  constexpr RelationSet() = default;
  constexpr RelationSet(std::initializer_list<Relation> rels) {
    for (Relation r : rels) Add(r);
  }

  /// The set of all eight relations.
  static constexpr RelationSet All() {
    RelationSet s;
    s.bits_ = 0xFF;
    return s;
  }

  constexpr void Add(Relation r) { bits_ |= Bit(r); }
  constexpr void Remove(Relation r) { bits_ &= static_cast<uint8_t>(~Bit(r)); }
  constexpr bool Contains(Relation r) const { return (bits_ & Bit(r)) != 0; }
  constexpr bool Empty() const { return bits_ == 0; }
  constexpr int Count() const { return __builtin_popcount(bits_); }
  constexpr uint8_t Bits() const { return bits_; }

  friend constexpr bool operator==(RelationSet a, RelationSet b) {
    return a.bits_ == b.bits_;
  }

 private:
  static constexpr uint8_t Bit(Relation r) {
    return static_cast<uint8_t>(1u << static_cast<uint8_t>(r));
  }
  uint8_t bits_ = 0;
};

/// The DE-9IM masks defining \p rel (Table 1); a relation holds if any mask
/// matches.
std::span<const Mask> MasksOf(Relation rel);

/// True iff \p rel holds for a pair whose DE-9IM matrix is \p m.
bool RelationHolds(Relation rel, const Matrix& m);

/// The most specific relation of \p candidates that holds for \p m, checked
/// in specific-to-general order. Falls back to kIntersects/kDisjoint (which
/// together are exhaustive) if no candidate matches — callers that narrowed
/// candidates correctly never hit the fallback.
Relation MostSpecificRelation(const Matrix& m, RelationSet candidates);

/// MostSpecificRelation over all eight relations (ground truth).
Relation MostSpecificRelation(const Matrix& m);

/// Human-readable relation name.
const char* ToString(Relation rel);

/// The relation of the pair (s, r) given the relation of (r, s): swaps
/// inside/contains and covered-by/covers.
Relation Converse(Relation rel);

}  // namespace stj::de9im
