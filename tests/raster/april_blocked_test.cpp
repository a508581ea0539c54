// The blocked codec's store form: CompressedAprilStore::FromStore encodes a
// flat AprilStore record by record, DecodeRecord decodes it back, and the
// deep audit (DeepValidateRecord) accepts every record it wrote. On a mapped
// store — the form a shard tile's lists take — damage stays inside the
// record it hits: the record sums catch it at decode, and the deep audit
// catches what a sum cannot see.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/raster/april.h"
#include "src/raster/april_compressed.h"
#include "src/util/rng.h"
#include "tests/test_support.h"

namespace stj {
namespace {

class AprilBlockedTest : public ::testing::Test {
 protected:
  AprilBlockedTest() {
    Rng rng(73);
    const RasterGrid grid(Box::Of(Point{0, 0}, Point{100, 100}), 9);
    const AprilBuilder builder(&grid);
    std::vector<AprilApproximation> approximations;
    for (int i = 0; i < 8; ++i) {
      approximations.push_back(builder.Build(test::RandomBlob(
          &rng, Point{rng.Uniform(10, 90), rng.Uniform(10, 90)},
          rng.LogUniform(2.0, 15.0), 48, 0.25)));
    }
    flat_ = AprilStore::FromApproximations(approximations);
    store_ = CompressedAprilStore::FromStore(flat_);
  }

  // Aims mapped_ at copies of store_'s arrays, the way a shard tile's store
  // is aimed at its mapping, with store_'s record sums when \p with_sums.
  // Tests damage the copies in place; the sums stay the intact records'.
  void MapCopies(bool with_sums) {
    const CompressedStoreSpans& s = store_.Spans();
    headers_.assign(s.headers, s.headers + s.hdr_begin[s.count]);
    bytes_.assign(s.bytes, s.bytes + s.byte_begin[s.count]);
    c_intervals_.assign(s.c_intervals, s.c_intervals + s.count);
    usable_.assign(s.usable, s.usable + s.count);
    sums_.clear();
    for (size_t i = 0; i < store_.Count(); ++i) {
      sums_.push_back(store_.RecordChecksum(i));
    }
    CompressedStoreSpans spans = s;
    spans.headers = headers_.data();
    spans.bytes = bytes_.data();
    spans.c_intervals = c_intervals_.data();
    spans.usable = usable_.data();
    spans.record_fnv = with_sums ? sums_.data() : nullptr;
    mapped_ = CompressedAprilStore::FromSpans(spans);
  }

  // The raw bytes of record \p i's header run (C then P) in the copy.
  uint8_t* HeaderBytes(size_t i) {
    return reinterpret_cast<uint8_t*>(headers_.data() +
                                      store_.Spans().hdr_begin[i]);
  }

  // Every record but \p skip decodes from mapped_ to its original lists.
  void ExpectOthersIntact(size_t skip) {
    std::vector<CellInterval> c;
    std::vector<CellInterval> p;
    for (size_t i = 0; i < mapped_.Count(); ++i) {
      if (i == skip) continue;
      ASSERT_TRUE(mapped_.DecodeRecord(i, &c, &p)) << "record " << i;
      EXPECT_TRUE(IntervalView(c.data(), c.size()) == flat_.Conservative(i))
          << "record " << i;
      EXPECT_TRUE(IntervalView(p.data(), p.size()) == flat_.Progressive(i))
          << "record " << i;
    }
  }

  AprilStore flat_;
  CompressedAprilStore store_;
  std::vector<IntervalBlockHeader> headers_;
  std::vector<uint8_t> bytes_;
  std::vector<uint64_t> c_intervals_;
  std::vector<uint8_t> usable_;
  std::vector<uint64_t> sums_;
  CompressedAprilStore mapped_;
};

TEST_F(AprilBlockedTest, FromStoreAndDecodeRecordAreInverse) {
  ASSERT_EQ(store_.Count(), flat_.Count());
  std::vector<CellInterval> c;
  std::vector<CellInterval> p;
  for (size_t i = 0; i < store_.Count(); ++i) {
    ASSERT_TRUE(store_.DecodeRecord(i, &c, &p)) << i;
    EXPECT_TRUE(IntervalView(c.data(), c.size()) == flat_.Conservative(i))
        << i;
    EXPECT_TRUE(IntervalView(p.data(), p.size()) == flat_.Progressive(i))
        << i;
    EXPECT_EQ(store_.DeepValidateRecord(i), "") << i;
  }
  // The audit checks P ⊆ C on the decoded lists: a well-formed record whose
  // P list sticks out of its C list is named.
  CompressedAprilStore bad = store_;
  bad.AppendEncoded(IntervalList::FromCells({1, 2}),
                    IntervalList::FromCells({2, 3}));
  EXPECT_EQ(bad.DeepValidateRecord(bad.Count() - 1),
            "progressive list not contained in conservative list");
}

TEST_F(AprilBlockedTest, ChecksumCorruptionIsolatesOneRecord) {
  // Intact, every record matches its sum.
  MapCopies(/*with_sums=*/true);
  ASSERT_NO_FATAL_FAILURE(ExpectOthersIntact(store_.Count()));

  // Damage to any field the sum covers — the usable byte (still nonzero,
  // so only the sum can tell), the C interval count, a block header, a
  // payload byte — makes that record fail to decode, and only that one.
  constexpr size_t kVictim = 2;
  const CompressedStoreSpans& s = store_.Spans();
  ASSERT_LT(s.hdr_begin[kVictim], s.hdr_begin[kVictim + 1]);
  ASSERT_LT(s.byte_begin[kVictim], s.byte_begin[kVictim + 1]);
  std::vector<CellInterval> c;
  std::vector<CellInterval> p;
  for (int field = 0; field < 4; ++field) {
    SCOPED_TRACE(::testing::Message() << "field " << field);
    MapCopies(/*with_sums=*/true);
    switch (field) {
      case 0: usable_[kVictim] ^= 0x02; break;
      case 1: c_intervals_[kVictim] ^= 0x01; break;
      case 2: HeaderBytes(kVictim)[0] ^= 0x01; break;
      default: bytes_[s.byte_begin[kVictim]] ^= 0x01; break;
    }
    EXPECT_TRUE(mapped_.Usable(kVictim));
    EXPECT_FALSE(mapped_.DecodeRecord(kVictim, &c, &p));
    ASSERT_NO_FATAL_FAILURE(ExpectOthersIntact(kVictim));
  }
}

TEST_F(AprilBlockedTest, CodecFlipSweepNeverEscapesTheRecord) {
  // Sweep a flip across every header and payload byte of one record of a
  // store without record sums: the damage a sum cannot see, as when bad
  // bytes were stored under a matching sum. Detection is not guaranteed for
  // every position (a flip in a header's first_cell can shift one block
  // consistently — that is what the record sum exists for), but corruption
  // must never escape the record: either the deep audit names it, or the
  // record still decodes to canonical lists. All other records decode as
  // they were either way.
  constexpr size_t kVictim = 1;
  const CompressedStoreSpans& s = store_.Spans();
  const size_t header_bytes = static_cast<size_t>(
      (s.hdr_begin[kVictim + 1] - s.hdr_begin[kVictim]) *
      sizeof(IntervalBlockHeader));
  const size_t payload_bytes =
      static_cast<size_t>(s.byte_begin[kVictim + 1] - s.byte_begin[kVictim]);
  ASSERT_GT(payload_bytes, 0u);
  std::vector<CellInterval> c;
  std::vector<CellInterval> p;
  size_t detected = 0;
  for (size_t b = 0; b < header_bytes + payload_bytes; ++b) {
    SCOPED_TRACE(::testing::Message() << "flip @" << b);
    MapCopies(/*with_sums=*/false);
    if (b < header_bytes) {
      HeaderBytes(kVictim)[b] ^= 0xFF;
    } else {
      bytes_[s.byte_begin[kVictim] + (b - header_bytes)] ^= 0xFF;
    }
    if (!mapped_.DeepValidateRecord(kVictim).empty()) {
      ++detected;
    } else {
      // Undetected flips must still yield canonical (if different) lists.
      ASSERT_TRUE(mapped_.DecodeRecord(kVictim, &c, &p));
      for (const std::vector<CellInterval>* list : {&c, &p}) {
        for (size_t k = 0; k < list->size(); ++k) {
          EXPECT_LT((*list)[k].begin, (*list)[k].end);
          if (k > 0) {
            EXPECT_LT((*list)[k - 1].end, (*list)[k].begin);
          }
        }
      }
    }
    ASSERT_NO_FATAL_FAILURE(ExpectOthersIntact(kVictim));
  }
  // Most positions are block payload bytes, where the header-pinned block
  // endpoints make any flip detectable.
  EXPECT_GT(detected, (header_bytes + payload_bytes) / 2);
}

}  // namespace
}  // namespace stj
