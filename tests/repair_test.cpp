// Stripe repair: rebuild lost chunks, verify integrity, handle
// unrecoverable damage.
#include "store/repair.hpp"

#include <gtest/gtest.h>

#include <memory>

namespace agar::store {
namespace {

class RepairTest : public ::testing::Test {
 protected:
  RepairTest()
      : backend_(6, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)) {
    populate_working_set(backend_, 5, 9000);
  }

  void drop_chunk(const ObjectKey& key, ChunkIndex idx) {
    const RegionId region = backend_.placement().region_of(key, idx, 6);
    ASSERT_TRUE(
        backend_.bucket(region).erase(ChunkId{backend_.id_of(key), idx}));
  }

  Bytes decode(const ObjectKey& key) {
    const ObjectInfo info = backend_.object_info(key);
    std::vector<ec::Chunk> chunks;
    for (ChunkIndex i = 0; i < 9; ++i) {
      const auto v = backend_.get_chunk({backend_.id_of(key), i});
      if (v.has_value()) chunks.push_back(ec::Chunk{i, Bytes(v->begin(), v->end())});
    }
    return backend_.codec().decode(info.object_size, chunks);
  }

  BackendCluster backend_;
};

TEST_F(RepairTest, IntactObjectHasNoMissingChunks) {
  EXPECT_TRUE(missing_chunks(backend_, "object0").empty());
  EXPECT_TRUE(repair_object(backend_, "object0"));
}

TEST_F(RepairTest, DetectsMissingChunks) {
  drop_chunk("object0", 4);
  drop_chunk("object0", 10);
  const auto missing = missing_chunks(backend_, "object0");
  EXPECT_EQ(missing, (std::vector<ChunkIndex>{4, 10}));
}

TEST_F(RepairTest, RepairsSingleLostDataChunk) {
  drop_chunk("object1", 3);
  RepairReport report;
  EXPECT_TRUE(repair_object(backend_, "object1", &report));
  EXPECT_EQ(report.chunks_rebuilt, 1u);
  EXPECT_TRUE(missing_chunks(backend_, "object1").empty());
  EXPECT_EQ(decode("object1"), deterministic_payload("object1", 9000));
}

TEST_F(RepairTest, RepairsLostParityChunk) {
  drop_chunk("object2", 11);
  EXPECT_TRUE(repair_object(backend_, "object2"));
  // The rebuilt parity must be byte-identical to a fresh encode.
  const Bytes payload = deterministic_payload("object2", 9000);
  const auto encoded = backend_.codec().encode(BytesView(payload));
  const auto v = backend_.get_chunk({backend_.id_of("object2"), 11});
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(Bytes(v->begin(), v->end()), encoded.chunks[11].data);
}

TEST_F(RepairTest, RepairsFullRegionLoss) {
  // Losing one region costs every object two chunks; all repairable.
  for (int i = 0; i < 5; ++i) {
    const ObjectKey key = "object" + std::to_string(i);
    drop_chunk(key, 4);   // tokyo's data chunk
    drop_chunk(key, 10);  // tokyo's second chunk
  }
  const RepairReport report = repair_all(backend_);
  EXPECT_EQ(report.objects_scanned, 5u);
  EXPECT_EQ(report.objects_damaged, 5u);
  EXPECT_EQ(report.objects_repaired, 5u);
  EXPECT_EQ(report.objects_unrecoverable, 0u);
  EXPECT_EQ(report.chunks_rebuilt, 10u);
  for (int i = 0; i < 5; ++i) {
    const ObjectKey key = "object" + std::to_string(i);
    EXPECT_TRUE(missing_chunks(backend_, key).empty());
    EXPECT_EQ(decode(key), deterministic_payload(key, 9000));
  }
}

TEST_F(RepairTest, RepairsExactlyMMissing) {
  drop_chunk("object0", 0);
  drop_chunk("object0", 5);
  drop_chunk("object0", 9);
  EXPECT_TRUE(repair_object(backend_, "object0"));
  EXPECT_EQ(decode("object0"), deterministic_payload("object0", 9000));
}

TEST_F(RepairTest, MoreThanMMissingIsUnrecoverable) {
  for (const ChunkIndex idx : {0u, 1u, 2u, 3u}) {  // 4 > m = 3
    drop_chunk("object3", idx);
  }
  RepairReport report;
  EXPECT_FALSE(repair_object(backend_, "object3", &report));
  EXPECT_EQ(report.objects_unrecoverable, 1u);
  EXPECT_EQ(report.chunks_rebuilt, 0u);
}

TEST_F(RepairTest, RepairAllSkipsHealthyObjects) {
  drop_chunk("object4", 7);
  const RepairReport report = repair_all(backend_);
  EXPECT_EQ(report.objects_scanned, 5u);
  EXPECT_EQ(report.objects_damaged, 1u);
  EXPECT_EQ(report.objects_repaired, 1u);
}

TEST_F(RepairTest, RepairIsIdempotent) {
  drop_chunk("object0", 2);
  EXPECT_TRUE(repair_object(backend_, "object0"));
  RepairReport second;
  EXPECT_TRUE(repair_object(backend_, "object0", &second));
  EXPECT_EQ(second.objects_damaged, 0u);
  EXPECT_EQ(second.chunks_rebuilt, 0u);
}

}  // namespace
}  // namespace agar::store
