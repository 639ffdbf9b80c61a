// Backend cluster: stripe distribution, metadata, end-to-end chunk access.
#include "store/backend.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

namespace agar::store {
namespace {

BackendCluster make_cluster(std::size_t regions = 6,
                            ec::CodecParams params = {9, 3}) {
  return BackendCluster(regions, params, ec::RoundRobinPlacement(false));
}

TEST(Backend, ConstructionValidation) {
  EXPECT_THROW(
      BackendCluster(0, ec::CodecParams{9, 3}, ec::RoundRobinPlacement(false)),
      std::invalid_argument);
}

TEST(Backend, PutDistributesChunksRoundRobin) {
  auto cluster = make_cluster();
  const Bytes payload = deterministic_payload("obj", 9000);
  cluster.put_object("obj", BytesView(payload));
  // 12 chunks over 6 regions -> 2 per bucket.
  for (RegionId r = 0; r < 6; ++r) {
    EXPECT_EQ(cluster.bucket(r).num_chunks(), 2u) << "region " << r;
  }
}

TEST(Backend, ObjectInfoHasAllLocations) {
  auto cluster = make_cluster();
  const Bytes payload = deterministic_payload("obj", 900);
  cluster.put_object("obj", BytesView(payload));
  const ObjectInfo info = cluster.object_info("obj");
  EXPECT_EQ(info.object_size, 900u);
  EXPECT_EQ(info.chunk_size, 100u);
  ASSERT_EQ(info.locations.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(info.locations[i].index, i);
    EXPECT_EQ(info.locations[i].region, i % 6);
  }
}

TEST(Backend, UnknownObjectThrows) {
  auto cluster = make_cluster();
  EXPECT_THROW((void)cluster.object_info("nope"), std::out_of_range);
  EXPECT_FALSE(cluster.has_object("nope"));
}

TEST(Backend, GetChunkFetchesFromRightBucket) {
  auto cluster = make_cluster();
  const Bytes payload = deterministic_payload("obj", 1800);
  cluster.put_object("obj", BytesView(payload));
  for (ChunkIndex i = 0; i < 12; ++i) {
    EXPECT_TRUE(cluster.get_chunk({cluster.id_of("obj"), i}).has_value()) << i;
  }
  EXPECT_FALSE(cluster.get_chunk({1, 0}).has_value());  // no object 1
  EXPECT_FALSE(cluster.get_chunk({0, 12}).has_value());  // no chunk 12
}

TEST(Backend, ChunksDecodeBackToObject) {
  auto cluster = make_cluster(6, ec::CodecParams{4, 2});
  const Bytes payload = deterministic_payload("rt", 4096);
  cluster.put_object("rt", BytesView(payload));
  std::vector<ec::Chunk> chunks;
  for (ChunkIndex i = 0; i < 4; ++i) {  // data chunks suffice
    const auto v = cluster.get_chunk({cluster.id_of("rt"), i});
    ASSERT_TRUE(v.has_value());
    chunks.push_back(ec::Chunk{i, Bytes(v->begin(), v->end())});
  }
  EXPECT_EQ(cluster.codec().decode(4096, chunks), payload);
}

TEST(Backend, RegisterObjectMetadataOnly) {
  auto cluster = make_cluster();
  cluster.register_object("meta", 1_MB);
  EXPECT_TRUE(cluster.has_object("meta"));
  const ObjectInfo info = cluster.object_info("meta");
  EXPECT_EQ(info.object_size, 1_MB);
  EXPECT_EQ(info.locations.size(), 12u);
  // No payloads were materialized.
  EXPECT_FALSE(cluster.get_chunk({cluster.id_of("meta"), 0}).has_value());
  for (RegionId r = 0; r < 6; ++r) {
    EXPECT_EQ(cluster.bucket(r).num_chunks(), 0u);
  }
}

TEST(Backend, PopulateWorkingSet) {
  auto cluster = make_cluster();
  populate_working_set(cluster, 10, 900);
  EXPECT_EQ(cluster.num_objects(), 10u);
  EXPECT_TRUE(cluster.has_object("object0"));
  EXPECT_TRUE(cluster.has_object("object9"));
  EXPECT_FALSE(cluster.has_object("object10"));
  // Each region holds 2 chunks per object.
  for (RegionId r = 0; r < 6; ++r) {
    EXPECT_EQ(cluster.bucket(r).num_chunks(), 20u);
  }
}

TEST(Backend, DataChunkCheckNamesTheObject) {
  auto cluster = make_cluster();
  populate_working_set(cluster, 3, 905);  // 101-byte chunks, padded tail
  const Bytes payload = deterministic_payload("object1", 905);
  check_data_chunks(cluster, "object1", BytesView(payload));
  auto expect_named_failure = [&](const Bytes& against) {
    try {
      check_data_chunks(cluster, "object1", BytesView(against));
      FAIL() << "expected a throw";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("object1"), std::string::npos)
          << e.what();
    }
  };
  // Checked against a payload the object was not written from.
  expect_named_failure(deterministic_payload("object2", 905));
  // A stored data chunk that is another object's.
  for (const ChunkIndex d : {ChunkIndex{0}, ChunkIndex{8}}) {
    const ChunkId id{cluster.id_of("object1"), d};
    Bucket& bucket = cluster.bucket(
        cluster.object_info(id.object).locations[id.index].region);
    const SharedBytes own = *bucket.get(id);
    bucket.put(id, *cluster.get_chunk(ChunkId{cluster.id_of("object2"), d}));
    expect_named_failure(payload);
    bucket.erase(id);
    expect_named_failure(payload);
    bucket.put(id, own);
  }
  check_data_chunks(cluster, "object1", BytesView(payload));
}

TEST(Backend, KeysListsAllObjectsById) {
  auto cluster = make_cluster();
  populate_working_set(cluster, 3, 90);
  EXPECT_EQ(cluster.keys(),
            (std::vector<ObjectKey>{"object0", "object1", "object2"}));
}

TEST(Backend, IdsFollowRegistrationOrder) {
  auto cluster = make_cluster();
  EXPECT_EQ(cluster.register_object("zeta", 900), 0u);
  EXPECT_EQ(cluster.register_object("alpha", 1800), 1u);
  EXPECT_EQ(cluster.put_object("zeta", BytesView(Bytes(450, 1))), 0u);
  EXPECT_EQ(cluster.num_objects(), 2u);
  EXPECT_EQ(cluster.id_of("alpha"), 1u);
  EXPECT_EQ(cluster.key_of(0), "zeta");
  EXPECT_EQ(cluster.find_id("beta"), std::nullopt);
  EXPECT_THROW((void)cluster.id_of("beta"), std::out_of_range);
  // The record by id is the record by key; re-registering updated it.
  EXPECT_EQ(&cluster.object_info(0), &cluster.object_info("zeta"));
  EXPECT_EQ(cluster.object_info(0).object_size, 450u);
  EXPECT_EQ(cluster.object_info(1).chunk_size, 200u);
}

TEST(Backend, PerKeyOffsetsShareLayoutTables) {
  BackendCluster cluster(6, ec::CodecParams{9, 3},
                         ec::RoundRobinPlacement(true));
  const ec::RoundRobinPlacement placement(true);
  for (int i = 0; i < 20; ++i) {
    const ObjectKey key = "user" + std::to_string(i);
    const ObjectInfo& info =
        cluster.object_info(cluster.register_object(key, 1_KB));
    ASSERT_EQ(info.locations.size(), 12u);
    for (ChunkIndex c = 0; c < 12; ++c) {
      EXPECT_EQ(info.locations[c].index, c);
      EXPECT_EQ(info.locations[c].region, placement.region_of(key, c, 6));
    }
  }
}

TEST(Backend, OverwriteObjectReplacesChunks) {
  auto cluster = make_cluster(6, ec::CodecParams{4, 2});
  cluster.put_object("k", BytesView(deterministic_payload("v1", 400)));
  cluster.put_object("k", BytesView(deterministic_payload("v2", 800)));
  const ObjectInfo info = cluster.object_info("k");
  EXPECT_EQ(info.object_size, 800u);
  std::vector<ec::Chunk> chunks;
  for (ChunkIndex i = 0; i < 4; ++i) {
    const auto v = cluster.get_chunk({cluster.id_of("k"), i});
    ASSERT_TRUE(v.has_value());
    chunks.push_back(ec::Chunk{i, Bytes(v->begin(), v->end())});
  }
  EXPECT_EQ(cluster.codec().decode(800, chunks),
            deterministic_payload("v2", 800));
}

}  // namespace
}  // namespace agar::store
