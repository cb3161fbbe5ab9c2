// ShardMap is the wire contract of the sharded serving tier: batmap_cli
// shard-split, batmap_router, and every shard must agree on who owns
// which set id from (shards, vnodes, seed) alone. These tests pin the
// three properties the tier is built on — determinism (golden hash),
// stability under shard count changes (ids only move into the new
// shard, ~1/N of them), and balance (max/mean load bounded across
// vnode counts) — plus the dense partition() view the router and
// shard-split share.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "router/shard_map.hpp"
#include "util/fnv.hpp"

namespace repro::router {
namespace {

std::vector<std::uint32_t> assign(const ShardMap& map, std::uint32_t total) {
  std::vector<std::uint32_t> owner(total);
  for (std::uint32_t id = 0; id < total; ++id) owner[id] = map.shard_of(id);
  return owner;
}

TEST(ShardMapTest, DeterministicAcrossInstancesAndPinnedAcrossReleases) {
  ShardMap::Options opt;
  opt.shards = 5;
  const ShardMap a(opt), b(opt);
  const auto oa = assign(a, 10000);
  EXPECT_EQ(oa, assign(b, 10000));

  // Golden digest of the default-seed assignment. This is the on-disk
  // contract: a corpus split by an older batmap_cli must still route
  // correctly through a newer router, so any change to the ring hash,
  // the tie order, or the default seed/vnodes must fail here and ship
  // with a re-split story.
  util::Fnv1a fp;
  fp.update(oa.data(), oa.size() * sizeof(oa[0]));
  EXPECT_EQ(fp.digest(), 13732478177019177044ull) << std::hex << fp.digest();
}

TEST(ShardMapTest, SeedAndVnodesChangeTheAssignment) {
  ShardMap::Options opt;
  opt.shards = 4;
  const auto base = assign(ShardMap(opt), 4000);
  ShardMap::Options reseeded = opt;
  reseeded.seed ^= 1;
  EXPECT_NE(base, assign(ShardMap(reseeded), 4000));
  ShardMap::Options repointed = opt;
  repointed.vnodes *= 2;
  EXPECT_NE(base, assign(ShardMap(repointed), 4000));
}

TEST(ShardMapTest, GrowingMovesOnlyIntoTheNewShardAboutOneNth) {
  const std::uint32_t total = 40000;
  for (std::uint32_t n = 1; n <= 7; ++n) {
    ShardMap::Options opt;
    opt.shards = n;
    const auto before = assign(ShardMap(opt), total);
    opt.shards = n + 1;
    const auto after = assign(ShardMap(opt), total);
    std::uint32_t moved = 0;
    for (std::uint32_t id = 0; id < total; ++id) {
      if (before[id] == after[id]) continue;
      // Stability: adding shard n only inserts ring points owned by n,
      // so a reassigned id can only have landed on the new shard.
      ASSERT_EQ(after[id], n) << "id " << id << " moved " << before[id]
                              << " -> " << after[id];
      ++moved;
    }
    // ~1/(n+1) of ids move; allow generous slack for ring-point jitter
    // at low vnode counts without letting "rehash everything" pass.
    const double frac = static_cast<double>(moved) / total;
    const double ideal = 1.0 / (n + 1);
    EXPECT_GT(frac, ideal * 0.5) << "n=" << n;
    EXPECT_LT(frac, ideal * 1.6) << "n=" << n;
  }
}

TEST(ShardMapTest, BalanceBoundedAcrossVnodeCounts) {
  const std::uint32_t total = 60000;
  for (const std::uint32_t shards : {3u, 8u, 16u}) {
    for (const std::uint32_t vnodes : {16u, 64u, 256u}) {
      ShardMap::Options opt;
      opt.shards = shards;
      opt.vnodes = vnodes;
      std::vector<std::uint32_t> load(shards, 0);
      const ShardMap map(opt);
      for (std::uint32_t id = 0; id < total; ++id) ++load[map.shard_of(id)];
      const auto max = *std::max_element(load.begin(), load.end());
      const auto min = *std::min_element(load.begin(), load.end());
      const double mean = static_cast<double>(total) / shards;
      // Spread tightens as vnodes grow; the documented operating point
      // (vnodes >= 64) must keep max/mean under ~1.35, and even the
      // sparse 16-point ring must not strand a shard near-empty.
      const double bound = vnodes >= 64 ? 1.35 : 1.9;
      EXPECT_LT(max / mean, bound) << shards << " shards, " << vnodes
                                   << " vnodes";
      EXPECT_GT(min, 0u) << shards << " shards, " << vnodes << " vnodes";
    }
  }
}

TEST(ShardMapTest, PartitionIsADenseConsistentInverse) {
  ShardMap::Options opt;
  opt.shards = 6;
  const ShardMap map(opt);
  const std::uint32_t total = 5000;
  const auto part = map.partition(total);
  ASSERT_EQ(part.owned.size(), opt.shards);
  ASSERT_EQ(part.shard_of_id.size(), total);
  ASSERT_EQ(part.local_of_id.size(), total);
  std::uint32_t counted = 0;
  for (std::uint32_t s = 0; s < opt.shards; ++s) {
    const auto& owned = part.owned[s];
    counted += static_cast<std::uint32_t>(owned.size());
    for (std::uint32_t lid = 0; lid < owned.size(); ++lid) {
      const std::uint32_t gid = owned[lid];
      // owned[] ascending == local id is the rank of the global id.
      if (lid > 0) {
        ASSERT_LT(owned[lid - 1], gid);
      }
      ASSERT_EQ(map.shard_of(gid), s);
      ASSERT_EQ(part.shard_of_id[gid], s);
      ASSERT_EQ(part.local_of_id[gid], lid);
    }
  }
  EXPECT_EQ(counted, total);  // every id owned exactly once
}

}  // namespace
}  // namespace repro::router
