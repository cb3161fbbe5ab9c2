// End-to-end tests for the BATMAP pair-mining pipeline: exactness against
// brute force across densities and item counts, native/device backend
// equality, tiling and symmetry, failure patching, and output modes.
#include <gtest/gtest.h>

#include <string>

#include "core/pair_miner.hpp"
#include "mining/brute_force.hpp"
#include "mining/datagen.hpp"

namespace repro::core {
namespace {

struct Param {
  std::uint32_t n;
  double density;
  std::uint64_t total;
  std::uint32_t tile;
};

/// The case name, e.g. "items20_density20pct_total2000_tile32".
std::string param_name(const Param& p) {
  return "items" + std::to_string(p.n) + "_density" +
         std::to_string(static_cast<int>(p.density * 100 + 0.5)) + "pct_total" +
         std::to_string(p.total) + "_tile" + std::to_string(p.tile);
}

class MinerP : public ::testing::TestWithParam<Param> {};

TEST_P(MinerP, NativeBackendMatchesBruteForce) {
  const auto [n, density, total, tile] = GetParam();
  mining::BernoulliSpec spec;
  spec.num_items = n;
  spec.density = density;
  spec.total_items = total;
  spec.seed = n + tile;
  const auto db = mining::bernoulli_instance(spec);
  PairMinerOptions opt;
  opt.tile = tile;
  const auto res = PairMiner(opt).mine(db);
  ASSERT_TRUE(res.supports.has_value());
  EXPECT_TRUE(*res.supports == mining::brute_force_pair_supports(db))
      << "n=" << n << " density=" << density << " tile=" << tile;
  EXPECT_GT(res.batmap_bytes, 0u);
  EXPECT_GT(res.bytes_compared, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MinerP,
    ::testing::Values(
        // Single tile, multiple groups.
        Param{20, 0.2, 2000, 32}, Param{40, 0.1, 4000, 64},
        // Multiple tiles incl. diagonal and off-diagonal.
        Param{50, 0.15, 5000, 16}, Param{70, 0.05, 4000, 32},
        // Non-multiple-of-16 item counts (padding path).
        Param{17, 0.3, 1000, 16}, Param{33, 0.2, 2000, 16},
        Param{100, 0.02, 3000, 48},
        // Dense instance.
        Param{24, 0.6, 4000, 16}),
    [](const auto& info) { return param_name(info.param); });

TEST(PairMinerTest, DeviceBackendMatchesNative) {
  mining::BernoulliSpec spec;
  spec.num_items = 40;
  spec.density = 0.15;
  spec.total_items = 3000;
  spec.seed = 5;
  const auto db = mining::bernoulli_instance(spec);

  PairMinerOptions nat;
  nat.tile = 32;
  const auto rn = PairMiner(nat).mine(db);

  PairMinerOptions dev;
  dev.tile = 32;
  dev.backend = Backend::kDevice;
  const auto rd = PairMiner(dev).mine(db);

  ASSERT_TRUE(rn.supports && rd.supports);
  EXPECT_TRUE(*rn.supports == *rd.supports);
  EXPECT_EQ(rn.total_support, rd.total_support);
}

TEST(PairMinerTest, DeviceStatsShowCoalescing) {
  mining::BernoulliSpec spec;
  spec.num_items = 32;
  spec.density = 0.2;
  spec.total_items = 4000;
  const auto db = mining::bernoulli_instance(spec);
  PairMinerOptions opt;
  opt.backend = Backend::kDevice;
  opt.collect_stats = true;
  opt.tile = 32;
  const auto res = PairMiner(opt).mine(db);
  EXPECT_GT(res.stats.global_loads, 0u);
  EXPECT_GT(res.stats.load_transactions, 0u);
  // The slice loads are coalesced: far fewer transactions than loads.
  EXPECT_LT(res.stats.load_transactions, res.stats.global_loads / 4);
  // Regular control flow: no divergent lanes in the tile kernel.
  EXPECT_EQ(res.stats.divergent_items, 0u);
}

TEST(PairMinerTest, ForcedFailuresArePatched) {
  mining::BernoulliSpec spec;
  spec.num_items = 30;
  spec.density = 0.25;
  spec.total_items = 5000;
  spec.seed = 11;
  const auto db = mining::bernoulli_instance(spec);
  PairMinerOptions opt;
  opt.tile = 16;
  opt.builder.max_loop = 1;  // provoke insertion failures
  opt.builder.max_cascade = 1;
  const auto res = PairMiner(opt).mine(db);
  EXPECT_GT(res.failures, 0u) << "test requires failures";
  ASSERT_TRUE(res.supports.has_value());
  EXPECT_TRUE(*res.supports == mining::brute_force_pair_supports(db));
}

TEST(PairMinerTest, WidthSortAblationSameResult) {
  mining::BernoulliSpec spec;
  spec.num_items = 50;
  spec.density = 0.1;
  spec.total_items = 4000;
  const auto db = mining::bernoulli_instance(spec);
  PairMinerOptions a, b;
  a.tile = b.tile = 32;
  b.sort_by_width = false;
  const auto ra = PairMiner(a).mine(db);
  const auto rb = PairMiner(b).mine(db);
  ASSERT_TRUE(ra.supports && rb.supports);
  EXPECT_TRUE(*ra.supports == *rb.supports);
}

TEST(PairMinerTest, FrequentPairCountMatchesThreshold) {
  mining::BernoulliSpec spec;
  spec.num_items = 40;
  spec.density = 0.2;
  spec.total_items = 5000;
  const auto db = mining::bernoulli_instance(spec);
  const auto oracle = mining::brute_force_pair_supports(db);
  for (const std::uint32_t minsup : {1u, 5u, 20u, 1000000u}) {
    PairMinerOptions opt;
    opt.tile = 32;
    opt.minsup = minsup;
    const auto res = PairMiner(opt).mine(db);
    EXPECT_EQ(res.frequent_pairs, oracle.frequent_pairs(minsup))
        << "minsup " << minsup;
  }
}

TEST(PairMinerTest, StreamingVisitorSeesEveryPairOnce) {
  mining::BernoulliSpec spec;
  spec.num_items = 45;
  spec.density = 0.1;
  spec.total_items = 3000;
  const auto db = mining::bernoulli_instance(spec);
  PairMinerOptions opt;
  opt.tile = 16;
  opt.materialize = false;  // streaming mode
  mining::PairSupports collected(db.num_items());
  std::uint64_t pairs_seen = 0;
  std::function<void(const TileResult&)> visitor =
      [&](const TileResult& tr) {
        tr.for_each_pair([&](std::uint32_t i, std::uint32_t j,
                             std::uint32_t sup) {
          collected.set(i, j, sup);
          ++pairs_seen;
        });
      };
  const auto res = PairMiner(opt).mine(db, &visitor);
  EXPECT_FALSE(res.supports.has_value());
  EXPECT_EQ(pairs_seen,
            static_cast<std::uint64_t>(db.num_items()) *
                (db.num_items() - 1) / 2);
  EXPECT_TRUE(collected == mining::brute_force_pair_supports(db));
  EXPECT_GE(res.tiles, 3u * 4 / 2);  // 45 items / 16 -> 3 tiles -> 6 launches
}

TEST(PairMinerTest, ThreadedNativeMatchesSerial) {
  mining::BernoulliSpec spec;
  spec.num_items = 60;
  spec.density = 0.1;
  spec.total_items = 4000;
  const auto db = mining::bernoulli_instance(spec);
  PairMinerOptions s, t;
  s.tile = t.tile = 32;
  t.threads = 4;
  const auto rs = PairMiner(s).mine(db);
  const auto rt = PairMiner(t).mine(db);
  ASSERT_TRUE(rs.supports && rt.supports);
  EXPECT_TRUE(*rs.supports == *rt.supports);
}

TEST(PairMinerTest, TimingBreakdownPopulated) {
  mining::BernoulliSpec spec;
  spec.num_items = 30;
  spec.total_items = 2000;
  const auto db = mining::bernoulli_instance(spec);
  PairMinerOptions opt;
  opt.tile = 16;
  const auto res = PairMiner(opt).mine(db);
  EXPECT_GE(res.preprocess_seconds, 0.0);
  EXPECT_GE(res.sweep_seconds, 0.0);
  EXPECT_GE(res.postprocess_seconds, 0.0);
  EXPECT_GT(res.memory.total(), 0u);
  EXPECT_GT(res.memory.get("batmaps (device words)"), 0u);
}

TEST(PairMinerTest, RejectsBadOptions) {
  PairMinerOptions opt;
  opt.tile = 17;  // not a multiple of 16
  EXPECT_THROW(PairMiner m(opt), repro::CheckError);
  PairMinerOptions opt2;
  opt2.tile = 0;
  EXPECT_THROW(PairMiner m2(opt2), repro::CheckError);
}

TEST(PairMinerTest, TwoItems) {
  mining::TransactionDb db(2);
  db.add_transaction({0, 1});
  db.add_transaction({0});
  db.add_transaction({1});
  db.add_transaction({0, 1});
  PairMinerOptions opt;
  opt.tile = 16;
  const auto res = PairMiner(opt).mine(db);
  ASSERT_TRUE(res.supports.has_value());
  EXPECT_EQ(res.supports->get(0, 1), 2u);
}

}  // namespace
}  // namespace repro::core
