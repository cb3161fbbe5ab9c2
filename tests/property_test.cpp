// Cross-implementation property suite: on random instances, every pair
// counting implementation in the repository — BATMAP (native and device
// backends), dense bitmaps, Apriori, FP-growth, Eclat, sorted-list merging —
// must produce identical supports. This is the repo-wide consistency
// invariant behind every benchmark comparison.
#include <gtest/gtest.h>

#include <string>

#include "baselines/apriori.hpp"
#include "baselines/bitmap.hpp"
#include "baselines/eclat.hpp"
#include "baselines/fpgrowth.hpp"
#include "baselines/sorted_list.hpp"
#include "baselines/wah.hpp"
#include "core/pair_miner.hpp"
#include "mining/brute_force.hpp"
#include "mining/datagen.hpp"

namespace repro {
namespace {

struct Instance {
  std::uint32_t n;
  double density;
  std::uint64_t total;
  std::uint64_t seed;
};

/// The case name, e.g. "items20_density30pct_total2000_seed1".
std::string instance_name(const Instance& p) {
  return "items" + std::to_string(p.n) + "_density" +
         std::to_string(static_cast<int>(p.density * 100 + 0.5)) + "pct_total" +
         std::to_string(p.total) + "_seed" + std::to_string(p.seed);
}

class CrossImpl : public ::testing::TestWithParam<Instance> {};

TEST_P(CrossImpl, AllImplementationsAgree) {
  const auto [n, density, total, seed] = GetParam();
  mining::BernoulliSpec spec;
  spec.num_items = n;
  spec.density = density;
  spec.total_items = total;
  spec.seed = seed;
  const auto db = mining::bernoulli_instance(spec);

  const auto oracle = mining::brute_force_pair_supports(db);

  // BATMAP, native backend.
  core::PairMinerOptions opt;
  opt.tile = 32;
  const auto batmap_res = core::PairMiner(opt).mine(db);
  ASSERT_TRUE(batmap_res.supports.has_value());
  EXPECT_TRUE(*batmap_res.supports == oracle) << "batmap/native";

  // Dense bitmap (PBI layout).
  EXPECT_TRUE(baselines::BitmapIndex(db).all_pair_supports() == oracle)
      << "bitmap";

  // Apriori triangular counting.
  const auto ap = baselines::apriori_pair_supports(db);
  ASSERT_TRUE(ap.has_value());
  EXPECT_TRUE(*ap == oracle) << "apriori";

  // FP-growth ancestor walks.
  const auto fp = baselines::fpgrowth_pair_supports(db, 1);
  ASSERT_TRUE(fp.has_value());
  EXPECT_TRUE(baselines::to_dense(*fp, n) == oracle) << "fpgrowth";

  // Eclat tidlist merging.
  const auto ec = baselines::eclat_pair_supports(db);
  ASSERT_TRUE(ec.has_value());
  EXPECT_TRUE(*ec == oracle) << "eclat";

  // WAH compressed bitmaps.
  {
    const baselines::WahIndex wah(db);
    for (std::uint32_t i = 0; i < n; ++i) {
      for (std::uint32_t j = i + 1; j < n; ++j) {
        ASSERT_EQ(wah.intersection_size(i, j), oracle.get(i, j)) << "wah";
      }
    }
  }

  // Sorted-list variants on the vertical representation.
  const auto tidlists = db.vertical();
  for (std::uint32_t i = 0; i < n; ++i) {
    for (std::uint32_t j = i + 1; j < n; ++j) {
      const auto expect = oracle.get(i, j);
      ASSERT_EQ(baselines::intersect_size_merge(tidlists[i], tidlists[j]),
                expect);
      ASSERT_EQ(
          baselines::intersect_size_branchless(tidlists[i], tidlists[j]),
          expect);
      ASSERT_EQ(baselines::intersect_size_galloping(tidlists[i], tidlists[j]),
                expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Instances, CrossImpl,
    ::testing::Values(Instance{20, 0.3, 2000, 1}, Instance{40, 0.1, 3000, 2},
                      Instance{64, 0.05, 4000, 3},
                      Instance{30, 0.5, 5000, 4},    // dense
                      Instance{100, 0.02, 3000, 5},  // sparse, many items
                      Instance{17, 0.2, 1000, 6}),   // odd n
    [](const auto& info) { return instance_name(info.param); });

TEST(CrossImplDevice, DeviceBackendAgreesOnWebdocsLike) {
  mining::WebDocsSpec spec;
  spec.num_docs = 300;
  spec.mean_doc_len = 12;
  spec.seed = 3;
  auto db = mining::webdocs_like(spec);
  // Keep the device run small: filter to items with support >= 3.
  db = db.filter_infrequent(3);
  ASSERT_GE(db.num_items(), 2u);
  const auto oracle = mining::brute_force_pair_supports(db);
  core::PairMinerOptions nat, dev;
  nat.tile = dev.tile = 64;
  dev.backend = core::Backend::kDevice;
  const auto rn = core::PairMiner(nat).mine(db);
  const auto rd = core::PairMiner(dev).mine(db);
  ASSERT_TRUE(rn.supports && rd.supports);
  EXPECT_TRUE(*rn.supports == oracle);
  EXPECT_TRUE(*rd.supports == oracle);
}

TEST(CrossImplProperty, TotalSupportEqualsSumOfPairCounts) {
  // Fingerprint identity: Σ_{pairs} support = Σ_t |T_t|(|T_t|-1)/2.
  mining::BernoulliSpec spec;
  spec.num_items = 50;
  spec.density = 0.15;
  spec.total_items = 4000;
  const auto db = mining::bernoulli_instance(spec);
  std::uint64_t expect = 0;
  for (const auto& txn : db.transactions()) {
    expect += txn.size() * (txn.size() - 1) / 2;
  }
  core::PairMinerOptions opt;
  opt.tile = 32;
  const auto res = core::PairMiner(opt).mine(db);
  EXPECT_EQ(res.total_support, expect);
  EXPECT_EQ(mining::brute_force_pair_supports(db).total_support(), expect);
}

}  // namespace
}  // namespace repro
