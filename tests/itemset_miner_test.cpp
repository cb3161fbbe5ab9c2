// Tests for the batmap-powered general itemset miner (§V realization):
// must agree itemset-for-itemset with Apriori and FP-growth.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "baselines/apriori.hpp"
#include "baselines/fpgrowth.hpp"
#include "core/itemset_miner.hpp"
#include "mining/datagen.hpp"

namespace repro::core {
namespace {

std::vector<MinedItemset> normalize(
    std::vector<baselines::FrequentItemset> v) {
  std::vector<MinedItemset> out;
  for (auto& f : v) out.push_back({std::move(f.items), f.support});
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.items < b.items;
  });
  return out;
}

void expect_equal(const std::vector<MinedItemset>& got,
                  const std::vector<MinedItemset>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].items, want[i].items) << "at " << i;
    ASSERT_EQ(got[i].support, want[i].support)
        << "itemset size " << got[i].items.size();
  }
}

struct Param {
  std::uint32_t n;
  double density;
  std::uint64_t total;
  std::uint32_t minsup;
};

/// The case name, e.g. "items12_density35pct_total600_minsup5".
std::string param_name(const Param& p) {
  return "items" + std::to_string(p.n) + "_density" +
         std::to_string(static_cast<int>(p.density * 100 + 0.5)) + "pct_total" +
         std::to_string(p.total) + "_minsup" + std::to_string(p.minsup);
}

class ItemsetP : public ::testing::TestWithParam<Param> {};

TEST_P(ItemsetP, AgreesWithApriori) {
  const auto [n, density, total, minsup] = GetParam();
  mining::BernoulliSpec spec;
  spec.num_items = n;
  spec.density = density;
  spec.total_items = total;
  spec.seed = n + minsup;
  const auto db = mining::bernoulli_instance(spec);

  BatmapItemsetMiner::Options mo;
  mo.minsup = minsup;
  mo.tile = 16;
  BatmapItemsetMiner miner(mo);
  const auto got = miner.mine(db);

  baselines::Apriori::Options ao;
  ao.minsup = minsup;
  const auto want = normalize(baselines::Apriori(ao).mine(db));
  expect_equal(got, want);
  // Deep instances must exercise the multiway counting path.
  if (std::any_of(want.begin(), want.end(), [](const MinedItemset& s) {
        return s.items.size() >= 3;
      })) {
    EXPECT_GT(miner.stats().batmap_counted, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, ItemsetP,
                         ::testing::Values(Param{12, 0.35, 600, 5},
                                           Param{10, 0.5, 800, 10},
                                           Param{20, 0.25, 1500, 8},
                                           Param{8, 0.6, 400, 3},
                                           Param{30, 0.1, 1000, 4}),
                         [](const auto& info) { return param_name(info.param); });

TEST(ItemsetMiner, AgreesWithFpGrowthDeep) {
  mining::BernoulliSpec spec;
  spec.num_items = 9;
  spec.density = 0.55;
  spec.total_items = 700;
  spec.seed = 3;
  const auto db = mining::bernoulli_instance(spec);
  const std::uint32_t minsup = 8;

  BatmapItemsetMiner::Options mo;
  mo.minsup = minsup;
  mo.tile = 16;
  const auto got = BatmapItemsetMiner(mo).mine(db);

  baselines::FpGrowth::Options fo;
  fo.minsup = minsup;
  const auto want = normalize(baselines::FpGrowth(fo).mine(db));
  expect_equal(got, want);
  // Dense 9-item instance should produce itemsets of size >= 4.
  const auto max_size =
      std::max_element(got.begin(), got.end(),
                       [](const auto& a, const auto& b) {
                         return a.items.size() < b.items.size();
                       })
          ->items.size();
  EXPECT_GE(max_size, 4u);
}

TEST(ItemsetMiner, MaxSizeRespected) {
  mining::BernoulliSpec spec;
  spec.num_items = 10;
  spec.density = 0.5;
  spec.total_items = 500;
  const auto db = mining::bernoulli_instance(spec);
  BatmapItemsetMiner::Options mo;
  mo.minsup = 3;
  mo.max_size = 2;
  mo.tile = 16;
  const auto got = BatmapItemsetMiner(mo).mine(db);
  EXPECT_FALSE(got.empty());
  for (const auto& s : got) EXPECT_LE(s.items.size(), 2u);
}

TEST(ItemsetMiner, FallbackPathStillExact) {
  // Tiny cuckoo budgets force insertion failures on some items; those
  // candidates must fall back to merge counting and stay exact.
  mining::BernoulliSpec spec;
  spec.num_items = 10;
  spec.density = 0.5;
  spec.total_items = 2000;
  spec.seed = 17;
  const auto db = mining::bernoulli_instance(spec);
  const std::uint32_t minsup = 5;

  BatmapItemsetMiner::Options mo;
  mo.minsup = minsup;
  mo.tile = 16;
  // Note: PairMiner handles its own failures; the k>=3 builder uses default
  // options here, so force pressure by re-mining a db whose tidlists are
  // large relative to the universe — validated against Apriori regardless
  // of which path was taken.
  const auto got = BatmapItemsetMiner(mo).mine(db);
  baselines::Apriori::Options ao;
  ao.minsup = minsup;
  expect_equal(got, normalize(baselines::Apriori(ao).mine(db)));
}

}  // namespace
}  // namespace repro::core
