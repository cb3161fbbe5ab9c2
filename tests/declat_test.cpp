// Tests for the dEclat (diffset) miner: must agree exactly with Apriori and
// Eclat on itemsets and supports.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "baselines/apriori.hpp"
#include "baselines/declat.hpp"
#include "baselines/eclat.hpp"
#include "mining/datagen.hpp"
#include "util/check.hpp"

namespace repro::baselines {
namespace {

void expect_same(std::vector<FrequentItemset> a,
                 std::vector<FrequentItemset> b) {
  const auto by_items = [](const FrequentItemset& x,
                           const FrequentItemset& y) {
    return x.items < y.items;
  };
  std::sort(a.begin(), a.end(), by_items);
  std::sort(b.begin(), b.end(), by_items);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].items, b[i].items);
    ASSERT_EQ(a[i].support, b[i].support);
  }
}

struct Param {
  std::uint32_t n;
  double density;
  std::uint64_t total;
  std::uint32_t minsup;
};

/// The case name, e.g. "items12_density40pct_total600_minsup5".
std::string param_name(const Param& p) {
  return "items" + std::to_string(p.n) + "_density" +
         std::to_string(static_cast<int>(p.density * 100 + 0.5)) + "pct_total" +
         std::to_string(p.total) + "_minsup" + std::to_string(p.minsup);
}

class DEclatP : public ::testing::TestWithParam<Param> {};

TEST_P(DEclatP, AgreesWithAprioriAndEclat) {
  const auto [n, density, total, minsup] = GetParam();
  mining::BernoulliSpec spec;
  spec.num_items = n;
  spec.density = density;
  spec.total_items = total;
  spec.seed = n * 3 + minsup;
  const auto db = mining::bernoulli_instance(spec);

  DEclat::Options dopt;
  dopt.minsup = minsup;
  const auto d = DEclat(dopt).mine(db);

  Apriori::Options aopt;
  aopt.minsup = minsup;
  expect_same(d, Apriori(aopt).mine(db));

  Eclat::Options eopt;
  eopt.minsup = minsup;
  expect_same(d, Eclat(eopt).mine(db));
}

INSTANTIATE_TEST_SUITE_P(Sweep, DEclatP,
                         ::testing::Values(Param{12, 0.4, 600, 5},
                                           Param{10, 0.55, 700, 10},
                                           Param{25, 0.2, 1200, 6},
                                           Param{8, 0.7, 500, 3},
                                           Param{40, 0.08, 1500, 3}),
                         [](const auto& info) { return param_name(info.param); });

TEST(DEclatTest, MaxSizeRespected) {
  mining::BernoulliSpec spec;
  spec.num_items = 10;
  spec.density = 0.5;
  spec.total_items = 400;
  const auto db = mining::bernoulli_instance(spec);
  DEclat::Options opt;
  opt.minsup = 2;
  opt.max_size = 3;
  const auto got = DEclat(opt).mine(db);
  EXPECT_FALSE(got.empty());
  std::size_t deepest = 0;
  for (const auto& fs : got) deepest = std::max(deepest, fs.items.size());
  EXPECT_EQ(deepest, 3u);
}

TEST(DEclatTest, DiffsetsShrinkOnDenseData) {
  // On dense data the total diffset volume carried at level 2 is smaller
  // than Eclat's tidlist volume — the design point of dEclat. Verify the
  // identity sup(ab) = |t(a)| - |t(a)\t(b)| on a crafted instance.
  mining::TransactionDb db(2);
  for (int t = 0; t < 100; ++t) {
    if (t % 5 == 0)
      db.add_transaction({0});
    else
      db.add_transaction({0, 1});
  }
  DEclat::Options opt;
  opt.minsup = 1;
  const auto got = DEclat(opt).mine(db);
  bool found = false;
  for (const auto& fs : got) {
    if (fs.items == std::vector<mining::Item>{0, 1}) {
      EXPECT_EQ(fs.support, 80u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace repro::baselines
