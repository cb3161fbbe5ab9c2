// Randomized equivalence tests for the vectorized batch-intersect kernels
// (batmap/simd.hpp): every tier the CPU supports must produce bit-identical
// counts to the portable SWAR loop — over random word spans including odd
// and sub-vector widths, the cyclic batmap sweep, the register-blocked strip
// kernel, and the full pair-mining pipeline at tile-edge (non-multiple-of-16)
// row/col counts.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string_view>
#include <vector>

#include "batmap/simd.hpp"
#include "batmap/swar.hpp"
#include "core/pair_miner.hpp"
#include "mining/brute_force.hpp"
#include "mining/datagen.hpp"
#include "util/rng.hpp"

namespace repro::batmap::simd {
namespace {

/// Word-at-a-time reference: the seed's scalar rule, no widening at all.
std::uint64_t ref_count(const std::uint32_t* a, const std::uint32_t* b,
                        std::size_t n) {
  std::uint64_t c = 0;
  for (std::size_t i = 0; i < n; ++i) c += swar_match_count(a[i], b[i]);
  return c;
}

/// The tier dispatch falls back to without a force_tier() override: the
/// REPRO_KERNEL tier when it names a supported one, otherwise the best tier.
Tier env_selected_tier() {
  const char* env = std::getenv("REPRO_KERNEL");
  if (env == nullptr) return best_tier();
  const std::string_view name = env;
  for (const Tier t : supported_tiers()) {
    if (name == tier_name(t) || (name == "swar" && t == Tier::kScalar)) {
      return t;
    }
  }
  return best_tier();
}

/// Random words; roughly half the byte lanes of b copy a's lane so matches
/// actually occur (uniform random words almost never match on 7 code bits).
void correlated_spans(Xoshiro256& rng, std::size_t n,
                      std::vector<std::uint32_t>& a,
                      std::vector<std::uint32_t>& b) {
  a.resize(n);
  b.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = static_cast<std::uint32_t>(rng.next());
    std::uint32_t y = static_cast<std::uint32_t>(rng.next());
    for (int lane = 0; lane < 4; ++lane) {
      if (rng.bernoulli(0.5)) {
        const std::uint32_t mask = 0xffu << (8 * lane);
        y = (y & ~mask) | (a[i] & mask);
      }
    }
    b[i] = y;
  }
}

class SimdKernelTest : public ::testing::Test {
 protected:
  void TearDown() override { clear_forced_tier(); }
};

TEST_F(SimdKernelTest, ReportsSupportedTiers) {
  const auto tiers = supported_tiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), Tier::kScalar);
  for (const Tier t : tiers) {
    EXPECT_STRNE(tier_name(t), "unknown");
  }
}

TEST_F(SimdKernelTest, AllTiersMatchScalarOnRandomSpans) {
  Xoshiro256 rng(2024);
  std::vector<std::uint32_t> a, b;
  // Odd widths, sub-vector widths, vector boundaries ±1, and larger spans.
  const std::size_t sizes[] = {0,  1,  2,  3,  5,  6,   7,   8,   12,  15,
                               16, 17, 24, 31, 32, 33,  48,  63,  64,  65,
                               96, 127, 128, 129, 192, 300, 768, 1537};
  for (const std::size_t n : sizes) {
    for (int trial = 0; trial < 8; ++trial) {
      correlated_spans(rng, n, a, b);
      const std::uint64_t expect = ref_count(a.data(), b.data(), n);
      for (const Tier t : supported_tiers()) {
        ASSERT_EQ(match_count_tier(t, a.data(), b.data(), n), expect)
            << tier_name(t) << " n=" << n << " trial=" << trial;
      }
    }
  }
}

TEST_F(SimdKernelTest, DispatchedCyclicMatchesModuloReference) {
  Xoshiro256 rng(77);
  std::vector<std::uint32_t> big, small, dummy;
  // Batmap layout widths: 3·2^j, big a multiple of small.
  for (const std::size_t ws : {3u, 6u, 12u, 24u, 48u, 96u}) {
    for (const std::size_t factor : {1u, 2u, 4u, 8u}) {
      const std::size_t wb = ws * factor;
      correlated_spans(rng, wb, big, dummy);
      correlated_spans(rng, ws, small, dummy);
      std::uint64_t expect = 0;
      for (std::size_t i = 0; i < wb; ++i) {
        expect += swar_match_count(big[i], small[i % ws]);
      }
      for (const Tier t : supported_tiers()) {
        force_tier(t);
        ASSERT_EQ(match_count_cyclic(big.data(), wb, small.data(), ws), expect)
            << tier_name(t) << " ws=" << ws << " wb=" << wb;
      }
    }
  }
}

TEST_F(SimdKernelTest, StripMatchesIndividualCounts) {
  Xoshiro256 rng(99);
  std::vector<std::uint32_t> row, dummy;
  std::vector<std::uint32_t> cols[kStripCols];
  for (const std::size_t n : {3u, 6u, 12u, 17u, 24u, 48u, 100u, 192u}) {
    correlated_spans(rng, n, row, dummy);
    const std::uint32_t* col_ptrs[kStripCols];
    std::uint64_t expect[kStripCols];
    for (std::size_t j = 0; j < kStripCols; ++j) {
      correlated_spans(rng, n, cols[j], dummy);
      col_ptrs[j] = cols[j].data();
      expect[j] = ref_count(row.data(), cols[j].data(), n);
    }
    for (const Tier t : supported_tiers()) {
      force_tier(t);
      std::uint64_t acc[kStripCols] = {};
      match_count_strip(row.data(), n, col_ptrs, acc);
      for (std::size_t j = 0; j < kStripCols; ++j) {
        ASSERT_EQ(acc[j], expect[j])
            << tier_name(t) << " n=" << n << " col=" << j;
      }
    }
  }
}

TEST_F(SimdKernelTest, ForceTierOverridesDispatch) {
  for (const Tier t : supported_tiers()) {
    EXPECT_EQ(force_tier(t), t);
    EXPECT_EQ(active_tier(), t);
  }
  clear_forced_tier();
  EXPECT_EQ(active_tier(), env_selected_tier());
}

// End-to-end: the register-blocked sweep engine must be exact under every
// tier, including tile-edge (non-multiple-of-16) item counts where the strip
// kernel falls back to single-pair sweeps.
TEST_F(SimdKernelTest, PairMinerExactUnderEveryTierAtTileEdges) {
  for (const auto& [n_items, tile] :
       {std::pair{23u, 16u}, std::pair{37u, 16u}, std::pair{40u, 32u}}) {
    mining::BernoulliSpec spec;
    spec.num_items = n_items;
    spec.density = 0.2;
    spec.total_items = 2000;
    spec.seed = n_items;
    const auto db = mining::bernoulli_instance(spec);
    const auto oracle = mining::brute_force_pair_supports(db);
    for (const Tier t : supported_tiers()) {
      force_tier(t);
      core::PairMinerOptions opt;
      opt.tile = tile;
      const auto res = core::PairMiner(opt).mine(db);
      ASSERT_TRUE(res.supports.has_value());
      EXPECT_TRUE(*res.supports == oracle)
          << tier_name(t) << " n=" << n_items << " tile=" << tile;
    }
  }
}

}  // namespace
}  // namespace repro::batmap::simd
