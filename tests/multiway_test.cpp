// Tests for the §V future-work extensions: d-of-(d+1) generalized batmaps
// (witness + exactly-once counting for k-way intersections) and the
// pairwise-counter multiway scheme on standard 2-of-3 batmaps.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "batmap/multiway.hpp"
#include "util/rng.hpp"

namespace repro::batmap {
namespace {

std::vector<std::uint64_t> random_set(std::uint64_t universe, std::size_t size,
                                      Xoshiro256& rng) {
  std::set<std::uint64_t> s;
  while (s.size() < size) s.insert(rng.below(universe));
  return {s.begin(), s.end()};
}

/// Exact k-way intersection of sorted vectors.
std::uint64_t exact_kway(const std::vector<std::vector<std::uint64_t>>& sets) {
  std::vector<std::uint64_t> acc = sets[0];
  for (std::size_t i = 1; i < sets.size(); ++i) {
    std::vector<std::uint64_t> next;
    std::set_intersection(acc.begin(), acc.end(), sets[i].begin(),
                          sets[i].end(), std::back_inserter(next));
    acc = std::move(next);
  }
  return acc.size();
}

TEST(MultiwayContextTest, ParamsValid) {
  const MultiwayContext ctx(100000, 3);
  EXPECT_EQ(ctx.d(), 3);
  EXPECT_EQ(ctx.tables(), 4);
  EXPECT_LE(((ctx.universe() - 1) >> ctx.shift()) + 1, 4095u);
  EXPECT_GE(ctx.r0(), 1u << ctx.shift());
  EXPECT_THROW(MultiwayContext(100, 1), repro::CheckError);
  EXPECT_THROW(MultiwayContext(100, 16), repro::CheckError);
}

TEST(MultiwayContextTest, PositionsBijectivePerTable) {
  const MultiwayContext ctx(1000, 4);
  const std::uint32_t r = ctx.range_for_size(100);
  std::vector<bool> hit(static_cast<std::size_t>(ctx.tables()) * r, false);
  for (int t = 0; t < ctx.tables(); ++t) {
    for (std::uint64_t v = 0; v < r; ++v) {
      const std::uint64_t p = ctx.position(v, t, r);
      ASSERT_LT(p, hit.size());
      ASSERT_FALSE(hit[p]);
      hit[p] = true;
      ASSERT_EQ(ctx.table_of(p), t);
    }
  }
}

TEST(GeneralBuilder, InvariantsAndSeal) {
  for (const int d : {2, 3, 5}) {
    const MultiwayContext ctx(50000, d, d * 100);
    Xoshiro256 rng(d);
    const auto elems = random_set(50000, 400, rng);
    GeneralBatmapBuilder b(ctx, ctx.range_for_size(elems.size()));
    for (const auto x : elems) b.insert(x);
    EXPECT_TRUE(b.failures().empty()) << "d=" << d;
    b.check_invariants();
    const GeneralBatmap map = b.seal();
    EXPECT_EQ(map.stored_elements(), elems.size());
    // Every occupied slot decodes to a valid (hole, code) pair.
    std::uint64_t occupied = 0;
    for (std::uint64_t p = 0; p < map.slot_count(); ++p) {
      const std::uint16_t s = map.slot(p);
      if (s == 0) continue;
      ++occupied;
      ASSERT_LE(GeneralBatmap::hole_of(s), d);
      ASSERT_GE(GeneralBatmap::code_of(s), 1);
    }
    EXPECT_EQ(occupied, elems.size() * static_cast<std::uint64_t>(d));
  }
}

struct KwayParam {
  int d;
  std::size_t k;
  std::size_t set_size;
  double overlap;
};

/// The case name, e.g. "d4_k3_size300_overlap30pct".
std::string kway_name(const KwayParam& p) {
  return "d" + std::to_string(p.d) + "_k" + std::to_string(p.k) + "_size" +
         std::to_string(p.set_size) + "_overlap" +
         std::to_string(static_cast<int>(p.overlap * 100 + 0.5)) + "pct";
}

class KwayP : public ::testing::TestWithParam<KwayParam> {};

TEST_P(KwayP, GeneralBatmapCountsExactly) {
  const auto [d, k, set_size, overlap] = GetParam();
  const std::uint64_t universe = 20000;
  const MultiwayContext ctx(universe, d, 42 + d);
  Xoshiro256 rng(7 * d + k);

  // Build k sets with a planted common core (~overlap fraction).
  const auto core = random_set(universe, static_cast<std::size_t>(
                                             set_size * overlap), rng);
  std::vector<std::vector<std::uint64_t>> sets(k);
  for (std::size_t i = 0; i < k; ++i) {
    std::set<std::uint64_t> s(core.begin(), core.end());
    while (s.size() < set_size) s.insert(rng.below(universe));
    sets[i].assign(s.begin(), s.end());
  }

  // Same range for all (max of the individual sizes).
  const std::uint32_t r = ctx.range_for_size(set_size);
  std::vector<GeneralBatmap> maps;
  for (const auto& s : sets) {
    GeneralBatmapBuilder b(ctx, r);
    for (const auto x : s) b.insert(x);
    ASSERT_TRUE(b.failures().empty());
    maps.push_back(b.seal());
  }
  std::vector<const GeneralBatmap*> ptrs;
  for (const auto& m : maps) ptrs.push_back(&m);

  EXPECT_EQ(multiway_intersect_count(ctx, ptrs), exact_kway(sets))
      << "d=" << d << " k=" << k;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KwayP,
    ::testing::Values(KwayParam{2, 2, 200, 0.5},  // paper's base case
                      KwayParam{3, 2, 200, 0.5},  // k < d
                      KwayParam{3, 3, 200, 0.5},  // k == d
                      KwayParam{4, 3, 300, 0.3},
                      KwayParam{4, 4, 300, 0.7},
                      KwayParam{5, 5, 150, 0.9},
                      KwayParam{7, 6, 100, 0.4},
                      // empty intersection
                      KwayParam{3, 3, 50, 0.0},
                      KwayParam{3, 3, 20, 1.0}),  // identical sets
    [](const auto& info) { return kway_name(info.param); });

TEST(Multiway, KAboveDRejected) {
  const MultiwayContext ctx(1000, 2);
  Xoshiro256 rng(3);
  std::vector<GeneralBatmap> maps;
  const std::uint32_t r = ctx.range_for_size(20);
  for (int i = 0; i < 3; ++i) {
    GeneralBatmapBuilder b(ctx, r);
    for (const auto x : random_set(1000, 20, rng)) b.insert(x);
    maps.push_back(b.seal());
  }
  std::vector<const GeneralBatmap*> ptrs{&maps[0], &maps[1], &maps[2]};
  EXPECT_THROW(multiway_intersect_count(ctx, ptrs), repro::CheckError);
}

TEST(Multiway, WitnessGuaranteeHolds) {
  // For every common element and k <= d, at least one table stores it in
  // ALL maps (the §V witness property) — verified structurally.
  const int d = 4;
  const std::uint64_t universe = 5000;
  const MultiwayContext ctx(universe, d, 9);
  Xoshiro256 rng(11);
  const auto common = random_set(universe, 50, rng);
  const std::uint32_t r = ctx.range_for_size(200);
  std::vector<GeneralBatmap> maps;
  std::vector<std::vector<std::uint64_t>> sets;
  for (std::size_t i = 0; i < 4; ++i) {
    std::set<std::uint64_t> s(common.begin(), common.end());
    while (s.size() < 200) s.insert(rng.below(universe));
    sets.emplace_back(s.begin(), s.end());
    GeneralBatmapBuilder b(ctx, r);
    for (const auto x : sets.back()) b.insert(x);
    ASSERT_TRUE(b.failures().empty());
    maps.push_back(b.seal());
  }
  for (const auto x : common) {
    int witnesses = 0;
    for (int t = 0; t < ctx.tables(); ++t) {
      const std::uint64_t p = ctx.position(ctx.permuted(t, x), t, r);
      bool all = true;
      for (const auto& m : maps) {
        const std::uint16_t s = m.slot(p);
        all &= (GeneralBatmap::code_of(s) == ctx.code(ctx.permuted(t, x)));
      }
      witnesses += all;
    }
    ASSERT_GE(witnesses, 1) << "element " << x << " has no witness table";
  }
}

TEST(MultiwayCounters, MatchesExactKway) {
  const std::uint64_t universe = 10000;
  const BatmapContext ctx(universe, 5);
  Xoshiro256 rng(13);
  for (const std::size_t k : {2u, 3u, 5u, 8u}) {
    const auto core = random_set(universe, 40, rng);
    std::vector<std::vector<std::uint64_t>> sets(k);
    std::vector<Batmap> maps(k);
    for (std::size_t i = 0; i < k; ++i) {
      std::set<std::uint64_t> s(core.begin(), core.end());
      while (s.size() < 100 + 50 * i) s.insert(rng.below(universe));
      sets[i].assign(s.begin(), s.end());
      std::vector<std::uint64_t> failed;
      maps[i] = build_batmap(ctx, sets[i], &failed);
      ASSERT_TRUE(failed.empty());
    }
    std::vector<const Batmap*> others;
    for (std::size_t i = 1; i < k; ++i) others.push_back(&maps[i]);
    EXPECT_EQ(multiway_count_via_counters(ctx, maps[0], sets[0], others),
              exact_kway(sets))
        << "k=" << k;
  }
}

TEST(MultiwayCounters, MixedSizesWrapCorrectly) {
  // Base tiny, others large (and vice versa) — exercises both wrap
  // directions of the counter sweep.
  const std::uint64_t universe = 8000;
  const BatmapContext ctx(universe, 21);
  Xoshiro256 rng(29);
  const auto core = random_set(universe, 10, rng);
  auto make = [&](std::size_t size) {
    std::set<std::uint64_t> s(core.begin(), core.end());
    while (s.size() < size) s.insert(rng.below(universe));
    return std::vector<std::uint64_t>(s.begin(), s.end());
  };
  const auto small = make(20);
  const auto large1 = make(800);
  const auto large2 = make(1500);

  const Batmap ms = build_batmap(ctx, small);
  const Batmap ml1 = build_batmap(ctx, large1);
  const Batmap ml2 = build_batmap(ctx, large2);

  {
    std::vector<const Batmap*> others{&ml1, &ml2};
    EXPECT_EQ(multiway_count_via_counters(ctx, ms, small, others),
              exact_kway({small, large1, large2}));
  }
  {
    std::vector<const Batmap*> others{&ms, &ml2};
    EXPECT_EQ(multiway_count_via_counters(ctx, ml1, large1, others),
              exact_kway({large1, small, large2}));
  }
}

TEST(GallopIntersect, MatchesSetIntersectionAndToleratesAliasing) {
  Xoshiro256 rng(47);
  for (int iter = 0; iter < 40; ++iter) {
    const auto a = random_set(4000, 1 + rng.below(300), rng);
    const auto b = random_set(4000, 1 + rng.below(300), rng);
    std::vector<std::uint64_t> expect;
    std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                          std::back_inserter(expect));
    std::vector<std::uint64_t> out(std::min(a.size(), b.size()));
    const std::size_t n = gallop_intersect(a, b, out.data());
    out.resize(n);
    ASSERT_EQ(out, expect);
    // The documented aliasing guarantee: out may be either input's storage
    // (the k-way reduction runs in place on one scratch buffer).
    auto acopy = a;
    acopy.resize(gallop_intersect(acopy, b, acopy.data()));
    EXPECT_EQ(acopy, expect);
    auto bcopy = b;
    bcopy.resize(gallop_intersect(a, bcopy, bcopy.data()));
    EXPECT_EQ(bcopy, expect);
  }
  // Degenerate shapes.
  const std::vector<std::uint64_t> some{1, 5, 9};
  std::uint64_t sink[3];
  EXPECT_EQ(gallop_intersect({}, some, sink), 0u);
  EXPECT_EQ(gallop_intersect(some, {}, sink), 0u);
  EXPECT_EQ(gallop_intersect(some, some, sink), 3u);
}

TEST(MultiwayCounters, CounterWidthSurvivesDeepWrap) {
  // Regression: the sweep counters were uint16_t. An other map whose slot
  // count exceeds the base's by more than 2^16 blocks can credit one base
  // position once per block, wrapping a 16-bit counter back to a small
  // value that may falsely equal k−1. Craft exactly that alignment: a base
  // of 12 slots and an other of 12·2^17 slots where block slot 0 always
  // matches base slot 0. The counter must reach 2^17 unwrapped.
  const std::uint64_t base_slots = 12;
  const std::uint64_t blocks = 1ull << 17;
  const std::uint32_t byte = 0x80u | 0x05u;  // indicator set, code 5
  std::vector<std::uint32_t> base_words(base_slots / 4, 0);
  base_words[0] = byte;  // slot 0 only
  std::vector<std::uint32_t> other_words(blocks * base_slots / 4, 0);
  for (std::uint64_t blk = 0; blk < blocks; ++blk) {
    other_words[blk * (base_slots / 4)] = byte;
  }
  std::vector<std::uint32_t> counters(base_slots, 0);
  accumulate_pair_counters(base_words, other_words, counters);
  EXPECT_EQ(counters[0], blocks);
  for (std::uint64_t p = 1; p < base_slots; ++p) {
    ASSERT_EQ(counters[p], 0u) << "p=" << p;
  }
  // Same alignment, base-larger direction: every base block credits its
  // own slot once (the counter span covers the full base).
  std::vector<std::uint32_t> wide_counters(blocks * base_slots, 0);
  accumulate_pair_counters(other_words, base_words, wide_counters);
  for (std::uint64_t blk = 0; blk < blocks; ++blk) {
    ASSERT_EQ(wide_counters[blk * base_slots], 1u) << "blk=" << blk;
  }
}

TEST(MultiwayCounters, MatchRuleIgnoresIndicatorOnlyDifferences) {
  // The pair rule counts a match when codes agree and at least one side has
  // its indicator set — and never for empty (null) slots.
  const std::uint32_t code = 0x22;
  std::vector<std::uint32_t> base(1, 0x80u | code);  // 4 slots, slot 0 set
  std::vector<std::uint32_t> counters(4, 0);
  {
    std::vector<std::uint32_t> other(1, code);  // indicator clear
    accumulate_pair_counters(base, other, counters);
    EXPECT_EQ(counters[0], 1u);  // (a|b) has the indicator
  }
  {
    std::vector<std::uint32_t> other(1, 0x80u | (code + 1));  // code differs
    accumulate_pair_counters(base, other, counters);
    EXPECT_EQ(counters[0], 1u);  // unchanged
  }
  {
    std::vector<std::uint32_t> other(1, 0u);  // null slot
    accumulate_pair_counters(base, other, counters);
    EXPECT_EQ(counters[0], 1u);  // unchanged
  }
}

TEST(GeneralBuilder, FailureCascadeKeepsInvariants) {
  // Forced-failure torture for the insert cascade (remove_all, bounded
  // repair walk, pending drop): minimal range + tiny max_loop overloads the
  // table so walks give up constantly. After every failed insert the
  // structure must still hold its invariants, every recorded failure must
  // be recorded exactly once, and the sealed map must account exactly for
  // the survivors.
  std::uint64_t single_failures = 0;  // failed inserts recording only x
  std::uint64_t double_failures = 0;  // ... also dropping an evicted victim
  for (const int d : {2, 3, 5}) {
    for (const int max_loop : {1, 4}) {
      const MultiwayContext ctx(4096, d, 500 + d);
      const std::uint32_t r = 64;  // pow2 >= r0, far below 3·r capacity
      ASSERT_GE(r, ctx.r0());
      GeneralBatmapBuilder b(ctx, r, max_loop);
      Xoshiro256 rng(static_cast<std::uint64_t>(d * 31 + max_loop));
      std::set<std::uint64_t> tried;
      std::uint64_t failed_inserts = 0;
      while (tried.size() < 3 * r) {
        const std::uint64_t x = rng.below(4096);
        if (!tried.insert(x).second) continue;
        const std::size_t before = b.failures().size();
        if (!b.insert(x)) {
          ++failed_inserts;
          b.check_invariants();
          const std::size_t grew = b.failures().size() - before;
          ASSERT_GE(grew, 1u);
          ASSERT_LE(grew, 2u);
          (grew == 1 ? single_failures : double_failures) += 1;
        } else {
          ASSERT_EQ(b.failures().size(), before);
        }
      }
      ASSERT_GT(failed_inserts, 0u) << "d=" << d << " max_loop=" << max_loop;
      // Exactly-once recording: no duplicates, and every failure is an
      // element that was actually offered to the builder.
      auto f = b.failures();
      std::sort(f.begin(), f.end());
      ASSERT_TRUE(std::adjacent_find(f.begin(), f.end()) == f.end());
      for (const auto x : f) ASSERT_TRUE(tried.count(x));
      EXPECT_GE(f.size(), failed_inserts);
      EXPECT_LE(f.size(), 2 * failed_inserts);
      // The sealed map stores exactly the non-failed inserts, d copies each.
      const GeneralBatmap m = b.seal();
      EXPECT_EQ(m.stored_elements(), tried.size() - f.size());
    }
  }
  // Both cascade exits must have been exercised across the sweep: a repair
  // walk that succeeds (or nestless == x) records one failure; a repair
  // that gives up drops the evicted victim too.
  EXPECT_GT(single_failures, 0u);
  EXPECT_GT(double_failures, 0u);
}

TEST(MultiwayCounters, PairCaseEqualsPairSweep) {
  // With k = 2 the counter scheme must agree with intersect_count.
  const BatmapContext ctx(5000, 3);
  Xoshiro256 rng(31);
  const auto a = random_set(5000, 300, rng);
  const auto b = random_set(5000, 500, rng);
  const Batmap ma = build_batmap(ctx, a);
  const Batmap mb = build_batmap(ctx, b);
  std::vector<const Batmap*> others{&mb};
  EXPECT_EQ(multiway_count_via_counters(ctx, ma, a, others),
            intersect_count(ma, mb));
}

}  // namespace
}  // namespace repro::batmap
