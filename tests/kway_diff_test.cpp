// Randomized differential tests for the k-way conjunctive planner
// (QueryEngine::kway_count): the planned execution — support-ordered
// operands, galloping list merges, amortized counter sweeps — must agree
// with a brute-force sorted-vector intersection for every seed, density,
// k in [2, 8] and every operand ordering, with and without forced
// insertion failures. Runs in the stress tier (ASan+UBSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batmap/intersect.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "util/rng.hpp"

namespace repro::service {
namespace {

struct SnapFixture {
  batmap::BatmapStore store;
  Snapshot snap;

  /// `min_size`/`max_size` bound the per-set sizes drawn uniformly; dense
  /// near-equal sizes make the planner pick counter sweeps, skewed mixes
  /// make it pick list merges.
  /// `mixed` writes the snapshot with cycled per-row layouts (i % 4) so the
  /// planner sees non-batmap rows, which are ineligible for counter sweeps.
  static SnapFixture make(std::uint64_t universe, int sets,
                          std::size_t min_size, std::size_t max_size,
                          std::uint64_t seed, const char* tag,
                          batmap::BatmapStore::Options opt = {},
                          bool mixed = false) {
    batmap::BatmapStore store(universe, opt);
    Xoshiro256 rng(seed);
    for (int i = 0; i < sets; ++i) {
      std::set<std::uint64_t> s;
      const std::size_t size =
          min_size + rng.below(std::uint64_t{max_size - min_size + 1});
      while (s.size() < size) s.insert(rng.below(universe));
      std::vector<std::uint64_t> v(s.begin(), s.end());
      store.add(v);
    }
    const std::string path =
        std::string("/tmp/batmap_kway_diff_test_") + tag + ".snap";
    std::vector<core::RowLayout> layouts;
    if (mixed) {
      layouts.resize(store.size());
      for (std::size_t i = 0; i < layouts.size(); ++i) {
        layouts[i] = static_cast<core::RowLayout>(i % core::kRowLayoutCount);
      }
    }
    write_snapshot(store, path, /*epoch=*/1, layouts);
    Snapshot snap = Snapshot::open(path);
    std::remove(path.c_str());  // the mapping keeps the data alive
    return {std::move(store), std::move(snap)};
  }
};

/// Brute-force |∩ ids| over the store's element lists, folding in the
/// given order (duplicates are harmless: A ∩ A = A).
std::vector<std::uint64_t> brute_fold(const batmap::BatmapStore& store,
                                      const std::vector<std::uint32_t>& ids) {
  const auto first = store.elements(ids[0]);
  std::vector<std::uint64_t> acc(first.begin(), first.end());
  for (std::size_t i = 1; i < ids.size(); ++i) {
    const auto other = store.elements(ids[i]);
    std::vector<std::uint64_t> next;
    std::set_intersection(acc.begin(), acc.end(), other.begin(), other.end(),
                          std::back_inserter(next));
    acc = std::move(next);
  }
  return acc;
}

Query kway_query(const std::vector<std::uint32_t>& ids,
                 QueryKind kind = QueryKind::kKway) {
  Query q;
  q.kind = kind;
  q.nids = static_cast<std::uint8_t>(ids.size());
  for (std::size_t i = 0; i < ids.size(); ++i) q.ids[i] = ids[i];
  return q;
}

std::uint64_t ask(QueryEngine& engine, const Query& q) {
  Request req;
  req.query = q;
  engine.submit(req);
  EXPECT_TRUE(QueryEngine::wait(req));
  // The naive reference path is an independent implementation (protocol-
  // order brute force); it must agree on every query, not just overall.
  const Result one = engine.execute_one(q);
  EXPECT_EQ(req.result().value, one.value);
  EXPECT_EQ(req.result().aux, one.aux);
  return req.result().value;
}

TEST(KwayDiffTest, PlannerMatchesBruteForceAcrossSeedsAndOrders) {
  // Seeds × size regimes; within each, every k in [2, 8] and several
  // operand orderings (all permutations when k <= 4, random shuffles
  // above) must produce the brute-force answer bit-exactly.
  struct Regime {
    std::uint64_t universe;
    std::size_t min_size, max_size;
  };
  const Regime regimes[] = {
      {3000, 20, 200},     // sparse, skewed: list-merge territory
      {4000, 1500, 1900},  // dense, near-equal: sweep territory
      {20000, 5, 3000},    // wild mix of ranges
  };
  std::uint64_t total_queries = 0;
  std::uint64_t list_steps = 0, sweep_steps = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (std::size_t ri = 0; ri < std::size(regimes); ++ri) {
      const auto& rg = regimes[ri];
      char tag[64];
      std::snprintf(tag, sizeof(tag), "orders_%llu_%zu",
                    static_cast<unsigned long long>(seed), ri);
      const auto fx = SnapFixture::make(rg.universe, 12, rg.min_size,
                                        rg.max_size, seed, tag);
      QueryEngine engine(fx.snap, {});
      Xoshiro256 rng(seed * 97 + ri);
      std::uint64_t asked = 0;
      for (std::uint32_t k = 2; k <= kMaxKwayIds; ++k) {
        std::vector<std::uint32_t> ids(k);
        for (auto& id : ids) {
          id = static_cast<std::uint32_t>(rng.below(fx.snap.size()));
        }
        const std::uint64_t want = brute_fold(fx.store, ids).size();
        if (k <= 4) {
          std::sort(ids.begin(), ids.end());
          do {
            ASSERT_EQ(ask(engine, kway_query(ids)), want)
                << "seed=" << seed << " regime=" << ri << " k=" << k;
            ++asked;
          } while (std::next_permutation(ids.begin(), ids.end()));
        } else {
          for (int shuffle = 0; shuffle < 5; ++shuffle) {
            ASSERT_EQ(ask(engine, kway_query(ids)), want)
                << "seed=" << seed << " regime=" << ri << " k=" << k;
            ++asked;
            for (std::size_t i = ids.size(); i > 1; --i) {
              std::swap(ids[i - 1], ids[rng.below(i)]);
            }
          }
        }
      }
      // Duplicate operands dedup (A ∩ A = A): all-same reduces to |S_a|.
      const auto a = static_cast<std::uint32_t>(rng.below(fx.snap.size()));
      ASSERT_EQ(ask(engine, kway_query({a, a, a})), fx.store.elements(a).size());
      ++asked;
      const auto st = engine.stats();
      EXPECT_EQ(st.kway_queries, asked);
      total_queries += st.kway_queries;
      list_steps += st.kway_list_steps;
      sweep_steps += st.kway_sweep_steps;
    }
  }
  // Both planner primitives must actually have run: the dense regimes
  // fund counter sweeps, the skewed ones galloping merges. A zero here
  // means the differential sweep silently stopped covering one path.
  EXPECT_GT(total_queries, 0u);
  EXPECT_GT(list_steps, 0u);
  EXPECT_GT(sweep_steps, 0u);
}

TEST(KwayDiffTest, CostModelSwitchPointIsPinned) {
  // Pins the planner's list-vs-sweep switch point after the calibration
  // retune (per-gallop constant 2 -> 3). The test
  // replicates the whole plan — support-ordered fold, per-step sweep
  // candidacy, the shared fixed-cost demotion gate — from snapshot
  // introspection, then demands the planner's observed step mix
  // (kway_list_steps/kway_sweep_steps deltas) match the replica exactly
  // for every query shape. At least one shape must land in the band the
  // retune flipped (sweeps under the new constant, all-demoted under the
  // old), so reverting the constant fails here, not just in a timing run.
  batmap::BatmapStore store(20000);
  Xoshiro256 rng(47);
  auto add_set = [&](std::size_t size) {
    std::set<std::uint64_t> s;
    while (s.size() < size) s.insert(rng.below(store.universe()));
    std::vector<std::uint64_t> v(s.begin(), s.end());
    store.add(v);
  };
  add_set(1990);  // id 0: strictly smallest -> always the fold base
  for (int i = 0; i < 7; ++i) add_set(2000);   // near-equal: sweep fodder
  for (int i = 0; i < 2; ++i) add_set(16000);  // skewed: list territory
  const std::string path = "/tmp/batmap_kway_diff_test_switch.snap";
  write_snapshot(store, path, /*epoch=*/1, {});
  Snapshot snap = Snapshot::open(path);
  std::remove(path.c_str());
  ASSERT_TRUE(snap.all_batmap());
  for (std::size_t i = 0; i < snap.size(); ++i) {
    ASSERT_TRUE(snap.failures(i).empty()) << i;  // all steps stay eligible
  }

  // The replica of kway_count's planner for a per-gallop constant; returns
  // {list_steps, sweep_steps}.
  const auto predict = [&](std::vector<std::uint32_t> ids,
                           std::uint64_t per_gallop) {
    std::sort(ids.begin(), ids.end(),
              [&](std::uint32_t x, std::uint32_t y) {
                const auto ex = snap.elements(x).size();
                const auto ey = snap.elements(y).size();
                return ex != ey ? ex < ey : x < y;
              });
    const std::uint64_t driver = snap.elements(ids[0]).size();
    const std::uint64_t base_slots = snap.words(ids[0]).size() * 4;
    std::uint64_t n_list = 0, n_sweep = 0, gain = 0;
    for (std::size_t i = 1; i < ids.size(); ++i) {
      const std::uint64_t other_size = snap.elements(ids[i]).size();
      const std::uint64_t other_slots = snap.words(ids[i]).size() * 4;
      const std::uint64_t list_cost =
          driver * (per_gallop + std::bit_width(other_size / driver));
      const std::uint64_t sweep_cost = std::max(base_slots, other_slots) / 4;
      if (sweep_cost < list_cost) {
        ++n_sweep;
        gain += list_cost - sweep_cost;
      } else {
        ++n_list;
      }
    }
    if (n_sweep > 0 && gain <= base_slots / 4 + 2 * driver) {
      n_list += n_sweep;  // joint demotion: the saving missed the fixed cost
      n_sweep = 0;
    }
    return std::pair<std::uint64_t, std::uint64_t>{n_list, n_sweep};
  };

  QueryEngine engine(snap, {});
  std::uint64_t flipped = 0, sweeps_seen = 0, lists_seen = 0;
  std::uint64_t prev_list = 0, prev_sweep = 0;
  std::vector<std::vector<std::uint32_t>> shapes;
  for (std::uint32_t k = 2; k <= kMaxKwayIds; ++k) {
    std::vector<std::uint32_t> ids(k);
    for (std::uint32_t i = 0; i < k; ++i) ids[i] = i;  // base + equal sizes
    shapes.push_back(ids);
  }
  shapes.push_back({0, 8});         // pure skew: never a sweep candidate
  shapes.push_back({0, 1, 8});      // mixed: candidate + non-candidate
  shapes.push_back({0, 1, 2, 8, 9});
  for (const auto& ids : shapes) {
    const auto [want_list, want_sweep] = predict(ids, 3);
    const auto [old_list, old_sweep] = predict(ids, 2);
    if (want_sweep > 0 && old_sweep == 0) ++flipped;

    Request req;
    req.query = kway_query(ids);
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    ASSERT_EQ(req.result().value, brute_fold(store, ids).size());
    const auto st = engine.stats();
    const std::uint64_t dl = st.kway_list_steps - prev_list;
    const std::uint64_t ds = st.kway_sweep_steps - prev_sweep;
    prev_list = st.kway_list_steps;
    prev_sweep = st.kway_sweep_steps;
    ASSERT_EQ(dl, want_list) << "k=" << ids.size();
    ASSERT_EQ(ds, want_sweep) << "k=" << ids.size();
    sweeps_seen += ds;
    lists_seen += dl;
  }
  // The fan must exercise both primitives and cross the band the retune
  // moved; fixture drift that collapses either would make the pin
  // vacuous, so it fails loudly instead.
  EXPECT_GT(sweeps_seen, 0u);
  EXPECT_GT(lists_seen, 0u);
  EXPECT_GT(flipped, 0u);
}

TEST(KwayDiffTest, RuleScoreReportsJointAndAntecedent) {
  const auto fx = SnapFixture::make(5000, 10, 300, 1600, 7, "rule");
  QueryEngine engine(fx.snap, {});
  Xoshiro256 rng(71);
  Request req;
  for (int iter = 0; iter < 60; ++iter) {
    const std::uint32_t k =
        2 + static_cast<std::uint32_t>(rng.below(kMaxKwayIds - 1));
    std::vector<std::uint32_t> ids(k);
    for (auto& id : ids) {
      id = static_cast<std::uint32_t>(rng.below(fx.snap.size()));
    }
    const std::uint64_t joint = brute_fold(fx.store, ids).size();
    const std::uint64_t ante =
        brute_fold(fx.store, {ids.begin(), ids.end() - 1}).size();
    req.query = kway_query(ids, QueryKind::kRuleScore);
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    ASSERT_EQ(req.result().value, joint) << "iter=" << iter;
    ASSERT_EQ(req.result().aux, ante) << "iter=" << iter;
    ASSERT_LE(joint, ante);  // confidence = joint/ante is a valid fraction
    const Result one = engine.execute_one(req.query);
    ASSERT_EQ(one.value, joint);
    ASSERT_EQ(one.aux, ante);
  }
}

TEST(KwayDiffTest, ForcedFailuresFallBackToExactLists) {
  // max_loop=1 floods the store with insertion failures; failed sets are
  // ineligible for counter sweeps, so every step must take the (always
  // exact) list path and still match brute force.
  batmap::BatmapStore::Options sopt;
  sopt.builder.max_loop = 1;
  sopt.builder.max_cascade = 1;
  const auto fx = SnapFixture::make(4000, 12, 800, 1800, 13, "fail", sopt);
  ASSERT_GT(fx.store.total_failures(), 0u);
  // Operands come from the sets that actually carry failures: a sweep step
  // needs a failure-free operand, so drawing only dirty sets guarantees
  // the planner can never schedule one.
  std::vector<std::uint32_t> dirty;
  for (std::size_t id = 0; id < fx.store.size(); ++id) {
    if (!fx.store.failures(id).empty()) {
      dirty.push_back(static_cast<std::uint32_t>(id));
    }
  }
  ASSERT_GE(dirty.size(), 2u);
  QueryEngine engine(fx.snap, {});
  Xoshiro256 rng(131);
  std::uint64_t asked = 0;
  for (int iter = 0; iter < 40; ++iter) {
    const std::uint32_t k =
        2 + static_cast<std::uint32_t>(rng.below(kMaxKwayIds - 1));
    std::vector<std::uint32_t> ids(k);
    for (auto& id : ids) {
      id = dirty[rng.below(dirty.size())];
    }
    ASSERT_EQ(ask(engine, kway_query(ids)), brute_fold(fx.store, ids).size())
        << "iter=" << iter;
    ++asked;
  }
  const auto st = engine.stats();
  EXPECT_EQ(st.kway_queries, asked);
  EXPECT_GT(st.kway_list_steps, 0u);
  EXPECT_EQ(st.kway_sweep_steps, 0u);  // sweeps need failure-free operands
}

TEST(KwayDiffTest, MixedLayoutSnapshotMatchesBruteForce) {
  // Cycled per-row layouts (batmap/dense/list/wah): non-batmap rows are
  // free list operands — never sweep bases or sweep operands — so the
  // planner must still fold to the exact brute-force answer with at least
  // one list step per query and plenty of coverage of the dispatch table.
  const auto fx = SnapFixture::make(6000, 16, 100, 2200, 23, "mixed", {},
                                    /*mixed=*/true);
  ASSERT_FALSE(fx.snap.all_batmap());
  QueryEngine engine(fx.snap, {});
  Xoshiro256 rng(229);
  std::uint64_t asked = 0;
  for (int iter = 0; iter < 60; ++iter) {
    const std::uint32_t k =
        2 + static_cast<std::uint32_t>(rng.below(kMaxKwayIds - 1));
    std::vector<std::uint32_t> ids(k);
    for (auto& id : ids) {
      id = static_cast<std::uint32_t>(rng.below(fx.snap.size()));
    }
    ASSERT_EQ(ask(engine, kway_query(ids)), brute_fold(fx.store, ids).size())
        << "iter=" << iter;
    ++asked;
  }
  const auto st = engine.stats();
  EXPECT_EQ(st.kway_queries, asked);
  EXPECT_GT(st.kway_queries, 0u);
  EXPECT_GT(st.kway_list_steps, 0u);
}

TEST(KwayDiffTest, RejectsMalformedKwayQueries) {
  const auto fx = SnapFixture::make(2000, 6, 50, 200, 3, "invalid");
  QueryEngine engine(fx.snap, {});
  const auto n = static_cast<std::uint32_t>(fx.snap.size());
  Request req;
  // nids out of range and ids out of range are typed rejections.
  for (const auto& [nids, id0] :
       std::initializer_list<std::pair<std::uint8_t, std::uint32_t>>{
           {0, 0}, {1, 0}, {kMaxKwayIds + 1, 0}, {2, n}}) {
    Query q;
    q.kind = QueryKind::kKway;
    q.nids = nids;
    q.ids[0] = id0;
    q.ids[1] = 0;
    req.query = q;
    engine.submit(req);
    EXPECT_FALSE(QueryEngine::wait(req));
    EXPECT_TRUE(req.failed());
  }
  // The slot is reusable and a well-formed query still answers.
  req.query = kway_query({0, 1});
  engine.submit(req);
  ASSERT_TRUE(QueryEngine::wait(req));
  EXPECT_EQ(req.result().value, fx.store.intersection_size(0, 1));
}

}  // namespace
}  // namespace repro::service
