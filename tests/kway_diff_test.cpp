// Randomized differential tests for the K/R fold (kway_effective in
// query_engine.cpp): deduplicated operands intersected by galloping merges
// in ascending stored size must agree — batched and through execute_one —
// with a brute-force sorted-vector intersection for every seed, density,
// k in [2, 8] and every operand ordering, with forced insertion failures,
// on mixed layouts, and for rule scores whose consequent is the smallest
// operand or repeats an antecedent, with and without a pending write.
// Runs in the stress tier (ASan+UBSan CI job).
#include <gtest/gtest.h>

#include <algorithm>
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

  /// `min_size`/`max_size` bound the per-set sizes drawn uniformly.
  /// `mixed` writes the snapshot with cycled per-row layouts (i % 4), so
  /// the fold reads element lists of every layout.
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

TEST(KwayDiffTest, FoldMatchesBruteForceAcrossSeedsAndOrders) {
  // Seeds × size regimes; within each, every k in [2, 8] and several
  // operand orderings (all permutations when k <= 4, random shuffles
  // above) must produce the brute-force answer bit-exactly.
  struct Regime {
    std::uint64_t universe;
    std::size_t min_size, max_size;
  };
  const Regime regimes[] = {
      {3000, 20, 200},     // sparse, skewed
      {4000, 1500, 1900},  // dense, near-equal
      {20000, 5, 3000},    // wild mix of ranges
  };
  std::uint64_t total_queries = 0;
  std::uint64_t list_steps = 0;
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
    }
  }
  // The batched fold must actually have merged: a zero here means this
  // test silently stopped covering it.
  EXPECT_GT(total_queries, 0u);
  EXPECT_GT(list_steps, 0u);
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

/// One rule score batched and through execute_one; both must equal the
/// brute-force joint and antecedent counts over `oracle`.
void expect_rule(QueryEngine& engine, const batmap::BatmapStore& oracle,
                 const std::vector<std::uint32_t>& ids) {
  const std::uint64_t joint = brute_fold(oracle, ids).size();
  const std::uint64_t ante =
      brute_fold(oracle, {ids.begin(), ids.end() - 1}).size();
  Request req;
  req.query = kway_query(ids, QueryKind::kRuleScore);
  engine.submit(req);
  ASSERT_TRUE(QueryEngine::wait(req));
  const Result one = engine.execute_one(req.query);
  for (const Result* got : {&req.result(), &one}) {
    EXPECT_EQ(got->value, joint);
    EXPECT_EQ(got->aux, ante);
  }
}

TEST(KwayDiffTest, RuleScoreConsequentFoldsAfterSizeOrderedAntecedent) {
  // The fold sorts the antecedent by size but keeps the consequent last,
  // so a consequent that is the smallest operand, or repeats an
  // antecedent id, must still leave aux = |antecedent|. Checked on clean
  // rows, then with a pending add on the smallest set (its element list
  // grows; the fold still orders by stored size).
  const auto fx = SnapFixture::make(3000, 10, 30, 900, 41, "rule_order");
  const auto n = static_cast<std::uint32_t>(fx.snap.size());
  std::uint32_t small = 0, large = 0;
  for (std::uint32_t id = 1; id < n; ++id) {
    const auto size = fx.store.elements(id).size();
    if (size < fx.store.elements(small).size()) small = id;
    if (size > fx.store.elements(large).size()) large = id;
  }
  std::vector<std::vector<std::uint32_t>> shapes;
  Xoshiro256 rng(43);
  for (std::uint32_t k = 2; k <= kMaxKwayIds; ++k) {
    std::vector<std::uint32_t> ids(k);
    for (std::uint32_t i = 0; i + 1 < k; ++i) {
      do {
        ids[i] = static_cast<std::uint32_t>(rng.below(n));
      } while (ids[i] == small);
    }
    ids[k - 1] = small;  // the smallest operand is the consequent
    shapes.push_back(ids);
    ids[k - 1] = ids[rng.below(k - 1)];  // repeats an antecedent id
    shapes.push_back(ids);
  }
  shapes.push_back({small, large, small});
  shapes.push_back({large, large});

  QueryEngine engine(fx.snap, {});
  for (const auto& ids : shapes) {
    SCOPED_TRACE(::testing::PrintToString(ids) + " clean");
    expect_rule(engine, fx.store, ids);
  }

  // Pending add: the large set's members join the small one.
  batmap::BatmapStore oracle(fx.store.universe());
  for (std::uint32_t id = 0; id < n; ++id) {
    const auto e = fx.store.elements(id);
    std::vector<std::uint64_t> v(e.begin(), e.end());
    if (id == small) {
      Query add;
      add.kind = QueryKind::kAdd;
      add.a = small;
      for (const std::uint64_t x : fx.store.elements(large)) {
        if (add.nids == kMaxKwayIds) break;
        if (std::binary_search(e.begin(), e.end(), x)) continue;
        add.ids[add.nids++] = static_cast<std::uint32_t>(x);
        v.push_back(x);
      }
      ASSERT_EQ(engine.execute_serial(add).value, add.nids);
    }
    oracle.add(v);
  }
  for (const auto& ids : shapes) {
    SCOPED_TRACE(::testing::PrintToString(ids) + " pending add");
    expect_rule(engine, oracle, ids);
  }
}

TEST(KwayDiffTest, ForcedFailuresStayExact) {
  // max_loop=1 floods the store with insertion failures. Element lists
  // hold whole sets, failed elements included, so the fold must still
  // match brute force.
  batmap::BatmapStore::Options sopt;
  sopt.builder.max_loop = 1;
  sopt.builder.max_cascade = 1;
  const auto fx = SnapFixture::make(4000, 12, 800, 1800, 13, "fail", sopt);
  ASSERT_GT(fx.store.total_failures(), 0u);
  // Operands come from the sets that actually carry failures.
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
}

TEST(KwayDiffTest, MixedLayoutSnapshotMatchesBruteForce) {
  // Cycled per-row layouts (batmap/dense/list/wah): the fold reads every
  // row's element list whatever its layout, so it must still reach the
  // exact brute-force answer.
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
