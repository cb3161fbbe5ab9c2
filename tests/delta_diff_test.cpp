// Differential tests for the live-update delta layer: a base snapshot plus
// a random write stream (adds + tombstones) must answer every query kind —
// I / S / T / K / R — byte-identically to an offline snapshot rebuilt from
// the merged corpus, at every checkpoint of the stream and again after a
// FLUSH compacts the delta into a new epoch. Each query is answered three
// ways (batched submit, execute_serial, offline-oracle execute_one) and all
// three must agree exactly, across seeds × delete ratios × row layouts and
// a forced-insertion-failure case (the raw kSupport counts only match if
// the effective-row rebuild is bit-equal to the offline cuckoo build).
// The compactor's background trigger gets the same offline comparison, and
// every emitted epoch must equal the offline rebuild's file byte for byte
// for each (base, compact) layout-mode pair. Views must share the merged
// ops of sets no write touched, and top-k on mixed snapshots with pending
// writes must equal a brute-force ranking on both arms of the list
// ranking. Runs in the stress tier and the tsan label, and in the
// diff-smoke target.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batmap/intersect.hpp"
#include "service/delta_layer.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/rng.hpp"

namespace repro::service {
namespace {

/// Ground truth: the merged corpus as plain sorted sets.
using Model = std::vector<std::set<std::uint64_t>>;

Model random_model(std::uint64_t universe, int sets, std::uint64_t seed,
                   std::size_t max_size) {
  Model m(static_cast<std::size_t>(sets));
  Xoshiro256 rng(seed);
  for (auto& s : m) {
    const std::size_t size = 3 + rng.below(max_size);
    while (s.size() < size) s.insert(rng.below(universe));
  }
  return m;
}

batmap::BatmapStore store_of(const Model& m, std::uint64_t universe,
                             batmap::BatmapStore::Options sopt) {
  batmap::BatmapStore store(universe, sopt);
  for (const auto& s : m) {
    std::vector<std::uint64_t> v(s.begin(), s.end());
    store.add(v);
  }
  return store;
}

std::string snap_of(const Model& m, std::uint64_t universe,
                    batmap::BatmapStore::Options sopt, LayoutMode mode,
                    std::uint64_t epoch, const std::string& tag) {
  const auto store = store_of(m, universe, sopt);
  const std::string path =
      "/tmp/batmap_delta_diff_" + tag + "_" + std::to_string(epoch) + ".snap";
  write_snapshot(store, path, epoch, plan_layouts(store, mode));
  return path;
}

void expect_equal(const Result& got, const Result& want, const Query& q,
                  const char* which) {
  ASSERT_EQ(got.value, want.value)
      << which << " kind=" << static_cast<int>(q.kind) << " a=" << q.a
      << " b=" << q.b << " k=" << q.k;
  ASSERT_EQ(got.aux, want.aux) << which;
  ASSERT_EQ(got.topk_count, want.topk_count) << which;
  for (std::uint32_t i = 0; i < want.topk_count; ++i) {
    ASSERT_EQ(got.topk[i].id, want.topk[i].id) << which << " rank " << i;
    ASSERT_EQ(got.topk[i].count, want.topk[i].count) << which << " rank " << i;
  }
}

/// One checkpoint: every pair (I and S), a top-k grid, and random K/R
/// queries — three-way compared between the live engine's batched path,
/// its serial path, and an offline engine over a snapshot rebuilt from the
/// model. Byte-identity here IS the merge-on-read contract.
void verify_checkpoint(QueryEngine& engine, const Model& model,
                       std::uint64_t universe,
                       batmap::BatmapStore::Options sopt, LayoutMode mode,
                       std::uint64_t rng_seed, const std::string& tag) {
  const std::string opath = snap_of(model, universe, sopt, mode, 777, tag);
  Snapshot oracle_snap = Snapshot::open(opath);
  std::remove(opath.c_str());
  QueryEngine oracle(oracle_snap, QueryEngine::Options{});

  const auto n = static_cast<std::uint32_t>(model.size());
  std::vector<Query> queries;
  for (std::uint32_t a = 0; a < n; ++a) {
    for (std::uint32_t b = a; b < n; ++b) {
      Query q;
      q.a = a;
      q.b = b;
      q.kind = QueryKind::kIntersect;
      queries.push_back(q);
      q.kind = QueryKind::kSupport;
      queries.push_back(q);
    }
  }
  for (std::uint32_t a = 0; a < n; a += 5) {
    for (const std::uint32_t k : {1u, 3u, static_cast<std::uint32_t>(kMaxTopK)}) {
      Query q;
      q.kind = QueryKind::kTopK;
      q.a = a;
      q.k = k;
      queries.push_back(q);
    }
  }
  Xoshiro256 rng(rng_seed);
  for (int i = 0; i < 50; ++i) {
    Query q;
    q.kind = i % 2 == 0 ? QueryKind::kKway : QueryKind::kRuleScore;
    q.nids = static_cast<std::uint8_t>(2 + rng.below(kMaxKwayIds - 1));
    for (std::uint32_t j = 0; j < q.nids; ++j) {
      q.ids[j] = static_cast<std::uint32_t>(rng.below(n));
    }
    queries.push_back(q);
  }

  Request req;
  for (const Query& q : queries) {
    const Result want = oracle.execute_one(q);
    expect_equal(engine.execute_serial(q), want, q, "serial-vs-oracle");
    req.query = q;
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    expect_equal(req.result(), want, q, "batched-vs-oracle");
  }
}

struct Case {
  std::uint64_t seed;
  int delete_permille;  ///< tombstone probability of each write op
  LayoutMode mode;
  batmap::BatmapStore::Options sopt;
  std::uint64_t universe;
  int sets;
  std::size_t max_size;
  std::string tag;
};

void run_case(const Case& c) {
  SCOPED_TRACE(c.tag);
  Model model = random_model(c.universe, c.sets, c.seed, c.max_size);
  const std::string base =
      snap_of(model, c.universe, c.sopt, c.mode, /*epoch=*/1, c.tag);
  SnapshotManager mgr(Snapshot::open(base));
  std::remove(base.c_str());

  QueryEngine::Options opt;
  opt.cache_entries = 128;  // small: writes must interact with eviction too
  opt.delta.builder = c.sopt.builder;
  QueryEngine engine(mgr, opt);

  Compactor::Options copt;
  copt.out_prefix = "/tmp/batmap_delta_diff_" + c.tag + "_compact";
  copt.layout = c.mode;
  Compactor compactor(mgr, engine.delta(), copt);
  engine.set_flush_hook([&compactor] { return compactor.compact_now(); });

  // The write stream: random (set, elems, tombstone) triples through the
  // batched path, with the model tracking the merged truth. Every write
  // must be admitted (never dropped) and report exactly the ops that
  // changed visible membership.
  Xoshiro256 rng(c.seed * 1000 + 17);
  Request req;
  int writes = 0;
  const std::vector<int> checkpoints = {40, 100, 150};
  std::size_t next_cp = 0;
  while (writes < 150) {
    Query q;
    const bool del = rng.below(1000) < static_cast<std::uint64_t>(c.delete_permille);
    q.kind = del ? QueryKind::kDelete : QueryKind::kAdd;
    q.a = static_cast<std::uint32_t>(rng.below(static_cast<std::uint64_t>(c.sets)));
    std::set<std::uint64_t> elems;
    const std::size_t want = 1 + rng.below(6);
    while (elems.size() < want) elems.insert(rng.below(c.universe));
    q.nids = 0;
    for (const std::uint64_t e : elems) {
      q.ids[q.nids++] = static_cast<std::uint32_t>(e);
    }
    std::uint64_t expect_recorded = 0;
    auto& s = model[q.a];
    for (const std::uint64_t e : elems) {
      if (del ? s.erase(e) > 0 : s.insert(e).second) ++expect_recorded;
    }
    req.query = q;
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    ASSERT_EQ(req.outcome(), Request::Outcome::kOk);
    ASSERT_EQ(req.result().value, expect_recorded);
    ++writes;
    if (next_cp < checkpoints.size() && writes == checkpoints[next_cp]) {
      verify_checkpoint(engine, model, c.universe, c.sopt, c.mode,
                        c.seed + static_cast<std::uint64_t>(writes), c.tag);
      ++next_cp;
    }
  }

  // FLUSH: the compactor drains the delta into epoch 2 with zero dropped
  // queries, and the merged answers must not change across the swap.
  req.query = Query{};
  req.query.kind = QueryKind::kFlush;
  engine.submit(req);
  ASSERT_TRUE(QueryEngine::wait(req));
  ASSERT_EQ(req.outcome(), Request::Outcome::kOk);
  EXPECT_EQ(req.result().value, 2u);
  EXPECT_EQ(mgr.epoch(), 2u);
  const auto st = engine.stats();
  EXPECT_EQ(st.delta_elements, 0u);
  EXPECT_GE(st.compactions, 1u);
  verify_checkpoint(engine, model, c.universe, c.sopt, c.mode, c.seed + 999,
                    c.tag);
  std::remove((copt.out_prefix + ".e2").c_str());
}

TEST(DeltaDiffTest, MergedServingMatchesOfflineRebuild) {
  for (const std::uint64_t seed : {3ull}) {
    for (const int del_pm : {0, 400, 800}) {
      for (const LayoutMode mode : {LayoutMode::kBatmap, LayoutMode::kAuto}) {
        Case c;
        c.seed = seed;
        c.delete_permille = del_pm;
        c.mode = mode;
        c.universe = 3000;
        c.sets = 24;
        c.max_size = 200;
        c.tag.append("s").append(std::to_string(seed));
        c.tag.append("_d").append(std::to_string(del_pm));
        c.tag.append("_m").append(std::to_string(static_cast<int>(mode)));
        run_case(c);
      }
    }
  }
}

TEST(DeltaDiffTest, ForcedFailuresStayByteIdenticalAcrossLayouts) {
  // Dense rows + a tiny cuckoo loop budget force insertion failures, so the
  // kSupport raw counts exercise the effective-row rebuild: the delta-side
  // failure lists must be bit-equal to the offline build's.
  for (const LayoutMode mode :
       {LayoutMode::kList, LayoutMode::kDense, LayoutMode::kWah}) {
    Case c;
    c.seed = 11;
    c.delete_permille = 300;
    c.mode = mode;
    c.sopt.builder.max_loop = 6;
    c.universe = 400;
    c.sets = 16;
    c.max_size = 180;
    c.tag = "fail_m" + std::to_string(static_cast<int>(mode));
    run_case(c);
  }
}

// ---- the background trigger ------------------------------------------------

/// Compactor::start_background is the production trigger (batmap_serve
/// --compact-ops / --compact-age-ms). `writes` single-element adds go
/// through the batched path and no FLUSH is ever sent: the trigger alone
/// must advance the epoch, every answer must still equal the offline
/// rebuild, and destroying the compactor must join its thread promptly.
void run_background(Compactor::Options copt, int writes,
                    const std::string& tag) {
  SCOPED_TRACE(tag);
  const std::uint64_t universe = 3000;
  Model model = random_model(universe, 24, 9, 150);
  const std::string base =
      snap_of(model, universe, {}, LayoutMode::kAuto, /*epoch=*/1, tag);
  SnapshotManager mgr(Snapshot::open(base));
  std::remove(base.c_str());
  QueryEngine engine(mgr, QueryEngine::Options{});
  copt.out_prefix = "/tmp/batmap_delta_diff_" + tag + "_compact";
  copt.layout = LayoutMode::kAuto;
  copt.poll_ms = 5;
  auto compactor = std::make_unique<Compactor>(mgr, engine.delta(), copt);
  compactor->start_background();

  Xoshiro256 rng(77);
  Request req;
  for (int w = 0; w < writes; ++w) {
    req.query = Query{};
    req.query.kind = QueryKind::kAdd;
    req.query.a = static_cast<std::uint32_t>(rng.below(model.size()));
    std::uint64_t e = rng.below(universe);
    while (!model[req.query.a].insert(e).second) e = rng.below(universe);
    req.query.ids[req.query.nids++] = static_cast<std::uint32_t>(e);
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    ASSERT_EQ(req.result().value, 1u);
  }
  for (int i = 0; i < 10000 && mgr.epoch() < 2; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(mgr.epoch(), 2u) << "the trigger never compacted";
  EXPECT_GE(engine.stats().compactions, 1u);
  verify_checkpoint(engine, model, universe, {}, LayoutMode::kAuto, 5, tag);

  const auto t0 = std::chrono::steady_clock::now();
  compactor.reset();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  for (std::uint64_t e = 2; e <= mgr.epoch(); ++e) {
    std::remove((copt.out_prefix + ".e" + std::to_string(e)).c_str());
  }
}

TEST(CompactorTest, OpCountTriggerCompactsWithoutFlush) {
  Compactor::Options copt;
  copt.trigger_ops = 16;
  run_background(copt, 16, "bg_ops");
}

TEST(CompactorTest, OpAgeTriggerCompactsWithoutFlush) {
  Compactor::Options copt;
  copt.max_age_ms = 30;
  run_background(copt, 3, "bg_age");
}

// ---- compaction output -------------------------------------------------------

std::string file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Three compactions from a `base`-mode snapshot with a `compact`-mode
/// compactor: each emitted epoch must be byte-identical to write_snapshot
/// over an offline store of the merged sets planned with plan_layouts, and
/// compacted_rows must grow by the sets written when the modes match.
void run_identity(LayoutMode base, LayoutMode compact, const std::string& tag) {
  SCOPED_TRACE(tag);
  const std::uint64_t universe = 400;
  batmap::BatmapStore::Options sopt;
  sopt.builder.max_loop = 1;  // forces insertion failures
  sopt.builder.max_cascade = 1;
  Model model = random_model(universe, 20, 11, 180);
  const std::string base_path =
      snap_of(model, universe, sopt, base, /*epoch=*/1, tag);
  Snapshot base_snap = Snapshot::open(base_path);
  ASSERT_GT(base_snap.total_failures(), 0u) << "no forced failures";
  SnapshotManager mgr(std::move(base_snap));
  std::remove(base_path.c_str());
  QueryEngine::Options opt;
  opt.delta.builder = sopt.builder;
  QueryEngine engine(mgr, opt);
  Compactor::Options copt;
  copt.out_prefix = "/tmp/batmap_delta_diff_" + tag + "_compact";
  copt.layout = compact;
  copt.keep_files = true;
  Compactor compactor(mgr, engine.delta(), copt);

  Xoshiro256 rng(41);
  std::uint64_t rows_before = 0;
  for (int round = 1; round <= 3; ++round) {
    // Writes that change membership in k distinct sets, adds and deletes.
    const std::uint32_t k = static_cast<std::uint32_t>(2 * round);
    std::set<std::uint32_t> touched;
    while (touched.size() < k) {
      touched.insert(static_cast<std::uint32_t>(rng.below(model.size())));
    }
    for (const std::uint32_t set : touched) {
      auto& s = model[set];
      Query q;
      q.a = set;
      q.nids = 1;
      if (rng.below(2) == 0 && !s.empty()) {
        q.kind = QueryKind::kDelete;
        q.ids[0] = static_cast<std::uint32_t>(*s.begin());
        s.erase(s.begin());
      } else {
        std::uint64_t e = rng.below(universe);
        while (!s.insert(e).second) e = rng.below(universe);
        q.kind = QueryKind::kAdd;
        q.ids[0] = static_cast<std::uint32_t>(e);
      }
      ASSERT_EQ(engine.execute_serial(q).value, 1u);
    }
    const std::uint64_t epoch = compactor.compact_now();
    ASSERT_EQ(epoch, static_cast<std::uint64_t>(round + 1));
    const std::string emitted = copt.out_prefix + ".e" + std::to_string(epoch);
    const std::string offline = emitted + ".offline";
    const auto store = store_of(model, universe, sopt);
    write_snapshot(store, offline, epoch, plan_layouts(store, compact));
    const std::string got = file_bytes(emitted);
    EXPECT_FALSE(got.empty());
    EXPECT_TRUE(got == file_bytes(offline)) << "round " << round;
    std::remove(offline.c_str());
    std::remove(emitted.c_str());

    const std::uint64_t rows = engine.stats().compacted_rows;
    if (base == compact || round > 1) {
      // Every clean row already has the planned layout: only the k written
      // rows are rebuilt.
      EXPECT_EQ(rows - rows_before, k) << "round " << round;
    } else {
      EXPECT_GE(rows - rows_before, k) << "round " << round;
    }
    rows_before = rows;
  }
}

TEST(CompactorTest, OutputIsByteIdenticalToOfflineRebuild) {
  const std::pair<LayoutMode, LayoutMode> pairs[] = {
      {LayoutMode::kAuto, LayoutMode::kAuto},
      {LayoutMode::kBatmap, LayoutMode::kBatmap},
      {LayoutMode::kBatmap, LayoutMode::kAuto},
      {LayoutMode::kAuto, LayoutMode::kBatmap},
      {LayoutMode::kList, LayoutMode::kAuto}};
  for (const auto& [base, compact] : pairs) {
    run_identity(base, compact,
                 "ident_b" + std::to_string(static_cast<int>(base)) + "_c" +
                     std::to_string(static_cast<int>(compact)));
  }
}

// ---- incremental views -------------------------------------------------------

TEST(DeltaLayerTest, ViewReusesUnchangedSets) {
  DeltaLayer delta;
  const std::vector<std::uint64_t> none;
  for (std::uint32_t set : {1u, 4u, 7u}) {
    const std::uint64_t elems[] = {set + 10ull, set + 20ull};
    ASSERT_EQ(delta.apply(set, elems, false, none, 1), 2u);
  }
  const DeltaView before = delta.view_at(1);
  const std::uint64_t more[] = {99};
  ASSERT_EQ(delta.apply(4, more, false, none, 1), 1u);
  const DeltaView after = delta.view_at(1);
  for (std::uint32_t set : {1u, 7u}) {
    ASSERT_EQ(after.ops(set).size(), 2u);
    EXPECT_EQ(after.ops(set).data(), before.ops(set).data()) << "set " << set;
  }
  ASSERT_EQ(after.ops(4).size(), 3u);
  EXPECT_NE(after.ops(4).data(), before.ops(4).data());
  EXPECT_EQ(before.ops(4).size(), 2u);  // the old view is unchanged
}

TEST(DeltaLayerTest, BudgetCountsCachedRows) {
  // One pending op on a 4,000-element row fits a 4 KiB budget; the row's
  // cached effective rebuild (32 KB of elements) does not, so once a read
  // builds it the next write must shed, and dropping the caches frees it.
  Model model(1);
  for (std::uint64_t e = 0; e < 4000; ++e) model[0].insert(2 * e);
  const std::string path = snap_of(model, 8000, {}, LayoutMode::kBatmap, 1,
                                    "budget");
  const Snapshot snap = Snapshot::open(path);
  std::remove(path.c_str());
  DeltaLayer::Options opt;
  opt.max_bytes = 4096;
  DeltaLayer delta(opt);
  const std::uint64_t add[] = {1}, more[] = {3}, later[] = {5};
  ASSERT_EQ(delta.apply(0, add, false, snap.elements(0), 1), 1u);
  const std::uint64_t before = delta.gauges().delta_bytes;
  ASSERT_LE(before + 2 * sizeof(DeltaOp), opt.max_bytes);  // two more fit

  ASSERT_EQ(delta.view_at(1).ops(0).size(), 1u);
  ASSERT_EQ(delta.effective_row(snap, 0, 1)->elements.size(), 4001u);
  EXPECT_GE(delta.gauges().delta_bytes, before + 4001 * sizeof(std::uint64_t));
  EXPECT_THROW(delta.apply(0, more, false, snap.elements(0), 1),
               DeltaFullError);

  ASSERT_TRUE(delta.freeze());  // freeze drops every cache
  EXPECT_LT(delta.gauges().delta_bytes, opt.max_bytes);
  EXPECT_EQ(delta.apply(0, later, false, snap.elements(0), 1), 1u);
}

// ---- top-k on mixed snapshots -------------------------------------------------

/// Brute force: every set but `a`, by |S_a ∩ S_id| desc, then id asc.
std::vector<TopEntry> brute_topk(const Model& m, std::uint32_t a,
                                 std::uint32_t k) {
  std::vector<TopEntry> all;
  for (std::uint32_t id = 0; id < m.size(); ++id) {
    if (id == a) continue;
    std::uint64_t cnt = 0;
    for (const std::uint64_t e : m[id]) cnt += m[a].count(e);
    all.push_back({id, cnt});
  }
  std::sort(all.begin(), all.end(), [](const TopEntry& x, const TopEntry& y) {
    return x.count != y.count ? x.count > y.count : x.id < y.id;
  });
  all.resize(std::min<std::size_t>(all.size(), k));
  return all;
}

/// A snapshot whose rows cycle through every layout in `cycle`, then
/// pending adds and deletes on half the sets (no FLUSH): top-k through the
/// batched engine and through execute_one must equal the brute force.
void run_mixed_topk(std::uint64_t universe, std::span<const core::RowLayout> cycle,
                    const std::string& tag) {
  SCOPED_TRACE(tag);
  Model model = random_model(universe, 16, 23, 120);
  const auto store = store_of(model, universe, {});
  std::vector<core::RowLayout> layouts(store.size());
  for (std::size_t i = 0; i < layouts.size(); ++i) {
    layouts[i] = cycle[i % cycle.size()];
  }
  const std::string path = "/tmp/batmap_delta_diff_" + tag + ".snap";
  write_snapshot(store, path, 1, layouts);
  Snapshot snap = Snapshot::open(path);
  std::remove(path.c_str());
  ASSERT_FALSE(snap.all_batmap());
  SnapshotManager mgr(std::move(snap));
  QueryEngine engine(mgr, QueryEngine::Options{});

  Xoshiro256 rng(5);
  for (std::uint32_t set = 0; set < model.size(); set += 2) {
    auto& s = model[set];
    Query q;
    q.a = set;
    // Adds draw from another set's members so the writes move rankings.
    const auto& donor = model[(set + 3) % model.size()];
    for (auto it = donor.begin(); it != donor.end() && q.nids < 4; ++it) {
      if (s.insert(*it).second) q.ids[q.nids++] = static_cast<std::uint32_t>(*it);
    }
    q.kind = QueryKind::kAdd;
    if (q.nids > 0) {
      ASSERT_EQ(engine.execute_serial(q).value, q.nids);
    }
    Query d;
    d.a = set;
    d.kind = QueryKind::kDelete;
    while (d.nids < 3 && !s.empty()) {
      auto it = std::next(s.begin(), static_cast<std::ptrdiff_t>(rng.below(s.size())));
      d.ids[d.nids++] = static_cast<std::uint32_t>(*it);
      s.erase(it);
    }
    if (d.nids > 0) {
      ASSERT_EQ(engine.execute_serial(d).value, d.nids);
    }
  }

  Request req;
  for (std::uint32_t a = 0; a < model.size(); ++a) {
    for (const std::uint32_t k : {1u, 5u, static_cast<std::uint32_t>(kMaxTopK)}) {
      const auto want = brute_topk(model, a, k);
      Query q;
      q.kind = QueryKind::kTopK;
      q.a = a;
      q.k = k;
      req.query = q;
      engine.submit(req);
      ASSERT_TRUE(QueryEngine::wait(req));
      const Result naive = engine.execute_one(q);
      for (const Result* got : {&req.result(), &naive}) {
        ASSERT_EQ(got->topk_count, want.size()) << "a=" << a << " k=" << k;
        for (std::size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got->topk[i].id, want[i].id) << "a=" << a << " rank " << i;
          EXPECT_EQ(got->topk[i].count, want[i].count)
              << "a=" << a << " rank " << i;
        }
      }
    }
  }
}

TEST(TopKDiffTest, BitmapArmMatchesBruteForceUnderPendingWrites) {
  // ⌈3000/64⌉ probe words are fewer than the stored elements: bit tests.
  const core::RowLayout cycle[] = {core::RowLayout::kBatmap,
                                   core::RowLayout::kDense,
                                   core::RowLayout::kSortedList,
                                   core::RowLayout::kWah};
  run_mixed_topk(3000, cycle, "topk_bitmap");
}

TEST(TopKDiffTest, GallopArmMatchesBruteForceUnderPendingWrites) {
  // 2^24 / 64 probe words outnumber the stored elements: galloping merges.
  const core::RowLayout cycle[] = {core::RowLayout::kBatmap,
                                   core::RowLayout::kSortedList,
                                   core::RowLayout::kWah};
  run_mixed_topk(1ull << 24, cycle, "topk_gallop");
}

}  // namespace
}  // namespace repro::service
