// Chaos tests: fault-injection hooks (util/fault.hpp), snapshot hot-swap
// under load, deadline/overload shedding, and the atomicity guarantees of
// SnapshotManager when the replacement snapshot is broken in every way the
// injector can break it. Runs in the stress tier, i.e. under the
// ASan+UBSan CI job and the dedicated chaos-smoke job.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <iterator>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace repro::service {
namespace {

/// Every test disarms the global fault registry on exit, armed or not —
/// a leaked spec would poison every later test in the process.
struct FaultGuard {
  ~FaultGuard() { util::fault::configure(""); }
};

batmap::BatmapStore make_store(std::uint64_t universe, int sets,
                               std::uint64_t seed) {
  batmap::BatmapStore store(universe);
  Xoshiro256 rng(seed);
  for (int i = 0; i < sets; ++i) {
    std::set<std::uint64_t> s;
    const std::size_t size = 3 + rng.below(200);
    while (s.size() < size) s.insert(rng.below(universe));
    std::vector<std::uint64_t> v(s.begin(), s.end());
    store.add(v);
  }
  return store;
}

std::string snap_file(const batmap::BatmapStore& store, const char* tag,
                      std::uint64_t epoch) {
  const std::string path = std::string("/tmp/batmap_chaos_") + tag + "_" +
                           std::to_string(epoch) + ".snap";
  write_snapshot(store, path, epoch);
  return path;
}

// ---- Fault spec -------------------------------------------------------------

TEST(FaultSpecTest, ParsesSitesValuesAndBudgets) {
  FaultGuard guard;
  util::fault::configure("snap_open:2,stall_ms=7,one_shot=3:1");
  EXPECT_TRUE(util::fault::armed());

  // :2 budget: fires exactly twice.
  EXPECT_TRUE(util::fault::fire("snap_open"));
  EXPECT_TRUE(util::fault::fire("snap_open"));
  EXPECT_FALSE(util::fault::fire("snap_open"));
  EXPECT_EQ(util::fault::hits("snap_open"), 2u);

  // No budget: unlimited; carries a value.
  EXPECT_EQ(util::fault::value("stall_ms", 0), 7u);
  EXPECT_TRUE(util::fault::fire("stall_ms"));
  EXPECT_TRUE(util::fault::fire("stall_ms"));

  // Value and budget combined.
  EXPECT_EQ(util::fault::value("one_shot", 0), 3u);
  EXPECT_TRUE(util::fault::fire("one_shot"));
  EXPECT_FALSE(util::fault::fire("one_shot"));

  // Unknown sites never fire; value() falls back to the default.
  EXPECT_FALSE(util::fault::fire("missing"));
  EXPECT_EQ(util::fault::value("missing", 42), 42u);

  util::fault::configure("");
  EXPECT_FALSE(util::fault::armed());
  EXPECT_FALSE(util::fault::fire("stall_ms"));
}

// ---- SnapshotManager --------------------------------------------------------

TEST(SnapshotManagerTest, SwapRequiresStrictlyAdvancingEpoch) {
  const auto store = make_store(6000, 24, 7);
  const std::string p2 = snap_file(store, "adv", 2);
  const std::string p1 = snap_file(store, "adv", 1);
  const std::string p3 = snap_file(store, "adv", 3);

  SnapshotManager mgr(Snapshot::open(p2));
  EXPECT_EQ(mgr.epoch(), 2u);
  EXPECT_THROW(mgr.swap(p1), CheckError);   // backwards
  EXPECT_THROW(mgr.swap(p2), CheckError);   // same epoch
  EXPECT_EQ(mgr.epoch(), 2u);               // still serving the old state
  EXPECT_EQ(mgr.swaps(), 0u);
  EXPECT_EQ(mgr.swap(p3), 3u);
  EXPECT_EQ(mgr.swaps(), 1u);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
  std::remove(p3.c_str());
}

TEST(SnapshotManagerTest, RetiredStateStaysResidentUntilLastPinDrops) {
  const auto store = make_store(6000, 24, 9);
  const std::string p1 = snap_file(store, "drain", 1);
  const std::string p2 = snap_file(store, "drain", 2);

  SnapshotManager mgr(Snapshot::open(p1));
  ServingStateRef pin = mgr.current();  // simulate an in-flight request
  const std::uint64_t before = pin->snapshot().intersection_size(0, 1);
  mgr.swap(p2, /*wait_drain=*/false);
  EXPECT_EQ(mgr.epoch(), 2u);
  EXPECT_EQ(mgr.retired_resident(), 1u);
  // The pinned generation still answers — its mapping is intact.
  EXPECT_EQ(pin->snapshot().intersection_size(0, 1), before);
  pin.reset();
  EXPECT_EQ(mgr.retired_resident(), 0u);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(SnapshotManagerTest, InjectedOpenFaultsLeaveServingIntact) {
  FaultGuard guard;
  const auto store = make_store(6000, 24, 11);
  const std::string p1 = snap_file(store, "fault", 1);
  const std::string p2 = snap_file(store, "fault", 2);

  SnapshotManager mgr(Snapshot::open(p1));
  for (const char* spec :
       {"snap_open:1", "snap_mmap:1", "snap_checksum:1"}) {
    util::fault::configure(spec);
    EXPECT_THROW(mgr.swap(p2), CheckError) << spec;
    EXPECT_EQ(mgr.epoch(), 1u) << spec;   // reload is all-or-nothing
    EXPECT_EQ(mgr.swaps(), 0u) << spec;
  }
  util::fault::configure("");
  EXPECT_EQ(mgr.swap(p2), 2u);  // the same file swaps fine once disarmed
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ---- Engine chaos -----------------------------------------------------------

TEST(ChaosTest, RingFullFaultShedsWithTypedVerdict) {
  FaultGuard guard;
  const auto store = make_store(5000, 16, 13);
  const std::string p1 = snap_file(store, "ring", 1);
  const Snapshot snap = Snapshot::open(p1);
  std::remove(p1.c_str());
  QueryEngine engine(snap, {});

  util::fault::configure("ring_full:1");
  Request req;
  req.query = {QueryKind::kIntersect, 0, 1, 0};
  EXPECT_EQ(engine.try_submit_ex(req), Admit::kRingFull);
  // The injected rejection consumed the budget; the next admission works
  // and the shed was counted as typed overload.
  EXPECT_EQ(engine.try_submit_ex(req), Admit::kOk);
  EXPECT_TRUE(QueryEngine::wait(req));
  EXPECT_EQ(engine.stats().shed_overload, 1u);
}

TEST(ChaosTest, ExpiredDeadlineIsShedAtAdmission) {
  const auto store = make_store(5000, 16, 15);
  const std::string p1 = snap_file(store, "adm", 1);
  const Snapshot snap = Snapshot::open(p1);
  std::remove(p1.c_str());
  QueryEngine engine(snap, {});

  Request req;
  req.query = {QueryKind::kIntersect, 0, 1, 0};
  req.query.deadline_ns = 1;  // epoch start: long past
  EXPECT_EQ(engine.try_submit_ex(req), Admit::kExpired);
  EXPECT_FALSE(QueryEngine::wait(req));
  EXPECT_EQ(req.outcome(), Request::Outcome::kTimeout);
  EXPECT_TRUE(req.failed());
  EXPECT_GE(engine.stats().timeouts, 1u);

  // The slot is reusable after the timeout.
  req.query.deadline_ns = 0;
  engine.submit(req);
  EXPECT_TRUE(QueryEngine::wait(req));
  EXPECT_EQ(req.result().value, store.intersection_size(0, 1));
}

TEST(ChaosTest, QueuedRequestTimesOutUnderWorkerStall) {
  FaultGuard guard;
  const auto store = make_store(5000, 16, 17);
  const std::string p1 = snap_file(store, "stall", 1);
  const Snapshot snap = Snapshot::open(p1);
  std::remove(p1.c_str());
  QueryEngine engine(snap, {});

  // Every batch stalls 40 ms before looking at its requests, so a request
  // with a 5 ms deadline that arrives while a batch sleeps must be
  // completed as kTimeout by the execution-side deadline check — never
  // silently served late.
  util::fault::configure("worker_stall_ms=40");
  Request warm;
  warm.query = {QueryKind::kIntersect, 0, 1, 0};
  engine.submit(warm);
  // Batch 1 runs on the thread that waits for it and holds the engine in
  // its stall; undeadlined work still completes.
  std::thread warm_waiter([&] { EXPECT_TRUE(QueryEngine::wait(warm)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  Request late;
  late.query = {QueryKind::kIntersect, 2, 3, 0};
  late.query.deadline_ns = QueryEngine::now_ns() + 5'000'000ull;
  ASSERT_EQ(engine.try_submit_ex(late), Admit::kOk);
  EXPECT_FALSE(QueryEngine::wait(late));
  EXPECT_EQ(late.outcome(), Request::Outcome::kTimeout);
  warm_waiter.join();
  util::fault::configure("");
  engine.drain();
  EXPECT_GE(engine.stats().timeouts, 1u);
}

TEST(ChaosTest, PinnedStragglersServeTheirAdmittedEpoch) {
  FaultGuard guard;
  const auto store = make_store(8000, 32, 19);
  const std::string p1 = snap_file(store, "pin", 1);
  const std::string p2 = snap_file(store, "pin", 2);

  SnapshotManager mgr(Snapshot::open(p1));
  QueryEngine engine(mgr, {});

  // Stall every batch 25 ms: requests admitted during a stall are pinned
  // to the pre-swap state, and by the time their batch runs the manager
  // already publishes epoch 2 — they must take the per-pair fallback path
  // against epoch 1 and still answer exactly.
  util::fault::configure("worker_stall_ms=25");
  Request head;
  head.query = {QueryKind::kIntersect, 0, 1, 0};
  engine.submit(head);
  std::thread head_waiter([&] { EXPECT_TRUE(QueryEngine::wait(head)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));

  constexpr int kStragglers = 8;
  std::vector<Request> reqs(kStragglers);
  for (int i = 0; i < kStragglers; ++i) {
    reqs[i].query = {QueryKind::kIntersect, static_cast<std::uint32_t>(i),
                     static_cast<std::uint32_t>(i + 1), 0};
    ASSERT_EQ(engine.try_submit_ex(reqs[i]), Admit::kOk);
  }
  // Publish epoch 2 immediately; drain happens as the stragglers finish.
  std::thread swapper([&] { mgr.swap(p2, /*wait_drain=*/true); });
  head_waiter.join();
  for (int i = 0; i < kStragglers; ++i) {
    EXPECT_TRUE(QueryEngine::wait(reqs[i]));
    EXPECT_EQ(reqs[i].result().value,
              store.intersection_size(reqs[i].query.a, reqs[i].query.b))
        << i;
  }
  swapper.join();
  util::fault::configure("");
  engine.drain();
  const auto st = engine.stats();
  EXPECT_GE(st.queries, static_cast<std::uint64_t>(kStragglers) + 1);
  EXPECT_GE(st.pinned_fallbacks, 1u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(mgr.retired_resident(), 0u);  // epoch 1 unmapped after drain
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

/// What `store` answers to read query `q` — the offline oracle for every
/// read kind (k-way kinds fold sorted element lists in protocol order).
Result store_answer(const batmap::BatmapStore& store, const Query& q) {
  Result res;
  if (q.kind == QueryKind::kIntersect || q.kind == QueryKind::kSupport) {
    res.value = q.kind == QueryKind::kIntersect
                    ? store.intersection_size(q.a, q.b)
                    : store.raw_count(q.a, q.b);
  } else if (q.kind == QueryKind::kTopK) {
    for (std::uint32_t id = 0; id < store.size(); ++id) {
      if (id == q.a) continue;
      res.topk_count = topk_insert(res.topk, res.topk_count, q.k, id,
                                   store.intersection_size(q.a, id));
    }
    res.value = res.topk_count;
  } else {
    const auto first = store.elements(q.ids[0]);
    std::vector<std::uint64_t> cur(first.begin(), first.end());
    for (std::uint32_t i = 1; i < q.nids; ++i) {
      if (q.kind == QueryKind::kRuleScore && i + 1 == q.nids) {
        res.aux = cur.size();
      }
      const auto other = store.elements(q.ids[i]);
      std::vector<std::uint64_t> next;
      std::set_intersection(cur.begin(), cur.end(), other.begin(),
                            other.end(), std::back_inserter(next));
      cur = std::move(next);
    }
    res.value = cur.size();
  }
  return res;
}

bool same_answer(const Result& x, const Result& y) {
  if (x.value != y.value || x.aux != y.aux || x.topk_count != y.topk_count) {
    return false;
  }
  for (std::uint32_t i = 0; i < x.topk_count; ++i) {
    if (x.topk[i].id != y.topk[i].id || x.topk[i].count != y.topk[i].count) {
      return false;
    }
  }
  return true;
}

TEST(ChaosTest, PinnedStragglersOfEveryReadKindAnswerFromTheirEpoch) {
  FaultGuard guard;
  // Epochs 1 and 2 hold different data, so an answer computed against the
  // wrong epoch cannot match epoch 1's oracle. A small universe keeps the
  // k-way and top-k answers far from zero.
  const auto store1 = make_store(400, 32, 19);
  const auto store2 = make_store(400, 32, 23);
  const std::string p1 = snap_file(store1, "kinds", 1);
  const std::string p2 = snap_file(store2, "kinds", 2);

  SnapshotManager mgr(Snapshot::open(p1));
  QueryEngine engine(mgr, {});

  std::vector<Query> queries;
  for (std::uint32_t i = 0; i < 4; ++i) {
    queries.push_back({QueryKind::kIntersect, i, i + 5, 0});
    queries.push_back({QueryKind::kSupport, i, i + 9, 0});
    queries.push_back({QueryKind::kTopK, i, 0, 3 + i});
    Query kway{QueryKind::kKway};
    kway.nids = 3;
    kway.ids[0] = i;
    kway.ids[1] = i + 7;
    kway.ids[2] = i + 13;
    queries.push_back(kway);
    kway.kind = QueryKind::kRuleScore;
    queries.push_back(kway);
  }
  // Every kind has at least one query whose two epochs disagree.
  for (const QueryKind kind :
       {QueryKind::kIntersect, QueryKind::kSupport, QueryKind::kTopK,
        QueryKind::kKway, QueryKind::kRuleScore}) {
    bool differs = false;
    for (const Query& q : queries) {
      differs = differs || (q.kind == kind &&
                            !same_answer(store_answer(store1, q),
                                         store_answer(store2, q)));
    }
    EXPECT_TRUE(differs) << static_cast<int>(kind);
  }

  // The stall-and-swap schedule of the test above, with every read kind.
  util::fault::configure("worker_stall_ms=25");
  Request head;
  head.query = {QueryKind::kIntersect, 0, 1, 0};
  engine.submit(head);
  std::thread head_waiter([&] { EXPECT_TRUE(QueryEngine::wait(head)); });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  std::vector<Request> reqs(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    reqs[i].query = queries[i];
    ASSERT_EQ(engine.try_submit_ex(reqs[i]), Admit::kOk);
  }
  std::thread swapper([&] { mgr.swap(p2, /*wait_drain=*/true); });
  head_waiter.join();
  for (std::size_t i = 0; i < queries.size(); ++i) {
    EXPECT_TRUE(QueryEngine::wait(reqs[i]));
    EXPECT_TRUE(
        same_answer(reqs[i].result(), store_answer(store1, queries[i])))
        << "query " << i << " kind " << static_cast<int>(queries[i].kind);
  }
  swapper.join();
  util::fault::configure("");
  engine.drain();
  const auto st = engine.stats();
  EXPECT_GE(st.queries, queries.size() + 1);
  EXPECT_GE(st.pinned_fallbacks, 1u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(mgr.retired_resident(), 0u);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(ChaosTest, HotSwapUnderLoadStaysExactAndDrains) {
  const auto store = make_store(10000, 40, 21);
  std::vector<std::string> paths;
  for (std::uint64_t e = 1; e <= 6; ++e) {
    paths.push_back(snap_file(store, "load", e));
  }

  SnapshotManager mgr(Snapshot::open(paths[0]));
  QueryEngine::Options opt;
  opt.cache_entries = 256;
  opt.max_batch = 32;
  QueryEngine engine(mgr, opt);
  const auto n = static_cast<std::uint32_t>(store.size());

  // Clients hammer mixed pair queries while the main thread swaps through
  // five epochs of the same data. Every answer must match the offline
  // store oracle no matter which epoch served it.
  std::atomic<int> mismatches{0};
  std::atomic<bool> done{false};
  std::vector<std::thread> clients;
  for (int c = 0; c < 3; ++c) {
    clients.emplace_back([&, c] {
      Xoshiro256 rng(200 + static_cast<std::uint64_t>(c));
      Request req;
      while (!done.load(std::memory_order_relaxed)) {
        const auto a = static_cast<std::uint32_t>(rng.below(n));
        const auto b = static_cast<std::uint32_t>(rng.below(n));
        const bool support = rng.below(4) == 0;
        req.query = {support ? QueryKind::kSupport : QueryKind::kIntersect,
                     a, b, 0};
        engine.submit(req);
        if (!QueryEngine::wait(req)) {
          mismatches.fetch_add(1);
          continue;
        }
        const std::uint64_t want = support
                                       ? store.raw_count(a, b)
                                       : store.intersection_size(a, b);
        if (req.result().value != want) mismatches.fetch_add(1);
      }
    });
  }
  for (std::size_t e = 1; e < paths.size(); ++e) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_EQ(mgr.swap(paths[e]), e + 1);
  }
  done.store(true, std::memory_order_relaxed);
  for (auto& t : clients) t.join();
  engine.drain();

  EXPECT_EQ(mismatches.load(), 0);
  const auto st = engine.stats();
  EXPECT_GE(st.epoch_rollovers, 1u);
  EXPECT_EQ(st.errors, 0u);
  EXPECT_EQ(mgr.swaps(), paths.size() - 1);
  EXPECT_EQ(mgr.retired_resident(), 0u);
  for (const auto& p : paths) std::remove(p.c_str());
}

TEST(ChaosTest, CacheEntriesNeverCrossEpochs) {
  const auto store = make_store(6000, 24, 23);
  const std::string p1 = snap_file(store, "cache", 1);
  const std::string p2 = snap_file(store, "cache", 2);

  SnapshotManager mgr(Snapshot::open(p1));
  QueryEngine::Options opt;
  opt.cache_entries = 64;
  QueryEngine engine(mgr, opt);

  Request req;
  const auto ask = [&] {
    req.query = {QueryKind::kIntersect, 0, 1, 0};
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    ASSERT_EQ(req.result().value, store.intersection_size(0, 1));
  };
  ask();  // miss: fills the epoch-1 entry
  ask();  // hit
  const auto before = engine.stats();
  ASSERT_EQ(before.queries, 2u);
  EXPECT_GE(before.cache_hits, 1u);

  mgr.swap(p2);
  ask();  // epoch 2: the rolled-over cache must miss, then refill
  ask();  // hit under the new epoch — capacity fully reusable
  const auto after = engine.stats();
  ASSERT_EQ(after.queries, 4u);
  EXPECT_GE(after.epoch_rollovers, 1u);
  EXPECT_EQ(after.cache_misses, before.cache_misses + 1);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

// ---- Delta layer & compaction ----------------------------------------------

namespace {

bool file_exists(const std::string& path) {
  if (FILE* f = std::fopen(path.c_str(), "rb")) {
    std::fclose(f);
    return true;
  }
  return false;
}

/// Engine + compactor over a fresh epoch-1 snapshot, with a few writes
/// already applied through the batched path.
struct LiveRig {
  SnapshotManager mgr;
  QueryEngine engine;
  Compactor compactor;

  LiveRig(const std::string& base, const std::string& prefix)
      : mgr(Snapshot::open(base)),
        engine(mgr, QueryEngine::Options{}),
        compactor(mgr, engine.delta(),
                  [&] {
                    Compactor::Options copt;
                    copt.out_prefix = prefix;
                    return copt;
                  }()) {
    engine.set_flush_hook([this] { return compactor.compact_now(); });
  }

  std::uint64_t write(std::uint32_t set, std::uint32_t elem, bool del,
                      Request::Outcome* outcome = nullptr) {
    Request req;
    req.query.kind = del ? QueryKind::kDelete : QueryKind::kAdd;
    req.query.a = set;
    req.query.ids[0] = elem;
    req.query.nids = 1;
    engine.submit(req);
    QueryEngine::wait(req);
    if (outcome) *outcome = req.outcome();
    return req.result().value;
  }

  std::uint64_t ask(std::uint32_t a, std::uint32_t b) {
    Request req;
    req.query = {QueryKind::kIntersect, a, b, 0};
    engine.submit(req);
    QueryEngine::wait(req);
    return req.result().value;
  }
};

}  // namespace

TEST(ChaosTest, FailedCompactEmitKeepsOldEpochServingByteIdentically) {
  FaultGuard guard;
  const auto store = make_store(5000, 20, 31);
  const std::string base = snap_file(store, "cemit", 1);
  const std::string prefix = "/tmp/batmap_chaos_cemit_compact";
  LiveRig rig(base, prefix);

  EXPECT_EQ(rig.write(0, 4999, /*del=*/false), 1u);
  EXPECT_EQ(rig.write(1, 4999, /*del=*/false), 1u);
  const std::uint64_t merged = rig.ask(0, 1);
  EXPECT_EQ(merged, store.intersection_size(0, 1) + 1);

  // Fault mid-emit: the compaction must fail atomically — same epoch, no
  // emitted file, and the merged answers unchanged (the frozen ops went
  // back to the live layer).
  util::fault::configure("compact_emit");
  EXPECT_THROW(rig.compactor.compact_now(), CheckError);
  EXPECT_EQ(rig.mgr.epoch(), 1u);
  EXPECT_EQ(rig.mgr.swaps(), 0u);
  EXPECT_FALSE(file_exists(prefix + ".e2"));
  EXPECT_EQ(rig.ask(0, 1), merged);

  // Disarmed, the retry compacts the SAME ops into epoch 2 and the merged
  // answer survives the swap.
  util::fault::configure("");
  EXPECT_EQ(rig.compactor.compact_now(), 2u);
  EXPECT_EQ(rig.mgr.epoch(), 2u);
  EXPECT_EQ(rig.ask(0, 1), merged);
  EXPECT_EQ(rig.engine.stats().delta_elements, 0u);
  EXPECT_EQ(rig.engine.stats().compactions, 1u);
  std::remove(base.c_str());
  std::remove((prefix + ".e2").c_str());
}

TEST(ChaosTest, FailedCompactSwapNeverPublishesPartialSnapshot) {
  FaultGuard guard;
  const auto store = make_store(5000, 20, 37);
  const std::string base = snap_file(store, "cswap", 1);
  const std::string prefix = "/tmp/batmap_chaos_cswap_compact";
  LiveRig rig(base, prefix);

  EXPECT_EQ(rig.write(2, 4998, /*del=*/false), 1u);
  const std::uint64_t merged = rig.ask(2, 3);

  // Fault after the file is written but before publish: the emitted file
  // must be removed, the old epoch keeps serving, nothing was swapped.
  util::fault::configure("compact_swap");
  EXPECT_THROW(rig.compactor.compact_now(), CheckError);
  EXPECT_EQ(rig.mgr.epoch(), 1u);
  EXPECT_EQ(rig.mgr.swaps(), 0u);
  EXPECT_FALSE(file_exists(prefix + ".e2"));
  EXPECT_EQ(rig.ask(2, 3), merged);

  util::fault::configure("");
  EXPECT_EQ(rig.compactor.compact_now(), 2u);
  EXPECT_EQ(rig.ask(2, 3), merged);
  std::remove(base.c_str());
  std::remove((prefix + ".e2").c_str());
}

TEST(ChaosTest, DeltaOomShedsWritesTypedAndLeavesReadsAlone) {
  FaultGuard guard;
  const auto store = make_store(5000, 20, 41);
  const std::string base = snap_file(store, "doom", 1);
  LiveRig rig(base, "/tmp/batmap_chaos_doom_compact");

  util::fault::configure("delta_oom");
  Request::Outcome out = Request::Outcome::kPending;
  rig.write(0, 4997, /*del=*/false, &out);
  EXPECT_EQ(out, Request::Outcome::kOverload);
  // Reads are unaffected by the write path being shed.
  EXPECT_EQ(rig.ask(0, 1), store.intersection_size(0, 1));

  util::fault::configure("");
  EXPECT_EQ(rig.write(0, 4997, /*del=*/false, &out), 1u);
  EXPECT_EQ(out, Request::Outcome::kOk);
  EXPECT_EQ(rig.engine.stats().delta_shed, 1u);
  EXPECT_EQ(rig.engine.stats().delta_writes, 1u);
  std::remove(base.c_str());
}

}  // namespace
}  // namespace repro::service
