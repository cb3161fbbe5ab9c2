// Differential tests for the batched query engine: N client threads of
// mixed query types against single-threaded oracles (the snapshot's direct
// path and the BatmapStore the snapshot was built from), who runs a batch
// (the waiting client or the batch worker) and that no queued request is
// left behind, plus the steady-state allocation pin (arena stats must stop
// growing once warm) and unit tests for the lock-free queue and the LRU
// result cache. Runs in the stress tier, i.e. under the ASan+UBSan CI job,
// and under TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batmap/intersect.hpp"
#include "service/mpmc_queue.hpp"
#include "service/query_engine.hpp"
#include "service/result_cache.hpp"
#include "service/snapshot.hpp"
#include "serving_workload.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace repro::service {
namespace {

struct SnapFixture {
  batmap::BatmapStore store;
  Snapshot snap;

  static SnapFixture make(std::uint64_t universe, int sets, std::uint64_t seed,
                          const char* tag,
                          batmap::BatmapStore::Options opt = {}) {
    batmap::BatmapStore store(universe, opt);
    Xoshiro256 rng(seed);
    for (int i = 0; i < sets; ++i) {
      std::set<std::uint64_t> s;
      const std::size_t size = 3 + rng.below(300);
      while (s.size() < size) s.insert(rng.below(universe));
      std::vector<std::uint64_t> v(s.begin(), s.end());
      store.add(v);
    }
    const std::string path =
        std::string("/tmp/batmap_query_engine_test_") + tag + ".snap";
    write_snapshot(store, path, /*epoch=*/seed);
    Snapshot snap = Snapshot::open(path);
    std::remove(path.c_str());  // the mapping keeps the data alive
    return {std::move(store), std::move(snap)};
  }
};

Query random_query(Xoshiro256& rng, std::uint32_t n) {
  Query q;
  const std::uint64_t draw = rng.below(100);
  q.a = static_cast<std::uint32_t>(rng.below(n));
  if (draw < 10) {
    q.kind = QueryKind::kTopK;
    q.k = 1 + static_cast<std::uint32_t>(rng.below(kMaxTopK));
  } else {
    q.kind = draw < 40 ? QueryKind::kSupport : QueryKind::kIntersect;
    q.b = static_cast<std::uint32_t>(rng.below(n));
  }
  return q;
}

void expect_equal(const Result& got, const Result& want, const Query& q) {
  ASSERT_EQ(got.value, want.value)
      << "kind=" << static_cast<int>(q.kind) << " a=" << q.a << " b=" << q.b
      << " k=" << q.k;
  ASSERT_EQ(got.topk_count, want.topk_count);
  for (std::uint32_t i = 0; i < want.topk_count; ++i) {
    ASSERT_EQ(got.topk[i].id, want.topk[i].id) << i;
    ASSERT_EQ(got.topk[i].count, want.topk[i].count) << i;
  }
}

TEST(QueryEngineTest, MatchesStoreOracleSingleThread) {
  const auto fx = SnapFixture::make(9000, 40, 11, "single");
  QueryEngine::Options opt;
  opt.cache_entries = 64;  // small: exercise eviction during the run
  QueryEngine engine(fx.snap, opt);
  Xoshiro256 rng(5);
  Request req;
  for (int i = 0; i < 1500; ++i) {
    const Query q = random_query(rng, static_cast<std::uint32_t>(fx.snap.size()));
    req.query = q;
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    // Against the one-query reference path...
    expect_equal(req.result(), engine.execute_one(q), q);
    // ...and against the offline store for pair kinds.
    if (q.kind == QueryKind::kIntersect) {
      ASSERT_EQ(req.result().value, fx.store.intersection_size(q.a, q.b));
    } else if (q.kind == QueryKind::kSupport) {
      ASSERT_EQ(req.result().value, fx.store.raw_count(q.a, q.b));
    }
  }
  const auto st = engine.stats();
  EXPECT_EQ(st.queries, 1500u);
  EXPECT_GT(st.cache_hits, 0u);
  EXPECT_GT(st.cache_evictions, 0u);
}

TEST(QueryEngineTest, RandomizedMultiThreadedDifferential) {
  const auto fx = SnapFixture::make(12000, 56, 23, "multi");
  QueryEngine::Options opt;
  opt.cache_entries = 512;
  opt.max_batch = 32;
  QueryEngine engine(fx.snap, opt);
  const auto n = static_cast<std::uint32_t>(fx.snap.size());

  constexpr int kClients = 4;
  constexpr int kQueriesPerClient = 700;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Xoshiro256 rng(100 + static_cast<std::uint64_t>(c));
      Request req;
      for (int i = 0; i < kQueriesPerClient; ++i) {
        const Query q = random_query(rng, n);
        req.query = q;
        engine.submit(req);
        if (!QueryEngine::wait(req)) {
          mismatches.fetch_add(1);
          continue;
        }
        // The single-threaded oracle, computed independently per client.
        const Result want = engine.execute_one(q);
        if (req.result().value != want.value ||
            req.result().topk_count != want.topk_count) {
          mismatches.fetch_add(1);
          continue;
        }
        for (std::uint32_t j = 0; j < want.topk_count; ++j) {
          if (req.result().topk[j].id != want.topk[j].id ||
              req.result().topk[j].count != want.topk[j].count) {
            mismatches.fetch_add(1);
            break;
          }
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const auto st = engine.stats();
  EXPECT_EQ(st.queries, static_cast<std::uint64_t>(kClients) *
                            kQueriesPerClient);
  EXPECT_EQ(st.errors, 0u);
}

TEST(QueryEngineTest, PatchedExactUnderForcedFailures) {
  batmap::BatmapStore::Options sopt;
  sopt.builder.max_loop = 1;
  sopt.builder.max_cascade = 1;
  const auto fx = SnapFixture::make(4000, 30, 31, "failures", sopt);
  ASSERT_GT(fx.store.total_failures(), 0u);
  QueryEngine engine(fx.snap, {});
  Request req;
  for (std::uint32_t a = 0; a < fx.snap.size(); ++a) {
    for (std::uint32_t b = a; b < fx.snap.size(); ++b) {
      req.query = {QueryKind::kIntersect, a, b, 0};
      engine.submit(req);
      ASSERT_TRUE(QueryEngine::wait(req));
      ASSERT_EQ(req.result().value, fx.store.intersection_size(a, b))
          << a << "," << b;
    }
  }
}

TEST(QueryEngineTest, RejectsInvalidQueries) {
  const auto fx = SnapFixture::make(2000, 8, 3, "invalid");
  QueryEngine engine(fx.snap, {});
  const auto n = static_cast<std::uint32_t>(fx.snap.size());
  Request req;
  for (const Query q : {Query{QueryKind::kIntersect, n, 0, 0},
                        Query{QueryKind::kSupport, 0, n, 0},
                        Query{QueryKind::kTopK, 0, 0, 0},
                        Query{QueryKind::kTopK, 0, 0, kMaxTopK + 1}}) {
    req.query = q;
    engine.submit(req);
    EXPECT_FALSE(QueryEngine::wait(req));
    EXPECT_TRUE(req.failed());
  }
  // The slot is reusable after a rejection.
  req.query = {QueryKind::kIntersect, 0, 1, 0};
  engine.submit(req);
  EXPECT_TRUE(QueryEngine::wait(req));
}

TEST(QueryEngineTest, StatsCountEveryRepliedQuery) {
  // The worker publishes a request's counters before it wakes the
  // request, so stats() taken right after a reply already counts it — even
  // when a slower top-k from another client shares its batch. That client
  // sends only T queries and the cache is off, so the k-way and pair-kernel
  // counters are exactly this loop's own.
  const auto fx = SnapFixture::make(20000, 300, 31, "stats");
  QueryEngine::Options opt;
  opt.cache_entries = 0;
  QueryEngine engine(fx.snap, opt);
  const auto n = static_cast<std::uint32_t>(fx.snap.size());
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> other_done{0};
  std::thread other([&] {
    Request req;
    for (std::uint32_t a = 0; !done.load(); a = (a + 1) % n) {
      req.query = {QueryKind::kTopK, a, 0, kMaxTopK};
      engine.submit(req);
      QueryEngine::wait(req);
      other_done.fetch_add(1);
    }
  });
  Xoshiro256 rng(8);
  Request req;
  std::uint64_t pairs = 0, kway = 0;
  for (std::uint64_t i = 1; i <= 2500; ++i) {
    Query q;
    q.a = static_cast<std::uint32_t>(rng.below(n));
    q.b = static_cast<std::uint32_t>(rng.below(n));
    q.k = 1 + static_cast<std::uint32_t>(rng.below(kMaxTopK));
    const QueryKind kinds[] = {QueryKind::kIntersect, QueryKind::kSupport,
                               QueryKind::kTopK, QueryKind::kKway,
                               QueryKind::kRuleScore};
    q.kind = kinds[i % 5];
    if (q.kind == QueryKind::kKway || q.kind == QueryKind::kRuleScore) {
      q.nids = 3;
      for (std::uint32_t j = 0; j < q.nids; ++j) {
        q.ids[j] = static_cast<std::uint32_t>(rng.below(n));
      }
      ++kway;
    } else if (q.kind != QueryKind::kTopK) {
      ++pairs;
    }
    req.query = q;
    engine.submit(req);
    ASSERT_TRUE(QueryEngine::wait(req));
    const std::uint64_t others = other_done.load();
    const auto st = engine.stats();
    ASSERT_GE(st.queries, i + others) << "iteration " << i;
    ASSERT_EQ(st.kway_queries, kway) << "iteration " << i;
    ASSERT_EQ(st.cyclic_pairs, pairs) << "iteration " << i;
  }
  done.store(true);
  other.join();
}

TEST(QueryEngineTest, SteadyStateServesWithoutArenaGrowth) {
  // The "no per-query heap allocation" witness: after a warmup round, the
  // batch planner's arena footprint must not move — later batches recycle
  // the same blocks (everything else on the pair path is preallocated:
  // queue cells, cache nodes, Request slots are caller-owned).
  const auto fx = SnapFixture::make(9000, 48, 17, "arena");
  QueryEngine::Options opt;
  opt.cache_entries = 256;
  QueryEngine engine(fx.snap, opt);
  const auto n = static_cast<std::uint32_t>(fx.snap.size());

  const auto drive = [&](std::uint64_t seed, int rounds) {
    Xoshiro256 rng(seed);
    Request req;
    for (int i = 0; i < rounds; ++i) {
      req.query = random_query(rng, n);
      engine.submit(req);
      ASSERT_TRUE(QueryEngine::wait(req));
    }
  };
  drive(1, 2000);  // warmup: arena blocks grow to the high-water mark
  const auto warm = engine.stats();
  ASSERT_GT(warm.arena_reserved_bytes, 0u);
  drive(2, 2000);  // steady state
  const auto steady = engine.stats();
  EXPECT_EQ(steady.arena_reserved_bytes, warm.arena_reserved_bytes);
  EXPECT_EQ(steady.arena_blocks, warm.arena_blocks);
  EXPECT_EQ(steady.cache_hits + steady.cache_misses, steady.queries);
}

// ---- who runs a batch -------------------------------------------------------

struct FaultGuard {
  ~FaultGuard() { util::fault::configure(""); }
};

/// Runs fn(t) on `threads` threads and joins them. A request that nobody
/// runs blocks its waiter forever, so threads still running after `bound`
/// end the test binary with a message instead of hanging it.
void run_threads_within(int threads, std::chrono::seconds bound,
                        const std::function<void(int)>& fn) {
  std::atomic<int> done{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      fn(t);
      done.fetch_add(1);
    });
  }
  const auto until = std::chrono::steady_clock::now() + bound;
  while (done.load() < threads) {
    if (std::chrono::steady_clock::now() > until) {
      std::fprintf(stderr, "%d of %d threads still waiting after %lld s\n",
                   threads - done.load(), threads,
                   static_cast<long long>(bound.count()));
      std::abort();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (auto& t : pool) t.join();
}

/// The first element below `universe` that set `id` of `store` lacks.
std::uint32_t absent_element(const batmap::BatmapStore& store,
                             std::uint32_t id) {
  const auto elems = store.elements(id);
  std::uint32_t e = 0;
  while (std::binary_search(elems.begin(), elems.end(), e)) ++e;
  return e;
}

TEST(QueryEngineTest, NoRequestStrandedUnderInlineAndWorkerBatches) {
  // Eight clients on a 4-slot ring: waiters run batches on their own
  // threads, a full ring and left-behind requests hand batches to the
  // worker, and injected stalls hold the execution lock while the others
  // queue. A commuting write phase closes the inline path, a FLUSH reopens
  // it. Every request must complete, every read with the oracle's answer.
  FaultGuard guard;
  workload::Spec spec;
  spec.sets = 48;
  spec.universe = 20000;
  spec.set_size = 150;
  spec.queries = 2400;
  spec.zipf = 0.8;
  spec.kway_permille = 150;
  spec.seed = 77;
  const batmap::BatmapStore store = workload::make_store(spec);

  // The writers own the last two sets and add, then delete, elements that
  // no set holds, so no read that leaves those two sets out changes answer.
  const auto writer0 = static_cast<std::uint32_t>(spec.sets - 2);
  std::vector<Query> reads;
  for (const Query& q : workload::make_stream(spec)) {
    bool names_writer = q.a >= writer0;
    if (q.kind == QueryKind::kIntersect || q.kind == QueryKind::kSupport) {
      names_writer = names_writer || q.b >= writer0;
    }
    for (std::uint32_t j = 0; j < q.nids; ++j) {
      names_writer = names_writer || q.ids[j] >= writer0;
    }
    if (!names_writer) reads.push_back(q);
  }
  const std::vector<std::uint64_t> oracle =
      workload::oracle_digests(store, reads);
  std::set<std::uint64_t> held;
  for (std::uint32_t id = 0; id < store.size(); ++id) {
    held.insert(store.elements(id).begin(), store.elements(id).end());
  }
  std::vector<std::uint32_t> fresh;
  for (std::uint32_t e = 0; fresh.size() < 8; ++e) {
    if (held.count(e) == 0) fresh.push_back(e);
  }

  const std::string path = workload::scratch_path("qe_stranded");
  write_snapshot(store, path, /*epoch=*/1);
  SnapshotManager mgr(Snapshot::open(path));
  std::remove(path.c_str());
  QueryEngine::Options opt;
  opt.queue_capacity = 4;
  opt.cache_entries = 64;
  QueryEngine engine(mgr, opt);
  Compactor::Options copt;
  copt.out_prefix = workload::scratch_path("qe_stranded_compact");
  copt.layout = LayoutMode::kBatmap;
  Compactor compactor(mgr, engine.delta(), copt);
  engine.set_flush_hook([&compactor] { return compactor.compact_now(); });

  constexpr int kClients = 8;
  constexpr auto kBound = std::chrono::seconds(120);
  std::atomic<int> wrong{0};
  std::atomic<std::uint64_t> requests{0};

  // A waiter that parks behind a holder's stalled batch: the holder popped
  // its own request before the other was pushed, so only the worker, woken
  // by the holder's release, can run the second one.
  util::fault::configure("worker_stall_ms=50:1");
  run_threads_within(2, kBound, [&](int t) {
    if (t == 1) std::this_thread::sleep_for(std::chrono::milliseconds(10));
    const auto i = static_cast<std::size_t>(t);
    Request req;
    req.query = reads[i];
    engine.submit(req);
    if (!QueryEngine::wait(req) ||
        workload::digest(i, reads[i], req.result()) != oracle[i]) {
      wrong.fetch_add(1);
    }
    requests.fetch_add(1);
  });
  // Client t of `clients` serves every clients-th read, starting at t.
  const auto read_phase = [&](int t, int clients) {
    Request req;
    for (std::size_t i = static_cast<std::size_t>(t); i < reads.size();
         i += static_cast<std::size_t>(clients)) {
      req.query = reads[i];
      engine.submit(req);
      if (!QueryEngine::wait(req) ||
          workload::digest(i, reads[i], req.result()) != oracle[i]) {
        wrong.fetch_add(1);
      }
      requests.fetch_add(1);
    }
  };
  const auto write_phase = [&](int w) {
    Request req;
    for (int round = 0; round < 40; ++round) {
      for (const QueryKind kind : {QueryKind::kAdd, QueryKind::kDelete}) {
        req.query = Query{};
        req.query.kind = kind;
        req.query.a = writer0 + static_cast<std::uint32_t>(w);
        req.query.nids = 4;
        for (std::uint32_t j = 0; j < 4; ++j) {
          req.query.ids[j] = fresh[static_cast<std::size_t>(w) * 4 + j];
        }
        engine.submit(req);
        if (!QueryEngine::wait(req) || req.result().value != 4) {
          wrong.fetch_add(1);
        }
        requests.fetch_add(1);
      }
    }
  };

  util::fault::configure("worker_stall_ms=1:40");
  run_threads_within(kClients, kBound, [&](int t) { read_phase(t, kClients); });
  EXPECT_GT(engine.stats().inline_batches, 0u);

  util::fault::configure("worker_stall_ms=1:40");
  run_threads_within(kClients, kBound, [&](int t) {
    if (t < 2) {
      write_phase(t);
    } else {
      read_phase(t - 2, kClients - 2);
    }
  });
  EXPECT_GT(engine.delta().pending_total(), 0u);
  const auto written = engine.stats();
  EXPECT_GT(written.batches, written.inline_batches);  // the worker's share

  // FLUSH compacts the commuting writes away, which reopens the inline
  // path; the compacted epoch answers exactly as the base did.
  Request flush;
  flush.query.kind = QueryKind::kFlush;
  engine.submit(flush);
  ASSERT_TRUE(QueryEngine::wait(flush));
  EXPECT_EQ(flush.result().value, 2u);
  EXPECT_EQ(engine.delta().pending_total(), 0u);

  util::fault::configure("worker_stall_ms=1:40");
  run_threads_within(kClients, kBound, [&](int t) { read_phase(t, kClients); });
  EXPECT_GT(engine.stats().inline_batches, written.inline_batches);

  // Requests that no one waits on: drain() hands them to the worker.
  std::vector<Request> orphans(3);
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    orphans[i].query = reads[i];
    engine.submit(orphans[i]);
  }
  const auto t0 = std::chrono::steady_clock::now();
  engine.drain();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(5));
  for (std::size_t i = 0; i < orphans.size(); ++i) {
    ASSERT_EQ(orphans[i].outcome(), Request::Outcome::kOk) << i;
    EXPECT_EQ(workload::digest(i, reads[i], orphans[i].result()), oracle[i]);
  }

  EXPECT_EQ(wrong.load(), 0);
  const auto st = engine.stats();
  EXPECT_EQ(st.queries, requests.load() + 1 + orphans.size());
  EXPECT_EQ(st.errors, 0u);
}

TEST(QueryEngineTest, BlockingSubmitDrainsAFullRing) {
  // One thread submits 64 requests into a 4-slot ring before it waits on
  // any: only the worker can run them, and submit() must wake it whenever
  // the ring is full.
  const auto fx = SnapFixture::make(6000, 24, 41, "fullring");
  QueryEngine::Options opt;
  opt.queue_capacity = 4;
  QueryEngine engine(fx.snap, opt);
  const auto n = static_cast<std::uint32_t>(fx.snap.size());
  std::vector<Request> reqs(64);
  run_threads_within(1, std::chrono::seconds(60), [&](int) {
    for (std::uint32_t i = 0; i < reqs.size(); ++i) {
      reqs[i].query = {QueryKind::kIntersect, i % n, (7 * i + 1) % n, 0};
      engine.submit(reqs[i]);
    }
    for (Request& r : reqs) QueryEngine::wait(r);
  });
  for (const Request& r : reqs) {
    ASSERT_EQ(r.outcome(), Request::Outcome::kOk);
    EXPECT_EQ(r.result().value,
              fx.store.intersection_size(r.query.a, r.query.b));
  }
  const auto st = engine.stats();
  EXPECT_EQ(st.queries, reqs.size());
  EXPECT_GT(st.batches, st.inline_batches);
}

TEST(QueryEngineTest, SingleClientRunsBatchesInline) {
  // With no write pending, a lone client's wait() always finds the engine
  // free and runs its batch itself: no thread hand-off at all. A pending
  // write sends every batch to the worker instead.
  const auto fx = SnapFixture::make(9000, 32, 43, "inline");
  QueryEngine engine(fx.snap, {});
  const auto n = static_cast<std::uint32_t>(fx.snap.size());
  Xoshiro256 rng(9);
  Request req;
  const auto reads = [&](int count) {
    for (int i = 0; i < count; ++i) {
      req.query = random_query(rng, n);
      engine.submit(req);
      ASSERT_TRUE(QueryEngine::wait(req));
    }
  };
  reads(200);
  const auto quiet = engine.stats();
  EXPECT_EQ(quiet.batches, 200u);
  EXPECT_EQ(quiet.inline_batches, quiet.batches);

  req.query = Query{};
  req.query.kind = QueryKind::kAdd;
  req.query.ids[0] = absent_element(fx.store, 0);
  req.query.nids = 1;
  engine.submit(req);
  ASSERT_TRUE(QueryEngine::wait(req));
  ASSERT_EQ(req.result().value, 1u);
  ASSERT_GT(engine.delta().pending_total(), 0u);

  const auto before = engine.stats();
  reads(100);
  const auto after = engine.stats();
  EXPECT_EQ(after.batches, before.batches + 100);
  EXPECT_EQ(after.inline_batches, before.inline_batches);
}

TEST(QueryEngineTest, FormatStatsNamesEveryCounter) {
  QueryEngine::Stats s;
  std::uint64_t v = 0;
  for (std::uint64_t* f :
       {&s.queries, &s.batches, &s.inline_batches, &s.max_batch_seen,
        &s.cache_hits, &s.cache_misses, &s.cyclic_pairs, &s.topk_sweeps,
        &s.kway_queries, &s.kway_list_steps, &s.kway_sweep_steps,
        &s.arena_reserved_bytes, &s.shed_overload, &s.timeouts,
        &s.pinned_fallbacks, &s.epoch_rollovers, &s.rows_batmap,
        &s.rows_dense, &s.rows_list, &s.rows_wah, &s.delta_sets,
        &s.delta_elements, &s.delta_bytes, &s.delta_writes,
        &s.delta_deletes, &s.compactions, &s.compacted_rows, &s.delta_shed,
        &s.x_queries}) {
    *f = ++v;
  }
  EXPECT_EQ(format_stats(s, 90, 91),
            "STATS queries=1 batches=2 inline_batches=3 max_batch=4 "
            "cache_hits=5 cache_misses=6 cyclic_pairs=7 topk_sweeps=8 kway=9 "
            "kway_list=10 kway_sweep=11 arena_reserved=12 shed=13 "
            "timeouts=14 pinned_fallbacks=15 rollovers=16 rows_batmap=17 "
            "rows_dense=18 rows_list=19 rows_wah=20 delta_sets=21 "
            "delta_elements=22 delta_bytes=23 writes=24 deletes=25 "
            "compactions=26 compacted_rows=27 delta_shed=28 epoch=90 "
            "swaps=91 x_queries=29");
}

// ---- MpmcQueue --------------------------------------------------------------

TEST(MpmcQueueTest, FifoAndCapacityBound) {
  MpmcQueue<int> q(4);
  EXPECT_EQ(q.capacity(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(q.try_push(i));
  EXPECT_FALSE(q.try_push(99));  // full: the admission signal
  int v = -1;
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(q.try_pop(v));
    EXPECT_EQ(v, i);  // single-threaded use is FIFO
  }
  EXPECT_FALSE(q.try_pop(v));
}

TEST(MpmcQueueTest, ConcurrentProducersConsumersLoseNothing) {
  MpmcQueue<std::uint64_t> q(64);
  constexpr int kProducers = 3, kConsumers = 3;
  constexpr std::uint64_t kPerProducer = 20000;
  std::atomic<std::uint64_t> consumed{0}, sum{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kProducers; ++p) {
    threads.emplace_back([&, p] {
      for (std::uint64_t i = 0; i < kPerProducer; ++i) {
        const std::uint64_t v = static_cast<std::uint64_t>(p) * kPerProducer + i;
        while (!q.try_push(v)) std::this_thread::yield();
      }
    });
  }
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      std::uint64_t v;
      while (consumed.load() < kProducers * kPerProducer) {
        if (q.try_pop(v)) {
          sum.fetch_add(v);
          consumed.fetch_add(1);
        } else {
          std::this_thread::yield();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(consumed.load(), kProducers * kPerProducer);
  const std::uint64_t total = kProducers * kPerProducer;
  EXPECT_EQ(sum.load(), total * (total - 1) / 2);  // each value exactly once
}

// ---- ResultCache ------------------------------------------------------------

TEST(ResultCacheTest, LruEvictionOrder) {
  ResultCache<int> cache(4);
  using Key = ResultCache<int>::Key;
  const auto key = [](std::uint32_t a) { return Key{1, a, 0, 0}; };
  for (std::uint32_t a = 0; a < 4; ++a) cache.insert(key(a), static_cast<int>(a));
  ASSERT_NE(cache.find(key(0)), nullptr);  // touch 0: now MRU
  cache.insert(key(9), 9);                 // evicts 1 (the LRU), not 0
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.find(key(0)), nullptr);
  EXPECT_EQ(cache.find(key(1)), nullptr);
  EXPECT_NE(cache.find(key(9)), nullptr);
  // Distinct epochs / kinds are distinct keys.
  EXPECT_EQ(cache.find(Key{2, 0, 0, 0}), nullptr);
  EXPECT_EQ(cache.find(Key{1, 0, 0, 1}), nullptr);
  cache.clear();
  EXPECT_EQ(cache.find(key(0)), nullptr);
  cache.insert(key(7), 7);  // usable after clear
  EXPECT_EQ(*cache.find(key(7)), 7);
}

TEST(ResultCacheTest, EpochRolloverIsolatesAndReusesCapacity) {
  ResultCache<int> cache(8);
  using Key = ResultCache<int>::Key;
  ASSERT_EQ(cache.capacity(), 8u);
  for (std::uint32_t a = 0; a < 8; ++a) {
    cache.insert(Key{1, a, 0, 0}, static_cast<int>(a));
  }
  // An entry cached under epoch N must never serve an epoch-N+1 lookup:
  // the epoch is part of the key.
  for (std::uint32_t a = 0; a < 8; ++a) {
    EXPECT_EQ(cache.find(Key{2, a, 0, 0}), nullptr) << a;
  }
  // The swap-rollover path: clear() retires the old epoch wholesale and
  // hands the full capacity to the new one — refilling evicts nothing.
  cache.clear();
  const std::uint64_t ev = cache.evictions();
  for (std::uint32_t a = 0; a < 8; ++a) {
    cache.insert(Key{2, a, 0, 0}, static_cast<int>(100 + a));
  }
  EXPECT_EQ(cache.evictions(), ev);
  for (std::uint32_t a = 0; a < 8; ++a) {
    const int* hit = cache.find(Key{2, a, 0, 0});
    ASSERT_NE(hit, nullptr) << a;
    EXPECT_EQ(*hit, static_cast<int>(100 + a));
    EXPECT_EQ(cache.find(Key{1, a, 0, 0}), nullptr) << a;  // old epoch gone
  }
}

TEST(ResultCacheTest, DisabledCacheIsInert) {
  ResultCache<int> cache(0);
  cache.insert({1, 2, 3, 0}, 5);
  EXPECT_EQ(cache.find({1, 2, 3, 0}), nullptr);
  EXPECT_EQ(cache.capacity(), 0u);
}

}  // namespace
}  // namespace repro::service
