// Differential tests for the batched query engine: N client threads of
// mixed query types against single-threaded oracles (the snapshot's direct
// path and the BatmapStore the snapshot was built from), plus the
// steady-state allocation pin (arena stats must stop growing once warm)
// and unit tests for the lock-free queue and the LRU result cache.
// Runs in the stress tier, i.e. under the ASan+UBSan CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "batmap/intersect.hpp"
#include "service/mpmc_queue.hpp"
#include "service/query_engine.hpp"
#include "service/result_cache.hpp"
#include "service/snapshot.hpp"
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
