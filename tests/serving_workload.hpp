// The serving workload shared by serving_parity_test and the wall-clock
// gates in tests/timing/: a synthetic store of random sets, a zipf-skewed
// I/S/T/K/R query stream over it, an order-independent result fingerprint,
// the offline BatmapStore oracle, closed-loop client runners, and an
// in-process engine shard (snapshot -> QueryEngine -> EngineHandler ->
// Listener on an ephemeral port) for router topologies.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iterator>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "batmap/batmap.hpp"
#include "service/engine_handler.hpp"
#include "service/query_engine.hpp"
#include "service/server.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace repro::service::workload {

struct Spec {
  std::uint64_t sets = 512;
  std::uint64_t universe = 60000;
  std::uint64_t set_size = 1200;
  /// Per-set sizes drawn log-uniformly from [set_size/P, set_size*P];
  /// 1 keeps every set at set_size.
  double size_spread = 1.0;
  std::uint64_t queries = 30000;
  std::uint64_t clients = 32;
  double zipf = 1.1;  ///< query-id skew (0 = uniform)
  std::uint64_t topk_permille = 100;
  std::uint64_t support_permille = 250;
  /// K/R conjunctions of 2..kMaxKwayIds zipf-drawn ids, alternating kinds.
  std::uint64_t kway_permille = 0;
  std::uint64_t seed = 42;
};

/// Zipf(theta) sampler over [0, n) via inverse CDF; theta == 0 is uniform.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : cdf_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  std::uint32_t operator()(Xoshiro256& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

inline batmap::BatmapStore make_store(const Spec& s) {
  batmap::BatmapStore store(s.universe);
  Xoshiro256 rng(s.seed);
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < s.sets; ++i) {
    std::uint64_t target = s.set_size;
    if (s.size_spread > 1.0) {
      const double u = rng.uniform();
      target = std::clamp<std::uint64_t>(
          static_cast<std::uint64_t>(static_cast<double>(s.set_size) *
                                     std::pow(s.size_spread, 2.0 * u - 1.0)),
          1, s.universe);
    }
    std::set<std::uint64_t> set;
    while (set.size() < target) set.insert(rng.below(s.universe));
    v.assign(set.begin(), set.end());
    store.add(v);
  }
  return store;
}

inline std::vector<Query> make_stream(const Spec& s) {
  std::vector<Query> stream(s.queries);
  Xoshiro256 rng(s.seed ^ 0xbadc0ffeull);
  const Zipf zipf(s.sets, s.zipf);
  for (auto& q : stream) {
    const std::uint64_t draw = rng.below(1000);
    q.a = zipf(rng);
    if (draw < s.topk_permille) {
      q.kind = QueryKind::kTopK;
      q.k = 1 + static_cast<std::uint32_t>(rng.below(8));
    } else if (draw < s.topk_permille + s.kway_permille) {
      // Duplicate operands are allowed: the fold dedups them.
      q.kind = rng.below(2) == 0 ? QueryKind::kKway : QueryKind::kRuleScore;
      q.nids = static_cast<std::uint8_t>(2 + rng.below(kMaxKwayIds - 1));
      for (std::uint32_t j = 0; j < q.nids; ++j) q.ids[j] = zipf(rng);
      q.a = q.ids[0];
    } else {
      q.kind = draw < s.topk_permille + s.kway_permille + s.support_permille
                   ? QueryKind::kSupport
                   : QueryKind::kIntersect;
      q.b = zipf(rng);
      if (q.b == q.a) q.b = (q.a + 1) % static_cast<std::uint32_t>(s.sets);
    }
  }
  return stream;
}

/// Digest of query `index` and its answer; runs XOR these, so the
/// fingerprint of a stream is independent of completion order.
inline std::uint64_t digest(std::uint64_t index, const Query& q,
                            const Result& r) {
  util::Fnv1a fp;
  fp.update(&index, sizeof(index));
  fp.update(&q.kind, sizeof(q.kind));
  fp.update(&q.a, sizeof(q.a));
  fp.update(&q.b, sizeof(q.b));
  fp.update(&q.k, sizeof(q.k));
  fp.update(&q.nids, sizeof(q.nids));
  for (std::uint32_t i = 0; i < q.nids; ++i) {
    fp.update(&q.ids[i], sizeof(q.ids[i]));
  }
  fp.update(&r.value, sizeof(r.value));
  fp.update(&r.aux, sizeof(r.aux));
  for (std::uint32_t i = 0; i < r.topk_count; ++i) {
    fp.update(&r.topk[i].id, sizeof(r.topk[i].id));
    fp.update(&r.topk[i].count, sizeof(r.topk[i].count));
  }
  return fp.digest();
}

/// The offline oracle: per-query digests of every read answered straight
/// off `store` — pairs by its kernels, top-k by ranking every row, and
/// k-way kinds by folding its sorted element lists in protocol order.
inline std::vector<std::uint64_t> oracle_digests(
    const batmap::BatmapStore& store, std::span<const Query> stream) {
  std::unordered_map<std::uint32_t, Result> ranked;  // a -> kMaxTopK best
  std::vector<std::uint64_t> out(stream.size());
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const Query& q = stream[i];
    Result r;
    if (q.kind == QueryKind::kIntersect) {
      r.value = store.intersection_size(q.a, q.b);
    } else if (q.kind == QueryKind::kSupport) {
      r.value = store.raw_count(q.a, q.b);
    } else if (q.kind == QueryKind::kTopK) {
      auto [it, fresh] = ranked.try_emplace(q.a);
      Result& best = it->second;
      for (std::uint32_t id = 0; fresh && id < store.size(); ++id) {
        if (id == q.a) continue;
        best.topk_count = topk_insert(best.topk, best.topk_count, kMaxTopK, id,
                                      store.intersection_size(q.a, id));
      }
      r.topk_count = std::min(q.k, best.topk_count);
      r.value = r.topk_count;
      std::copy_n(best.topk, r.topk_count, r.topk);
    } else {
      const auto first = store.elements(q.ids[0]);
      std::vector<std::uint64_t> cur(first.begin(), first.end()), next;
      std::uint64_t ante = cur.size();
      for (std::uint32_t j = 1; j < q.nids; ++j) {
        const auto other = store.elements(q.ids[j]);
        next.clear();
        std::set_intersection(cur.begin(), cur.end(), other.begin(),
                              other.end(), std::back_inserter(next));
        cur.swap(next);
        if (j + 2u == q.nids) ante = cur.size();
      }
      r.value = cur.size();
      if (q.kind == QueryKind::kRuleScore) r.aux = ante;
    }
    out[i] = digest(i, q, r);
  }
  return out;
}

inline std::uint64_t xor_all(std::span<const std::uint64_t> digests) {
  std::uint64_t fp = 0;
  for (const std::uint64_t d : digests) fp ^= d;
  return fp;
}

/// The serving configurations the arms compare.
enum class Engine { kNaive, kBatched, kCached };

inline QueryEngine::Options engine_options(Engine e, const Spec& s) {
  QueryEngine::Options opt;
  opt.max_batch = e == Engine::kNaive ? 1 : 256;
  opt.cache_entries = e == Engine::kCached ? 1u << 15 : 0;
  opt.queue_capacity = std::max<std::size_t>(2 * s.clients, 64);
  return opt;
}

struct ArmRun {
  double seconds = 0;
  std::uint64_t fingerprint = 0;  ///< XOR of the served queries' digests
  std::uint64_t errors = 0;       ///< queries `serve` reported as failed
};

/// `clients` closed-loop threads drive disjoint slices of [0, n): each
/// calls serve(i, result) and folds digest(i) when it returns true.
template <typename Serve>
ArmRun run_clients(std::span<const Query> stream, std::size_t clients,
                   Serve&& serve) {
  const std::size_t n = stream.size();
  std::vector<ArmRun> per(clients);
  Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      ArmRun& mine = per[c];
      Result r;
      for (std::size_t i = n * c / clients; i < n * (c + 1) / clients; ++i) {
        if (serve(i, r)) {
          mine.fingerprint ^= digest(i, stream[i], r);
        } else {
          ++mine.errors;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  ArmRun out;
  out.seconds = wall.seconds();
  for (const ArmRun& r : per) {
    out.fingerprint ^= r.fingerprint;
    out.errors += r.errors;
  }
  return out;
}

/// Clients submit to `engine` and wait; any non-kOk outcome is an error.
inline ArmRun run_engine(QueryEngine& engine, std::span<const Query> stream,
                         std::size_t clients) {
  return run_clients(stream, clients, [&](std::size_t i, Result& r) {
    thread_local Request req;
    req.query = stream[i];
    engine.submit(req);
    if (!QueryEngine::wait(req)) return false;
    r = req.result();
    return true;
  });
}

/// The overload rule's client: each query carries a deadline, OVERLOAD
/// verdicts back off by the engine's retry hint, and the query gives up at
/// its deadline. `outcome[i]` records how query i ended — exactly one of
/// served / timed out / shed — and `served[i]` the digest of its answer.
struct OverloadRun {
  enum Outcome : std::uint8_t { kUnsettled, kServed, kTimedOut, kShed };
  std::vector<Outcome> outcome;
  std::vector<std::uint64_t> served;
  std::vector<std::uint64_t> served_latency_ns;
  std::uint64_t count(Outcome o) const {
    return static_cast<std::uint64_t>(
        std::count(outcome.begin(), outcome.end(), o));
  }
};

inline OverloadRun run_overload(QueryEngine& engine,
                                std::span<const Query> stream,
                                std::size_t clients,
                                std::uint64_t deadline_ms) {
  OverloadRun out;
  out.outcome.assign(stream.size(), OverloadRun::kUnsettled);
  out.served.assign(stream.size(), 0);
  std::vector<std::uint64_t> latency(stream.size(), 0);
  run_clients(stream, clients, [&](std::size_t i, Result&) {
    Query q = stream[i];
    q.deadline_ns = QueryEngine::now_ns() + deadline_ms * 1'000'000ull;
    Timer t;
    thread_local Request req;
    for (;;) {
      req.query = q;
      const Admit a = engine.try_submit_ex(req);
      if (a == Admit::kOk) {
        QueryEngine::wait(req);
        if (req.outcome() == Request::Outcome::kTimeout) {
          out.outcome[i] = OverloadRun::kTimedOut;
        } else {
          out.outcome[i] = OverloadRun::kServed;
          out.served[i] = digest(i, stream[i], req.result());
          latency[i] = static_cast<std::uint64_t>(t.seconds() * 1e9);
        }
        return true;
      }
      if (a == Admit::kExpired) {
        out.outcome[i] = OverloadRun::kTimedOut;
        return true;
      }
      if (QueryEngine::now_ns() >= q.deadline_ns) {  // kRingFull / kShed
        out.outcome[i] = OverloadRun::kShed;
        return true;
      }
      std::this_thread::sleep_for(std::chrono::nanoseconds(
          std::min<std::uint64_t>(engine.retry_after_ns(), 200'000)));
    }
  });
  for (std::size_t i = 0; i < stream.size(); ++i) {
    if (out.outcome[i] == OverloadRun::kServed) {
      out.served_latency_ns.push_back(latency[i]);
    }
  }
  return out;
}

/// The p-quantile (0..1) of `ns`, in milliseconds.
inline double percentile_ms(std::vector<std::uint64_t> ns, double p) {
  if (ns.empty()) return 0;
  const auto idx =
      static_cast<std::size_t>(p * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx),
                   ns.end());
  return static_cast<double>(ns[idx]) / 1e6;
}

/// A scratch path unique to this process.
inline std::string scratch_path(const std::string& tag) {
  return "/tmp/batmap_" + tag + "_" + std::to_string(::getpid()) + ".snap";
}

/// Snapshot file -> SnapshotManager -> QueryEngine -> EngineHandler, and
/// optionally a Listener serving it on a port until stop(). Rows `rows` of
/// `store` become the shard's local ids 0..n-1, as shard-split cuts them;
/// requests up to 1 MiB are accepted, as batmap_serve's default.
struct EngineServer {
  EngineServer(const batmap::BatmapStore& store,
               std::span<const std::uint32_t> rows, const std::string& tag,
               QueryEngine::Options opt = {},
               std::span<const core::RowLayout> layouts = {}) {
    const std::string path = scratch_path(tag);
    write_snapshot(store, path, /*epoch=*/1, layouts, rows);
    mgr = std::make_unique<SnapshotManager>(Snapshot::open(path));
    std::remove(path.c_str());  // the mapping keeps the data alive
    engine = std::make_unique<QueryEngine>(*mgr, opt);
    handler = std::make_unique<EngineHandler>(*mgr, *engine, false, path);
  }
  ~EngineServer() { stop(); }

  /// Serves on `port` (0 = ephemeral) until stop(); false if bind failed.
  bool start(std::uint16_t port = 0) {
    stop_flag.store(false);
    listener = std::make_unique<Listener>(port);
    if (!listener->ok()) return false;
    thread = std::thread([this] {
      listener->serve(*handler, {.name = "shard",
                                 .max_line = 1u << 20,
                                 .stop = &stop_flag});
    });
    return true;
  }
  void stop() {
    stop_flag.store(true);
    if (thread.joinable()) thread.join();
  }

  std::unique_ptr<SnapshotManager> mgr;
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<EngineHandler> handler;
  std::unique_ptr<Listener> listener;
  std::atomic<bool> stop_flag{false};
  std::thread thread;
};

}  // namespace repro::service::workload
