// service_throughput — closed-loop load generator for the batmap query
// service: batched engine vs naive one-query-at-a-time execution on the
// same snapshot, with per-query latency percentiles and a result
// fingerprint that must be bit-identical across every mode (and against
// the offline BatmapStore oracle).
//
//   service_throughput [--sets N] [--universe U] [--set-size S]
//                      [--size-spread P] [--queries Q] [--clients C]
//                      [--zipf THETA] [--topk-permille P]
//                      [--support-permille P] [--kway-permille P]
//                      [--cache N] [--batch N] [--verify 0|1]
//                      [--layout batmap|auto|dense|list|wah]
//                      [--assert-speedup X] [--snapshot PATH] [--csv PATH]
//
// --size-spread P draws per-set sizes log-uniformly from
// [set-size/P, set-size*P] (P=1 keeps the legacy equal-width store), giving
// the cost model a mix of dense and sparse rows to split across layouts.
// --layout picks the snapshot row containers (see service::LayoutMode);
// every arm still fingerprints identically regardless of layout — the
// adaptive-layout correctness gate CI diffs batmap-vs-auto runs on.
//
// --kway-permille mixes in conjunctive queries: k ∈ [2, 8] zipf-drawn set
// ids per query, alternating kKway and kRuleScore, exercising the engine's
// support-ordered list-vs-sweep planner. The oracle answers them by
// brute-force sorted-list intersection over the store's element lists.
//
// Workload: a dense synthetic store of `sets` equal-size random sets, query
// ids zipf-distributed so concurrent clients naturally share rows and hot
// pairs — the regime a popularity-skewed serving tier sees. Three arms run
// the same pre-generated query stream:
//
//   direct         one thread calling QueryEngine::execute_one — no queue,
//                  no threads, no serving overhead at all; the lower-bound
//                  reference and the fingerprint anchor
//   naive          C closed-loop clients, but the engine coalesces nothing:
//                  max_batch=1, cache off — one-query-at-a-time serving
//   batched        C clients, micro-batching on (shared top-k rows, one
//                  wakeup per batch), cache off
//   batched+cache  as batched, plus the LRU result cache
//
// The batched-vs-naive ratio is the value of coalescing at equal serving
// machinery (same queue, same wakeups, same clients); the direct row shows
// what the serving layer itself costs. The per-query fingerprint is
// XOR-folded (order-independent), so any divergence between arms — or
// against the BatmapStore oracle when --verify is on — fails the run with
// exit 1. --assert-speedup X additionally requires batched+cache QPS >=
// X × naive QPS (the CI service-smoke gate).
//
// Robustness arms:
//
//   --swap-every-ms M   adds a "swapped" arm: batched+cache serving through
//                       a SnapshotManager while a background thread rewrites
//                       the SAME store at increasing epochs and hot-swaps it
//                       every M ms mid-load. Because the data is identical,
//                       the arm's fingerprint must still equal direct's —
//                       the hot-swap correctness gate — and every retired
//                       mapping must have been released by the end.
//   --overload          adds an overload arm: a deliberately tiny ring plus
//                       per-query deadlines; clients retry on typed
//                       OVERLOAD verdicts using the engine's retry hint and
//                       give up at the deadline. Every query must end in
//                       exactly one typed outcome (served / timed out /
//                       shed) — nothing is silently dropped. Combine with
//                       REPRO_FAULT=worker_stall_ms=N to make shedding
//                       deterministic in CI; --overload-only skips the
//                       other arms for that job.
//   --write-permille P  adds a "live" arm: the same zipf read stream with
//                       P‰ of operations replaced by A/D writes through the
//                       delta layer, while a background thread compacts
//                       every --compact-every-ms ms. Base sets draw from
//                       the lower universe half and adds from the upper
//                       half with globally unique (set, elem) pairs —
//                       deletes only ever remove base elements — so the
//                       final corpus is independent of client
//                       interleaving. The arm reports read QPS/p99 at that
//                       write rate, requires every request (read and
//                       write) to end kOk with zero drops across >= 1
//                       background compaction, and after a final
//                       compaction fingerprints the served state against
//                       an offline BatmapStore rebuilt from the tracked
//                       model. --live-only runs just this arm (CI
//                       live-smoke mode; defaults to 200‰ writes).
//   --calibrate-kway    replaces the load arms with the k-way planner
//                       calibration sweep (ROADMAP 5c): groups of sets at
//                       size ratios x1..x32 queried under kForceList,
//                       kForceSweep, and kAuto planner modes. Reports QPS
//                       per (ratio, mode), the measured list-vs-sweep
//                       crossover, and the cost model's switch point; all
//                       three modes must fingerprint identically.
#include <signal.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <iterator>
#include <set>
#include <thread>
#include <vector>

#include "batmap/intersect.hpp"
#include "harness.hpp"
#include "router/router_core.hpp"
#include "router/shard_map.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

// Path to the shard binary for the --router arm, injected by CMake.
#ifndef BATMAP_SERVE_PATH
#define BATMAP_SERVE_PATH "./batmap_serve"
#endif

using namespace repro;

namespace {

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
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<std::uint32_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

std::uint64_t result_fingerprint(std::uint64_t index, const service::Query& q,
                                 const service::Result& r) {
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

struct RunResult {
  double seconds = 0;
  std::uint64_t fingerprint = 0;  ///< XOR over per-query digests
  double p50_us = 0, p99_us = 0;
};

double percentile(std::vector<std::uint64_t>& ns, double p) {
  if (ns.empty()) return 0;
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(ns.size() - 1));
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(idx),
                   ns.end());
  return static_cast<double>(ns[idx]) / 1e3;
}

/// C closed-loop clients drive disjoint slices of the stream through the
/// engine; `naive` uses execute_one on one thread instead.
RunResult run_arm(service::QueryEngine& engine,
                  const std::vector<service::Query>& stream,
                  std::size_t clients, bool naive) {
  RunResult out;
  const std::size_t q = stream.size();
  if (naive) clients = 1;
  std::vector<std::uint64_t> fps(clients, 0);
  std::vector<std::vector<std::uint64_t>> lat(clients);
  Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t lo = q * c / clients;
    const std::size_t hi = q * (c + 1) / clients;
    lat[c].reserve(hi - lo);
    threads.emplace_back([&, c, lo, hi] {
      service::Request req;
      for (std::size_t i = lo; i < hi; ++i) {
        Timer t;
        service::Result r;
        if (naive) {
          r = engine.execute_one(stream[i]);
        } else {
          req.query = stream[i];
          engine.submit(req);
          service::QueryEngine::wait(req);
          r = req.result();
        }
        lat[c].push_back(static_cast<std::uint64_t>(t.seconds() * 1e9));
        fps[c] ^= result_fingerprint(i, stream[i], r);
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = wall.seconds();
  for (const auto f : fps) out.fingerprint ^= f;
  std::vector<std::uint64_t> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  out.p50_us = percentile(all, 0.50);
  out.p99_us = percentile(all, 0.99);
  return out;
}

/// The offline-miner oracle: every query answered straight off the
/// BatmapStore the snapshot was built from.
std::uint64_t oracle_fingerprint(const batmap::BatmapStore& store,
                                 const std::vector<service::Query>& stream) {
  std::uint64_t fp = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    const auto& q = stream[i];
    service::Result r;
    switch (q.kind) {
      case service::QueryKind::kIntersect:
        r.value = store.intersection_size(q.a, q.b);
        break;
      case service::QueryKind::kSupport:
        r.value = store.raw_count(q.a, q.b);
        break;
      case service::QueryKind::kTopK: {
        // Rank by (count desc, id asc) — the service's canonical order.
        std::vector<std::pair<std::uint64_t, std::uint32_t>> best;
        for (std::uint32_t id = 0; id < store.size(); ++id) {
          if (id == q.a) continue;
          best.emplace_back(store.intersection_size(q.a, id), id);
        }
        std::sort(best.begin(), best.end(), [](const auto& x, const auto& y) {
          return x.first != y.first ? x.first > y.first : x.second < y.second;
        });
        r.topk_count = static_cast<std::uint32_t>(
            std::min<std::size_t>(q.k, best.size()));
        r.value = r.topk_count;
        for (std::uint32_t j = 0; j < r.topk_count; ++j) {
          r.topk[j] = {best[j].second, best[j].first};
        }
        break;
      }
      case service::QueryKind::kKway:
      case service::QueryKind::kRuleScore: {
        // Brute-force fold over the store's element lists, independent of
        // both the planner and the engine's naive path.
        const auto first = store.elements(q.ids[0]);
        std::vector<std::uint64_t> cur(first.begin(), first.end());
        std::vector<std::uint64_t> next;
        std::uint64_t ante = cur.size();
        for (std::uint32_t j = 1; j < q.nids; ++j) {
          const auto other = store.elements(q.ids[j]);
          next.clear();
          std::set_intersection(cur.begin(), cur.end(), other.begin(),
                                other.end(), std::back_inserter(next));
          cur.swap(next);
          if (j == static_cast<std::uint32_t>(q.nids) - 2) ante = cur.size();
        }
        r.value = cur.size();
        if (q.kind == service::QueryKind::kRuleScore) r.aux = ante;
        break;
      }
      case service::QueryKind::kAdd:
      case service::QueryKind::kDelete:
      case service::QueryKind::kFlush:
        break;  // write verbs never reach the oracle's read streams
    }
    fp ^= result_fingerprint(i, q, r);
  }
  return fp;
}

/// The k-way planner calibration sweep: one snapshot holding groups of
/// sets, each group a small DRIVER set plus larger operands at size ratio
/// x1..x32, queried with 3-way conjunctions under all three planner modes.
/// Batmap rows are packed, so a counter sweep streams ~the larger operand's
/// slots while a galloping merge does ~driver * log(ratio) probes: sweeps
/// win near ratio 1 and lose as the ratio grows. Where the measured winner
/// flips is the crossover the planner's cost model is supposed to predict.
bool run_kway_calibration(std::uint64_t universe, std::uint64_t base_size,
                          std::uint64_t queries_per_ratio, std::uint64_t seed,
                          const std::string& snap_path,
                          const std::string& csv) {
  const std::vector<std::uint64_t> ratios = {1, 2, 4, 8, 16, 32};
  constexpr std::uint32_t kGroupSets = 6;  // 1 driver + 5 large operands

  batmap::BatmapStore store(universe);
  {
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> v;
    for (const std::uint64_t r : ratios) {
      for (std::uint32_t j = 0; j < kGroupSets; ++j) {
        const std::uint64_t target = std::min<std::uint64_t>(
            j == 0 ? base_size : base_size * r, universe / 2);
        std::set<std::uint64_t> s;
        while (s.size() < target) s.insert(rng.below(universe));
        v.assign(s.begin(), s.end());
        store.add(v);
      }
    }
  }
  // Batmap rows only: the counter sweep is only eligible on packed batmap
  // rows, and the calibration is about the planner, not the row layouts.
  service::write_snapshot(store, snap_path, /*epoch=*/1,
                          service::plan_layouts(store, service::LayoutMode::kBatmap));
  const service::Snapshot snap = service::Snapshot::open(snap_path);
  std::printf("calibrate-kway: %zu ratios x %u sets, base size %" PRIu64
              ", universe %" PRIu64 ", %" PRIu64 " failures, %" PRIu64
              " queries per ratio\n",
              ratios.size(), kGroupSets, base_size, universe,
              snap.total_failures(), queries_per_ratio);

  Table table({"ratio", "operand_size", "list_qps", "sweep_qps", "auto_qps",
               "model", "measured"});
  bool ok = true;
  std::size_t measured_cross = ratios.size();  // first ratio where list wins
  std::size_t model_cross = ratios.size();     // first ratio auto goes list
  for (std::size_t g = 0; g < ratios.size(); ++g) {
    // Every query drives from the group's small set against two of its
    // large operands — the regime the list-vs-sweep choice is about.
    std::vector<service::Query> qs(queries_per_ratio);
    Xoshiro256 rng(seed ^ (0x5eedull + g));
    for (auto& q : qs) {
      q.kind = service::QueryKind::kKway;
      q.nids = 3;
      const std::uint32_t base_id = static_cast<std::uint32_t>(g) * kGroupSets;
      q.ids[0] = base_id;
      q.ids[1] = base_id + 1 + static_cast<std::uint32_t>(rng.below(kGroupSets - 1));
      do {
        q.ids[2] = base_id + 1 + static_cast<std::uint32_t>(rng.below(kGroupSets - 1));
      } while (q.ids[2] == q.ids[1]);
      q.a = q.ids[0];
    }

    double qps[3] = {0, 0, 0};
    std::uint64_t fp[3] = {0, 0, 0};
    bool auto_swept = false;
    const service::KwayMode modes[3] = {service::KwayMode::kForceList,
                                        service::KwayMode::kForceSweep,
                                        service::KwayMode::kAuto};
    for (int m = 0; m < 3; ++m) {
      service::QueryEngine::Options opt;
      opt.cache_entries = 0;
      opt.kway_mode = modes[m];
      service::QueryEngine engine(snap, opt);
      Timer t;
      for (std::size_t i = 0; i < qs.size(); ++i) {
        fp[m] ^= result_fingerprint(i, qs[i], engine.execute_one(qs[i]));
      }
      qps[m] = static_cast<double>(qs.size()) / t.seconds();
      if (modes[m] == service::KwayMode::kAuto) {
        const auto st = engine.stats();
        auto_swept = st.kway_sweep_steps > st.kway_list_steps;
      }
    }
    if (fp[0] != fp[1] || fp[0] != fp[2]) {
      std::printf("FINGERPRINT MISMATCH across planner modes at ratio %" PRIu64
                  "\n",
                  ratios[g]);
      ok = false;
    }
    const bool list_won = qps[0] > qps[1];
    if (list_won && measured_cross == ratios.size()) measured_cross = g;
    if (!auto_swept && model_cross == ratios.size()) model_cross = g;
    table.row()
        .add(ratios[g])
        .add(std::min<std::uint64_t>(base_size * ratios[g], universe / 2))
        .add(qps[0], 0)
        .add(qps[1], 0)
        .add(qps[2], 0)
        .add(std::string(auto_swept ? "sweep" : "list"))
        .add(std::string(list_won ? "list" : "sweep"));
  }
  bench::emit(table, csv);
  const auto cross_str = [&](std::size_t c) {
    if (c >= ratios.size()) return std::string("none");
    std::string s = "x";
    s += std::to_string(ratios[c]);
    return s;
  };
  std::printf("crossover: list merges win measured from ratio %s, cost model "
              "switches to lists at ratio %s\n",
              cross_str(measured_cross).c_str(),
              cross_str(model_cross).c_str());
  std::remove(snap_path.c_str());
  return ok;
}

/// A batmap_serve shard subprocess for the --router arm: spawned with
/// --port 0, the ephemeral port read back off the LISTENING stdout
/// contract. The bench owns the pid and SIGTERMs it when the arm ends.
struct ShardProc {
  long pid = -1;
  std::uint16_t port = 0;
};

ShardProc spawn_shard(const std::string& snap, const std::string& out) {
  ShardProc sp;
  const std::string cmd = std::string(BATMAP_SERVE_PATH) + " --snapshot " +
                          snap + " --port 0 --max-line 1048576 < /dev/null > " +
                          out + " 2>/dev/null & echo $!";
  FILE* p = popen(cmd.c_str(), "r");
  if (!p) return sp;
  if (std::fscanf(p, "%ld", &sp.pid) != 1) sp.pid = -1;
  pclose(p);
  for (int i = 0; i < 100 && sp.port == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    if (FILE* f = std::fopen(out.c_str(), "r")) {
      unsigned port = 0;
      if (std::fscanf(f, "LISTENING %u", &port) == 1) {
        sp.port = static_cast<std::uint16_t>(port);
      }
      std::fclose(f);
    }
  }
  return sp;
}

/// C closed-loop clients drive disjoint stream slices through the router
/// core (each execute() is a synchronous scatter/forward over the shard
/// connections). Mirrors run_arm so the rows compare like for like.
RunResult run_router_arm(router::RouterCore& core,
                         const std::vector<service::Query>& stream,
                         std::size_t clients, std::uint64_t& errors) {
  RunResult out;
  const std::size_t q = stream.size();
  std::vector<std::uint64_t> fps(clients, 0);
  std::vector<std::vector<std::uint64_t>> lat(clients);
  std::atomic<std::uint64_t> errs{0};
  Timer wall;
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < clients; ++c) {
    const std::size_t lo = q * c / clients;
    const std::size_t hi = q * (c + 1) / clients;
    lat[c].reserve(hi - lo);
    threads.emplace_back([&, c, lo, hi] {
      for (std::size_t i = lo; i < hi; ++i) {
        Timer t;
        const auto r = core.execute(stream[i], /*deadline_ns=*/0);
        lat[c].push_back(static_cast<std::uint64_t>(t.seconds() * 1e9));
        if (r.ok) {
          fps[c] ^= result_fingerprint(i, stream[i], r.result);
        } else {
          errs.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  out.seconds = wall.seconds();
  for (const auto f : fps) out.fingerprint ^= f;
  std::vector<std::uint64_t> all;
  for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
  out.p50_us = percentile(all, 0.50);
  out.p99_us = percentile(all, 0.99);
  errors = errs.load();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::uint64_t sets = args.u64("sets", 512, "sets in the store");
  const std::uint64_t universe = args.u64("universe", 60000, "element universe");
  const std::uint64_t set_size = args.u64("set-size", 1200, "elements per set");
  const double size_spread = args.f64(
      "size-spread", 1.0, "log-uniform per-set size spread factor (1=equal)");
  const std::uint64_t queries = args.u64("queries", 50000, "total queries");
  const std::uint64_t clients = args.u64("clients", 32, "closed-loop clients");
  const double zipf_theta = args.f64("zipf", 1.1, "query-id skew (0=uniform)");
  const std::uint64_t topk_permille =
      args.u64("topk-permille", 100, "‰ of queries that are top-k");
  const std::uint64_t support_permille =
      args.u64("support-permille", 250, "‰ of queries that are raw support");
  const std::uint64_t kway_permille = args.u64(
      "kway-permille", 0, "‰ of queries that are k-way conjunctive (K/R mix)");
  const std::uint64_t cache = args.u64("cache", 1 << 15, "cache entries");
  const std::uint64_t batch = args.u64("batch", 256, "max micro-batch");
  const std::uint64_t seed = args.u64("seed", 42, "workload seed");
  const bool verify =
      args.flag("verify", true, "cross-check against the BatmapStore oracle");
  const std::string layout_str =
      args.str("layout", "batmap", "snapshot row layouts (batmap|auto|...)");
  const double assert_speedup = args.f64(
      "assert-speedup", 0.0, "fail unless batched+cache >= X * naive QPS");
  const std::uint64_t swap_every_ms = args.u64(
      "swap-every-ms", 0, "hot-swap arm: swap snapshots every M ms (0 = off)");
  const bool overload =
      args.flag("overload", false, "run the overload/deadline arm");
  const bool overload_only = args.flag(
      "overload-only", false, "skip the throughput arms (chaos CI mode)");
  const std::uint64_t overload_queue =
      args.u64("overload-queue", 8, "overload arm: ring slots");
  const std::uint64_t overload_deadline_ms =
      args.u64("overload-deadline-ms", 25, "overload arm: per-query deadline");
  const bool assert_overload = args.flag(
      "assert-overload", false,
      "fail unless the overload arm shed or timed out at least one query");
  const bool assert_timeout = args.flag(
      "assert-timeout", false, "fail unless the overload arm timed out");
  const double assert_p99_ms = args.f64(
      "assert-p99-ms", 0.0,
      "fail if overload-arm served p99 exceeds this bound (0 = off)");
  const std::uint64_t write_permille = args.u64(
      "write-permille", 0, "live arm: ‰ of ops that are A/D writes (0 = off)");
  const std::uint64_t compact_every_ms = args.u64(
      "compact-every-ms", 0,
      "live arm: background compaction period (0 = final compaction only)");
  const bool live_only = args.flag(
      "live-only", false, "run only the live read/write arm (CI live-smoke)");
  const bool calibrate_kway = args.flag(
      "calibrate-kway", false,
      "run the k-way planner calibration sweep instead of the load arms");
  const std::uint64_t router_n = args.u64(
      "router", 0,
      "router arm: serve the stream through batmap_router topologies of 1..N "
      "local shards (0 = off); fingerprints must match the direct arm");
  const std::string snap_path =
      args.str("snapshot", "service_throughput.snap", "snapshot scratch path");
  const std::string csv = args.str("csv", "", "write table as CSV");
  args.finish();

  if (calibrate_kway) {
    return run_kway_calibration(universe, set_size,
                                std::max<std::uint64_t>(queries / 6, 50), seed,
                                snap_path, csv)
               ? 0
               : 1;
  }

  std::printf("service_throughput: %" PRIu64 " sets x %" PRIu64
              " elements over [0, %" PRIu64 "), %" PRIu64 " queries, %" PRIu64
              " clients, zipf %.2f\n",
              sets, set_size, universe, queries, clients, zipf_theta);

  const auto layout_mode = service::parse_layout_mode(layout_str);
  if (!layout_mode) {
    std::fprintf(stderr, "bad --layout %s (batmap|auto|dense|list|wah)\n",
                 layout_str.c_str());
    return 2;
  }

  // Build the store and its snapshot. With --size-spread P the per-set
  // size is set_size * P^(2u-1), u uniform — log-uniform over
  // [set_size/P, set_size*P]; the P=1 path draws nothing extra so legacy
  // seeds reproduce byte-identical stores.
  Timer build_t;
  batmap::BatmapStore store(universe);
  {
    Xoshiro256 rng(seed);
    std::vector<std::uint64_t> v;
    for (std::uint64_t i = 0; i < sets; ++i) {
      std::uint64_t target = set_size;
      if (size_spread > 1.0) {
        const double u = rng.uniform();
        target = std::max<std::uint64_t>(
            1, static_cast<std::uint64_t>(
                   static_cast<double>(set_size) *
                   std::pow(size_spread, 2.0 * u - 1.0)));
        target = std::min(target, universe);
      }
      std::set<std::uint64_t> s;
      while (s.size() < target) s.insert(rng.below(universe));
      v.assign(s.begin(), s.end());
      store.add(v);
    }
  }
  const std::vector<core::RowLayout> layouts =
      service::plan_layouts(store, *layout_mode);
  service::write_snapshot(store, snap_path, /*epoch=*/1, layouts);
  const service::Snapshot snap = service::Snapshot::open(snap_path);
  std::printf("built + snapshotted in %.2fs (%.1f MiB mapped, %" PRIu64
              " failures)\n",
              build_t.seconds(),
              static_cast<double>(snap.mapped_bytes()) / (1 << 20),
              snap.total_failures());
  if (!snap.all_batmap()) {
    const auto br = snap.layout_breakdown();
    std::printf("layouts: batmap %" PRIu64 ", dense %" PRIu64 ", list %" PRIu64
                ", wah %" PRIu64 "\n",
                br.rows[0], br.rows[1], br.rows[2], br.rows[3]);
  }

  // Pre-generate the query stream shared by every arm.
  std::vector<service::Query> stream(queries);
  {
    Xoshiro256 rng(seed ^ 0xbadc0ffeull);
    const Zipf zipf(sets, zipf_theta);
    for (auto& q : stream) {
      const std::uint64_t kind_draw = rng.below(1000);
      q.a = zipf(rng);
      if (kind_draw < topk_permille) {
        q.kind = service::QueryKind::kTopK;
        q.k = 1 + static_cast<std::uint32_t>(rng.below(8));
      } else if (kind_draw < topk_permille + kway_permille) {
        // Conjunctive mix: zipf-drawn operands, duplicates allowed (the
        // planner dedups), alternating plain k-way and rule-score.
        q.kind = rng.below(2) == 0 ? service::QueryKind::kKway
                                   : service::QueryKind::kRuleScore;
        q.nids = static_cast<std::uint8_t>(
            2 + rng.below(service::kMaxKwayIds - 1));
        for (std::uint32_t j = 0; j < q.nids; ++j) q.ids[j] = zipf(rng);
        q.a = q.ids[0];
      } else {
        q.kind = kind_draw < topk_permille + kway_permille + support_permille
                     ? service::QueryKind::kSupport
                     : service::QueryKind::kIntersect;
        q.b = zipf(rng);
        if (q.b == q.a) q.b = (q.a + 1) % static_cast<std::uint32_t>(sets);
      }
    }
  }

  service::QueryEngine::Options base;
  base.max_batch = batch;
  base.queue_capacity = std::max<std::size_t>(2 * clients, 64);

  RunResult direct, naive, batched, cached;
  if (!overload_only && !live_only) {
    service::QueryEngine::Options opt = base;
    opt.cache_entries = 0;
    service::QueryEngine engine(snap, opt);
    direct = run_arm(engine, stream, 1, /*naive=*/true);
  }
  if (!overload_only && !live_only) {
    service::QueryEngine::Options opt = base;
    opt.cache_entries = 0;
    opt.max_batch = 1;  // one-query-at-a-time serving
    service::QueryEngine engine(snap, opt);
    naive = run_arm(engine, stream, clients, /*naive=*/false);
  }
  if (!overload_only && !live_only) {
    service::QueryEngine::Options opt = base;
    opt.cache_entries = 0;
    service::QueryEngine engine(snap, opt);
    batched = run_arm(engine, stream, clients, /*naive=*/false);
    const auto st = engine.stats();
    std::printf("batched: %" PRIu64 " batches (max %" PRIu64 "), %" PRIu64
                " pair kernels, %" PRIu64 " topk sweeps, %" PRIu64
                " kway (%" PRIu64 " list / %" PRIu64
                " sweep steps), arena %" PRIu64 " B\n",
                st.batches, st.max_batch_seen, st.cyclic_pairs,
                st.topk_sweeps, st.kway_queries, st.kway_list_steps,
                st.kway_sweep_steps, st.arena_reserved_bytes);
  }
  if (!overload_only && !live_only) {
    service::QueryEngine::Options opt = base;
    opt.cache_entries = cache;
    service::QueryEngine engine(snap, opt);
    cached = run_arm(engine, stream, clients, /*naive=*/false);
    const auto st = engine.stats();
    std::printf("batched+cache: %" PRIu64 " hits / %" PRIu64 " misses, %" PRIu64
                " evictions\n",
                st.cache_hits, st.cache_misses, st.cache_evictions);
  }

  // Hot-swap arm: same workload, same data, but the serving snapshot is
  // replaced at increasing epochs mid-load. Snapshots of the same store
  // answer identically, so the fingerprint must still match direct — any
  // torn read, stale cache entry, or mid-swap inconsistency shows up as a
  // digest divergence.
  RunResult swapped;
  bool swapped_ok = true;
  if (swap_every_ms > 0 && !overload_only && !live_only) {
    service::SnapshotManager mgr(service::Snapshot::open(snap_path));
    service::QueryEngine::Options opt = base;
    opt.cache_entries = cache;
    service::QueryEngine engine(mgr, opt);
    std::atomic<bool> done{false};
    std::thread swapper([&] {
      // Alternate between two scratch paths: epoch e serves from path e%2,
      // so the path being overwritten is never the one currently mapped
      // (the previous tenant of that path has fully drained — swap()
      // blocks on drain before returning).
      const std::string paths[2] = {snap_path + ".swapA",
                                    snap_path + ".swapB"};
      std::uint64_t epoch = 2;
      while (!done.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(swap_every_ms));
        if (done.load(std::memory_order_relaxed)) break;
        const std::string& p = paths[epoch % 2];
        service::write_snapshot(store, p, epoch, layouts);
        mgr.swap(p);
        ++epoch;
      }
      std::remove(paths[0].c_str());
      std::remove(paths[1].c_str());
    });
    swapped = run_arm(engine, stream, clients, /*naive=*/false);
    done.store(true, std::memory_order_relaxed);
    swapper.join();
    engine.drain();
    const auto st = engine.stats();
    const std::size_t resident = mgr.retired_resident();
    std::printf("swapped: %" PRIu64 " swaps, %" PRIu64 " rollovers, %" PRIu64
                " pinned fallbacks, %zu retired mappings resident\n",
                mgr.swaps(), st.epoch_rollovers, st.pinned_fallbacks,
                resident);
    if (resident != 0) {
      std::printf("HOT-SWAP LEAK: retired snapshot still mapped after "
                  "drain\n");
      swapped_ok = false;
    }
  }

  bool ok = true;
  const double qn = static_cast<double>(queries);
  if (!overload_only && !live_only) {
    Table table({"mode", "seconds", "qps", "p50_us", "p99_us", "speedup",
                 "fingerprint"});
    const auto row = [&](const char* mode, const RunResult& r) {
      char fp[32];
      std::snprintf(fp, sizeof(fp), "%016" PRIx64, r.fingerprint);
      table.row()
          .add(std::string(mode))
          .add(r.seconds, 3)
          .add(qn / r.seconds, 0)
          .add(r.p50_us, 1)
          .add(r.p99_us, 1)
          .add(naive.seconds / r.seconds, 2)
          .add(std::string(fp));
    };
    row("direct", direct);
    row("naive", naive);
    row("batched", batched);
    row("batched+cache", cached);
    if (swap_every_ms > 0) row("swapped", swapped);
    bench::emit(table, csv);

    if (naive.fingerprint != direct.fingerprint ||
        batched.fingerprint != direct.fingerprint ||
        cached.fingerprint != direct.fingerprint) {
      std::printf("FINGERPRINT MISMATCH between arms\n");
      ok = false;
    }
    if (swap_every_ms > 0 && swapped.fingerprint != direct.fingerprint) {
      std::printf("FINGERPRINT MISMATCH on the hot-swap arm\n");
      ok = false;
    }
    ok = ok && swapped_ok;
    if (verify) {
      const std::uint64_t oracle = oracle_fingerprint(store, stream);
      if (oracle != direct.fingerprint) {
        std::printf("FINGERPRINT MISMATCH vs offline BatmapStore oracle\n");
        ok = false;
      } else {
        std::printf("oracle fingerprint matches (%016" PRIx64 ")\n", oracle);
      }
    }
    if (assert_speedup > 0) {
      const double speedup = naive.seconds / cached.seconds;
      if (speedup < assert_speedup) {
        std::printf("SPEEDUP %.2fx below required %.2fx\n", speedup,
                    assert_speedup);
        ok = false;
      }
    }
  }

  // Router arm: the same read stream served through batmap_router over
  // 1..N local batmap_serve shards. Each topology cuts the store into
  // per-shard snapshots (ShardMap-consistent, like `batmap_cli
  // shard-split`), spawns the fleet on ephemeral ports, and drives the
  // router core from C closed-loop clients. Aggregate QPS shows the
  // scatter/forward scaling; every topology's fingerprint must equal the
  // direct arm's — the sharding-transparency gate.
  if (router_n > 0 && !overload_only && !live_only) {
    Table rtable({"mode", "shards", "seconds", "qps", "p50_us", "p99_us",
                  "fingerprint"});
    for (std::uint64_t n = 1; n <= router_n; ++n) {
      router::ShardMap::Options mopt;
      mopt.shards = static_cast<std::uint32_t>(n);
      const auto part = router::ShardMap(mopt).partition(
          static_cast<std::uint32_t>(sets));
      std::vector<ShardProc> procs;
      std::vector<std::string> scratch;
      router::RouterCore::Options ropt;
      bool spawned = true;
      for (std::uint64_t s = 0; s < n; ++s) {
        const auto& owned = part.owned[s];
        std::vector<core::RowLayout> sub;
        if (!layouts.empty()) {
          sub.reserve(owned.size());
          for (const std::uint32_t gid : owned) sub.push_back(layouts[gid]);
        }
        const std::string base_path = snap_path + ".router" +
                                      std::to_string(n) + "." +
                                      std::to_string(s);
        service::write_snapshot(store, base_path + ".snap", /*epoch=*/1, sub,
                                owned);
        scratch.push_back(base_path);
        const ShardProc sp =
            spawn_shard(base_path + ".snap", base_path + ".out");
        if (sp.pid < 0 || sp.port == 0) spawned = false;
        procs.push_back(sp);
        ropt.ports.push_back(sp.port);
      }
      if (spawned) {
        try {
          router::RouterCore core(ropt);
          std::uint64_t errors = 0;
          const RunResult r = run_router_arm(core, stream, clients, errors);
          char fpbuf[32];
          std::snprintf(fpbuf, sizeof(fpbuf), "%016" PRIx64, r.fingerprint);
          rtable.row()
              .add(std::string("router"))
              .add(n)
              .add(r.seconds, 3)
              .add(qn / r.seconds, 0)
              .add(r.p50_us, 1)
              .add(r.p99_us, 1)
              .add(std::string(fpbuf));
          if (errors != 0) {
            std::printf("ROUTER ARM: %" PRIu64 " queries errored at %" PRIu64
                        " shards\n",
                        errors, n);
            ok = false;
          }
          if (r.fingerprint != direct.fingerprint) {
            std::printf("FINGERPRINT MISMATCH on the router arm at %" PRIu64
                        " shards\n",
                        n);
            ok = false;
          }
        } catch (const CheckError& e) {
          std::printf("ROUTER ARM: handshake failed at %" PRIu64
                      " shards: %s\n",
                      n, e.what());
          ok = false;
        }
      } else {
        std::printf("ROUTER ARM: failed to spawn the %" PRIu64
                    "-shard fleet\n",
                    n);
        ok = false;
      }
      for (const ShardProc& sp : procs) {
        if (sp.pid > 0) kill(static_cast<pid_t>(sp.pid), SIGTERM);
      }
      for (const std::string& base_path : scratch) {
        std::remove((base_path + ".snap").c_str());
        std::remove((base_path + ".out").c_str());
      }
    }
    bench::emit(rtable, csv);
  }

  // Live read/write arm: the zipf read stream with write_permille‰ of ops
  // replaced by A/D writes through the delta layer while a background
  // thread compacts mid-load. Every request must end kOk (zero drops), and
  // after a final compaction the served state must fingerprint identically
  // to an offline BatmapStore rebuilt from the tracked model.
  if (write_permille > 0 || live_only) {
    const std::uint64_t wpm = write_permille > 0 ? write_permille : 200;
    // A base corpus whose writes commute: base elements come from the lower
    // universe half, adds from the upper half with globally unique
    // (set, elem) pairs, and deletes only ever remove base elements — the
    // final corpus is the same under every client interleaving.
    std::vector<std::set<std::uint64_t>> model(sets);
    std::vector<std::vector<std::uint64_t>> deletable(sets);
    batmap::BatmapStore base_store(universe);
    {
      Xoshiro256 rng(seed ^ 0x11feull);
      std::vector<std::uint64_t> v;
      for (std::uint64_t i = 0; i < sets; ++i) {
        auto& s = model[i];
        const std::uint64_t target = std::min(set_size, universe / 4);
        while (s.size() < target) s.insert(rng.below(universe / 2));
        deletable[i].assign(s.begin(), s.end());
        v.assign(s.begin(), s.end());
        base_store.add(v);
      }
    }
    const std::string base_path = snap_path + ".live.base";
    service::write_snapshot(base_store, base_path, /*epoch=*/1,
                            service::plan_layouts(base_store, *layout_mode));
    service::SnapshotManager mgr(service::Snapshot::open(base_path));
    std::remove(base_path.c_str());

    // The mixed op stream: each slot keeps its read from `stream` or takes
    // a pre-generated write (~25% deletes). Every write's recorded-op count
    // is deterministic — adds are always new elements, deletes always
    // present ones — so it is asserted even under concurrency.
    std::vector<service::Query> ops(stream);
    std::uint64_t n_writes = 0, n_deletes = 0;
    {
      Xoshiro256 rng(seed ^ 0xd311aull);
      const Zipf zipf(sets, zipf_theta);
      std::uint64_t next_add = universe / 2;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        if (rng.below(1000) >= wpm) continue;  // stays a read
        const std::uint32_t set = zipf(rng);
        const std::size_t want = 1 + rng.below(4);
        service::Query q;
        q.a = set;
        if (rng.below(4) == 0 && !deletable[set].empty()) {
          q.kind = service::QueryKind::kDelete;
          auto& d = deletable[set];
          while (q.nids < want && !d.empty()) {
            const std::uint64_t e = d.back();
            d.pop_back();
            q.ids[q.nids++] = static_cast<std::uint32_t>(e);
            model[set].erase(e);
          }
        } else {
          q.kind = service::QueryKind::kAdd;
          while (q.nids < want && next_add < universe) {
            q.ids[q.nids++] = static_cast<std::uint32_t>(next_add);
            model[set].insert(next_add);
            ++next_add;
          }
        }
        if (q.nids == 0) continue;  // unique elements exhausted: keep read
        ops[i] = q;
        ++n_writes;
        if (q.kind == service::QueryKind::kDelete) ++n_deletes;
      }
    }

    service::QueryEngine::Options opt = base;
    opt.cache_entries = cache;
    service::QueryEngine engine(mgr, opt);
    service::Compactor::Options copt;
    copt.out_prefix = snap_path + ".live";
    copt.layout = *layout_mode;
    service::Compactor compactor(mgr, engine.delta(), copt);
    engine.set_flush_hook([&compactor] { return compactor.compact_now(); });

    std::atomic<bool> live_done{false};
    std::thread compact_thread;
    if (compact_every_ms > 0) {
      compact_thread = std::thread([&] {
        while (!live_done.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(compact_every_ms));
          if (live_done.load(std::memory_order_relaxed)) break;
          compactor.compact_now();
        }
      });
    }

    std::atomic<std::uint64_t> bad{0};
    std::vector<std::vector<std::uint64_t>> rlat(clients);
    Timer wall;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      const std::size_t lo = queries * c / clients;
      const std::size_t hi = queries * (c + 1) / clients;
      threads.emplace_back([&, c, lo, hi] {
        service::Request req;
        for (std::size_t i = lo; i < hi; ++i) {
          const service::Query& q = ops[i];
          const bool is_write = q.kind == service::QueryKind::kAdd ||
                                q.kind == service::QueryKind::kDelete;
          Timer t;
          req.query = q;
          engine.submit(req);
          service::QueryEngine::wait(req);
          if (req.outcome() != service::Request::Outcome::kOk ||
              (is_write && req.result().value != q.nids)) {
            bad.fetch_add(1, std::memory_order_relaxed);
          } else if (!is_write) {
            rlat[c].push_back(static_cast<std::uint64_t>(t.seconds() * 1e9));
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs = wall.seconds();
    live_done.store(true, std::memory_order_relaxed);
    if (compact_thread.joinable()) compact_thread.join();

    // Final compaction drains whatever delta remains; the post-compaction
    // state is what gets fingerprinted against the offline rebuild.
    compactor.compact_now();
    const auto st = engine.stats();
    std::vector<std::uint64_t> rall;
    for (auto& l : rlat) rall.insert(rall.end(), l.begin(), l.end());
    const double reads = static_cast<double>(queries - n_writes);
    std::printf("live: %" PRIu64 "‰ writes — %.0f reads (%.0f qps, p50 %.1f "
                "us, p99 %.1f us), %" PRIu64 " writes (%" PRIu64
                " deletes), %" PRIu64 " compactions, %" PRIu64 " swaps\n",
                wpm, reads, reads / secs, percentile(rall, 0.50),
                percentile(rall, 0.99), n_writes, n_deletes, st.compactions,
                mgr.swaps());
    if (bad.load() != 0) {
      std::printf("LIVE ARM DROPPED %" PRIu64
                  " requests (non-kOk or wrong recorded count)\n",
                  bad.load());
      ok = false;
    }
    if (mgr.swaps() < 1) {
      std::printf("LIVE ARM expected at least one compaction swap\n");
      ok = false;
    }
    if (st.delta_elements != 0) {
      std::printf("LIVE ARM delta not drained after final compaction "
                  "(%" PRIu64 " pending)\n",
                  st.delta_elements);
      ok = false;
    }
    batmap::BatmapStore final_store(universe);
    {
      std::vector<std::uint64_t> v;
      for (const auto& s : model) {
        v.assign(s.begin(), s.end());
        final_store.add(v);
      }
    }
    std::uint64_t live_fp = 0;
    for (std::size_t i = 0; i < stream.size(); ++i) {
      live_fp ^= result_fingerprint(i, stream[i],
                                    engine.execute_serial(stream[i]));
    }
    const std::uint64_t want_fp = oracle_fingerprint(final_store, stream);
    if (live_fp != want_fp) {
      std::printf("LIVE ARM FINGERPRINT MISMATCH vs offline rebuild of the "
                  "merged corpus\n");
      ok = false;
    } else {
      std::printf("live post-compaction state matches offline rebuild "
                  "(%016" PRIx64 ")\n",
                  live_fp);
    }
    for (std::uint64_t e = 2; e <= mgr.epoch(); ++e) {
      std::remove((copt.out_prefix + ".e" + std::to_string(e)).c_str());
    }
  }

  // Overload arm: a tiny ring and per-query deadlines force the typed
  // shedding paths. Clients back off on OVERLOAD using the engine's retry
  // hint and give up once the deadline passes; the accounting below proves
  // every query ended in exactly one typed outcome.
  if (overload) {
    service::QueryEngine::Options opt = base;
    opt.cache_entries = 0;
    opt.queue_capacity = overload_queue;
    opt.max_batch = std::max<std::size_t>(overload_queue / 2, 1);
    service::QueryEngine engine(snap, opt);
    std::vector<std::uint64_t> served(clients, 0), timed_out(clients, 0),
        shed(clients, 0);
    std::vector<std::vector<std::uint64_t>> lat(clients);
    Timer wall;
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients; ++c) {
      const std::size_t lo = queries * c / clients;
      const std::size_t hi = queries * (c + 1) / clients;
      threads.emplace_back([&, c, lo, hi] {
        service::Request req;
        for (std::size_t i = lo; i < hi; ++i) {
          service::Query q = stream[i];
          q.deadline_ns = service::QueryEngine::now_ns() +
                          overload_deadline_ms * 1'000'000ull;
          Timer t;
          bool settled = false;
          while (!settled) {
            req.query = q;
            switch (engine.try_submit_ex(req)) {
              case service::Admit::kOk:
                service::QueryEngine::wait(req);
                if (req.outcome() == service::Request::Outcome::kTimeout) {
                  ++timed_out[c];
                } else {
                  ++served[c];
                  lat[c].push_back(
                      static_cast<std::uint64_t>(t.seconds() * 1e9));
                }
                settled = true;
                break;
              case service::Admit::kExpired:
                ++timed_out[c];
                settled = true;
                break;
              default:  // kRingFull / kShed: back off, give up at deadline
                if (service::QueryEngine::now_ns() >= q.deadline_ns) {
                  ++shed[c];
                  settled = true;
                  break;
                }
                std::this_thread::sleep_for(std::chrono::nanoseconds(
                    std::min<std::uint64_t>(engine.retry_after_ns(),
                                            200'000)));
                break;
            }
          }
        }
      });
    }
    for (auto& t : threads) t.join();
    const double secs = wall.seconds();
    std::uint64_t n_served = 0, n_timeout = 0, n_shed = 0;
    for (std::size_t c = 0; c < clients; ++c) {
      n_served += served[c];
      n_timeout += timed_out[c];
      n_shed += shed[c];
    }
    std::vector<std::uint64_t> all;
    for (auto& l : lat) all.insert(all.end(), l.begin(), l.end());
    const double p99_ms = percentile(all, 0.99) / 1e3;
    const auto st = engine.stats();
    std::printf("overload: %" PRIu64 " served, %" PRIu64 " timed out, %" PRIu64
                " shed of %" PRIu64 " in %.2fs (served p99 %.2f ms, engine "
                "shed=%" PRIu64 " timeouts=%" PRIu64 ")\n",
                n_served, n_timeout, n_shed, queries, secs, p99_ms,
                st.shed_overload, st.timeouts);
    if (n_served + n_timeout + n_shed != queries) {
      std::printf("OVERLOAD ACCOUNTING MISMATCH: outcomes do not sum to the "
                  "query count\n");
      ok = false;
    }
    if (assert_overload && n_timeout + n_shed == 0) {
      std::printf("OVERLOAD ASSERT: expected at least one shed or timed-out "
                  "query\n");
      ok = false;
    }
    if (assert_timeout && n_timeout == 0) {
      std::printf("OVERLOAD ASSERT: expected at least one timed-out query\n");
      ok = false;
    }
    if (assert_p99_ms > 0 && p99_ms > assert_p99_ms) {
      std::printf("OVERLOAD ASSERT: served p99 %.2f ms exceeds bound %.2f "
                  "ms\n",
                  p99_ms, assert_p99_ms);
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
