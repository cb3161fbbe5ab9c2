// The traced run's in-process replays: the workload's requests go through
// each layer's public calls from the benchmark's own code, timed around
// the call, so each layer's share of a TCP round trip has a name.
//
//   serve     proto::parse_request / format_result / fold_result
//   engine    QueryEngine::submit + wait from the client threads on
//             Options{} (the server's defaults), execute_one alone
//   kernel    Snapshot::intersection_size / raw_count; the bytes one top-k
//             sweep reads
//   snapshot  Snapshot::open; layout mix and element-section share
//   delta     reads and commuting writes through DeltaLayer with
//             Compactor::compact_now triggered at the server's op count
//   router    RouterCore::execute over a 2-shard cut of the corpus against
//             ShardClient::request to one unsplit batmap_serve
//
// Layers a workload leaves idle are still measured on its corpus (probes
// of the missing query kinds; a synthetic 20% commuting-write mix for the
// delta replay; a 2-shard cut for the router), so every workload reports
// the same per-layer metrics.
#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <thread>

#include "driver.hpp"
#include "harness.hpp"
#include "router/router_core.hpp"
#include "router/shard_client.hpp"
#include "router/shard_map.hpp"
#include "service/delta_layer.hpp"
#include "service/protocol.hpp"
#include "service/snapshot_manager.hpp"

namespace perfbench {

namespace {

namespace service = repro::service;
namespace fs = std::filesystem;

struct Timed {
  std::uint64_t start = 0, end = 0;
  std::uint8_t kind = 0;
};

std::vector<std::uint64_t> durations(const std::vector<Timed>& v, int kind = -1) {
  std::vector<std::uint64_t> out;
  for (const Timed& t : v) {
    if (kind < 0 || t.kind == kind) out.push_back(t.end - t.start);
  }
  return out;
}

double pct(const std::vector<std::uint64_t>& ns, double p, const char* what) {
  double used = p;
  const double v = supported_percentile_us(ns, p, used);
  if (used != p) {
    std::printf("  flagged: %s p%g has too few samples beyond it (%zu samples); "
                "reporting p%g\n",
                what, p * 100, ns.size(), used * 100);
  }
  return v;
}

void append_spans(const Run& run, const char* name, const std::vector<Timed>& v) {
  if (run.trace_out.empty()) return;
  std::ofstream f(run.trace_out, std::ios::app);
  std::size_t n = 0;
  for (const Timed& t : v) {
    f << "-\t" << n++ << '\t' << name << '\t' << t.start << '\t' << t.end << '\n';
  }
}

/// Read requests of the kinds the stream lacks, drawn over the corpus.
std::vector<Op> probes(const Run& run, const std::vector<const Op*>& reads) {
  std::array<bool, kKinds> have{};
  for (const Op* op : reads) have[static_cast<int>(op->kind)] = true;
  const auto n = static_cast<std::uint32_t>(run.corpus.sets.size());
  std::vector<Op> out;
  for (std::uint32_t i = 0; i < 64; ++i) {
    if (!have[static_cast<int>(Kind::kPair)]) {
      Op op;
      op.q.kind = service::QueryKind::kIntersect;
      op.q.a = (i * 7919) % n;
      op.q.b = (op.q.a + 1 + i) % n;
      out.push_back(op);
    }
    if (!have[static_cast<int>(Kind::kTopk)]) {
      Op op;
      op.verb = 'T';
      op.kind = Kind::kTopk;
      op.q.kind = service::QueryKind::kTopK;
      op.q.a = (i * 7919) % n;
      op.q.k = 10;
      out.push_back(op);
    }
    if (!have[static_cast<int>(Kind::kKway)]) {
      Op op;
      op.verb = 'K';
      op.kind = Kind::kKway;
      op.q.kind = service::QueryKind::kKway;
      op.q.nids = 3;
      for (std::uint32_t j = 0; j < 3; ++j) op.q.ids[j] = (i * 7919 + j * 104729) % n;
      op.q.a = op.q.ids[0];
      out.push_back(op);
    }
  }
  return out;
}

bool same(const service::Result& a, const service::Result& b) {
  if (a.value != b.value || a.aux != b.aux || a.topk_count != b.topk_count) return false;
  for (std::uint32_t i = 0; i < a.topk_count; ++i) {
    if (a.topk[i].id != b.topk[i].id || a.topk[i].count != b.topk[i].count) return false;
  }
  return true;
}

// ---- serve -----------------------------------------------------------------

void trace_protocol(Run& run, const std::vector<const Op*>& reads) {
  const std::size_t n = std::min<std::size_t>(reads.size(), 100000);
  std::uint64_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    sink += service::proto::parse_request(reads[i]->line).q.a;
  }
  std::uint64_t t1 = now_ns();
  run.add("serve.parse_ns", static_cast<double>(t1 - t0) / static_cast<double>(n), "ns");
  t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    sink += service::proto::format_result(reads[i]->result, reads[i]->verb).size();
  }
  t1 = now_ns();
  run.add("serve.format_ns", static_cast<double>(t1 - t0) / static_cast<double>(n), "ns");
  repro::util::Fnv1a fp;
  t0 = now_ns();
  for (std::size_t i = 0; i < n; ++i) {
    service::proto::fold_result(fp, reads[i]->q, reads[i]->result);
  }
  t1 = now_ns();
  run.add("serve.fold_ns", static_cast<double>(t1 - t0) / static_cast<double>(n), "ns");
  if ((sink ^ fp.digest()) == 42) std::printf(" ");  // keep the loops live
}

// ---- engine + kernel + snapshot ---------------------------------------------

struct EngineOut {
  double wait_p50_us = 0;
  bool ok = true;
};

EngineOut trace_engine(Run& run, const service::Snapshot& snap, double budget) {
  EngineOut out;
  service::QueryEngine engine(snap, service::QueryEngine::Options{});
  const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget * 1e9);
  std::vector<std::vector<Timed>> submit(run.clients), wait(run.clients);
  std::vector<std::uint64_t> topk(run.clients, 0), bad(run.clients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < run.clients; ++c) {
    threads.emplace_back([&, c] {
      service::Request req;
      const auto& ops = run.streams.per_client[c];
      for (std::size_t i = 0; now_ns() < stop; i = (i + 1) % ops.size()) {
        const Op& op = ops[i];
        if (op.kind == Kind::kWrite) continue;
        req.query = op.q;
        const std::uint64_t t0 = now_ns();
        engine.submit(req);
        const std::uint64_t t1 = now_ns();
        service::QueryEngine::wait(req);
        const std::uint64_t t2 = now_ns();
        const auto k = static_cast<std::uint8_t>(op.kind);
        submit[c].push_back({t0, t1, k});
        wait[c].push_back({t1, t2, k});
        if (op.kind == Kind::kTopk) ++topk[c];
        if (req.outcome() != service::Request::Outcome::kOk ||
            (!op.expect.empty() && !same(req.result(), op.result))) {
          ++bad[c];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  std::vector<Timed> all_submit, all_wait;
  std::uint64_t topk_n = 0, bad_n = 0;
  for (std::size_t c = 0; c < run.clients; ++c) {
    all_submit.insert(all_submit.end(), submit[c].begin(), submit[c].end());
    all_wait.insert(all_wait.end(), wait[c].begin(), wait[c].end());
    topk_n += topk[c];
    bad_n += bad[c];
  }
  if (bad_n > 0) {
    std::printf("ORACLE MISMATCH: %" PRIu64 " in-process engine answers\n", bad_n);
    out.ok = false;
  }
  double submit_sum = 0;
  for (const Timed& t : all_submit) submit_sum += static_cast<double>(t.end - t.start);
  run.add("engine.submit_ns",
          all_submit.empty() ? 0 : submit_sum / static_cast<double>(all_submit.size()),
          "ns");
  const auto w = durations(all_wait);
  out.wait_p50_us = pct(w, 0.50, "engine.wait");
  run.add("engine.wait_p50_us", out.wait_p50_us, "us");
  run.add("engine.wait_p99_us", pct(w, 0.99, "engine.wait"), "us");
  for (int k = 0; k < kKinds; ++k) {
    const auto wk = durations(all_wait, k);
    if (wk.size() > 20) {
      std::printf("  engine.wait %s p50 %.3f us over %zu\n", kKindName[k],
                  pct(wk, 0.50, "engine.wait"), wk.size());
    }
  }
  const auto st = engine.stats();
  run.add("engine.topk_shared_ratio",
          topk_n ? static_cast<double>(st.duplicate_topk) / static_cast<double>(topk_n) : 0,
          "ratio");
  append_spans(run, "engine.wait", all_wait);
  return out;
}

/// execute_one alone on one thread: the kernel work of each request kind.
double trace_exec(Run& run, const service::Snapshot& snap,
                  const std::vector<const Op*>& reads, double budget,
                  double& topk_us) {
  service::QueryEngine engine(snap, service::QueryEngine::Options{});
  std::vector<Timed> exec;
  const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget * 1e9);
  for (std::size_t i = 0; now_ns() < stop; i = (i + 1) % reads.size()) {
    const std::uint64_t t0 = now_ns();
    const service::Result r = engine.execute_one(reads[i]->q);
    exec.push_back({t0, now_ns(), static_cast<std::uint8_t>(reads[i]->kind)});
    if (r.value == ~0ull) std::printf(" ");
  }
  const double mix_p50 = pct(durations(exec), 0.50, "engine.exec");
  // Kinds the stream lacks: time probes over the same corpus.
  const std::vector<Op> extra = probes(run, reads);
  const std::uint64_t probe_stop = now_ns() + 2'000'000'000ull;
  for (int round = 0; round < 4 && now_ns() < probe_stop; ++round) {
    for (const Op& op : extra) {
      const std::uint64_t t0 = now_ns();
      const service::Result r = engine.execute_one(op.q);
      exec.push_back({t0, now_ns(), static_cast<std::uint8_t>(op.kind)});
      if (r.value == ~0ull) std::printf(" ");
    }
  }
  const char* names[] = {"engine.exec_pair_us", "engine.exec_topk_us",
                         "engine.exec_kway_us"};
  for (int k = 0; k < 3; ++k) {
    const double v = pct(durations(exec, k), 0.50, names[k]);
    run.add(names[k], v, "us");
    if (k == static_cast<int>(Kind::kTopk)) topk_us = v;
  }
  return mix_p50;
}

void trace_kernel(Run& run, const service::Snapshot& snap,
                  const std::vector<const Op*>& reads, double topk_us) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
  for (const Op* op : reads) {
    if (op->kind == Kind::kPair) pairs.emplace_back(op->q.a, op->q.b);
    if (pairs.size() == 50000) break;
  }
  const auto n = static_cast<std::uint32_t>(snap.size());
  for (std::uint32_t i = 0; pairs.size() < 2000; ++i) {
    pairs.emplace_back((i * 7919) % n, (i * 7919 + 1 + i) % n);
  }
  std::uint64_t sink = 0;
  std::uint64_t t0 = now_ns();
  for (const auto& [a, b] : pairs) sink += snap.intersection_size(a, b);
  std::uint64_t t1 = now_ns();
  run.add("kernel.pair_ns",
          static_cast<double>(t1 - t0) / static_cast<double>(pairs.size()), "ns");
  t0 = now_ns();
  for (const auto& [a, b] : pairs) sink += snap.raw_count(a, b);
  t1 = now_ns();
  run.add("kernel.raw_ns",
          static_cast<double>(t1 - t0) / static_cast<double>(pairs.size()), "ns");
  if (sink == 42) std::printf(" ");
  // A top-k request compares its probe row against every row once: the
  // payload bytes it reads are the snapshot's whole words section.
  double bytes = 0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    bytes += 4.0 * static_cast<double>(snap.words(i).size());
  }
  run.add("kernel.topk_bytes", bytes, "B");
  run.add("kernel.topk_gbps", topk_us > 0 ? bytes / (topk_us * 1e3) : 0, "GB/s");
}

void trace_snapshot(Run& run) {
  std::vector<double> open_s;
  for (int i = 0; i < 3; ++i) {
    const std::uint64_t t0 = now_ns();
    const service::Snapshot s = service::Snapshot::open(run.main_snap);
    open_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  run.add("snapshot.open_s", median(open_s), "s");
  const service::Snapshot snap = service::Snapshot::open(run.main_snap);
  const auto br = snap.layout_breakdown();
  run.add("snapshot.rows_batmap", static_cast<double>(br.rows[0]), "count");
  run.add("snapshot.rows_dense", static_cast<double>(br.rows[1]), "count");
  run.add("snapshot.rows_list", static_cast<double>(br.rows[2]), "count");
  run.add("snapshot.rows_wah", static_cast<double>(br.rows[3]), "count");
  // The u64 element section, in its 64-byte-aligned runs.
  double elem_bytes = 0;
  for (std::size_t i = 0; i < snap.size(); ++i) {
    elem_bytes += static_cast<double>((snap.elements(i).size() * 8 + 63) / 64 * 64);
  }
  run.add("snapshot.elements_share",
          elem_bytes / static_cast<double>(snap.mapped_bytes()), "ratio");
}

// ---- delta ------------------------------------------------------------------

bool trace_delta(Run& run, double budget) {
  // The live workload replays its own stream; the others a 20% commuting
  // write mix over their corpus.
  Streams synthetic;
  const Streams* streams = &run.streams;
  if (run.spec.write_pm == 0) {
    Spec s = run.spec;
    s.write_pm = 200;
    s.ops_per_client = std::min<std::size_t>(s.ops_per_client, 20000);
    synthetic = make_streams(s, run.corpus, run.seed ^ 0xde17aull, run.clients);
    streams = &synthetic;
  }
  const std::uint64_t trigger = run.spec.compact_ops ? run.spec.compact_ops : 4096;

  service::SnapshotManager mgr(service::Snapshot::open(run.main_snap));
  service::QueryEngine engine(mgr, service::QueryEngine::Options{});
  service::Compactor::Options copt;
  copt.out_prefix = run.rundir + "/trace.compact";
  service::Compactor compactor(mgr, engine.delta(), copt);

  std::vector<Timed> compactions;
  std::uint64_t emitted = 0;
  std::uint64_t pending_max = 0;  // written by the trigger thread only
  std::mutex mu;                  // guards compactions and emitted
  const auto compact = [&] {
    const std::uint64_t t0 = now_ns();
    compactor.compact_now();
    const std::uint64_t t1 = now_ns();
    std::lock_guard lock(mu);
    emitted += mgr.current()->snapshot().mapped_bytes();
    compactions.push_back({t0, t1, 0});
  };
  // The server's count trigger (Compactor's 20 ms poll), timed from here.
  std::atomic<bool> stop_trigger{false}, stop_clients{false};
  std::thread trigger_thread([&] {
    while (!stop_trigger.load()) {
      const std::uint64_t pending = engine.delta().pending_ops();
      pending_max = std::max(pending_max, pending);
      if (pending >= trigger) compact();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  std::vector<std::vector<Timed>> reads(run.clients);
  std::vector<std::uint64_t> bad(run.clients, 0), recorded(run.clients, 0);
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < run.clients; ++c) {
    threads.emplace_back([&, c] {
      service::Request req;
      const auto& ops = streams->per_client[c];
      for (std::size_t i = 0, pass = 0; !stop_clients.load(); ++i) {
        if (i == ops.size()) {
          i = 0;
          ++pass;
        }
        const Op& op = ops[i];
        if (pass > 0 && op.kind == Kind::kWrite) continue;  // writes apply once
        req.query = op.q;
        const std::uint64_t t0 = now_ns();
        engine.submit(req);
        service::QueryEngine::wait(req);
        const std::uint64_t t1 = now_ns();
        if (req.outcome() != service::Request::Outcome::kOk) {
          ++bad[c];
        } else if (op.kind == Kind::kWrite) {
          if (req.result().value != op.q.nids) ++bad[c];
          recorded[c] += req.result().value;
        } else {
          reads[c].push_back({t0, t1, static_cast<std::uint8_t>(op.kind)});
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(budget));
  stop_trigger.store(true);
  trigger_thread.join();
  // The final FLUSH-equivalent cycle, with the clients still running so
  // reads meet at least one compaction.
  compact();
  stop_clients.store(true);
  for (auto& t : threads) t.join();

  std::uint64_t bad_n = 0, ops_n = 0;
  std::vector<Timed> all;
  for (std::size_t c = 0; c < run.clients; ++c) {
    bad_n += bad[c];
    ops_n += recorded[c];
    all.insert(all.end(), reads[c].begin(), reads[c].end());
  }
  std::vector<std::uint64_t> in, out;
  for (const Timed& r : all) {
    bool overlap = false;
    for (const Timed& s : compactions) overlap |= r.start < s.end && s.start < r.end;
    (overlap ? in : out).push_back(r.end - r.start);
  }
  std::vector<double> cs;
  for (const Timed& s : compactions) cs.push_back(static_cast<double>(s.end - s.start) / 1e9);
  run.add("delta.compact_s", median(cs), "s");
  run.add("delta.compactions", static_cast<double>(compactions.size()), "count");
  // Snapshot bytes the compactions wrote per byte of user ops (8 B per
  // recorded element op).
  run.add("delta.write_amp",
          ops_n ? static_cast<double>(emitted) / (8.0 * static_cast<double>(ops_n)) : 0,
          "ratio");
  run.add("delta.pending_max", static_cast<double>(pending_max), "count");
  run.add("delta.read_p99_in_compact_us", pct(in, 0.99, "delta.read in compaction"), "us");
  run.add("delta.read_p99_outside_compact_us",
          pct(out, 0.99, "delta.read outside compaction"), "us");
  append_spans(run, "delta.compact_now", compactions);
  if (bad_n > 0) {
    std::printf("ORACLE MISMATCH: %" PRIu64 " in-process live requests failed or "
                "mis-acknowledged\n",
                bad_n);
    return false;
  }
  return true;
}

// ---- router -----------------------------------------------------------------

bool trace_router(Run& run, const std::vector<const Op*>& reads, double budget) {
  // A fresh 2-shard cut and an unsplit server of the same base corpus.
  const auto part = repro::router::ShardMap(repro::router::ShardMap::Options{2})
                        .partition(static_cast<std::uint32_t>(run.store->size()));
  std::vector<std::unique_ptr<Proc>> shards;
  repro::router::RouterCore::Options ropt;
  for (std::uint32_t s = 0; s < 2; ++s) {
    std::vector<repro::core::RowLayout> sub;
    for (const std::uint32_t gid : part.owned[s]) sub.push_back(run.layouts[gid]);
    const std::string path = run.rundir + "/trace.shard." + std::to_string(s) + ".snap";
    service::write_snapshot(*run.store, path, 1, sub, part.owned[s]);
    shards.push_back(std::make_unique<Proc>(
        std::vector<std::string>{run.serve_bin, "--snapshot", path, "--port", "0",
                                 "--max-line", "1048576"},
        run.rundir + "/trace.shard" + std::to_string(s) + ".log"));
    ropt.ports.push_back(shards.back()->port());
  }
  Proc unsplit({run.serve_bin, "--snapshot", run.main_snap, "--port", "0"},
               run.rundir + "/trace.unsplit.log");

  std::vector<std::map<std::string, std::uint64_t>> before;
  for (const auto& p : shards) {
    LineClient c(p->port());
    std::string reply;
    c.call("STATS", reply);
    before.push_back(parse_stats(reply));
  }
  repro::router::RouterCore core(ropt);
  std::vector<Timed> routed, direct;
  std::uint64_t bad = 0;
  const std::uint64_t stop = now_ns() + static_cast<std::uint64_t>(budget * 1e9);
  std::size_t n = 0;
  for (; now_ns() < stop; ++n) {
    const Op& op = *reads[n % reads.size()];
    const std::uint64_t t0 = now_ns();
    const auto r = core.execute(op.q, 0);
    routed.push_back({t0, now_ns(), static_cast<std::uint8_t>(op.kind)});
    if (!r.ok || (!op.expect.empty() && !same(r.result, op.result))) ++bad;
  }
  {
    repro::router::ShardClient client(
        repro::router::ShardClient::Options{unsplit.port()});
    std::string reply;
    for (std::size_t i = 0; i < n; ++i) {
      const Op& op = *reads[i % reads.size()];
      const std::uint64_t t0 = now_ns();
      const auto io = client.request(op.line, 0, reply);
      direct.push_back({t0, now_ns(), static_cast<std::uint8_t>(op.kind)});
      if (io != repro::router::ShardClient::Io::kOk ||
          (!op.expect.empty() && reply != op.expect)) {
        ++bad;
      }
    }
  }
  std::vector<double> shard_q;
  for (std::size_t s = 0; s < shards.size(); ++s) {
    LineClient c(shards[s]->port());
    std::string reply;
    c.call("STATS", reply);
    shard_q.push_back(static_cast<double>(stat_delta(before[s], parse_stats(reply), "queries")));
  }
  const auto rs = parse_stats(core.stats_line());
  const auto get = [&rs](const char* k) {
    const auto it = rs.find(k);
    return it == rs.end() ? 0.0 : static_cast<double>(it->second);
  };
  const double exec_p50 = pct(durations(routed), 0.50, "router.execute");
  const double direct_p50 = pct(durations(direct), 0.50, "shard_client.request");
  for (int k = 0; k < 3; ++k) {
    const auto rk = durations(routed, k);
    const auto dk = durations(direct, k);
    if (rk.size() > 20 && dk.size() > 20) {
      std::printf("  router %s: execute p50 %.3f us, direct p50 %.3f us over %zu\n",
                  kKindName[k], pct(rk, 0.5, "router.execute"),
                  pct(dk, 0.5, "shard_client.request"), rk.size());
    }
  }
  run.add("router.execute_p50_us", exec_p50, "us");
  run.add("router.direct_p50_us", direct_p50, "us");
  run.add("router.overhead_us", exec_p50 - direct_p50, "us");
  const double queries = std::max(1.0, get("router_queries"));
  const double f1 = get("fanout_1"), f2 = get("fanout_2");
  run.add("router.fanout_mean", f1 + f2 > 0 ? (f1 + 2 * f2) / (f1 + f2) : 0, "count");
  run.add("router.semijoin_forwards_per_query", get("router_semijoin_forwards") / queries,
          "count");
  const double qmin = *std::min_element(shard_q.begin(), shard_q.end());
  const double qmax = *std::max_element(shard_q.begin(), shard_q.end());
  run.add("router.shard_query_skew", qmin > 0 ? qmax / qmin : qmax, "ratio");
  run.add("router.retries", get("router_retries"), "count");
  run.add("router.unavailable", get("router_unavailable"), "count");
  append_spans(run, "router.execute", routed);
  append_spans(run, "shard_client.request", direct);
  if (bad > 0) {
    std::printf("ORACLE MISMATCH: %" PRIu64 " routed or direct replay answers\n", bad);
    return false;
  }
  return true;
}

}  // namespace

bool trace_in_process(Run& run, double tcp_p50_us) {
  if (!fs::exists(run.main_snap)) {
    // Sharded workloads serve cuts; the in-process layers need the whole.
    service::write_snapshot(*run.store, run.main_snap, 1, run.layouts);
  }
  const std::vector<const Op*> reads = read_ops(run);
  const double s = run.seconds;
  trace_protocol(run, reads);
  const service::Snapshot snap = service::Snapshot::open(run.main_snap);
  const EngineOut eng = trace_engine(run, snap, 0.125 * s);
  double topk_us = 0;
  const double exec_p50 = trace_exec(run, snap, reads, 0.125 * s, topk_us);
  run.add("engine.overhead_us", eng.wait_p50_us - exec_p50, "us");
  run.add("serve.residual_us", tcp_p50_us - eng.wait_p50_us, "us");
  trace_kernel(run, snap, reads, topk_us);
  trace_snapshot(run);
  bool ok = eng.ok;
  ok = trace_delta(run, 0.2 * s) && ok;
  ok = trace_router(run, reads, 0.1 * s) && ok;
  return ok;
}

}  // namespace perfbench
