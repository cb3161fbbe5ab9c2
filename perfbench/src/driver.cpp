// perfbench_driver — one run of the serving benchmark.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    --rundir DIR --serve PATH --router PATH
//                    [--trace-out FILE] [--smoke 1] [--corrupt-oracle 1]
//
// Builds the workload's corpus from the seed, sets the program up five
// times (store build, layout plan, snapshot write or shard cut, then
// batmap_serve / batmap_router start until LISTENING; the median is
// setup_s), and drives the last fleet over TCP from 4 closed-loop
// connections. Every reply is compared with the offline BatmapStore
// oracle, and each connection's FINGERPRINT with the oracle's fold; on the
// live workload every write must acknowledge its known count and, after a
// final FLUSH, a replayed read stream must match an offline rebuild of the
// written corpus. Any mismatch exits 1 without a result.
//
// --trace 0 reports the end-to-end metrics; --trace 1 splits the same
// time into an untraced and a span-recording TCP phase, reads STATS from
// every process around it, then replays the stream in-process against
// each layer's public calls (trace.cpp) for the per-layer metrics.
//
// The last stdout line is "RESULT {json}" with correct/attempted/failed
// and the metrics; run.py turns it into the benchmark's output line.
#include "driver.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "batmap/simd.hpp"
#include "harness.hpp"
#include "router/shard_map.hpp"
#include "service/protocol.hpp"
#include "util/args.hpp"
#include "util/fnv.hpp"

namespace perfbench {

std::vector<const Op*> read_ops(const Run& run) {
  std::vector<const Op*> out;
  for (const auto& ops : run.streams.per_client) {
    for (const Op& op : ops) {
      if (op.kind != Kind::kWrite) out.push_back(&op);
    }
  }
  return out;
}

namespace {

namespace fs = std::filesystem;
namespace service = repro::service;

double secs_between(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(b - a) / 1e9;
}

/// The processes serving one workload: shards (if any) and the front end
/// the clients connect to.
struct Fleet {
  std::vector<std::unique_ptr<Proc>> shards;
  std::unique_ptr<Proc> front;

  std::vector<Proc*> all() const {
    std::vector<Proc*> out;
    for (const auto& p : shards) out.push_back(p.get());
    if (front) out.push_back(front.get());
    return out;
  }
};

void flush_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

std::string shard_path(const Run& run, std::uint32_t s) {
  return run.rundir + "/shard." + std::to_string(s) + ".snap";
}

std::string compact_prefix(const Run& run) {
  return run.rundir + "/live.compact";
}

/// One timed set-up. Leaves the store and layouts in `run`.
Fleet setup_once(Run& run, int rep) {
  SetupTimes t;
  const std::uint64_t t0 = now_ns();
  run.store.reset();
  run.store.emplace(build_store(run.corpus));
  const std::uint64_t t1 = now_ns();
  run.layouts = service::plan_layouts(*run.store, run.spec.layout);
  const std::uint64_t t2 = now_ns();
  const std::uint32_t nshards = run.spec.shards;
  repro::router::ShardMap::Partition part;
  if (nshards == 0) {
    service::write_snapshot(*run.store, run.main_snap, 1, run.layouts);
  } else {
    // batmap_cli shard-split: byte-exact rows per ShardMap owner.
    part = repro::router::ShardMap(repro::router::ShardMap::Options{nshards})
               .partition(static_cast<std::uint32_t>(run.store->size()));
    for (std::uint32_t s = 0; s < nshards; ++s) {
      std::vector<repro::core::RowLayout> sub;
      for (const std::uint32_t gid : part.owned[s]) sub.push_back(run.layouts[gid]);
      service::write_snapshot(*run.store, shard_path(run, s), 1, sub,
                              part.owned[s]);
    }
  }
  const std::uint64_t t3 = now_ns();
  Fleet fleet;
  const std::string log = run.rundir + "/rep" + std::to_string(rep);
  if (nshards == 0) {
    std::vector<std::string> argv = {run.serve_bin, "--snapshot", run.main_snap,
                                     "--port", "0"};
    if (run.spec.compact_ops > 0) {
      argv.insert(argv.end(), {"--compact-ops", std::to_string(run.spec.compact_ops),
                               "--compact-prefix", compact_prefix(run)});
    }
    fleet.front = std::make_unique<Proc>(argv, log + ".serve.log");
  } else {
    std::string ports;
    for (std::uint32_t s = 0; s < nshards; ++s) {
      // Decimal X payloads of cross-shard semi-joins need long lines.
      fleet.shards.push_back(std::make_unique<Proc>(
          std::vector<std::string>{run.serve_bin, "--snapshot", shard_path(run, s),
                                   "--port", "0", "--max-line", "1048576"},
          log + ".shard" + std::to_string(s) + ".log"));
      if (s > 0) ports += ',';
      ports += std::to_string(fleet.shards.back()->port());
    }
    fleet.front = std::make_unique<Proc>(
        std::vector<std::string>{run.router_bin, "--shards", ports, "--port", "0"},
        log + ".router.log");
  }
  const std::uint64_t t4 = now_ns();
  t.build_s = secs_between(t0, t1);
  t.plan_s = secs_between(t1, t2);
  t.write_s = secs_between(t2, t3);
  t.total_s = secs_between(t0, t4);
  run.setups.push_back(t);
  return fleet;
}

struct Span {
  std::uint64_t start = 0, end = 0;
  std::uint8_t kind = 0;
};

/// One closed-loop connection and everything it observed.
struct Client {
  std::unique_ptr<LineClient> conn;
  const std::vector<Op>* ops = nullptr;
  std::size_t idx = 0, cycle = 0;
  std::size_t first_pass = 0;  ///< ops of the first pass through the stream sent
  repro::util::Fnv1a fp;       ///< the oracle's fold of what was sent
  bool fp_known = true;        ///< false once an unpredictable read was folded
  bool lost = false;
  std::array<std::uint64_t, kKinds> attempted{}, errors{}, mismatches{};
  std::map<std::string, std::uint64_t> err_types;
  /// Every request sent in the current phase's measured window; a traced
  /// phase writes these out as its client spans.
  std::vector<Span> window;
  std::string first_mismatch;
};

void drive(Client& c, std::uint64_t warm_end, std::uint64_t stop) {
  std::string reply;
  const auto& ops = *c.ops;
  while (!c.lost) {
    const std::uint64_t t0 = now_ns();
    if (t0 >= stop) break;
    const Op& op = ops[c.idx];
    // Writes apply once: later passes over the stream replay reads only.
    if (c.cycle == 0 || op.kind != Kind::kWrite) {
      const auto k = static_cast<std::size_t>(op.kind);
      ++c.attempted[k];
      if (!c.conn->call(op.line, reply)) {
        c.lost = true;
        break;
      }
      const std::uint64_t t1 = now_ns();
      if (reply.rfind("ERR", 0) == 0) {
        ++c.errors[k];
        const std::size_t sp = reply.find(' ', 4);
        ++c.err_types[reply.substr(4, sp == std::string::npos ? sp : sp - 4)];
      } else if (!op.expect.empty()) {
        if (reply != op.expect) {
          if (c.mismatches[k]++ == 0) {
            c.first_mismatch = op.line + " -> " + reply + " (want " + op.expect + ")";
          }
        }
        service::proto::fold_result(c.fp, op.q, op.result);
      } else {
        c.fp_known = false;
      }
      if (t0 >= warm_end) {
        c.window.push_back({t0, t1, static_cast<std::uint8_t>(k)});
      }
      if (c.cycle == 0) c.first_pass = c.idx + 1;
    }
    if (++c.idx == ops.size()) {
      c.idx = 0;
      ++c.cycle;
    }
  }
}

/// The measured window is cut into equal slices, and qps and the latency
/// percentiles are medians over slices: a few seconds of hypervisor steal
/// (other guests on the host) then move one slice, not the result.
constexpr int kSlices = 5;

struct PhaseResult {
  double qps = 0;
  std::optional<double> p50, p99;  ///< nullopt = flagged (too few samples)
  std::array<std::vector<std::uint64_t>, kKinds> lat;  ///< whole window
  std::size_t samples = 0;
};

/// Median over slices when every slice supports the percentile, else the
/// whole window's (which may itself be flagged).
std::optional<double> sliced_percentile(
    const std::array<std::vector<std::uint64_t>, kSlices>& slices,
    const std::vector<std::uint64_t>& all, double p) {
  std::vector<double> per;
  for (const auto& sl : slices) {
    if (const auto v = percentile_us(sl, p)) per.push_back(*v);
  }
  if (per.size() == kSlices) return median(per);
  return percentile_us(all, p);
}

/// Runs every client for warmup + measure seconds; latencies and the
/// completed count come from requests sent after the warmup.
PhaseResult run_phase(std::vector<Client>& clients, double warmup,
                      double measure) {
  for (auto& c : clients) c.window.clear();
  const std::uint64_t start = now_ns();
  const auto warm_end = start + static_cast<std::uint64_t>(warmup * 1e9);
  const auto slice_ns = static_cast<std::uint64_t>(measure * 1e9 / kSlices);
  const auto stop = warm_end + slice_ns * kSlices;
  std::vector<std::thread> threads;
  for (auto& c : clients) {
    threads.emplace_back([&c, warm_end, stop] { drive(c, warm_end, stop); });
  }
  for (auto& t : threads) t.join();
  PhaseResult r;
  std::array<std::vector<std::uint64_t>, kSlices> slices;
  std::vector<std::uint64_t> all;
  for (const auto& c : clients) {
    for (const Span& s : c.window) {
      const std::uint64_t ns = s.end - s.start;
      slices[std::min<std::uint64_t>((s.start - warm_end) / slice_ns, kSlices - 1)]
          .push_back(ns);
      r.lat[s.kind].push_back(ns);
      all.push_back(ns);
    }
  }
  std::vector<double> qps;
  for (const auto& sl : slices) {
    qps.push_back(static_cast<double>(sl.size()) / (static_cast<double>(slice_ns) / 1e9));
  }
  r.qps = median(qps);
  r.p50 = sliced_percentile(slices, all, 0.50);
  r.p99 = sliced_percentile(slices, all, 0.99);
  r.samples = all.size();
  return r;
}

std::string stats_of(std::uint16_t port) {
  LineClient c(port);
  std::string reply;
  if (!c.call("STATS", reply)) throw std::runtime_error("STATS failed");
  return reply;
}

std::string fp_hex(std::uint64_t v) {
  char tmp[32];
  std::snprintf(tmp, sizeof(tmp), "FP %016" PRIx64, v);
  return tmp;
}

/// Per-connection FINGERPRINT against the oracle fold. Connections whose
/// stream held unpredictable reads (live) are skipped.
bool check_fingerprints(Run& run, std::vector<Client>& clients) {
  bool ok = true;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    Client& c = clients[i];
    if (c.lost || !c.fp_known) continue;
    std::uint64_t want = c.fp.digest();
    if (run.corrupt_oracle && i == 0) want ^= 1;
    std::string reply;
    if (!c.conn->call("FINGERPRINT", reply)) {
      c.lost = true;
      continue;
    }
    if (reply != fp_hex(want)) {
      std::printf("ORACLE MISMATCH: connection %zu fingerprint %s, oracle %s\n", i,
                  reply.c_str(), fp_hex(want).c_str());
      ok = false;
    }
  }
  return ok;
}

/// Live workload gate: FLUSH, then a fresh connection replays reads that
/// must match an offline rebuild of base + every acknowledged write.
/// Returns the epoch serving afterwards (0 on failure).
std::uint64_t check_live_final(Run& run, std::uint16_t port,
                               const std::vector<Client>& clients,
                               Corpus& model) {
  std::vector<std::size_t> sent;
  for (const auto& c : clients) sent.push_back(c.first_pass);
  model = apply_writes(run.corpus, run.streams, sent);
  const auto rebuilt = build_store(model);
  std::vector<Op*> replay;
  for (Op& op : run.streams.replay) replay.push_back(&op);
  answer_reads(replay, rebuilt, model.sets, 4);

  LineClient c(port);
  std::string reply;
  if (!c.call("FLUSH", reply) || reply.rfind("FLUSHED epoch=", 0) != 0) {
    std::printf("ORACLE MISMATCH: FLUSH replied '%s'\n", reply.c_str());
    return 0;
  }
  const std::uint64_t epoch = std::stoull(reply.substr(14));
  repro::util::Fnv1a fp;
  std::uint64_t bad = 0;
  for (const Op* op : replay) {
    if (!c.call(op->line, reply)) return 0;
    if (reply != op->expect && bad++ == 0) {
      std::printf("replay mismatch: %s -> %s (want %s)\n", op->line.c_str(),
                  reply.c_str(), op->expect.c_str());
    }
    service::proto::fold_result(fp, op->q, op->result);
  }
  std::uint64_t want = fp.digest();
  if (run.corrupt_oracle) want ^= 1;
  if (!c.call("FINGERPRINT", reply) || reply != fp_hex(want) || bad != 0) {
    std::printf("ORACLE MISMATCH: post-FLUSH replay (%" PRIu64
                " reply mismatches, fingerprint %s, oracle %s)\n",
                bad, reply.c_str(), fp_hex(want).c_str());
    return 0;
  }
  return epoch;
}

void write_spans(const Run& run, const std::vector<Client>& clients) {
  if (run.trace_out.empty()) return;
  std::ofstream f(run.trace_out);
  f << "client\tspan\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < clients.size(); ++i) {
    std::size_t n = 0;
    for (const Span& s : clients[i].window) {
      f << i << '\t' << n++ << "\ttcp." << kKindName[s.kind] << '\t' << s.start
        << '\t' << s.end << '\n';
    }
  }
}

void print_json(const Run& run, bool correct, std::uint64_t attempted,
                std::uint64_t failed) {
  std::string out = "RESULT {\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < run.metrics.size(); ++i) {
    const Metric& m = run.metrics[i];
    char v[64];
    std::snprintf(v, sizeof(v), "%.17g", m.value);
    out += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + v +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

int run_benchmark(Run& run, bool trace) {
  const Spec& spec = run.spec;
  std::printf("workload %s seed %" PRIu64 ": generating corpus\n",
              spec.name.c_str(), run.seed);
  run.corpus = make_corpus(spec, run.seed);
  run.main_snap = run.rundir + "/main.snap";

  // Five set-ups; the last fleet serves the run.
  Fleet fleet;
  for (int rep = 0; rep < 5; ++rep) {
    fleet = Fleet{};  // reap the previous fleet before rewriting its files
    fleet = setup_once(run, rep);
  }
  std::vector<double> totals;
  for (const auto& t : run.setups) totals.push_back(t.total_s);
  const double setup_s = median(totals);
  std::printf("corpus: %zu sets, universe %" PRIu64 ", %" PRIu64
              " elements; setup median %.4f s\n",
              run.corpus.sets.size(), run.corpus.universe, run.corpus.elements(),
              setup_s);

  // Write the fresh snapshots back now, so the kernel's delayed writeback
  // does not land inside the measured window (not timed).
  for (const auto& entry : fs::directory_iterator(run.rundir)) {
    if (entry.path().extension() == ".snap") flush_file(entry.path().string());
  }

  // Streams and the offline oracle (not timed).
  run.streams = make_streams(spec, run.corpus, run.seed, run.clients);
  const bool live = spec.write_pm > 0;
  if (!live) {
    std::vector<Op*> ops;
    for (auto& s : run.streams.per_client) {
      for (Op& op : s) ops.push_back(&op);
    }
    answer_reads(ops, *run.store, run.corpus.sets, 4);
  }

  std::vector<Client> clients(run.clients);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].conn = std::make_unique<LineClient>(fleet.front->port());
    clients[i].ops = &run.streams.per_client[i];
  }
  std::vector<std::map<std::string, std::uint64_t>> stats_before;
  const double warmup = std::min(1.0, 0.1 * run.seconds);
  PhaseResult phase, untraced;
  double rss_mib = 0;
  if (!trace) {
    // Summed VmRSS of the fleet, sampled every 100 ms under load.
    std::vector<double> rss_samples;
    std::atomic<bool> loading{true};
    std::thread sampler([&] {
      while (loading.load()) {
        std::uint64_t kib = 0;
        for (Proc* p : fleet.all()) kib += p->status_kib("VmRSS:");
        rss_samples.push_back(static_cast<double>(kib) / 1024.0);
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
      }
    });
    phase = run_phase(clients, warmup, run.seconds);
    loading.store(false);
    sampler.join();
    rss_mib = median(rss_samples);
  } else {
    untraced = run_phase(clients, warmup, 0.25 * run.seconds);
    for (Proc* p : fleet.all()) stats_before.push_back(parse_stats(stats_of(p->port())));
    phase = run_phase(clients, 0, 0.25 * run.seconds);
    write_spans(run, clients);
  }

  bool correct = check_fingerprints(run, clients);
  // Failure accounting per kind: attempted, ERR by type, oracle
  // mismatches; lost connections count once each.
  std::uint64_t attempted = 0, failed = 0, mismatched = 0, lost = 0;
  std::array<std::uint64_t, kKinds> k_att{}, k_err{}, k_mis{};
  std::map<std::string, std::uint64_t> err_types;
  for (const auto& c : clients) {
    for (int k = 0; k < kKinds; ++k) {
      k_att[k] += c.attempted[k];
      k_err[k] += c.errors[k];
      k_mis[k] += c.mismatches[k];
    }
    for (const auto& [type, n] : c.err_types) err_types[type] += n;
    if (c.lost) ++lost;
    if (!c.first_mismatch.empty()) {
      std::printf("ORACLE MISMATCH: %s\n", c.first_mismatch.c_str());
    }
  }
  for (int k = 0; k < kKinds; ++k) {
    attempted += k_att[k];
    failed += k_err[k];
    mismatched += k_mis[k];
    if (k_att[k] > 0) {
      std::printf("  %s: attempted %" PRIu64 ", ERR %" PRIu64 ", mismatched %" PRIu64
                  "\n",
                  kKindName[k], k_att[k], k_err[k], k_mis[k]);
    }
  }
  for (const auto& [type, n] : err_types) {
    std::printf("  ERR %s: %" PRIu64 "\n", type.c_str(), n);
  }
  failed += lost;
  if (mismatched > 0) correct = false;

  std::vector<std::map<std::string, std::uint64_t>> stats_after;
  if (trace) {
    for (Proc* p : fleet.all()) stats_after.push_back(parse_stats(stats_of(p->port())));
  }

  // Bytes per stored element of what the program maps (final epoch on the
  // live workload, summed over shards when sharded).
  std::uint64_t snap_bytes = 0;
  std::uint64_t elements = run.corpus.elements();
  if (live) {
    Corpus model;
    const std::uint64_t epoch =
        check_live_final(run, fleet.front->port(), clients, model);
    if (epoch == 0) correct = false;
    const std::string final_snap = compact_prefix(run) + ".e" + std::to_string(epoch);
    snap_bytes = fs::exists(final_snap) ? fs::file_size(final_snap)
                                        : fs::file_size(run.main_snap);
    elements = model.elements();
  } else if (spec.shards == 0) {
    snap_bytes = fs::file_size(run.main_snap);
  } else {
    for (std::uint32_t s = 0; s < spec.shards; ++s) {
      snap_bytes += fs::file_size(shard_path(run, s));
    }
  }
  // The peak (VmHWM) is printed only: on live_skewed it depends on whether
  // a compaction's old and new epochs were resident at one instant, which
  // varies run to run; the metric is the median resident set under load.
  std::uint64_t hwm_kib = 0;
  for (Proc* p : fleet.all()) hwm_kib += p->status_kib("VmHWM:");
  std::printf("server memory: median VmRSS under load %.2f MiB, VmHWM %.2f MiB "
              "(summed over processes)\n",
              rss_mib, static_cast<double>(hwm_kib) / 1024.0);
  clients.clear();  // close connections before the fleet drains
  for (Proc* p : fleet.all()) {
    const int status = p->reap();
    if (status != 0) std::printf("warning: a server exited with status %d\n", status);
  }

  const double fail_ratio =
      attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 0;
  std::printf("attempted %" PRIu64 ", failed %" PRIu64 " (lost connections %" PRIu64
              "), fail_ratio %.6f, oracle mismatches %" PRIu64 "\n",
              attempted, failed, lost, fail_ratio, mismatched);

  const auto p50 = phase.p50;
  const auto p99 = phase.p99;
  std::printf("latency over %zu samples (median of %d slices): p50 %s us, p99 %s us\n",
              phase.samples, kSlices,
              p50 ? std::to_string(*p50).c_str() : "FLAGGED",
              p99 ? std::to_string(*p99).c_str() : "FLAGGED");
  std::array<std::optional<double>, kKinds> kind_p50;
  for (int k = 0; k < kKinds; ++k) {
    if (phase.lat[k].empty()) continue;
    kind_p50[k] = percentile_us(phase.lat[k], 0.50);
    std::printf("  %s_p50_us %s over %zu samples\n", kKindName[k],
                kind_p50[k] ? std::to_string(*kind_p50[k]).c_str() : "FLAGGED",
                phase.lat[k].size());
  }

  if (!trace) {
    if (!p50 || !p99) {
      std::printf("a reported percentile has fewer than 10 samples beyond it\n");
      return 1;
    }
    run.add("qps", phase.qps, "1/s");
    run.add("p50_us", *p50, "us");
    run.add("p99_us", *p99, "us");
    run.add("setup_s", setup_s, "s");
    run.add("bytes_per_elem",
            static_cast<double>(snap_bytes) / static_cast<double>(elements), "B");
    run.add("server_rss_mib", rss_mib, "MiB");
  } else {
    // STATS deltas over the traced phase, summed over every process (the
    // router's line already sums its shards).
    std::map<std::string, std::uint64_t> d;
    const std::size_t front = stats_after.size() - 1;
    for (const char* key : {"queries", "batches", "cache_hits", "cache_misses",
                            "strip_pairs", "cyclic_pairs", "kway_list",
                            "kway_sweep", "shed", "timeouts"}) {
      d[key] = stat_delta(stats_before[front], stats_after[front], key);
    }
    const auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
    run.add("trace.qps_ratio", ratio(phase.qps, untraced.qps), "ratio");
    run.add("trace.tcp_p50_us", p50.value_or(0), "us");
    run.add("engine.batch_mean", ratio(d["queries"], d["batches"]), "count");
    run.add("engine.cache_hit_ratio",
            ratio(d["cache_hits"], d["cache_hits"] + d["cache_misses"]), "ratio");
    run.add("engine.strip_pair_ratio",
            ratio(d["strip_pairs"], d["strip_pairs"] + d["cyclic_pairs"]), "ratio");
    run.add("engine.kway_sweep_ratio",
            ratio(d["kway_sweep"], d["kway_sweep"] + d["kway_list"]), "ratio");
    run.add("engine.shed", static_cast<double>(d["shed"]), "count");
    run.add("engine.timeouts", static_cast<double>(d["timeouts"]), "count");
    std::vector<double> b, p, w;
    for (const auto& t : run.setups) {
      b.push_back(t.build_s);
      p.push_back(t.plan_s);
      w.push_back(t.write_s);
    }
    run.add("snapshot.build_s", median(b), "s");
    run.add("snapshot.plan_s", median(p), "s");
    run.add("snapshot.write_s", median(w), "s");
    if (!trace_in_process(run, p50.value_or(0))) correct = false;
  }

  if (!correct) {
    std::printf("oracle gate failed: no metrics reported\n");
    return 1;
  }
  print_json(run, correct, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  repro::Args args(argc, argv);
  Run run;
  const std::string workload = args.str("workload", "", "workload name");
  run.seed = args.u64("seed", 1, "corpus and stream seed");
  run.seconds = args.f64("seconds", 10, "measured seconds");
  const bool trace = args.u64("trace", 0, "1 = traced per-layer run") != 0;
  run.rundir = args.str("rundir", "", "scratch dir of this run");
  run.trace_out = args.str("trace-out", "", "spans file of a traced run");
  run.serve_bin = args.str("serve", "", "batmap_serve binary");
  run.router_bin = args.str("router", "", "batmap_router binary");
  const bool smoke = args.u64("smoke", 0, "1 = smoke-scale corpora") != 0;
  run.corrupt_oracle =
      args.u64("corrupt-oracle", 0, "1 = corrupt one expected fingerprint") != 0;
  args.finish();

#ifndef NDEBUG
  std::fprintf(stderr, "refusing a build with assertions on (Debug)\n");
  return 2;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  std::fprintf(stderr, "refusing a sanitizer build\n");
  return 2;
#endif
  if (std::getenv("REPRO_KERNEL") != nullptr) {
    std::fprintf(stderr, "refusing a forced kernel tier (REPRO_KERNEL is set)\n");
    return 2;
  }
  if (run.rundir.empty() || run.serve_bin.empty() || run.router_bin.empty()) {
    std::fprintf(stderr, "--rundir, --serve and --router are required\n");
    return 2;
  }
  install_child_reaper();
  try {
    run.spec = workload_spec(workload, smoke);
    std::printf("simd tier %s\n",
                repro::batmap::simd::tier_name(repro::batmap::simd::active_tier()));
    const int rc = run_benchmark(run, trace);
    kill_all_children();
    return rc;
  } catch (const std::exception& e) {
    std::printf("benchmark failed: %s\n", e.what());
    kill_all_children();
    return 1;
  }
}
