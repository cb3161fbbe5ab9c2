// batmap_serve — line-protocol query server over a batmap snapshot, with
// hot snapshot reload, deadline-aware admission, and graceful drain.
//
//   batmap_serve --snapshot snap.bin                 # serve stdin/stdout
//   batmap_serve --snapshot snap.bin --port 7070     # serve TCP clients
//   batmap_serve --snapshot snap.bin --port 0        # ephemeral TCP port
//
// With --port, "LISTENING <port>" goes to stdout (flushed) before the
// accept loop starts; --port 0 binds an ephemeral port, so orchestrators
// (the router smoke test, multi-shard benches) parse that line instead of
// racing for free ports.
//
// Protocol (one request per line, one reply line per request; the verbs
// every front end shares live in src/service/server.hpp, the engine's
// replies and the X forms in src/service/engine_handler.hpp):
//
//   I <a> <b> [ms]   exact |S_a ∩ S_b|            -> "OK <count>"
//   S <a> <b> [ms]   raw (unpatched) sweep count  -> "OK <count>"
//   T <a> <k> [ms]   top-k most similar to S_a    -> "OK <m> id:count ..."
//   K <k> <id>... [ms]  exact k-way |∩ S_id|, k in [2,8] -> "OK <count>"
//   R <k> <id>... [ms]  association-rule score: the last id is the
//                    consequent -> "OK <joint> <antecedent>"
//   A <set> <id>...  insert ids into S_set (live delta) -> "OK <recorded>"
//   D <set> <id>...  delete ids from S_set (tombstones) -> "OK <recorded>"
//   FLUSH            compact the delta into a new snapshot epoch
//                    -> "FLUSHED epoch=<e>"
//   RELOAD [path]    hot-swap the snapshot        -> "RELOADED epoch=<e>"
//   STATS            engine counters              -> "STATS k=v k=v ..."
//   FINGERPRINT      FNV-1a over this connection's results -> "FP <hex>"
//   X <form> ...     shard-internal verb for batmap_router (semi-join
//                    hops, top-k scatter, handshake). Replies never
//                    advance the fingerprint; STATS counts them as
//                    x_queries.
//   QUIT             close the connection
//
// The optional trailing [ms] is a per-request deadline in milliseconds;
// --deadline-ms sets a default for requests that omit it. Writes take no
// deadline: once admitted they always apply, and "OK <recorded>" counts
// the ops that changed visible membership (re-adding a present id records
// nothing). An acknowledged write is visible to every later read at once,
// but the delta lives only in memory: it survives a restart only once a
// FLUSHED (or background compaction) epoch holds it. A write shed
// because the delta is over budget replies "ERR OVERLOAD delta_full
// retry_ms=<n>" — FLUSH (or the background compactor; see --compact-ops /
// --compact-age-ms) drains the delta into a fresh epoch. Reads merge
// base + delta transparently, so every query kind observes acknowledged
// writes immediately.
//
// Request lines are parsed by a strict tokenizer (src/service/protocol.*,
// shared with batmap_router so both front ends reject and reply
// byte-identically): every numeric field must be a plain decimal (no
// sign, no hex, no overflow) and the token count must match the command
// exactly — a negative id or trailing garbage is ERR BADREQ, never a
// silently reinterpreted query.
//
// Error replies are typed — the first token after ERR is machine-parseable:
//
//   ERR BADREQ <hint>        malformed or oversized request line
//   ERR RANGE <hint>         id or k out of range for the serving snapshot
//   ERR OVERLOAD retry_ms=<n>  admission shed (ring full / token gate);
//                              retry after the hinted backoff
//   ERR TIMEOUT <hint>       deadline expired before execution
//   ERR RELOAD <reason>      swap rejected; the old snapshot keeps serving
//
// Error replies do not advance the fingerprint, so a script of valid
// queries has a deterministic digest regardless of interleaved errors —
// the service-smoke CI job relies on this to cross-check the batched
// server against a --naive run, and the router-smoke job to cross-check
// topologies.
//
// Lifecycle: SIGHUP re-loads the last successfully served snapshot path
// (atomic swap: a bad file is rejected and the current epoch keeps
// serving). SIGTERM/SIGINT stop accepting work, drain every admitted
// request, print a final STATS line to stderr, and exit 0. All blocking IO
// is poll()-based with a stop check, so shutdown is prompt no matter which
// thread the signal lands on.
//
// One engine serves every connection: concurrent clients' requests meet in
// the submission queue and coalesce into micro-batches. --naive bypasses
// the engine's queue/batch/cache path and answers each request with the
// one-query-at-a-time reference execution (for differential runs).
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>

#include "service/delta_layer.hpp"
#include "service/engine_handler.hpp"
#include "service/query_engine.hpp"
#include "service/server.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/args.hpp"

using namespace repro;

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::string snapshot_path =
      args.str("snapshot", "", "snapshot file (required)");
  const std::string port_s =
      args.str("port", "",
               "TCP port on 127.0.0.1; 0 binds an ephemeral port and prints "
               "LISTENING <port> on stdout (default: serve stdin/stdout)");
  const std::uint64_t cache = args.u64("cache", 4096, "result cache entries");
  const std::uint64_t batch = args.u64("batch", 256, "max micro-batch size");
  const std::uint64_t queue = args.u64("queue", 1024, "admission queue slots");
  const std::uint64_t threads = args.u64("threads", 1, "top-k sweep threads");
  const std::uint64_t shards = args.u64("shards", 1, "top-k sweep shards");
  const std::uint64_t deadline_ms = args.u64(
      "deadline-ms", 0, "default per-request deadline (0 = none)");
  const std::uint64_t max_line =
      args.u64("max-line", 1048576,
               "longest accepted request line, bytes (router hops carry "
               "element lists)");
  const double admit_rate = args.f64(
      "admit-rate", 0.0, "token-gate admission rate, queries/s (0 = off)");
  const double admit_burst =
      args.f64("admit-burst", 64.0, "token-gate burst size");
  const bool naive =
      args.flag("naive", false, "answer one query at a time (reference mode)");
  const std::uint64_t compact_ops = args.u64(
      "compact-ops", 0, "background-compact at this many pending ops (0 = off)");
  const std::uint64_t compact_age_ms = args.u64(
      "compact-age-ms", 0,
      "background-compact when the oldest pending op is this old (0 = off)");
  const std::string compact_layout =
      args.str("compact-layout", "auto",
               "row layout policy for compacted snapshots "
               "(batmap|auto|dense|list|wah)");
  const std::string compact_prefix = args.str(
      "compact-prefix", "",
      "emitted snapshot path prefix (default: <snapshot>.compact)");
  args.finish();
  if (snapshot_path.empty()) {
    std::fprintf(stderr, "batmap_serve: --snapshot is required\n");
    return 2;
  }
  std::optional<std::uint16_t> port;
  if (!service::parse_port(port_s, port)) {
    std::fprintf(stderr, "batmap_serve: bad --port '%s'\n", port_s.c_str());
    return 2;
  }
  service::install_signal_handlers(/*reload_on_hup=*/true);

  try {
    service::SnapshotManager mgr(service::Snapshot::open(snapshot_path));
    service::QueryEngine::Options opt;
    opt.cache_entries = cache;
    opt.max_batch = batch;
    opt.queue_capacity = queue;
    opt.sweep_threads = threads;
    opt.sweep_shards = shards;
    opt.admit_rate = admit_rate;
    opt.admit_burst = admit_burst;
    service::QueryEngine engine(mgr, opt);
    // Constructed after the engine so it is destroyed first: the FLUSH hook
    // below runs on the thread that runs the engine's batch (a connection
    // thread or the batch worker), which must never outlive the compactor
    // it calls into.
    service::Compactor::Options copt;
    copt.out_prefix =
        compact_prefix.empty() ? snapshot_path + ".compact" : compact_prefix;
    const auto cmode = service::parse_layout_mode(compact_layout);
    if (!cmode) {
      std::fprintf(stderr, "batmap_serve: unknown --compact-layout '%s'\n",
                   compact_layout.c_str());
      return 2;
    }
    copt.layout = *cmode;
    copt.trigger_ops = compact_ops;
    copt.max_age_ms = compact_age_ms;
    service::Compactor compactor(mgr, engine.delta(), copt);
    engine.set_flush_hook([&compactor] { return compactor.compact_now(); });
    compactor.start_background();
    service::EngineHandler handler(mgr, engine, naive, snapshot_path);
    {
      const service::ServingStateRef st = mgr.current();
      const service::Snapshot& snap = st->snapshot();
      std::fprintf(stderr,
                   "batmap_serve: %zu sets, universe %" PRIu64
                   ", epoch %" PRIu64 ", %.1f MiB mapped%s\n",
                   snap.size(), snap.universe(), snap.epoch(),
                   static_cast<double>(snap.mapped_bytes()) / (1 << 20),
                   naive ? " [naive mode]" : "");
    }
    const int rc = service::run_server(handler, port,
                                       {.name = "batmap_serve",
                                        .max_line = max_line,
                                        .default_deadline_ms = deadline_ms});
    // Graceful drain: every admitted request completes, then the final
    // counters go to stderr for the operator regardless of how the
    // connections ended.
    engine.drain();
    std::fprintf(stderr, "batmap_serve: %s\n", handler.stats_line().c_str());
    return rc;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "batmap_serve: %s\n", e.what());
    return 2;
  }
}
