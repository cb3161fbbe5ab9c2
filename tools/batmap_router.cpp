// batmap_router — sharded serving front end: speaks the batmap_serve
// client protocol and routes each query across a fleet of batmap_serve
// shards through a consistent-hash ShardMap (see src/router/).
//
//   batmap_router --shards 7071,7072,7073            # serve stdin/stdout
//   batmap_router --shards 7071,7072 --port 0        # ephemeral TCP port
//
// The shard fleet must serve a corpus cut by `batmap_cli shard-split`
// with the same --vnodes/--ring-seed; the startup handshake (X Z) fails
// loudly on any mismatch. Client-visible protocol, replies, typed errors,
// and FINGERPRINT folding are byte-identical to a single batmap_serve
// over the unsharded corpus — the router-smoke CI job diffs the two.
//
// Routing (details in src/router/router_core.hpp): single-shard queries
// forward directly with ids rewritten to shard-local; cross-shard pairs
// and k-way queries run as semi-join hops carrying the shrinking element
// list; top-k scatters to every shard and merges through the engine's
// canonical ranking. RELOAD/FLUSH fan out all-or-nothing; STATS
// aggregates shard gauges and appends router counters. Shard overload
// hints arm a per-shard retry horizon: queries touching a shedding shard
// are rejected router-side with `ERR OVERLOAD retry_ms=<n>` instead of
// piling on. One router-only error type exists: `ERR UNAVAILABLE
// shard=<s>` when a shard connection is down and the in-deadline retry
// failed.
//
// RELOAD semantics: a bare RELOAD tells every shard to re-load its own
// last snapshot path; `RELOAD <prefix>` makes shard s load
// "<prefix>.<s>.snap" (shard-split's naming). Lifecycle (signals, drain,
// LISTENING line, stdio vs TCP) is batmap_serve's: both run through
// src/service/server.
#include <cinttypes>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "router/router_core.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "util/args.hpp"
#include "util/check.hpp"

using namespace repro;
namespace proto = repro::service::proto;

namespace {

/// "7071,7072,7073" -> ports. Empty/invalid entries fail.
bool parse_ports(const std::string& s, std::vector<std::uint16_t>& out) {
  std::size_t i = 0;
  while (i <= s.size()) {
    std::size_t j = s.find(',', i);
    if (j == std::string::npos) j = s.size();
    std::uint32_t p = 0;
    if (!proto::parse_u32(std::string_view(s).substr(i, j - i), p) || p == 0 ||
        p > 65535) {
      return false;
    }
    out.push_back(static_cast<std::uint16_t>(p));
    i = j + 1;
  }
  return !out.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Args args(argc, argv);
  const std::string shards_s = args.str(
      "shards", "", "comma-separated batmap_serve ports on 127.0.0.1");
  const std::string port_s =
      args.str("port", "",
               "TCP port on 127.0.0.1; 0 binds an ephemeral port and prints "
               "LISTENING <port> on stdout (default: serve stdin/stdout)");
  const std::uint64_t vnodes =
      args.u64("vnodes", router::ShardMap::Options{}.vnodes,
               "consistent-hash ring points per shard");
  const std::uint64_t ring_seed = args.u64(
      "ring-seed", router::ShardMap::Options{}.seed, "consistent-hash salt");
  const std::uint64_t deadline_ms = args.u64(
      "deadline-ms", 0, "default per-request deadline (0 = none)");
  const std::uint64_t max_line =
      args.u64("max-line", 4096, "longest accepted request line, bytes");
  args.finish();
  if (shards_s.empty()) {
    std::fprintf(stderr, "batmap_router: --shards is required\n");
    return 2;
  }
  router::RouterCore::Options opt;
  if (!parse_ports(shards_s, opt.ports)) {
    std::fprintf(stderr, "batmap_router: bad --shards '%s'\n",
                 shards_s.c_str());
    return 2;
  }
  opt.vnodes = static_cast<std::uint32_t>(vnodes);
  opt.ring_seed = ring_seed;
  std::optional<std::uint16_t> port;
  if (!service::parse_port(port_s, port)) {
    std::fprintf(stderr, "batmap_router: bad --port '%s'\n", port_s.c_str());
    return 2;
  }
  service::install_signal_handlers(/*reload_on_hup=*/false);

  try {
    router::RouterCore core(opt);
    std::fprintf(stderr,
                 "batmap_router: %u shards, %u sets, universe %" PRIu64 "\n",
                 core.shard_count(), core.total_sets(), core.universe());
    const int rc = service::run_server(core, port,
                                       {.name = "batmap_router",
                                        .max_line = max_line,
                                        .default_deadline_ms = deadline_ms});
    std::fprintf(stderr, "batmap_router: %s\n", core.stats_line().c_str());
    return rc;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "batmap_router: %s\n", e.what());
    return 2;
  }
}
