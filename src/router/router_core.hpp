// The sharded serving tier's routing engine: speaks the client-facing
// query protocol on one side and the per-shard batmap_serve protocol
// (including the internal X verb) on the other.
//
// Topology: every shard serves the slice of a common corpus that the
// shared ShardMap assigns it (cut by `batmap_cli shard-split`), addressed
// by dense local ids. The router owns the global<->local translation and
// keeps one ShardClient per shard: a pool of connections, each carrying
// one request at a time, so router threads reach a shard concurrently.
//
// Routing rules per verb:
//   I/S/A/D  both/all ids on one shard -> direct forward (ids translated);
//            cross-shard I/S run as a two-hop semi-join: fetch the probe
//            row (X J exact / X RJ stored), intersect at the other owner
//            (X I / X RI).
//   T        fetch S_a's membership at its owner (X J), scatter X T with
//            that list to every shard at once (per-shard k' = k prefetch,
//            probe set excluded on its owner; all lines are sent before
//            any reply is read, so latency is the slowest shard's), merge
//            through the engine's canonical (count desc, id asc) ranking
//            with global ids.
//   K/R      all operands on one shard -> direct forward; otherwise
//            semi-join (ROADMAP 5b): group operands by owning shard,
//            visit groups in ascending min-support order starting at the
//            shard owning the smallest operand, and forward the shrinking
//            intermediate element list (X J first hop, X I after). R adds
//            one final hop for the consequent; an empty intermediate
//            short-circuits the rest.
//   FLUSH/RELOAD fan out to every shard with all-or-nothing reporting;
//            RELOAD re-handshakes (X Z) so a corpus swap that changes the
//            partition is caught instead of silently misrouted.
//   STATS    aggregates shard gauges (sums; epoch and max_batch take the
//            max) and appends router-local counters: fanout histogram,
//            semi-join forwards, backpressure rejections, retries.
//
// Backpressure: a shard's `ERR OVERLOAD retry_ms=<n>` reply arms that
// shard's retry horizon; until it passes, every query touching the shard
// is rejected at the router with `ERR OVERLOAD retry_ms=<max remaining>`
// instead of piling onto the shedding shard. Deadlines propagate with the
// router hop's budget decremented: each forwarded line carries the
// remaining milliseconds, and every hop re-checks before sending.
//
// Error vocabulary is the serve vocabulary plus one router-only type:
// `ERR UNAVAILABLE shard=<s>` when a shard connection is down and the
// in-deadline retry failed. Error replies never advance the fingerprint,
// so valid-query streams fingerprint byte-identically across topologies.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "router/shard_client.hpp"
#include "router/shard_map.hpp"
#include "service/query_engine.hpp"
#include "service/server.hpp"

namespace repro::router {

class RouterCore final : public service::Handler {
 public:
  static constexpr std::uint32_t kMaxShards = 64;

  struct Options {
    std::vector<std::uint16_t> ports;  ///< one batmap_serve per port
    std::uint32_t vnodes = ShardMap::Options{}.vnodes;
    std::uint64_t ring_seed = ShardMap::Options{}.seed;
    std::size_t max_reply = 1u << 22;
  };

  /// Connects and handshakes (X Z) with every shard; throws CheckError
  /// when a shard is unreachable or the per-shard set counts don't match
  /// the ShardMap partition (corpus split with different parameters).
  explicit RouterCore(Options opt);

  /// Executes one read, write or FLUSH query. deadline_ns == 0 means
  /// none.
  Reply execute(const service::Query& q, std::uint64_t deadline_ns) override;

  /// RELOAD: with an empty prefix every shard reloads its own last path;
  /// otherwise shard s reloads "<prefix>.<s>.snap" (shard-split's naming).
  /// All-or-nothing reporting, then a re-handshake revalidates the
  /// partition against the reloaded corpus. Returns the reply line.
  std::string reload(const std::string& prefix) override;
  std::string stats_line() override;

  std::uint32_t total_sets() const { return total_; }
  std::uint64_t universe() const { return universe_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(clients_.size());
  }
  const ShardMap::Partition& partition() const { return part_; }

 private:
  enum class Hop { kOk, kErrLine, kUnavailable, kTimeout };

  /// One exchange with shard `s`, retrying once through a lazy reconnect
  /// on connection failure (reads are idempotent; writes pass
  /// `retry=false` and surface the failure instead).
  Hop exchange(std::uint32_t s, const std::string& line,
               std::uint64_t deadline_ns, std::string& reply, bool retry);
  /// exchange() after its send: reads the reply to `line`, already sent
  /// to shard `s` on `fd` (ShardClient::send, -1 when that failed).
  Hop finish(std::uint32_t s, const std::string& line, int fd,
             std::uint64_t deadline_ns, std::string& reply, bool retry);

  /// Arms shard s's backpressure horizon if `reply` is an OVERLOAD.
  void note_overload(std::uint32_t s, const std::string& reply);
  /// True when any shard in `mask` is inside its retry horizon; fills the
  /// worst remaining hint.
  bool gated(std::uint64_t mask, std::uint64_t& retry_ms);

  Reply execute_impl(const service::Query& q, std::uint64_t deadline_ns,
                     std::uint64_t& touched);
  Reply forward_parsed(std::uint32_t s, const std::string& line,
                       std::uint64_t deadline_ns, const service::Query& q);
  /// Semi-join over global set ids (caller holds state_mu_ shared). On
  /// failure fills `err` with the full typed error line.
  Hop semi_join_ids(std::span<const std::uint32_t> gids,
                    std::uint64_t deadline_ns,
                    std::vector<std::uint64_t>& list, std::string& err);

  void handshake();  ///< X Z all shards, rebuild partition + supports
  Reply flush();     ///< fans FLUSH out; result.value = the newest epoch

  Options opt_;
  std::vector<std::unique_ptr<ShardClient>> clients_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> retry_until_ns_;

  /// Guards the corpus-shape state below: queries read under a shared
  /// lock, the post-RELOAD re-handshake swaps under an exclusive one.
  mutable std::shared_mutex state_mu_;
  std::uint32_t total_ = 0;
  std::uint64_t universe_ = 0;
  ShardMap::Partition part_;
  std::vector<std::uint64_t> supports_;  ///< by global id (planning only)

  // Router-local counters (STATS).
  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> direct_forwards_{0};
  std::atomic<std::uint64_t> scatter_topk_{0};
  std::atomic<std::uint64_t> semi_join_queries_{0};
  std::atomic<std::uint64_t> semi_join_forwards_{0};
  std::atomic<std::uint64_t> backpressure_rejections_{0};
  std::atomic<std::uint64_t> overloads_seen_{0};
  std::atomic<std::uint64_t> retries_{0};
  std::atomic<std::uint64_t> unavailable_{0};
  std::atomic<std::uint64_t> fanout_hist_[kMaxShards + 1] = {};
};

}  // namespace repro::router
