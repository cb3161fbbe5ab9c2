// The server Handler over one QueryEngine: batmap_serve's replies.
//
// Queries run batched through the engine's admission queue, or with
// `naive` one at a time on the connection thread through execute_serial
// (the reference mode for differential runs); both arms map their outcome
// to a reply through one function, so they stay reply-identical. RELOAD
// hot-swaps the snapshot and remembers the last good path, which a bare
// RELOAD (and SIGHUP) re-loads.
//
// The shard-internal X verb, which batmap_router sends, runs synchronously
// on the connection thread against the published state (delta included),
// bypassing batching and admission: the router owns cross-shard
// admission. All ids are LOCAL set ids on this shard; elements are u64.
//
//   X Z                          -> OK <universe> <n> <support>...  handshake
//   X J <g> <lid>...             -> OK <m> <e>...  semi-join start: the
//                                   intersection of the g sets' effective
//                                   membership (exact domain)
//   X I <g> <lid>... <m> <e>...  -> OK <m'> <e>...  semi-join hop: fold the
//                                   g sets into the incoming list
//   X RJ <lid>                   -> OK <m> <e>...  stored (raw-domain) list
//   X RI <lid> <m> <e>...        -> OK <c>  |stored ∩ list| (the raw count
//                                   the S verb is defined in)
//   X T <k> <xlid> <m> <e>...    -> OK <c> <lid>:<cnt>...  rank local sets
//                                   against the list; xlid 4294967295 =
//                                   exclude nothing. One bit test per
//                                   stored element against a bitmap of
//                                   the list while the universe's bitmap
//                                   (⌈u/64⌉ words) is no larger than the
//                                   shard's stored elements; one gallop
//                                   per set past that
//
// Errors: "ERR BADREQ bad X request" for grammar, including an element
// list that is not strictly increasing; the shared RANGE line for
// out-of-range ids.
#pragma once

#include <mutex>
#include <string>

#include "service/query_engine.hpp"
#include "service/server.hpp"
#include "service/snapshot_manager.hpp"

namespace repro::service {

class EngineHandler final : public Handler {
 public:
  /// `snapshot_path` is what `mgr` serves: the first bare-RELOAD target.
  EngineHandler(SnapshotManager& mgr, QueryEngine& engine, bool naive,
                std::string snapshot_path);

  Reply execute(const Query& q, std::uint64_t deadline_ns) override;
  std::string stats_line() override;
  std::string reload(const std::string& path) override;
  std::string shard_verb(const std::string& line) override;

 private:
  SnapshotManager& mgr_;
  QueryEngine& engine_;
  const bool naive_;
  std::mutex path_mu_;
  std::string path_;  ///< last successfully served snapshot
};

}  // namespace repro::service
