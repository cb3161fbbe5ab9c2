// Workload definitions for the serving benchmark: corpus generation from a
// seed, per-connection request streams, and the offline oracle that
// answers them from a BatmapStore (never from the serving code).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "batmap/intersect.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "util/fnv.hpp"

namespace perfbench {

/// Latency buckets of the end-to-end report.
enum class Kind : std::uint8_t { kPair = 0, kTopk = 1, kKway = 2, kWrite = 3 };
inline constexpr int kKinds = 4;
inline constexpr const char* kKindName[kKinds] = {"pair", "topk", "kway",
                                                  "write"};

struct Spec {
  std::string name;
  bool webdocs = false;          ///< webdocs-style zipf corpus instead of uniform
  std::uint32_t sets = 512;      ///< uniform corpus: sets
  std::uint32_t set_size = 1200;  ///< uniform corpus: elements per set
  std::uint64_t universe = 60000;  ///< uniform corpus: element universe
  std::uint32_t docs = 8000;     ///< webdocs corpus: documents (= universe)
  repro::service::LayoutMode layout = repro::service::LayoutMode::kBatmap;
  std::uint32_t shards = 0;      ///< 0 = one batmap_serve, else router + N
  // Request mix in permille (the rest are pairs, I:S = 3:1). Read ids are
  // zipf(1.1); T's k is uniform in 1..16, K/R's in 2..8; writes pick their
  // set uniformly.
  std::uint32_t topk_pm = 0;
  std::uint32_t kway_pm = 0;
  std::uint32_t write_pm = 0;
  std::uint64_t compact_ops = 0;  ///< batmap_serve --compact-ops (live only)
  std::size_t ops_per_client = 0;  ///< stream length per connection
};

/// A workload, or its smoke-scale variant. Throws on an unknown name.
Spec workload_spec(const std::string& name, bool smoke);

struct Corpus {
  std::uint64_t universe = 0;
  std::vector<std::vector<std::uint64_t>> sets;  ///< sorted, distinct
  std::uint64_t elements() const;
};

Corpus make_corpus(const Spec& spec, std::uint64_t seed);
/// Builds the store the program serves (default builder options, the ones
/// batmap_cli build and every compaction use).
repro::batmap::BatmapStore build_store(const Corpus& corpus);

struct Op {
  repro::service::Query q;
  char verb = 'I';
  Kind kind = Kind::kPair;
  std::string line;    ///< protocol request line
  std::string expect;  ///< expected reply line; empty = not checkable
  repro::service::Result result;  ///< expected result (checked ops only)
};

struct Streams {
  std::vector<std::vector<Op>> per_client;
  /// Live workloads: reads replayed after the final FLUSH, answered from
  /// the rebuilt model.
  std::vector<Op> replay;
};

/// Request streams for `clients` connections. Writes are commuting (each
/// add a unique (set, element) outside the base set, each delete a
/// distinct base element), so the final corpus does not depend on the
/// interleaving and every write's acknowledged count is known up front.
Streams make_streams(const Spec& spec, const Corpus& corpus,
                     std::uint64_t seed, std::size_t clients);

/// Fills expect/result of every read in `ops` from the offline store
/// (`sets` are its element lists). `threads` workers answer top-k.
void answer_reads(std::vector<Op*>& ops, const repro::batmap::BatmapStore& store,
                  const std::vector<std::vector<std::uint64_t>>& sets,
                  unsigned threads);

/// The corpus after applying the writes in `sent[c]` (a prefix length of
/// client c's stream).
Corpus apply_writes(const Corpus& base, const Streams& streams,
                    const std::vector<std::size_t>& sent);

}  // namespace perfbench
