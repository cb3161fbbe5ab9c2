#include "workload.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <iterator>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "mining/datagen.hpp"
#include "service/protocol.hpp"
#include "util/rng.hpp"

namespace perfbench {

using repro::Xoshiro256;
using repro::service::Query;
using repro::service::QueryKind;
using repro::service::Result;

namespace {

/// Zipf(theta) over [0, n) by inverse CDF.
class Zipf {
 public:
  Zipf(std::size_t n, double theta) : n_(n), cdf_(n) {
    double total = 0;
    for (std::size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), theta);
      cdf_[i] = total;
    }
    for (auto& c : cdf_) c /= total;
  }

  std::uint32_t operator()(Xoshiro256& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.uniform());
    return static_cast<std::uint32_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), static_cast<std::ptrdiff_t>(n_) - 1));
  }

 private:
  std::size_t n_;
  std::vector<double> cdf_;
};

std::string format_line(const Op& op) {
  const Query& q = op.q;
  std::string s(1, op.verb);
  const auto put = [&s](std::uint64_t v) {
    s.push_back(' ');
    s += std::to_string(v);
  };
  switch (op.verb) {
    case 'I':
    case 'S': put(q.a); put(q.b); break;
    case 'T': put(q.a); put(q.k); break;
    case 'K':
    case 'R':
      put(q.nids);
      for (std::uint32_t i = 0; i < q.nids; ++i) put(q.ids[i]);
      break;
    default:  // 'A' / 'D'
      put(q.a);
      for (std::uint32_t i = 0; i < q.nids; ++i) put(q.ids[i]);
      break;
  }
  return s;
}

/// Sets the protocol line and re-reads the query from it, so the query the
/// oracle folds is exactly the one the server parses and folds.
void finish(Op& op) {
  op.line = format_line(op);
  const auto parsed = repro::service::proto::parse_request(op.line);
  if (!parsed.ok) throw std::logic_error("benchmark wrote a bad line: " + op.line);
  op.q = parsed.q;
}

/// Per-set write state: base elements still deletable, and a cursor over
/// the complement for fresh adds.
struct WriteState {
  std::vector<std::uint64_t> deletable;
  std::uint64_t cursor = 0;
  std::uint64_t scanned = 0;
};

Op make_read(const Spec& spec, std::uint32_t nsets, const Zipf& zipf,
             Xoshiro256& rng, std::uint32_t draw) {
  Op op;
  Query& q = op.q;
  if (draw < spec.topk_pm) {
    op.verb = 'T';
    op.kind = Kind::kTopk;
    q.kind = QueryKind::kTopK;
    q.a = zipf(rng);
    q.k = 1 + static_cast<std::uint32_t>(rng.below(16));
  } else if (draw < spec.topk_pm + spec.kway_pm) {
    const bool rule = rng.below(2) == 1;
    op.verb = rule ? 'R' : 'K';
    op.kind = Kind::kKway;
    q.kind = rule ? QueryKind::kRuleScore : QueryKind::kKway;
    q.nids = static_cast<std::uint8_t>(2 + rng.below(7));
    for (std::uint32_t i = 0; i < q.nids; ++i) q.ids[i] = zipf(rng);
  } else {
    const bool support = rng.below(4) == 0;
    op.verb = support ? 'S' : 'I';
    op.kind = Kind::kPair;
    q.kind = support ? QueryKind::kSupport : QueryKind::kIntersect;
    q.a = zipf(rng);
    q.b = zipf(rng);
    if (q.b == q.a) q.b = (q.a + 1) % nsets;
  }
  finish(op);
  return op;
}

/// A commuting write to a uniformly chosen set; nids == 0 when that set
/// has nothing left to add or delete.
Op make_write(const Corpus& corpus, std::vector<WriteState>& ws,
              Xoshiro256& rng) {
  Op op;
  op.kind = Kind::kWrite;
  Query& q = op.q;
  const auto set = static_cast<std::uint32_t>(rng.below(corpus.sets.size()));
  q.a = set;
  const std::size_t want = 1 + rng.below(4);
  WriteState& w = ws[set];
  const auto& base = corpus.sets[set];
  if (rng.below(4) == 0 && !w.deletable.empty()) {
    op.verb = 'D';
    q.kind = QueryKind::kDelete;
    while (q.nids < want && !w.deletable.empty()) {
      q.ids[q.nids++] = static_cast<std::uint32_t>(w.deletable.back());
      w.deletable.pop_back();
    }
  } else {
    op.verb = 'A';
    q.kind = QueryKind::kAdd;
    while (q.nids < want && w.scanned < corpus.universe) {
      const std::uint64_t e = w.cursor;
      w.cursor = (w.cursor + 1) % corpus.universe;
      ++w.scanned;
      if (!std::binary_search(base.begin(), base.end(), e)) {
        q.ids[q.nids++] = static_cast<std::uint32_t>(e);
      }
    }
  }
  if (q.nids == 0) return op;  // nothing left for this set: caller reads instead
  finish(op);
  op.expect = "OK " + std::to_string(q.nids);
  op.result.value = q.nids;
  return op;
}

std::uint64_t kway_fold(const std::vector<std::vector<std::uint64_t>>& sets,
                        const Query& q, std::uint64_t& ante) {
  std::vector<std::uint64_t> cur = sets[q.ids[0]];
  std::vector<std::uint64_t> next;
  ante = cur.size();
  for (std::uint32_t j = 1; j < q.nids; ++j) {
    const auto& other = sets[q.ids[j]];
    next.clear();
    std::set_intersection(cur.begin(), cur.end(), other.begin(), other.end(),
                          std::back_inserter(next));
    cur.swap(next);
    if (j + 2 == q.nids) ante = cur.size();
  }
  return cur.size();
}

}  // namespace

Spec workload_spec(const std::string& name, bool smoke) {
  Spec s;
  s.name = name;
  if (name == "pair_point") {
    s.ops_per_client = 30000;
  } else if (name == "sharded_mix") {
    s.shards = 2;
    s.topk_pm = 50;
    s.kway_pm = 100;
    s.ops_per_client = 8000;
  } else if (name == "live_skewed") {
    s.webdocs = true;
    s.layout = repro::service::LayoutMode::kAuto;
    s.topk_pm = 5;
    s.kway_pm = 50;
    s.write_pm = 200;
    s.compact_ops = 1024;
    s.ops_per_client = 80000;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  if (smoke) {
    s.sets = 96;
    s.set_size = 200;
    s.universe = 8000;
    s.docs = 600;
    s.compact_ops = std::min<std::uint64_t>(s.compact_ops, 256);
    s.ops_per_client = 1500;
  }
  return s;
}

std::uint64_t Corpus::elements() const {
  std::uint64_t n = 0;
  for (const auto& s : sets) n += s.size();
  return n;
}

Corpus make_corpus(const Spec& spec, std::uint64_t seed) {
  Corpus c;
  if (spec.webdocs) {
    // batmap_cli gen --dist webdocs --docs N, inverted to per-word doc sets.
    repro::mining::WebDocsSpec ws;
    ws.num_docs = spec.docs;
    ws.seed = seed;
    const auto db = repro::mining::webdocs_like(ws);
    c.universe = db.num_transactions();
    for (const auto& list : db.vertical()) {
      c.sets.emplace_back(list.begin(), list.end());
    }
    return c;
  }
  c.universe = spec.universe;
  Xoshiro256 rng(seed);
  std::vector<std::uint8_t> seen(spec.universe, 0);
  c.sets.resize(spec.sets);
  for (auto& s : c.sets) {
    s.reserve(spec.set_size);
    while (s.size() < spec.set_size) {
      const std::uint64_t e = rng.below(spec.universe);
      if (!seen[e]) {
        seen[e] = 1;
        s.push_back(e);
      }
    }
    for (const std::uint64_t e : s) seen[e] = 0;
    std::sort(s.begin(), s.end());
  }
  return c;
}

repro::batmap::BatmapStore build_store(const Corpus& corpus) {
  repro::batmap::BatmapStore store(corpus.universe);
  for (const auto& s : corpus.sets) store.add(s);
  return store;
}

Streams make_streams(const Spec& spec, const Corpus& corpus,
                     std::uint64_t seed, std::size_t clients) {
  const auto nsets = static_cast<std::uint32_t>(corpus.sets.size());
  const Zipf zipf(nsets, 1.1);
  Streams st;
  std::vector<WriteState> ws(nsets);
  if (spec.write_pm > 0) {
    Xoshiro256 rng(seed ^ 0x5eedull);
    for (std::uint32_t i = 0; i < nsets; ++i) {
      ws[i].deletable = corpus.sets[i];
      ws[i].cursor = rng.below(corpus.universe);
    }
  }
  Xoshiro256 rng(seed ^ 0xbadc0ffeull);
  st.per_client.resize(clients);
  for (auto& ops : st.per_client) {
    ops.reserve(spec.ops_per_client);
    while (ops.size() < spec.ops_per_client) {
      if (rng.below(1000) < spec.write_pm) {
        Op w = make_write(corpus, ws, rng);
        if (w.q.nids > 0) {
          ops.push_back(std::move(w));
          continue;
        }
      }
      // Reads draw their kind from the non-write share of the mix.
      const auto reads = 1000 - spec.write_pm;
      const auto draw = static_cast<std::uint32_t>(rng.below(reads));
      ops.push_back(make_read(spec, nsets, zipf, rng, draw));
    }
  }
  if (spec.write_pm > 0) {
    Xoshiro256 rrng(seed ^ 0x4e91a7ull);
    const auto reads = 1000 - spec.write_pm;
    for (std::size_t i = 0; i < 4000; ++i) {
      st.replay.push_back(make_read(
          spec, nsets, zipf, rrng, static_cast<std::uint32_t>(rrng.below(reads))));
    }
  }
  return st;
}

void answer_reads(std::vector<Op*>& ops, const repro::batmap::BatmapStore& store,
                  const std::vector<std::vector<std::uint64_t>>& sets,
                  unsigned threads) {
  // Top-k: one full count row per distinct probe, computed in parallel.
  std::vector<std::uint32_t> probes;
  for (const Op* op : ops) {
    if (op->verb == 'T') probes.push_back(op->q.a);
  }
  std::sort(probes.begin(), probes.end());
  probes.erase(std::unique(probes.begin(), probes.end()), probes.end());
  std::unordered_map<std::uint32_t, std::size_t> probe_row;
  for (std::size_t i = 0; i < probes.size(); ++i) probe_row[probes[i]] = i;
  std::vector<std::vector<std::pair<std::uint64_t, std::uint32_t>>> ranked(
      probes.size());
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < std::max(1u, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < probes.size(); i = next++) {
        auto& row = ranked[i];
        for (std::uint32_t id = 0; id < store.size(); ++id) {
          if (id != probes[i]) {
            row.emplace_back(store.intersection_size(probes[i], id), id);
          }
        }
        // Canonical order: count desc, id asc.
        const std::size_t keep = std::min<std::size_t>(row.size(),
                                                       repro::service::kMaxTopK);
        std::partial_sort(row.begin(), row.begin() + static_cast<std::ptrdiff_t>(keep),
                          row.end(), [](const auto& x, const auto& y) {
                            return x.first != y.first ? x.first > y.first
                                                      : x.second < y.second;
                          });
        row.resize(keep);
      }
    });
  }
  for (auto& t : pool) t.join();

  for (Op* op : ops) {
    const Query& q = op->q;
    Result r;
    switch (op->verb) {
      case 'I': r.value = store.intersection_size(q.a, q.b); break;
      case 'S': r.value = store.raw_count(q.a, q.b); break;
      case 'T': {
        const auto& row = ranked[probe_row.at(q.a)];
        r.topk_count = static_cast<std::uint32_t>(std::min<std::size_t>(q.k, row.size()));
        r.value = r.topk_count;
        for (std::uint32_t j = 0; j < r.topk_count; ++j) {
          r.topk[j] = {row[j].second, row[j].first};
        }
        break;
      }
      case 'K':
      case 'R': {
        std::uint64_t ante = 0;
        r.value = kway_fold(sets, q, ante);
        if (op->verb == 'R') r.aux = ante;
        break;
      }
      default:
        continue;  // writes carry their own expectation
    }
    op->result = r;
    op->expect = repro::service::proto::format_result(r, op->verb);
  }
}

Corpus apply_writes(const Corpus& base, const Streams& streams,
                    const std::vector<std::size_t>& sent) {
  Corpus out = base;
  std::vector<std::vector<std::uint64_t>> added(base.sets.size());
  std::vector<std::vector<std::uint64_t>> removed(base.sets.size());
  for (std::size_t c = 0; c < streams.per_client.size(); ++c) {
    const auto& ops = streams.per_client[c];
    for (std::size_t i = 0; i < std::min(sent[c], ops.size()); ++i) {
      const Op& op = ops[i];
      if (op.kind != Kind::kWrite) continue;
      auto& dst = op.verb == 'A' ? added[op.q.a] : removed[op.q.a];
      for (std::uint32_t j = 0; j < op.q.nids; ++j) dst.push_back(op.q.ids[j]);
    }
  }
  for (std::size_t s = 0; s < out.sets.size(); ++s) {
    if (added[s].empty() && removed[s].empty()) continue;
    std::sort(removed[s].begin(), removed[s].end());
    std::vector<std::uint64_t> kept;
    std::set_difference(out.sets[s].begin(), out.sets[s].end(),
                        removed[s].begin(), removed[s].end(),
                        std::back_inserter(kept));
    kept.insert(kept.end(), added[s].begin(), added[s].end());
    std::sort(kept.begin(), kept.end());
    out.sets[s] = std::move(kept);
  }
  return out;
}

}  // namespace perfbench
