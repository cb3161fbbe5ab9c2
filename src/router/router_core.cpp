#include "router/router_core.hpp"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <mutex>
#include <utility>

#include "service/protocol.hpp"
#include "util/check.hpp"

namespace repro::router {

namespace {

using service::Query;
using service::QueryKind;
using service::Result;
using service::TopEntry;

constexpr char kRangeErr[] = "ERR RANGE id or k out of range";
constexpr char kTimeoutErr[] = "ERR TIMEOUT deadline exceeded";
/// Sentinel local id for "no exclusion" on the X T scatter (UINT32_MAX).
constexpr std::uint32_t kNoExclude = 0xffffffffu;

std::uint64_t now_ns() { return service::QueryEngine::now_ns(); }

using service::proto::append_list;
using service::proto::append_u64;

std::string unavailable_line(std::uint32_t s) {
  std::string e = "ERR UNAVAILABLE shard=";
  append_u64(e, s);
  return e;
}

using Cur = service::proto::Cursor;

/// "OK <m> <e>..." -> out. False on any malformation.
bool parse_list(const std::string& reply, std::vector<std::uint64_t>& out) {
  Cur c{reply};
  std::string_view t;
  std::uint64_t m = 0;
  if (!c.tok(t) || t != "OK" || !c.u64(m) || m > (1u << 27)) return false;
  out.clear();
  out.reserve(m);
  std::uint64_t v = 0;
  for (std::uint64_t i = 0; i < m; ++i) {
    if (!c.u64(v)) return false;
    out.push_back(v);
  }
  return c.done();
}

/// "OK <c>" -> out.
bool parse_count(const std::string& reply, std::uint64_t& out) {
  Cur c{reply};
  std::string_view t;
  return c.tok(t) && t == "OK" && c.u64(out) && c.done();
}

/// "<id>:<cnt>" token.
bool parse_entry(std::string_view t, std::uint32_t& id, std::uint64_t& cnt) {
  const std::size_t colon = t.find(':');
  if (colon == std::string_view::npos) return false;
  return service::proto::parse_u32(t.substr(0, colon), id) &&
         service::proto::parse_u64(t.substr(colon + 1), cnt);
}

RouterCore::Reply err_reply(std::string e) { return {false, {}, std::move(e)}; }

RouterCore::Reply ok_reply(const Result& res) { return {true, res, {}}; }

std::string overload_line(std::uint64_t retry_ms) {
  char tmp[48];
  std::snprintf(tmp, sizeof(tmp), "ERR OVERLOAD retry_ms=%" PRIu64, retry_ms);
  return tmp;
}

char op_of(QueryKind kind) {
  switch (kind) {
    case QueryKind::kIntersect: return 'I';
    case QueryKind::kSupport: return 'S';
    case QueryKind::kTopK: return 'T';
    case QueryKind::kKway: return 'K';
    case QueryKind::kRuleScore: return 'R';
    case QueryKind::kAdd: return 'A';
    case QueryKind::kDelete: return 'D';
    case QueryKind::kFlush: return 'F';
  }
  return 0;
}

/// Appends " <remaining_ms>" when the query carries a deadline — the
/// shard re-derives its own absolute deadline from the decremented
/// budget, so time already spent in the router counts against the query.
bool append_deadline(std::string& line, std::uint64_t deadline_ns) {
  if (deadline_ns == 0) return true;
  const std::uint64_t now = now_ns();
  if (now >= deadline_ns) return false;
  const std::uint64_t ms = (deadline_ns - now + 999'999) / 1'000'000;
  line.push_back(' ');
  append_u64(line, ms == 0 ? 1 : ms);
  return true;
}

}  // namespace

RouterCore::RouterCore(Options opt) : opt_(std::move(opt)) {
  REPRO_CHECK_MSG(!opt_.ports.empty(), "router needs at least one shard");
  REPRO_CHECK_MSG(opt_.ports.size() <= kMaxShards,
                  "router supports at most 64 shards");
  retry_until_ns_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(opt_.ports.size());
  for (std::size_t s = 0; s < opt_.ports.size(); ++s) {
    retry_until_ns_[s].store(0, std::memory_order_relaxed);
    clients_.push_back(std::make_unique<ShardClient>(
        ShardClient::Options{opt_.ports[s], opt_.max_reply}));
  }
  handshake();
}

void RouterCore::handshake() {
  const std::uint32_t n = shard_count();
  std::vector<std::vector<std::uint64_t>> sizes(n);
  std::uint64_t universe = 0;
  std::uint64_t total64 = 0;
  for (std::uint32_t s = 0; s < n; ++s) {
    std::string reply;
    const Hop h = exchange(s, "X Z", 0, reply, /*retry=*/true);
    REPRO_CHECK_MSG(h == Hop::kOk,
                    "router handshake: shard unreachable or errored");
    Cur c{reply};
    std::string_view t;
    std::uint64_t u = 0;
    std::uint64_t cnt = 0;
    REPRO_CHECK_MSG(c.tok(t) && t == "OK" && c.u64(u) && c.u64(cnt),
                    "router handshake: malformed X Z reply");
    REPRO_CHECK_MSG(s == 0 || u == universe,
                    "router handshake: shard universes differ");
    universe = u;
    sizes[s].reserve(cnt);
    std::uint64_t sup = 0;
    for (std::uint64_t i = 0; i < cnt; ++i) {
      REPRO_CHECK_MSG(c.u64(sup), "router handshake: malformed X Z reply");
      sizes[s].push_back(sup);
    }
    REPRO_CHECK_MSG(c.done(), "router handshake: malformed X Z reply");
    total64 += cnt;
  }
  REPRO_CHECK_MSG(total64 <= 0xffffffffull, "corpus too large");
  const std::uint32_t total = static_cast<std::uint32_t>(total64);

  const ShardMap map(ShardMap::Options{n, opt_.vnodes, opt_.ring_seed});
  ShardMap::Partition part = map.partition(total);
  for (std::uint32_t s = 0; s < n; ++s) {
    REPRO_CHECK_MSG(
        part.owned[s].size() == sizes[s].size(),
        "shard set count does not match the ShardMap partition — was the "
        "corpus split with the same --shards/--vnodes/--ring-seed?");
  }
  std::vector<std::uint64_t> supports(total);
  for (std::uint32_t s = 0; s < n; ++s) {
    for (std::size_t l = 0; l < part.owned[s].size(); ++l) {
      supports[part.owned[s][l]] = sizes[s][l];
    }
  }

  std::unique_lock lock(state_mu_);
  total_ = total;
  universe_ = universe;
  part_ = std::move(part);
  supports_ = std::move(supports);
}

RouterCore::Hop RouterCore::exchange(std::uint32_t s, const std::string& line,
                                     std::uint64_t deadline_ns,
                                     std::string& reply, bool retry) {
  if (deadline_ns != 0 && now_ns() >= deadline_ns) return Hop::kTimeout;
  return finish(s, line, clients_[s]->send(line), deadline_ns, reply, retry);
}

RouterCore::Hop RouterCore::finish(std::uint32_t s, const std::string& line,
                                   int fd, std::uint64_t deadline_ns,
                                   std::string& reply, bool retry) {
  ShardClient::Io io = clients_[s]->receive(fd, deadline_ns, reply);
  if (io == ShardClient::Io::kConnFail && retry) {
    retries_.fetch_add(1, std::memory_order_relaxed);
    io = clients_[s]->request(line, deadline_ns, reply);
  }
  if (io == ShardClient::Io::kTimeout) return Hop::kTimeout;
  if (io == ShardClient::Io::kConnFail) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    return Hop::kUnavailable;
  }
  if (reply.rfind("ERR", 0) == 0) {
    note_overload(s, reply);
    return Hop::kErrLine;
  }
  return Hop::kOk;
}

void RouterCore::note_overload(std::uint32_t s, const std::string& reply) {
  if (reply.rfind("ERR OVERLOAD", 0) != 0) return;
  overloads_seen_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t pos = reply.find("retry_ms=");
  if (pos == std::string::npos) return;
  std::uint64_t ms = 0;
  for (std::size_t i = pos + 9; i < reply.size() && reply[i] >= '0' &&
                                reply[i] <= '9';
       ++i) {
    ms = ms * 10 + static_cast<std::uint64_t>(reply[i] - '0');
  }
  if (ms == 0) return;
  const std::uint64_t until = now_ns() + ms * 1'000'000ull;
  std::uint64_t cur = retry_until_ns_[s].load(std::memory_order_relaxed);
  while (until > cur && !retry_until_ns_[s].compare_exchange_weak(
                            cur, until, std::memory_order_relaxed)) {
  }
}

bool RouterCore::gated(std::uint64_t mask, std::uint64_t& retry_ms) {
  const std::uint64_t now = now_ns();
  std::uint64_t worst = 0;
  for (std::uint32_t s = 0; mask != 0; ++s, mask >>= 1) {
    if ((mask & 1) == 0) continue;
    const std::uint64_t ru = retry_until_ns_[s].load(std::memory_order_relaxed);
    if (ru > now && ru - now > worst) worst = ru - now;
  }
  if (worst == 0) return false;
  retry_ms = (worst + 999'999) / 1'000'000;
  if (retry_ms == 0) retry_ms = 1;
  backpressure_rejections_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

RouterCore::Reply RouterCore::execute(const Query& q,
                                      std::uint64_t deadline_ns) {
  if (q.kind == QueryKind::kFlush) return flush();  // a control verb
  queries_.fetch_add(1, std::memory_order_relaxed);
  std::uint64_t touched = 0;
  Reply r = execute_impl(q, deadline_ns, touched);
  const int fan = std::popcount(touched);
  fanout_hist_[static_cast<std::uint32_t>(fan)].fetch_add(
      1, std::memory_order_relaxed);
  return r;
}

RouterCore::Reply RouterCore::forward_parsed(std::uint32_t s,
                                             const std::string& line,
                                             std::uint64_t deadline_ns,
                                             const Query& q) {
  direct_forwards_.fetch_add(1, std::memory_order_relaxed);
  const bool write =
      q.kind == QueryKind::kAdd || q.kind == QueryKind::kDelete;
  std::string reply;
  switch (exchange(s, line, deadline_ns, reply, /*retry=*/!write)) {
    case Hop::kOk: break;
    case Hop::kTimeout: return err_reply(kTimeoutErr);
    case Hop::kUnavailable: return err_reply(unavailable_line(s));
    case Hop::kErrLine: return err_reply(std::move(reply));
  }
  Result res;
  Cur c{reply};
  std::string_view t;
  bool ok = c.tok(t) && t == "OK";
  if (ok) {
    switch (q.kind) {
      case QueryKind::kRuleScore:
        ok = c.u64(res.value) && c.u64(res.aux) && c.done();
        break;
      case QueryKind::kTopK: {
        // Only hit in 1-shard topologies, where local id == global id.
        ok = c.u64(res.value) && res.value <= service::kMaxTopK;
        for (std::uint64_t i = 0; ok && i < res.value; ++i) {
          ok = c.tok(t) &&
               parse_entry(t, res.topk[i].id, res.topk[i].count);
        }
        ok = ok && c.done();
        res.topk_count = static_cast<std::uint32_t>(res.value);
        break;
      }
      default:
        ok = c.u64(res.value) && c.done();
        break;
    }
  }
  if (!ok) {
    unavailable_.fetch_add(1, std::memory_order_relaxed);
    return err_reply(unavailable_line(s));
  }
  return ok_reply(res);
}

RouterCore::Hop RouterCore::semi_join_ids(std::span<const std::uint32_t> gids,
                                          std::uint64_t deadline_ns,
                                          std::vector<std::uint64_t>& list,
                                          std::string& err) {
  // Group operands by owning shard; visit groups in ascending min-support
  // order so the intermediate list shrinks as early as possible.
  struct Group {
    std::uint32_t shard = 0;
    std::uint64_t min_support = 0;
    std::vector<std::uint32_t> lids;
  };
  std::vector<Group> groups;
  for (const std::uint32_t gid : gids) {
    const std::uint32_t s = part_.shard_of_id[gid];
    Group* g = nullptr;
    for (Group& cand : groups) {
      if (cand.shard == s) {
        g = &cand;
        break;
      }
    }
    if (g == nullptr) {
      groups.push_back(Group{s, supports_[gid], {}});
      g = &groups.back();
    } else if (supports_[gid] < g->min_support) {
      g->min_support = supports_[gid];
    }
    g->lids.push_back(part_.local_of_id[gid]);
  }
  std::sort(groups.begin(), groups.end(), [](const Group& a, const Group& b) {
    return a.min_support != b.min_support ? a.min_support < b.min_support
                                          : a.shard < b.shard;
  });

  bool first = true;
  for (const Group& g : groups) {
    std::string line = first ? "X J " : "X I ";
    append_u64(line, g.lids.size());
    for (const std::uint32_t lid : g.lids) {
      line.push_back(' ');
      append_u64(line, lid);
    }
    if (!first) {
      line.push_back(' ');
      append_list(line, list);
    }
    std::string reply;
    switch (exchange(g.shard, line, deadline_ns, reply, /*retry=*/true)) {
      case Hop::kOk: break;
      case Hop::kTimeout:
        err = kTimeoutErr;
        return Hop::kTimeout;
      case Hop::kUnavailable:
        err = unavailable_line(g.shard);
        return Hop::kUnavailable;
      case Hop::kErrLine:
        err = std::move(reply);
        return Hop::kErrLine;
    }
    if (!first) semi_join_forwards_.fetch_add(1, std::memory_order_relaxed);
    if (!parse_list(reply, list)) {
      unavailable_.fetch_add(1, std::memory_order_relaxed);
      err = unavailable_line(g.shard);
      return Hop::kUnavailable;
    }
    first = false;
    if (list.empty()) break;  // the intersection is already empty
  }
  return Hop::kOk;
}

RouterCore::Reply RouterCore::execute_impl(const Query& q,
                                           std::uint64_t deadline_ns,
                                           std::uint64_t& touched) {
  if (deadline_ns != 0 && now_ns() >= deadline_ns) {
    return err_reply(kTimeoutErr);
  }
  std::shared_lock lock(state_mu_);
  const auto bit = [](std::uint32_t s) { return 1ull << s; };
  const char op = op_of(q.kind);
  switch (q.kind) {
    case QueryKind::kIntersect:
    case QueryKind::kSupport: {
      if (q.a >= total_ || q.b >= total_) return err_reply(kRangeErr);
      const std::uint32_t sa = part_.shard_of_id[q.a];
      const std::uint32_t sb = part_.shard_of_id[q.b];
      touched = bit(sa) | bit(sb);
      std::uint64_t ms = 0;
      if (gated(touched, ms)) return err_reply(overload_line(ms));
      if (sa == sb) {
        std::string line(1, op);
        line.push_back(' ');
        append_u64(line, part_.local_of_id[q.a]);
        line.push_back(' ');
        append_u64(line, part_.local_of_id[q.b]);
        if (!append_deadline(line, deadline_ns)) return err_reply(kTimeoutErr);
        return forward_parsed(sa, line, deadline_ns, q);
      }
      // Cross-shard pair: fetch the smaller operand's row, intersect at
      // the other owner. S counts in the stored (raw sweep) domain, so its
      // hops use the X RJ / X RI raw forms.
      const bool raw = q.kind == QueryKind::kSupport;
      const std::uint32_t first =
          supports_[q.a] <= supports_[q.b] ? q.a : q.b;
      const std::uint32_t second = first == q.a ? q.b : q.a;
      const std::uint32_t s1 = part_.shard_of_id[first];
      const std::uint32_t s2 = part_.shard_of_id[second];
      std::string l1 = raw ? "X RJ " : "X J 1 ";
      append_u64(l1, part_.local_of_id[first]);
      std::string reply;
      switch (exchange(s1, l1, deadline_ns, reply, /*retry=*/true)) {
        case Hop::kOk: break;
        case Hop::kTimeout: return err_reply(kTimeoutErr);
        case Hop::kUnavailable: return err_reply(unavailable_line(s1));
        case Hop::kErrLine: return err_reply(std::move(reply));
      }
      std::vector<std::uint64_t> list;
      if (!parse_list(reply, list)) {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        return err_reply(unavailable_line(s1));
      }
      Result res;
      if (list.empty()) return ok_reply(res);
      std::string l2 = raw ? "X RI " : "X I 1 ";
      append_u64(l2, part_.local_of_id[second]);
      l2.push_back(' ');
      append_list(l2, list);
      switch (exchange(s2, l2, deadline_ns, reply, /*retry=*/true)) {
        case Hop::kOk: break;
        case Hop::kTimeout: return err_reply(kTimeoutErr);
        case Hop::kUnavailable: return err_reply(unavailable_line(s2));
        case Hop::kErrLine: return err_reply(std::move(reply));
      }
      semi_join_forwards_.fetch_add(1, std::memory_order_relaxed);
      bool ok;
      if (raw) {
        ok = parse_count(reply, res.value);
      } else {
        std::vector<std::uint64_t> out;
        ok = parse_list(reply, out);
        res.value = out.size();
      }
      if (!ok) {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        return err_reply(unavailable_line(s2));
      }
      return ok_reply(res);
    }

    case QueryKind::kTopK: {
      if (q.a >= total_ || q.k < 1 || q.k > service::kMaxTopK) {
        return err_reply(kRangeErr);
      }
      const std::uint32_t n = shard_count();
      touched = n >= 64 ? ~0ull : (1ull << n) - 1;  // ranks every set
      std::uint64_t ms = 0;
      if (gated(touched, ms)) return err_reply(overload_line(ms));
      const std::uint32_t sa = part_.shard_of_id[q.a];
      if (n == 1) {
        // Local ids are global ids; the shard's coalesced top-k path
        // already produces the canonical ranking.
        std::string line = "T ";
        append_u64(line, q.a);
        line.push_back(' ');
        append_u64(line, q.k);
        if (!append_deadline(line, deadline_ns)) return err_reply(kTimeoutErr);
        return forward_parsed(sa, line, deadline_ns, q);
      }
      scatter_topk_.fetch_add(1, std::memory_order_relaxed);
      // Hop 1: the probe set's effective membership from its owner.
      std::string l1 = "X J 1 ";
      append_u64(l1, part_.local_of_id[q.a]);
      std::string reply;
      switch (exchange(sa, l1, deadline_ns, reply, /*retry=*/true)) {
        case Hop::kOk: break;
        case Hop::kTimeout: return err_reply(kTimeoutErr);
        case Hop::kUnavailable: return err_reply(unavailable_line(sa));
        case Hop::kErrLine: return err_reply(std::move(reply));
      }
      std::vector<std::uint64_t> list;
      if (!parse_list(reply, list)) {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        return err_reply(unavailable_line(sa));
      }
      // Scatter: every shard ranks its local sets against the probe list
      // (k' = k prefetch — a shard can contribute at most k entries), the
      // probe set itself excluded on its owner. Every line is sent before
      // any reply is read, each on its own connection, so the shards rank
      // concurrently. Replies are read in shard order: the lowest-numbered
      // failing shard's error wins, and later replies are still read so
      // their connections go back to the pool. Global merge goes through
      // the same topk_insert the engine ranks with, over global ids, so
      // the merged order is the single-node order by construction.
      if (deadline_ns != 0 && now_ns() >= deadline_ns) {
        return err_reply(kTimeoutErr);
      }
      std::string suffix;
      append_list(suffix, list);
      std::vector<std::string> lines(n);
      std::vector<int> fds(n);
      for (std::uint32_t s = 0; s < n; ++s) {
        std::string& line = lines[s];
        line.reserve(40 + suffix.size());
        line = "X T ";
        append_u64(line, q.k);
        line.push_back(' ');
        append_u64(line, s == sa ? part_.local_of_id[q.a] : kNoExclude);
        line.push_back(' ');
        line += suffix;
        fds[s] = clients_[s]->send(lines[s]);
      }
      Result res;
      TopEntry best[service::kMaxTopK];
      std::uint32_t size = 0;
      std::string err;
      for (std::uint32_t s = 0; s < n; ++s) {
        if (!err.empty()) {
          clients_[s]->receive(fds[s], deadline_ns, reply);
          continue;
        }
        switch (finish(s, lines[s], fds[s], deadline_ns, reply,
                       /*retry=*/true)) {
          case Hop::kOk: break;
          case Hop::kTimeout: err = kTimeoutErr; continue;
          case Hop::kUnavailable: err = unavailable_line(s); continue;
          case Hop::kErrLine: err = std::move(reply); continue;
        }
        Cur c{reply};
        std::string_view t;
        std::uint64_t cnt = 0;
        bool ok = c.tok(t) && t == "OK" && c.u64(cnt) &&
                  cnt <= service::kMaxTopK;
        for (std::uint64_t i = 0; ok && i < cnt; ++i) {
          std::uint32_t lid = 0;
          std::uint64_t v = 0;
          ok = c.tok(t) && parse_entry(t, lid, v) &&
               lid < part_.owned[s].size();
          if (ok) {
            size = service::topk_insert(best, size, q.k,
                                        part_.owned[s][lid], v);
          }
        }
        ok = ok && c.done();
        if (!ok) {
          unavailable_.fetch_add(1, std::memory_order_relaxed);
          err = unavailable_line(s);
        }
      }
      if (!err.empty()) return err_reply(std::move(err));
      res.topk_count = size;
      res.value = size;
      std::copy_n(best, size, res.topk);
      return ok_reply(res);
    }

    case QueryKind::kKway:
    case QueryKind::kRuleScore: {
      for (std::uint32_t i = 0; i < q.nids; ++i) {
        if (q.ids[i] >= total_) return err_reply(kRangeErr);
      }
      std::uint32_t uniq[service::kMaxKwayIds];
      std::uint32_t nu = 0;
      for (std::uint32_t i = 0; i < q.nids; ++i) {
        bool seen = false;
        for (std::uint32_t j = 0; j < nu; ++j) {
          seen = seen || uniq[j] == q.ids[i];
        }
        if (!seen) uniq[nu++] = q.ids[i];
      }
      for (std::uint32_t i = 0; i < nu; ++i) {
        touched |= bit(part_.shard_of_id[uniq[i]]);
      }
      std::uint64_t ms = 0;
      if (gated(touched, ms)) return err_reply(overload_line(ms));
      if (std::popcount(touched) == 1) {
        // Every operand on one shard: forward in protocol order with local
        // ids — the shard's planner answers it like any native query.
        std::string line(1, op);
        line.push_back(' ');
        append_u64(line, q.nids);
        for (std::uint32_t i = 0; i < q.nids; ++i) {
          line.push_back(' ');
          append_u64(line, part_.local_of_id[q.ids[i]]);
        }
        if (!append_deadline(line, deadline_ns)) return err_reply(kTimeoutErr);
        return forward_parsed(part_.shard_of_id[uniq[0]], line, deadline_ns,
                              q);
      }
      semi_join_queries_.fetch_add(1, std::memory_order_relaxed);
      Result res;
      std::vector<std::uint64_t> list;
      std::string err;
      if (q.kind == QueryKind::kKway) {
        if (semi_join_ids({uniq, nu}, deadline_ns, list, err) != Hop::kOk) {
          return err_reply(std::move(err));
        }
        res.value = list.size();
        return ok_reply(res);
      }
      // Rule score: antecedent = ids[0..nids-2] (deduped), consequent =
      // ids[nids-1]. aux = |∩ antecedent|; one more forward intersects the
      // surviving list with the consequent unless it already appeared in
      // the antecedent (then joint == antecedent count).
      const std::uint32_t cons = q.ids[q.nids - 1];
      std::uint32_t ante[service::kMaxKwayIds];
      std::uint32_t na = 0;
      bool cons_in_ante = false;
      for (std::uint32_t i = 0; i + 1 < q.nids; ++i) {
        bool seen = false;
        for (std::uint32_t j = 0; j < na; ++j) {
          seen = seen || ante[j] == q.ids[i];
        }
        if (!seen) ante[na++] = q.ids[i];
        cons_in_ante = cons_in_ante || q.ids[i] == cons;
      }
      if (semi_join_ids({ante, na}, deadline_ns, list, err) != Hop::kOk) {
        return err_reply(std::move(err));
      }
      res.aux = list.size();
      if (cons_in_ante || list.empty()) {
        res.value = cons_in_ante ? res.aux : 0;
        return ok_reply(res);
      }
      std::string line = "X I 1 ";
      append_u64(line, part_.local_of_id[cons]);
      line.push_back(' ');
      append_list(line, list);
      const std::uint32_t sc = part_.shard_of_id[cons];
      std::string reply;
      switch (exchange(sc, line, deadline_ns, reply, /*retry=*/true)) {
        case Hop::kOk: break;
        case Hop::kTimeout: return err_reply(kTimeoutErr);
        case Hop::kUnavailable: return err_reply(unavailable_line(sc));
        case Hop::kErrLine: return err_reply(std::move(reply));
      }
      semi_join_forwards_.fetch_add(1, std::memory_order_relaxed);
      if (!parse_list(reply, list)) {
        unavailable_.fetch_add(1, std::memory_order_relaxed);
        return err_reply(unavailable_line(sc));
      }
      res.value = list.size();
      return ok_reply(res);
    }

    case QueryKind::kAdd:
    case QueryKind::kDelete: {
      if (q.a >= total_) return err_reply(kRangeErr);
      const std::uint32_t s = part_.shard_of_id[q.a];
      touched = bit(s);
      std::uint64_t ms = 0;
      if (gated(touched, ms)) return err_reply(overload_line(ms));
      std::string line(1, op);
      line.push_back(' ');
      append_u64(line, part_.local_of_id[q.a]);
      for (std::uint32_t i = 0; i < q.nids; ++i) {
        line.push_back(' ');
        append_u64(line, q.ids[i]);  // elements, not set ids: no rewrite
      }
      // Supports_[q.a] drifts after a write; it only orders semi-join hops
      // (never results), and the post-RELOAD handshake refreshes it.
      return forward_parsed(s, line, /*deadline_ns=*/0, q);
    }

    case QueryKind::kFlush:
      break;
  }
  REPRO_CHECK_MSG(false, "FLUSH routes through RouterCore::flush()");
  return err_reply(kRangeErr);  // unreachable
}

std::string RouterCore::reload(const std::string& prefix) {
  std::uint64_t max_epoch = 0;
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    std::string line = "RELOAD";
    if (!prefix.empty()) {
      line.push_back(' ');
      line += prefix;
      line.push_back('.');
      append_u64(line, s);
      line += ".snap";
    }
    std::string reply;
    const Hop h = exchange(s, line, 0, reply, /*retry=*/true);
    if (h == Hop::kUnavailable || h == Hop::kTimeout) {
      std::string e = "ERR RELOAD shard=";
      append_u64(e, s);
      e += " unavailable";
      return e;
    }
    std::uint64_t epoch = 0;
    if (h == Hop::kErrLine || reply.rfind("RELOADED epoch=", 0) != 0 ||
        !service::proto::parse_u64(
            std::string_view(reply).substr(sizeof("RELOADED epoch=") - 1),
            epoch)) {
      // All-or-nothing reporting: the first failing shard's typed error
      // wins, tagged with which shard refused.
      std::string e = "ERR RELOAD shard=";
      append_u64(e, s);
      e.push_back(' ');
      e += h == Hop::kErrLine ? reply : "unexpected reply";
      return e;
    }
    if (epoch > max_epoch) max_epoch = epoch;
  }
  // Revalidate the partition against whatever the shards now serve — a
  // corpus swap that changes the set counts must fail loudly here, not
  // misroute quietly later.
  try {
    handshake();
  } catch (const CheckError&) {
    return "ERR RELOAD corpus does not match the router partition";
  }
  std::string out = "RELOADED epoch=";
  append_u64(out, max_epoch);
  return out;
}

RouterCore::Reply RouterCore::flush() {
  Result res;  // value: the newest epoch any shard serves afterwards
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    std::string reply;
    const Hop h = exchange(s, "FLUSH", 0, reply, /*retry=*/true);
    if (h == Hop::kUnavailable || h == Hop::kTimeout) {
      return err_reply(unavailable_line(s));
    }
    if (h == Hop::kErrLine) return err_reply(reply);  // typed, verbatim
    std::uint64_t epoch = 0;
    if (reply.rfind("FLUSHED epoch=", 0) != 0 ||
        !service::proto::parse_u64(
            std::string_view(reply).substr(sizeof("FLUSHED epoch=") - 1),
            epoch)) {
      return err_reply(unavailable_line(s));
    }
    res.value = std::max(res.value, epoch);
  }
  return ok_reply(res);
}

std::string RouterCore::stats_line() {
  // Aggregate the shard gauges in shard 0's key order: counters sum;
  // epoch and max_batch take the max (a sum of epochs means nothing).
  std::vector<std::pair<std::string, std::uint64_t>> agg;
  for (std::uint32_t s = 0; s < shard_count(); ++s) {
    std::string reply;
    if (exchange(s, "STATS", 0, reply, /*retry=*/true) != Hop::kOk) {
      return unavailable_line(s);
    }
    Cur c{reply};
    std::string_view t;
    if (!c.tok(t) || t != "STATS") return unavailable_line(s);
    while (c.tok(t)) {
      const std::size_t eq = t.find('=');
      if (eq == std::string_view::npos) continue;
      const std::string key(t.substr(0, eq));
      std::uint64_t v = 0;
      if (!service::proto::parse_u64(t.substr(eq + 1), v)) continue;
      auto it = agg.begin();
      for (; it != agg.end() && it->first != key; ++it) {
      }
      if (it == agg.end()) {
        agg.emplace_back(key, v);
      } else if (key == "epoch" || key == "max_batch") {
        it->second = std::max(it->second, v);
      } else {
        it->second += v;
      }
    }
  }
  std::string out = "STATS shards=";
  append_u64(out, shard_count());
  for (const auto& [key, v] : agg) {
    out.push_back(' ');
    out += key;
    out.push_back('=');
    append_u64(out, v);
  }
  const auto emit = [&out](const char* key,
                           const std::atomic<std::uint64_t>& v) {
    out.push_back(' ');
    out += key;
    out.push_back('=');
    append_u64(out, v.load(std::memory_order_relaxed));
  };
  emit("router_queries", queries_);
  emit("router_direct", direct_forwards_);
  emit("router_scatter", scatter_topk_);
  emit("router_semijoin", semi_join_queries_);
  emit("router_semijoin_forwards", semi_join_forwards_);
  emit("router_backpressure", backpressure_rejections_);
  emit("router_overloads", overloads_seen_);
  emit("router_retries", retries_);
  emit("router_unavailable", unavailable_);
  std::uint64_t reconnects = 0;
  std::uint64_t idle = 0;
  for (const auto& cl : clients_) {
    reconnects += cl->reconnects();
    idle += cl->idle();
  }
  out += " router_reconnects=";
  append_u64(out, reconnects);
  out += " router_idle_connections=";
  append_u64(out, idle);
  for (std::uint32_t f = 1; f <= shard_count() && f <= kMaxShards; ++f) {
    out += " fanout_";
    append_u64(out, f);
    out.push_back('=');
    append_u64(out, fanout_hist_[f].load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace repro::router
