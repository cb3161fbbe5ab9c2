#include "service/engine_handler.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <vector>

#include "service/protocol.hpp"
#include "util/fault.hpp"

namespace repro::service {

namespace {

constexpr char kRangeErr[] = "ERR RANGE id or k out of range";

/// The one outcome -> reply mapping both the batched and the naive arm
/// answer through.
Handler::Reply outcome_reply(Request::Outcome o, const Result& r,
                             const Query& q) {
  switch (o) {
    case Request::Outcome::kOk: return {true, r, {}};
    case Request::Outcome::kTimeout:
      return {false, {}, "ERR TIMEOUT deadline exceeded"};
    case Request::Outcome::kOverload:
      // The write itself was shed (delta over budget): distinct from
      // admission overload, since the request WAS admitted and executed.
      return {false, {}, "ERR OVERLOAD delta_full retry_ms=100"};
    default:
      return {false, {}, q.kind == QueryKind::kFlush
                             ? "ERR RELOAD compaction failed"
                             : kRangeErr};
  }
}

}  // namespace

EngineHandler::EngineHandler(SnapshotManager& mgr, QueryEngine& engine,
                             bool naive, std::string snapshot_path)
    : mgr_(mgr), engine_(engine), naive_(naive),
      path_(std::move(snapshot_path)) {}

Handler::Reply EngineHandler::execute(const Query& query,
                                      std::uint64_t deadline_ns) {
  Request req;
  req.query = query;
  req.query.deadline_ns = deadline_ns;
  const Query& q = req.query;
  if (naive_) {
    // The reference path honors the same fault site and deadline semantics
    // as the thread that runs a batch, so --naive and batched runs stay
    // reply-identical under [ms] deadlines and injected stalls.
    if (util::fault::armed()) util::fault::maybe_stall("worker_stall_ms");
    if (deadline_ns != 0 && QueryEngine::now_ns() >= deadline_ns) {
      return outcome_reply(Request::Outcome::kTimeout, {}, q);
    }
    try {
      return outcome_reply(Request::Outcome::kOk, engine_.execute_serial(q), q);
    } catch (const DeltaFullError&) {
      return outcome_reply(Request::Outcome::kOverload, {}, q);
    } catch (const CheckError&) {
      return outcome_reply(Request::Outcome::kInvalid, {}, q);
    }
  }
  const Admit verdict = engine_.try_submit_ex(req);
  if (verdict == Admit::kRingFull || verdict == Admit::kShed) {
    char tmp[48];
    std::snprintf(tmp, sizeof(tmp), "ERR OVERLOAD retry_ms=%" PRIu64,
                  (engine_.retry_after_ns() + 999'999) / 1'000'000);
    return {false, {}, tmp};
  }
  if (verdict == Admit::kOk) QueryEngine::wait(req);
  return outcome_reply(req.outcome(), req.result(), q);
}

std::string EngineHandler::stats_line() {
  return format_stats(engine_.stats(), mgr_.epoch(), mgr_.swaps());
}

std::string EngineHandler::reload(const std::string& arg) {
  std::string path;
  {
    std::lock_guard lock(path_mu_);
    path = arg.empty() ? path_ : arg;
  }
  try {
    const std::uint64_t epoch = mgr_.swap(path);
    {
      std::lock_guard lock(path_mu_);
      path_ = path;
    }
    std::fprintf(stderr, "batmap_serve: swapped to epoch %" PRIu64 " (%s)\n",
                 epoch, path.c_str());
    std::string out = "RELOADED epoch=";
    proto::append_u64(out, epoch);
    return out;
  } catch (const CheckError& e) {
    std::fprintf(stderr, "batmap_serve: reload rejected: %s\n", e.what());
    return std::string("ERR RELOAD ") + e.reason();
  }
}

std::string EngineHandler::shard_verb(const std::string& line) {
  static constexpr char kBadX[] = "ERR BADREQ bad X request";
  proto::Cursor c{line};
  std::string_view form;
  c.tok(form);  // the leading "X"
  if (!c.tok(form)) return kBadX;

  const auto read_ids = [&](std::vector<std::uint32_t>& ids) {
    std::uint32_t g = 0;
    if (!c.u32(g) || g < 1 || g > kMaxKwayIds) return false;
    ids.resize(g);
    for (std::uint32_t& id : ids) {
      if (!c.u32(id)) return false;
    }
    return true;
  };
  const auto read_list = [&](std::vector<std::uint64_t>& list) {
    // Each element takes at least two bytes of the line, which bounds the
    // claimed count before anything is allocated for it. The list must be
    // strictly increasing: the kernels it feeds count sorted sets.
    std::uint64_t m = 0;
    if (!c.u64(m) || m > (line.size() - c.i) / 2) return false;
    list.resize(m);
    for (std::uint64_t i = 0; i < m; ++i) {
      if (!c.u64(list[i]) || (i > 0 && list[i] <= list[i - 1])) return false;
    }
    return true;
  };

  std::vector<std::uint32_t> ids(1);
  std::vector<std::uint64_t> list;
  std::string out = "OK ";
  Result counts;  // the "OK <c>" and top-k replies format like queries'
  try {
    if (form == "Z") {
      if (!c.done()) return kBadX;
      proto::append_u64(out, mgr_.current()->snapshot().universe());
      out.push_back(' ');
      proto::append_list(out, engine_.row_supports());
      return out;
    }
    if (form == "J" || form == "I" || form == "RJ" || form == "RI") {
      const bool seeded = form == "I" || form == "RI";
      const bool raw = form[0] == 'R';
      if (!(raw ? c.u32(ids[0]) : read_ids(ids)) ||
          (seeded && !read_list(list)) || !c.done()) {
        return kBadX;
      }
      const std::vector<std::uint64_t> res =
          engine_.semi_join(ids, list, seeded, raw);
      if (form == "RI") {
        counts.value = res.size();
        return proto::format_result(counts, 'I');
      }
      proto::append_list(out, res);
      return out;
    }
    if (form == "T") {
      std::uint32_t k = 0;
      std::uint32_t xlid = 0;
      if (!c.u32(k) || !c.u32(xlid) || !read_list(list) || !c.done()) {
        return kBadX;
      }
      const std::vector<TopEntry> best = engine_.topk_against(list, k, xlid);
      counts.value = counts.topk_count = static_cast<std::uint32_t>(best.size());
      std::copy(best.begin(), best.end(), counts.topk);
      return proto::format_result(counts, 'T');
    }
  } catch (const CheckError&) {
    return kRangeErr;
  }
  return kBadX;
}

}  // namespace repro::service
