#include "service/query_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>

#include "batmap/multiway.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace repro::service {

namespace {

bool deadline_expired(const Query& q, std::uint64_t now) {
  return q.deadline_ns != 0 && now >= q.deadline_ns;
}

/// exec_ layout (see query_engine.hpp): bit 0 is the execution lock, and
/// each queued request adds kQueuedOne.
constexpr std::uint64_t kLocked = 1;
constexpr std::uint64_t kQueuedOne = 2;

/// How long wait() keeps trying the execution lock before it parks: about
/// the length of a pair micro-batch, well under a futex round trip.
constexpr std::uint64_t kInlineSpinNs = 5'000;

void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

bool is_kway(QueryKind kind) {
  return kind == QueryKind::kKway || kind == QueryKind::kRuleScore;
}

bool is_mutation(QueryKind kind) {
  return kind == QueryKind::kAdd || kind == QueryKind::kDelete ||
         kind == QueryKind::kFlush;
}

/// `count` plus the pair's delta correction (unchanged when neither row has
/// pending ops).
std::uint64_t with_delta(std::uint64_t count, std::span<const std::uint64_t> ea,
                         std::span<const DeltaOp> ops_a,
                         std::span<const std::uint64_t> eb,
                         std::span<const DeltaOp> ops_b) {
  if (ops_a.empty() && ops_b.empty()) return count;
  return static_cast<std::uint64_t>(
      static_cast<std::int64_t>(count) +
      pair_delta_correction(ea, ops_a, eb, ops_b));
}

/// Effective membership of set `id`: the snapshot's element list when it
/// has no pending ops in `dview`, else base ⊕ ops materialized into `tmp`.
std::span<const std::uint64_t> effective_elements(
    const Snapshot& snap, const DeltaView& dview, std::uint32_t id,
    std::vector<std::uint64_t>& tmp) {
  if (!dview.dirty(id)) return snap.elements(id);
  apply_delta_ops(snap.elements(id), dview.ops(id), tmp);
  return tmp;
}

/// The one list fold: intersects `cur` in place with row(id, tmp) for each
/// id in order by galloping merges, stopping once `cur` is empty. Unseeded,
/// `cur` starts as the first row. Returns the merges run.
template <typename RowFn>
std::uint64_t fold_rows(std::span<const std::uint32_t> ids, bool seeded,
                        std::vector<std::uint64_t>& cur, RowFn&& row) {
  std::vector<std::uint64_t> tmp;
  std::uint64_t merges = 0;
  for (const std::uint32_t id : ids) {
    if (seeded && cur.empty()) break;
    const std::span<const std::uint64_t> r = row(id, tmp);
    if (seeded) {
      cur.resize(batmap::gallop_intersect(cur, r, cur.data()));
      ++merges;
    } else {
      cur.assign(r.begin(), r.end());
      seeded = true;
    }
  }
  return merges;
}

/// The one K/R executor: folds effective element lists with the smallest
/// set driving. The operands (kRuleScore: the antecedent ids[0..n-2])
/// dedup — A ∩ A = A — and fold in ascending stored size, ties by id;
/// kRuleScore's aux is that running size before the consequent ids[n-1]
/// folds in. Adds its merges to `merges`.
Result kway_effective(const Snapshot& snap, const DeltaView& dview,
                      const Query& q, std::uint64_t& merges) {
  const auto effective = [&](std::uint32_t id,
                              std::vector<std::uint64_t>& tmp) {
    return effective_elements(snap, dview, id, tmp);
  };
  const auto before = [&](std::uint32_t x, std::uint32_t y) {
    const std::size_t ex = snap.elements(x).size();
    const std::size_t ey = snap.elements(y).size();
    return ex != ey ? ex < ey : x < y;
  };
  const bool rule = q.kind == QueryKind::kRuleScore;
  const std::uint32_t n = rule ? q.nids - 1u : q.nids;
  std::uint32_t order[kMaxKwayIds];
  // Insertion sort (n <= 8); equal ids have equal sizes, so duplicates
  // end up adjacent.
  for (std::uint32_t i = 0; i < n; ++i) {
    std::uint32_t j = i;
    for (; j > 0 && before(q.ids[i], order[j - 1]); --j) {
      order[j] = order[j - 1];
    }
    order[j] = q.ids[i];
  }
  const std::span<const std::uint32_t> ids(order,
                                           std::unique(order, order + n));
  Result res;
  std::vector<std::uint64_t> cur;
  merges += fold_rows(ids, false, cur, effective);
  if (rule) {
    res.aux = cur.size();
    merges += fold_rows({&q.ids[q.nids - 1], 1}, true, cur, effective);
  }
  res.value = cur.size();
  return res;
}

/// The one list ranking: every row but `exclude` by |probe ∩ effective
/// row|, ranked through topk_insert into `best`; returns the fill. Element
/// lists hold whole sets, insertion failures included, so the counts are
/// exact intersections. Counting a row is one bit test per element against
/// the probe's bitmap over the universe, while that bitmap is no larger
/// than the lists this call streams anyway; past that (sparse universes)
/// each row gallops against the probe.
std::uint32_t rank_against(const Snapshot& snap, const DeltaView& dview,
                           std::span<const std::uint64_t> probe,
                           std::uint32_t k, std::uint32_t exclude,
                           TopEntry* best) {
  const std::uint64_t universe = snap.universe();
  std::uint64_t stored = 0;
  for (std::uint32_t id = 0; id < snap.size(); ++id) {
    stored += snap.elements(id).size();
  }
  const std::uint64_t words = (universe + 63) / 64;
  const bool bitmap = !probe.empty() && words <= stored;
  std::vector<std::uint64_t> bits(bitmap ? words : 0);
  if (bitmap) {
    for (const std::uint64_t e : probe) {
      if (e < universe) bits[e >> 6] |= 1ull << (e & 63);  // no row holds e
    }
  }
  std::uint32_t size = 0;
  std::vector<std::uint64_t> buf(bitmap ? 0 : probe.size());
  std::vector<std::uint64_t> tmp;
  for (std::uint32_t id = 0; id < snap.size(); ++id) {
    if (id == exclude) continue;
    const auto other = effective_elements(snap, dview, id, tmp);
    std::uint64_t cnt = 0;
    if (bitmap) {
      for (const std::uint64_t v : other) {
        cnt += v < universe && ((bits[v >> 6] >> (v & 63)) & 1);
      }
    } else if (!probe.empty() && !other.empty()) {
      cnt = batmap::gallop_intersect(probe, other, buf.data());
    }
    size = topk_insert(best, size, k, id, cnt);
  }
  return size;
}

/// Top-k of row `a` (mixed-layout snapshots and the reference path): its
/// effective elements ranked against every other row by rank_against.
Result rank_rows(const Snapshot& snap, const DeltaView& dview, std::uint32_t a,
                 std::uint32_t k) {
  std::vector<std::uint64_t> tmp;
  const auto probe = effective_elements(snap, dview, a, tmp);
  Result res;
  res.topk_count = rank_against(snap, dview, probe, k, a, res.topk);
  res.value = res.topk_count;
  return res;
}

}  // namespace

std::uint64_t QueryEngine::now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// ---- TokenGate --------------------------------------------------------------

void QueryEngine::TokenGate::configure(double rate, double burst) {
  std::lock_guard lock(mu_);
  rate_ = rate / 1e9;  // tokens per nanosecond
  burst_ = std::max(burst, 1.0);
  tokens_ = burst_;
  last_ns_ = now_ns();
}

bool QueryEngine::TokenGate::admit() {
  std::lock_guard lock(mu_);
  if (rate_ <= 0) return true;
  const std::uint64_t now = now_ns();
  tokens_ = std::min(burst_,
                     tokens_ + static_cast<double>(now - last_ns_) * rate_);
  last_ns_ = now;
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  return true;
}

std::uint64_t QueryEngine::TokenGate::retry_after_ns() const {
  std::lock_guard lock(mu_);
  if (rate_ <= 0 || tokens_ >= 1.0) return 0;
  return static_cast<std::uint64_t>((1.0 - tokens_) / rate_);
}

// ---- QueryEngine ------------------------------------------------------------

void QueryEngine::init() {
  REPRO_CHECK_MSG(opt_.max_batch >= 1, "max_batch must be positive");
  gate_.configure(opt_.admit_rate, opt_.admit_burst);

  core::SweepEngine::Options sweep_opt;
  sweep_opt.backend = core::Backend::kNative;
  sweep_opt.tile = opt_.sweep_tile;
  sweep_opt.threads = opt_.sweep_threads;
  sweep_opt.shards = opt_.sweep_shards;
  sweep_ = std::make_unique<core::SweepEngine>(sweep_opt);

  batch_.resize(opt_.max_batch);
  topk_merge_.resize(sweep_->shard_count() * kMaxTopK);
  topk_sizes_.resize(sweep_->shard_count());

  worker_ = std::thread([this] { worker_loop(); });
}

QueryEngine::QueryEngine(SnapshotManager& mgr, Options opt)
    : mgr_(&mgr),
      opt_(opt),
      cache_(opt.cache_entries),
      queue_(opt.queue_capacity),
      delta_(opt.delta) {
  init();
}

QueryEngine::QueryEngine(const Snapshot& snap, Options opt)
    : mgr_(nullptr),
      owned_mgr_(
          std::make_unique<SnapshotManager>(ServingState::borrow(snap))),
      opt_(opt),
      cache_(opt.cache_entries),
      queue_(opt.queue_capacity),
      delta_(opt.delta) {
  mgr_ = owned_mgr_.get();
  init();
}

void QueryEngine::set_flush_hook(std::function<std::uint64_t()> hook) {
  std::lock_guard lock(hook_mu_);
  flush_hook_ = std::move(hook);
}

QueryEngine::~QueryEngine() {
  stop_.store(true, std::memory_order_release);
  wake_worker();
  worker_.join();
}

bool QueryEngine::valid(const ServingState& st, const Query& q) {
  const auto n = static_cast<std::uint32_t>(st.size());
  if (q.kind == QueryKind::kFlush) return true;
  if (q.kind == QueryKind::kAdd || q.kind == QueryKind::kDelete) {
    if (q.a >= n) return false;
    if (q.nids < 1 || q.nids > kMaxKwayIds) return false;
    // The record rule and compaction both need base membership; a snapshot
    // cut without element lists cannot accept writes.
    if (!st.writable()) return false;
    const std::uint64_t universe = st.snapshot().universe();
    for (std::uint32_t i = 0; i < q.nids; ++i) {
      if (q.ids[i] >= universe) return false;
    }
    return true;
  }
  if (is_kway(q.kind)) {
    if (q.nids < 2 || q.nids > kMaxKwayIds) return false;
    const Snapshot& snap = st.snapshot();
    for (std::uint32_t i = 0; i < q.nids; ++i) {
      const std::uint32_t id = q.ids[i];
      if (id >= n) return false;
      // The K/R fold reads the stored element lists; a snapshot cut
      // without them can only serve pair kinds.
      if (snap.elements(id).empty() &&
          snap.stored_elements(id) + snap.failures(id).size() > 0) {
        return false;
      }
    }
    return true;
  }
  if (q.a >= n) return false;
  if (q.kind == QueryKind::kTopK) {
    // The reference ranking (rank_rows) counts over element lists, so top-k
    // needs them too; writable() is "every row kept its list".
    return q.k >= 1 && q.k <= kMaxTopK && st.writable();
  }
  return q.b < n;
}

Admit QueryEngine::try_submit_ex(Request& r) {
  r.result_ = Result{};
  if (deadline_expired(r.query, now_ns())) {
    // Shed before touching the queue: completing here (not in the worker)
    // is what keeps an overloaded ring from growing a tail of dead work.
    adm_timeouts_.fetch_add(1, std::memory_order_relaxed);
    r.pinned_.reset();
    r.state_.store(Request::kTimeout, std::memory_order_release);
    r.state_.notify_all();
    return Admit::kExpired;
  }
  if (!gate_.admit()) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Admit::kShed;
  }
  if (util::fault::armed() && util::fault::fire("ring_full")) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Admit::kRingFull;
  }
  r.pinned_ = mgr_->current();
  r.engine_ = this;
  r.state_.store(Request::kQueued, std::memory_order_release);
  inflight_.fetch_add(1, std::memory_order_relaxed);
  // Counted before the push, so the count never falls short of the ring
  // (see run_queued). No wake-up: the submitter's wait() runs the request.
  exec_.fetch_add(kQueuedOne, std::memory_order_acq_rel);
  if (!queue_.try_push(&r)) {
    exec_.fetch_sub(kQueuedOne, std::memory_order_acq_rel);
    inflight_.fetch_sub(1, std::memory_order_relaxed);
    r.state_.store(Request::kIdle, std::memory_order_release);
    r.pinned_.reset();
    shed_.fetch_add(1, std::memory_order_relaxed);
    return Admit::kRingFull;
  }
  return Admit::kOk;
}

void QueryEngine::submit(Request& r) {
  for (;;) {
    const Admit a = try_submit_ex(r);
    if (a == Admit::kOk || a == Admit::kExpired) return;
    // The ring may be full of this thread's own requests, submitted ahead
    // of their waits: only the worker can make room.
    if (a == Admit::kRingFull) wake_worker();
    std::this_thread::yield();
  }
}

bool QueryEngine::wait(Request& r) {
  QueryEngine* const e = r.engine_;
  if (e != nullptr &&
      r.state_.load(std::memory_order_acquire) == Request::kQueued) {
    if (e->delta_.no_pending_ops()) {
      const std::uint64_t until = now_ns() + kInlineSpinNs;
      bool last = false;
      while (!last &&
             r.state_.load(std::memory_order_acquire) == Request::kQueued) {
        last = now_ns() >= until;
        // Test before test-and-set while spinning; the last try is always
        // run_queued's read-modify-write, which the no-stranded-request
        // argument needs before this thread parks.
        const bool unlocked =
            (e->exec_.load(std::memory_order_relaxed) & kLocked) == 0;
        if (last || unlocked) {
          e->run_queued(/*on_waiter=*/true);
        } else {
          cpu_relax();
        }
      }
    } else {
      e->wake_worker();
    }
  }
  for (;;) {
    const std::uint32_t s = r.state_.load(std::memory_order_acquire);
    if (s == Request::kDone) return true;
    if (s == Request::kError || s == Request::kTimeout ||
        s == Request::kOverload) {
      return false;
    }
    if (s == Request::kFinishing) {
      std::this_thread::yield();  // the final store follows (see finish)
      continue;
    }
    r.state_.wait(s, std::memory_order_acquire);
  }
}

std::uint64_t QueryEngine::retry_after_ns() const {
  const std::uint64_t gate = gate_.retry_after_ns();
  // Ring-full has no closed form (it drains at batch speed); suggest one
  // millisecond — several micro-batches at serving rates.
  return std::max<std::uint64_t>(gate, 1'000'000);
}

void QueryEngine::drain() const {
  while (inflight_.load(std::memory_order_acquire) != 0) {
    wake_worker();  // requests whose submitters never wait
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
}

void QueryEngine::wake_worker() const {
  signal_.fetch_add(1, std::memory_order_release);
  signal_.notify_one();
}

void QueryEngine::worker_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    signal_.wait(seen, std::memory_order_acquire);  // parked until woken
    seen = signal_.load(std::memory_order_acquire);
    if (stop_.load(std::memory_order_acquire)) return;
    // Drain while requests stay queued. A busy lock ends the round: its
    // holder wakes this thread again if it leaves requests behind.
    while (run_queued(/*on_waiter=*/false)) {
    }
  }
}

// Request lifetime. The store of a final state is the last access to r:
// once a waiter reads it, wait() returns and r may be destroyed (servers
// keep their Request on the stack). So the wake-up goes out first, under
// the transient kFinishing, which keeps r alive because its waiter cannot
// return on it: a woken waiter yields through kFinishing until the final
// store lands.
void QueryEngine::finish(Request& r, std::uint32_t state) {
  r.pinned_.reset();  // release the epoch pin before the waiter can reuse r
  inflight_.fetch_sub(1, std::memory_order_release);
  r.state_.store(Request::kFinishing, std::memory_order_release);
  r.state_.notify_all();
  r.state_.store(state, std::memory_order_release);
}

// No stranded request. A waiter W parks only after its last lock attempt,
// a read-modify-write of exec_ sequenced after both W's count increment and
// its push of r, found the lock held by some H. Every write to exec_ is a
// read-modify-write, so they form one total order in which W's increment
// and failed attempt precede H's release, and every later RMW reads a value
// in their release sequence: H's release therefore sees r counted, and H
// (and anyone H wakes) sees r's push. Every pop happens under the lock and
// is uncounted by its popper's release, after the popped request's own
// increment; so at H's release the count holds r's two unless r was popped
// and finished — it is at least kQueuedOne. H, a waiter, wakes the worker;
// H, the worker, runs another round. A worker round that cannot take the
// lock ends the same way, with the next holder's release. The same holds
// for a waiter that parked without trying (pending writes): it woke the
// worker after its push, and the worker's attempt is the RMW above.
bool QueryEngine::run_queued(bool on_waiter) noexcept {
  if (exec_.fetch_or(kLocked, std::memory_order_acq_rel) & kLocked) {
    return false;
  }
  std::size_t count = 0;
  while (count < opt_.max_batch && queue_.try_pop(batch_[count])) ++count;
  if (count > 0) execute_batch(count, on_waiter);
  const std::uint64_t taken = kLocked + count * kQueuedOne;
  const std::uint64_t left =
      exec_.fetch_sub(taken, std::memory_order_acq_rel) - taken;
  if (left == 0) return false;
  if (on_waiter) {
    wake_worker();
  } else if (count == 0) {
    std::this_thread::yield();  // a counted push still in flight
  }
  return true;
}

void QueryEngine::execute_batch(std::size_t count, bool on_waiter) {
  if (util::fault::armed()) util::fault::maybe_stall("worker_stall_ms");

  arena_.reset();
  Stats local{};
  local.batches = 1;
  local.inline_batches = on_waiter ? 1 : 0;
  local.max_batch_seen = count;

  // The serving generation for this batch. Requests pinned to an older
  // epoch (admitted before a swap this batch now observes) are served
  // through execute_on against their own state below.
  const ServingStateRef cur = mgr_->current();
  if (cur->epoch() != bound_epoch_) {
    if (cur->packed().n > 0) sweep_->bind(cur->packed());
    // Epoch-keyed entries from the old generation can never hit again;
    // clearing hands their capacity to the new epoch immediately.
    cache_.clear();
    if (bound_epoch_ != kUnbound) ++local.epoch_rollovers;
    bound_epoch_ = cur->epoch();
  }
  const std::uint64_t cur_epoch = cur->epoch();
  const std::uint64_t batch_now = now_ns();

  // One consistent delta view for the whole batch (a single lock
  // acquisition, none when no writes are pending).
  const DeltaView dview = delta_.view_at(cur_epoch);
  const bool delta_active = dview.any();

  // Every completion goes through here: the batch's counters so far merge
  // into stats_ before finish() wakes the request, so a STATS sent after a
  // reply always counts it, and no request waits on the rest of its batch.
  const auto complete = [&](Request& r, std::uint32_t state) {
    publish(local);
    finish(r, state);
  };

  auto topks = arena_.alloc_array<std::uint32_t>(count);
  std::size_t n_topk = 0;

  for (std::size_t i = 0; i < count; ++i) {
    Request& r = *batch_[i];
    if (deadline_expired(r.query, batch_now)) {
      ++local.queries;
      ++local.timeouts;
      complete(r, Request::kTimeout);
      continue;
    }
    if (is_mutation(r.query.kind)) {
      // Mutations apply to the live layer against the current base,
      // whatever epoch the request was admitted under. Queries later in
      // this batch still read the pre-batch dview — writes in a batch are
      // concurrent with its reads, and either serialization is valid.
      ++local.queries;
      try {
        r.result_.value = mutate(*cur, r.query);
        complete(r, Request::kDone);
      } catch (const DeltaFullError&) {
        delta_shed_.fetch_add(1, std::memory_order_relaxed);
        complete(r, Request::kOverload);
      } catch (const CheckError&) {
        ++local.errors;
        complete(r, Request::kError);
      }
      continue;
    }
    if (r.pinned_.get() != cur.get()) {
      // Straggler from a pre-swap admission: serve it against the epoch it
      // was admitted under (still resident — the pin guarantees it).
      const ServingState& st = *r.pinned_;
      ++local.queries;
      ++local.pinned_fallbacks;
      if (!valid(st, r.query)) {
        ++local.errors;
        complete(r, Request::kError);
      } else {
        r.result_ = execute_on(st, r.query);
        complete(r, Request::kDone);
      }
      continue;
    }
    if (!valid(*cur, r.query)) {
      ++local.queries;
      ++local.errors;
      complete(r, Request::kError);
      continue;
    }
    if (is_kway(r.query.kind)) {
      // K-way queries bypass the cache: Key{a, b} cannot hold an id list
      // losslessly and a hashed key could alias two different lists.
      run_kway(*cur, r, local, dview);
      ++local.queries;
      ++local.kway_queries;
      complete(r, Request::kDone);
      continue;
    }
    // Dirty queries bypass the cache entirely (no probe, no insert): an
    // entry keyed (epoch, pair) must mean "base answer" — sets only become
    // clean again via compaction, which bumps the epoch and clears the
    // cache, so stale entries can never be consulted. Top-k ranks against
    // every row, so any pending delta makes it dirty.
    const bool q_dirty =
        delta_active &&
        (r.query.kind == QueryKind::kTopK ||
         dview.dirty(r.query.a) || dview.dirty(r.query.b));
    if (!q_dirty && cache_.capacity() > 0) {
      if (const Result* hit = cache_.find(cache_key(cur_epoch, r.query))) {
        r.result_ = *hit;
        ++local.queries;
        ++local.cache_hits;
        complete(r, Request::kDone);
        continue;
      }
    }
    ++local.cache_misses;
    if (r.query.kind == QueryKind::kTopK) {
      topks[n_topk++] = static_cast<std::uint32_t>(i);
      continue;
    }
    r.result_.value = pair_value(*cur, dview, r.query);
    if (!q_dirty && cache_.capacity() > 0) {
      cache_.insert(cache_key(cur_epoch, r.query), r.result_);
    }
    ++local.queries;
    ++local.cyclic_pairs;
    complete(r, Request::kDone);
  }

  // Top-k queries sharing a row coalesce into one sweep: sort by (a, k
  // desc), sweep once with the largest k, and serve the smaller ks from
  // prefixes (the k'-best list is exactly the first k' of the k-best).
  std::sort(topks.begin(), topks.begin() + static_cast<std::ptrdiff_t>(n_topk),
            [&](std::uint32_t x, std::uint32_t y) {
              const Query& qx = batch_[x]->query;
              const Query& qy = batch_[y]->query;
              if (qx.a != qy.a) return qx.a < qy.a;
              return qx.k > qy.k;
            });
  std::size_t t = 0;
  while (t < n_topk) {
    Request& lead = *batch_[topks[t]];
    run_topk(*cur, lead, dview);
    ++local.queries;
    ++local.topk_sweeps;
    const Result lead_res = lead.result_;  // copy before handing back
    const Query lead_query = lead.query;
    if (!delta_active && cache_.capacity() > 0) {
      cache_.insert(cache_key(cur_epoch, lead_query), lead_res);
    }
    complete(lead, Request::kDone);
    std::size_t u = t + 1;
    for (; u < n_topk && batch_[topks[u]]->query.a == lead_query.a; ++u) {
      Request& r = *batch_[topks[u]];
      const std::uint32_t k = std::min(r.query.k, lead_res.topk_count);
      r.result_.topk_count = k;
      r.result_.value = k;
      std::copy_n(lead_res.topk, k, r.result_.topk);
      if (!delta_active && cache_.capacity() > 0) {
        cache_.insert(cache_key(cur_epoch, r.query), r.result_);
      }
      ++local.queries;
      ++local.duplicate_topk;
      complete(r, Request::kDone);
    }
    t = u;
  }
}

void QueryEngine::publish(Stats& local) {
  std::lock_guard lock(stats_mu_);
  stats_.queries += local.queries;
  stats_.errors += local.errors;
  stats_.batches += local.batches;
  stats_.inline_batches += local.inline_batches;
  stats_.max_batch_seen = std::max(stats_.max_batch_seen, local.max_batch_seen);
  stats_.cache_hits += local.cache_hits;
  stats_.cache_misses += local.cache_misses;
  stats_.cyclic_pairs += local.cyclic_pairs;
  stats_.topk_sweeps += local.topk_sweeps;
  stats_.duplicate_topk += local.duplicate_topk;
  stats_.kway_queries += local.kway_queries;
  stats_.kway_list_steps += local.kway_list_steps;
  stats_.timeouts += local.timeouts;
  stats_.pinned_fallbacks += local.pinned_fallbacks;
  stats_.epoch_rollovers += local.epoch_rollovers;
  // Arena and cache internals are touched only under the execution lock;
  // publishing them here (under the mutex) is what makes stats() safe to
  // call from any thread mid-serve.
  stats_.cache_evictions = cache_.evictions();
  stats_.arena_reserved_bytes = arena_.bytes_reserved();
  stats_.arena_blocks = arena_.block_count();
  local = Stats{};
}

ResultCache<Result>::Key QueryEngine::cache_key(std::uint64_t epoch,
                                                const Query& q) {
  // Pair counts are symmetric, so (a,b) and (b,a) share one canonical
  // entry; top-k keys carry k in the second slot.
  if (q.kind == QueryKind::kTopK) {
    return {epoch, q.a, q.k, static_cast<std::uint8_t>(q.kind)};
  }
  return {epoch, std::min(q.a, q.b), std::max(q.a, q.b),
          static_cast<std::uint8_t>(q.kind)};
}

void QueryEngine::run_topk(const ServingState& st, Request& r,
                           const DeltaView& dview) {
  const Snapshot& snap = st.snapshot();
  const core::PackedMaps& packed = st.packed();
  const std::uint32_t a = r.query.a;
  const std::uint32_t k = r.query.k;
  if (packed.n == 0) {
    // Mixed-layout snapshot: no packed matrix to sweep.
    r.result_ = rank_rows(snap, dview, a, k);
    return;
  }
  const std::uint32_t sa = packed.sorted_index[a];
  const auto fa = snap.failures(a);
  const auto ea = snap.elements(a);
  const auto ops_a = dview.ops(a);

  std::fill(topk_sizes_.begin(), topk_sizes_.end(), 0u);
  // Sweep column sa against ALL rows (the transposed band parallelizes
  // across row-band shards); counts are symmetric in the pair. The delta
  // correction is applied inside the visitor, before ranking — a per-shard
  // k-best by base counts would miss rows a pending insert promotes.
  sweep_->sweep_rect(
      0, packed.n, sa, sa + 1, [&](core::SweepEngine::TileView& tv) {
        TopEntry* best = topk_merge_.data() +
                         static_cast<std::size_t>(tv.shard) * kMaxTopK;
        std::uint32_t& size = topk_sizes_[tv.shard];
        tv.for_each_pair([&](std::uint32_t id_row, std::uint32_t id_col,
                             std::uint32_t cnt) {
          REPRO_DCHECK(id_col == a);
          (void)id_col;
          if (id_row == a) return;  // self-pair is not a neighbour
          std::uint64_t patched = cnt;
          const auto fr = snap.failures(id_row);
          if (!fa.empty() || !fr.empty()) {
            patched += batmap::failure_patch_correction(
                fa, ea, fr, snap.elements(id_row));
          }
          patched = with_delta(patched, ea, ops_a, snap.elements(id_row),
                               dview.ops(id_row));
          size = topk_insert(best, size, k, id_row, patched);
        });
      });

  // Merge the per-shard k-best arrays.
  TopEntry merged[kMaxTopK];
  std::uint32_t m = 0;
  for (std::size_t s = 0; s < topk_sizes_.size(); ++s) {
    const TopEntry* best = topk_merge_.data() + s * kMaxTopK;
    for (std::uint32_t i = 0; i < topk_sizes_[s]; ++i) {
      m = topk_insert(merged, m, k, best[i].id, best[i].count);
    }
  }
  r.result_.topk_count = m;
  r.result_.value = m;
  std::copy_n(merged, m, r.result_.topk);
}

void QueryEngine::run_kway(const ServingState& st, Request& r, Stats& local,
                           const DeltaView& dview) {
  r.result_ = kway_effective(st.snapshot(), dview, r.query,
                             local.kway_list_steps);
}

std::uint64_t QueryEngine::pair_value(const ServingState& st,
                                      const DeltaView& dview,
                                      const Query& q) const {
  const Snapshot& snap = st.snapshot();
  if (!dview.dirty(q.a) && !dview.dirty(q.b)) {
    return q.kind == QueryKind::kIntersect ? snap.intersection_size(q.a, q.b)
                                           : snap.raw_count(q.a, q.b);
  }
  // Merge-on-read: base kernel + delta correction.
  const auto ea = snap.elements(q.a);
  const auto eb = snap.elements(q.b);
  const std::uint64_t exact = with_delta(snap.intersection_size(q.a, q.b), ea,
                                         dview.ops(q.a), eb, dview.ops(q.b));
  if (q.kind == QueryKind::kIntersect) return exact;
  // kSupport: raw = exact − failure patch, both over the EFFECTIVE rows.
  // A dirty row's failure set comes from the deterministic rebuild (same
  // context / insertion order / builder options the compactor will use),
  // so the raw count served now is byte-identical to the one served after
  // the pending ops compact into a snapshot.
  REPRO_DCHECK(q.kind == QueryKind::kSupport);
  std::span<const std::uint64_t> fa = snap.failures(q.a);
  std::span<const std::uint64_t> fea = ea;
  std::span<const std::uint64_t> fb = snap.failures(q.b);
  std::span<const std::uint64_t> feb = eb;
  EffectiveRowRef ra, rb;  // keep cached rows alive across the patch
  if (dview.dirty(q.a)) {
    ra = delta_.effective_row(snap, q.a, st.epoch());
    fa = ra->failures;
    fea = ra->elements;
  }
  if (dview.dirty(q.b)) {
    rb = delta_.effective_row(snap, q.b, st.epoch());
    fb = rb->failures;
    feb = rb->elements;
  }
  std::uint64_t patch = 0;
  if (!fa.empty() || !fb.empty()) {
    patch = batmap::failure_patch_correction(fa, fea, fb, feb);
  }
  return exact - patch;
}

std::uint64_t QueryEngine::mutate(const ServingState& st, const Query& q) {
  if (q.kind == QueryKind::kFlush) {
    std::function<std::uint64_t()> hook;
    {
      std::lock_guard lock(hook_mu_);
      hook = flush_hook_;
    }
    if (hook) return hook();
    // No compactor wired: FLUSH is a barrier only. With nothing pending it
    // trivially succeeds at the current epoch; with pending ops it cannot
    // make them durable, which is an error the client must see.
    REPRO_CHECK_MSG(delta_.pending_total() == 0,
                    "FLUSH with pending writes needs a compactor");
    return st.epoch();
  }
  REPRO_CHECK_MSG(valid(st, q), "invalid query");
  std::uint64_t ids64[kMaxKwayIds];
  for (std::uint32_t i = 0; i < q.nids; ++i) ids64[i] = q.ids[i];
  return delta_.apply(q.a, {ids64, q.nids}, q.kind == QueryKind::kDelete,
                      st.snapshot().elements(q.a), st.epoch());
}

Result QueryEngine::execute_serial(const Query& q) {
  if (!is_mutation(q.kind)) return execute_one(q);
  Result res;
  res.value = mutate(*mgr_->current(), q);  // CheckError / DeltaFullError
  return res;                                // propagate to the caller
}

Result QueryEngine::execute_on(const ServingState& st, const Query& q) const {
  const DeltaView dview = delta_.view_at(st.epoch());
  Result res;
  std::uint64_t merges = 0;
  switch (q.kind) {
    case QueryKind::kIntersect:
    case QueryKind::kSupport:
      res.value = pair_value(st, dview, q);
      break;
    case QueryKind::kTopK:
      res = rank_rows(st.snapshot(), dview, q.a, q.k);
      break;
    case QueryKind::kKway:
    case QueryKind::kRuleScore:
      res = kway_effective(st.snapshot(), dview, q, merges);
      break;
    case QueryKind::kAdd:
    case QueryKind::kDelete:
    case QueryKind::kFlush:
      break;  // mutations never reach execute_on
  }
  return res;
}

Result QueryEngine::execute_one(const Query& q) const {
  REPRO_CHECK_MSG(!is_mutation(q.kind),
                  "execute_one is read-only; use execute_serial");
  const ServingStateRef st = mgr_->current();
  REPRO_CHECK_MSG(valid(*st, q), "invalid query");
  return execute_on(*st, q);
}

std::vector<std::uint64_t> QueryEngine::semi_join(
    std::span<const std::uint32_t> ids, std::span<const std::uint64_t> seed,
    bool use_seed, bool raw) const {
  x_queries_.fetch_add(1, std::memory_order_relaxed);
  const ServingStateRef st = mgr_->current();
  const Snapshot& snap = st->snapshot();
  const DeltaView dview = delta_.view_at(st->epoch());
  REPRO_CHECK_MSG(use_seed || !ids.empty(),
                  "semi_join needs a seed or an operand");
  EffectiveRowRef hold;  // keeps the last dirty rebuild alive across use
  // Materializes set `id` in the requested domain: full membership
  // (raw=false) or stored elements — membership minus insertion failures —
  // (raw=true, the domain the raw sweep counts in).
  const auto row = [&](std::uint32_t id, std::vector<std::uint64_t>& out)
      -> std::span<const std::uint64_t> {
    REPRO_CHECK_MSG(id < snap.size(), "set id out of range");
    if (!raw) return effective_elements(snap, dview, id, out);
    std::span<const std::uint64_t> elems = snap.elements(id);
    std::span<const std::uint64_t> fails = snap.failures(id);
    if (dview.dirty(id)) {
      hold = delta_.effective_row(snap, id, st->epoch());
      elems = hold->elements;
      fails = hold->failures;
    }
    out.clear();
    out.reserve(elems.size());
    std::size_t f = 0;
    for (const std::uint64_t v : elems) {
      while (f < fails.size() && fails[f] < v) ++f;
      if (f < fails.size() && fails[f] == v) {
        ++f;
        continue;
      }
      out.push_back(v);
    }
    return out;
  };
  std::vector<std::uint64_t> cur;
  if (use_seed) cur.assign(seed.begin(), seed.end());
  fold_rows(ids, use_seed, cur, row);
  return cur;
}

std::vector<TopEntry> QueryEngine::topk_against(
    std::span<const std::uint64_t> list, std::uint32_t k,
    std::uint32_t exclude) const {
  x_queries_.fetch_add(1, std::memory_order_relaxed);
  REPRO_CHECK_MSG(k >= 1 && k <= kMaxTopK, "k out of range");
  const ServingStateRef st = mgr_->current();
  const DeltaView dview = delta_.view_at(st->epoch());
  TopEntry best[kMaxTopK];
  const std::uint32_t size =
      rank_against(st->snapshot(), dview, list, k, exclude, best);
  return {best, best + size};
}

std::vector<std::uint64_t> QueryEngine::row_supports() const {
  x_queries_.fetch_add(1, std::memory_order_relaxed);
  const ServingStateRef st = mgr_->current();
  const Snapshot& snap = st->snapshot();
  const DeltaView dview = delta_.view_at(st->epoch());
  std::vector<std::uint64_t> out(snap.size());
  std::vector<std::uint64_t> tmp;
  for (std::uint32_t id = 0; id < snap.size(); ++id) {
    out[id] = effective_elements(snap, dview, id, tmp).size();
  }
  return out;
}

QueryEngine::Stats QueryEngine::stats() const {
  Stats out;
  {
    std::lock_guard lock(stats_mu_);
    out = stats_;
  }
  out.shed_overload = shed_.load(std::memory_order_relaxed);
  out.timeouts += adm_timeouts_.load(std::memory_order_relaxed);
  const DeltaLayer::Gauges g = delta_.gauges();
  out.delta_sets = g.delta_sets;
  out.delta_elements = g.delta_elements;
  out.delta_bytes = g.delta_bytes;
  out.delta_writes = g.writes;
  out.delta_deletes = g.deletes;
  out.compactions = g.compactions;
  out.compacted_rows = g.compacted_rows;
  out.delta_shed = delta_shed_.load(std::memory_order_relaxed);
  out.x_queries = x_queries_.load(std::memory_order_relaxed);
  // Layout gauges reflect the snapshot being served right now.
  const Snapshot::LayoutBreakdown br =
      mgr_->current()->snapshot().layout_breakdown();
  out.rows_batmap = br.rows[static_cast<int>(core::RowLayout::kBatmap)];
  out.rows_dense = br.rows[static_cast<int>(core::RowLayout::kDense)];
  out.rows_list = br.rows[static_cast<int>(core::RowLayout::kSortedList)];
  out.rows_wah = br.rows[static_cast<int>(core::RowLayout::kWah)];
  return out;
}

std::string format_stats(const QueryEngine::Stats& s, std::uint64_t epoch,
                         std::uint64_t swaps) {
  char tmp[1536];
  std::snprintf(
      tmp, sizeof(tmp),
      "STATS queries=%" PRIu64 " batches=%" PRIu64 " inline_batches=%" PRIu64
      " max_batch=%" PRIu64 " cache_hits=%" PRIu64 " cache_misses=%" PRIu64
      " cyclic_pairs=%" PRIu64 " topk_sweeps=%" PRIu64 " kway=%" PRIu64
      " kway_list=%" PRIu64 " arena_reserved=%" PRIu64
      " shed=%" PRIu64 " timeouts=%" PRIu64 " pinned_fallbacks=%" PRIu64
      " rollovers=%" PRIu64 " rows_batmap=%" PRIu64 " rows_dense=%" PRIu64
      " rows_list=%" PRIu64 " rows_wah=%" PRIu64 " delta_sets=%" PRIu64
      " delta_elements=%" PRIu64 " delta_bytes=%" PRIu64 " writes=%" PRIu64
      " deletes=%" PRIu64 " compactions=%" PRIu64 " compacted_rows=%" PRIu64
      " delta_shed=%" PRIu64
      " epoch=%" PRIu64 " swaps=%" PRIu64 " x_queries=%" PRIu64,
      s.queries, s.batches, s.inline_batches, s.max_batch_seen, s.cache_hits,
      s.cache_misses, s.cyclic_pairs, s.topk_sweeps, s.kway_queries,
      s.kway_list_steps, s.arena_reserved_bytes,
      s.shed_overload, s.timeouts, s.pinned_fallbacks, s.epoch_rollovers,
      s.rows_batmap, s.rows_dense, s.rows_list, s.rows_wah, s.delta_sets,
      s.delta_elements, s.delta_bytes, s.delta_writes, s.delta_deletes,
      s.compactions, s.compacted_rows, s.delta_shed, epoch, swaps,
      s.x_queries);
  return tmp;
}

}  // namespace repro::service
