// Concurrent batched query engine over an mmap-ed batmap snapshot, with
// hot-swap, deadline-aware admission, and typed overload shedding.
//
// Clients submit Requests (client-owned completion slots — the engine never
// allocates per query) onto a bounded lock-free MPMC queue and then wait().
// Whichever thread holds the engine's one execution lock drains up to
// max_batch queued requests into a micro-batch and executes it; that is
// normally the waiting client itself (see "Who runs a batch" below):
//
//   1. result cache probe — (epoch, kind, a, b/k)-keyed LRU; hits complete
//      immediately without touching a kernel.
//   2. pair queries (intersect / support) that miss run pair_value — the
//      snapshot's layout kernel, plus the delta correction when a row has
//      pending writes — and complete in place. Every path (batched,
//      straggler, naive) answers pairs through this one function.
//   3. top-k-similar queries sharing a row run once with the largest k
//      and serve smaller ks from its prefix. All-batmap snapshots sweep the
//      row band through the engine-owned SweepEngine and reduce per-shard
//      k-best arrays; mixed-layout snapshots (no packed words) run the one
//      list ranking the naive path and X T use: the probe's effective
//      elements as a bitmap, each row's list counted by bit tests (or
//      galloped in sparse universes).
//   4. k-way conjunctive queries (kKway / kRuleScore) are planned per query:
//      operands ordered by snapshot-stored support, then each intersection
//      step picks galloping sorted-list merge vs batmap counter sweep by a
//      memory-touch cost model; the sweeps' shared fixed cost (one counter
//      array, one decode pass) is amortized over the whole candidate set
//      (see kway_count). A query with a dirty operand, and every k-way
//      query on the naive path, folds effective element lists instead.
//      Results are exact and independent of protocol operand order; they
//      bypass the result cache (its key cannot hold an id list
//      losslessly).
//
// Who runs a batch: submit only pushes. wait() tries the execution lock
// for a few microseconds and, when it gets it, runs the queued micro-batch
// on its own thread — one thread hop per request instead of a wake-up of a
// batch worker and a wake-up back. A waiter that cannot get the lock parks
// on its request. The batch worker takes only backlog: it is woken when a
// releaser leaves requests queued, when submit() finds the ring full, by
// drain() and by the destructor, and then drains until the queue is empty.
// While the delta layer holds pending writes, waiters leave every batch to
// the worker: such batches pay a DeltaView build that dwarfs a wake-up,
// and the delta's long-lived allocations stay on one thread's malloc
// arena. Contract: a queued request runs no later than the moment its
// submitter calls wait().
//
// Snapshot hot-swap (SnapshotManager mode): every admitted request pins the
// ServingState that was current at submit time; each batch executes
// against the manager's current state and serves stragglers pinned to
// an older, still-resident epoch through execute_on — the naive path's
// per-query execution, against that epoch and its delta view. The first
// batch after a swap rebinds the sweep engine to the new packed
// words and clears the result cache (entries are epoch-keyed so they could
// never hit anyway — clearing returns their capacity to the new epoch
// immediately). Retired snapshots unmap when the last pin drops; see
// snapshot_manager.hpp.
//
// Admission control: try_submit_ex() is the shedding entry point. It
// reports kRingFull when the Vyukov ring is at capacity (the backpressure
// signal), kShed when the optional token gate (Options::admit_rate/burst)
// is out of tokens, and kExpired — completing the request with outcome
// kTimeout — when the query's deadline has already passed. The thread that
// runs the batch re-checks deadlines before executing, so a request that
// waited out its deadline in the queue times out instead of burning a
// kernel.
// retry_after_ns() is the backoff hint servers relay to clients.
//
// Batch planning scratch lives in an arena that is reset per batch, the
// cache and queue are fully preallocated, and results are written into the
// caller's Request, so steady-state serving of pair queries performs no
// per-query heap allocation (pinned by the arena stats in
// query_engine_test).
//
// Failure patching: kIntersect results are exact (cyclic sweep + the
// failure-list correction); kSupport returns the raw unpatched sweep count.
// Batched, naive (execute_one) and offline answers are bit-identical — the
// differential tests and serving_parity_test's fingerprints enforce this.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/sweep_engine.hpp"
#include "service/delta_layer.hpp"
#include "service/mpmc_queue.hpp"
#include "service/result_cache.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/arena.hpp"

namespace repro::service {

enum class QueryKind : std::uint8_t {
  kIntersect = 0,  ///< exact |S_a ∩ S_b| (failure-patched)
  kSupport = 1,    ///< raw batmap sweep count (unpatched)
  kTopK = 2,       ///< k most similar sets to a, by exact intersection size
  kKway = 3,       ///< exact |S_{ids[0]} ∩ … ∩ S_{ids[nids-1]}|
  /// Association-rule score: value = joint count over all ids, aux = count
  /// over the antecedent ids[0..nids-2] (the consequent is ids[nids-1]), so
  /// the caller can form confidence = value / aux without a second query.
  kRuleScore = 4,
  /// Mutations against the live delta layer (protocol `A` / `D`): set `a`,
  /// elements in ids[0..nids-1]. value = ops actually recorded (re-adding a
  /// present element is 0). `FLUSH` forces a synchronous compaction; value
  /// = the epoch serving afterwards.
  kAdd = 5,
  kDelete = 6,
  kFlush = 7,
};

/// Top-k width cap: results are fixed-size so completion slots never
/// allocate.
inline constexpr std::uint32_t kMaxTopK = 16;

/// Operand cap for k-way kinds — the id list is inline in Query so
/// completion slots stay fixed-size and allocation-free.
inline constexpr std::uint32_t kMaxKwayIds = 8;

struct Query {
  QueryKind kind = QueryKind::kIntersect;
  std::uint32_t a = 0;
  std::uint32_t b = 0;  ///< second set id (pair kinds)
  std::uint32_t k = 0;  ///< result width, 1..kMaxTopK (top-k kind)
  /// Absolute deadline on the steady clock (QueryEngine::now_ns() units);
  /// 0 = no deadline. Expired requests are shed with outcome kTimeout at
  /// admission and again before execution, never silently served late.
  std::uint64_t deadline_ns = 0;
  /// Operands of the k-way kinds, in protocol order (the planner reorders
  /// internally; results are order-independent). a/b/k are unused there.
  std::uint32_t ids[kMaxKwayIds] = {};
  std::uint8_t nids = 0;  ///< operands filled in ids[], 2..kMaxKwayIds
};

struct TopEntry {
  std::uint32_t id = 0;
  std::uint64_t count = 0;
};

/// Inserts (id, count) into a k-best array sorted by (count desc, id asc).
/// `size` is the current fill; returns the new fill. Every ranked path —
/// batched top-k, the naive reference, the shard-local X T handler, and
/// the router's global scatter-gather merge — ranks through this one
/// function, so their outputs are identical by construction (the order is
/// total — ids are distinct).
inline std::uint32_t topk_insert(TopEntry* best, std::uint32_t size,
                                 std::uint32_t k, std::uint32_t id,
                                 std::uint64_t count) {
  std::uint32_t pos = size;
  while (pos > 0 && (count > best[pos - 1].count ||
                     (count == best[pos - 1].count && id < best[pos - 1].id))) {
    --pos;
  }
  if (pos >= k) return size;
  const std::uint32_t new_size = size + 1 < k ? size + 1 : k;
  for (std::uint32_t i = new_size; i-- > pos + 1;) best[i] = best[i - 1];
  best[pos] = {id, count};
  return new_size;
}

struct Result {
  std::uint64_t value = 0;       ///< pair count, or number of top-k entries
  /// kRuleScore: antecedent intersection count (0 for every other kind).
  std::uint64_t aux = 0;
  std::uint32_t topk_count = 0;  ///< entries filled in topk[]
  TopEntry topk[kMaxTopK]{};     ///< (id, count) by count desc, id asc
};

/// Admission verdict of try_submit_ex.
enum class Admit : std::uint8_t {
  kOk = 0,       ///< queued; wait() for completion
  kRingFull = 1,  ///< the MPMC ring is at capacity — back off and retry
  kShed = 2,      ///< the token gate is out of tokens — back off and retry
  kExpired = 3,   ///< deadline already passed; request completed as kTimeout
};

/// A client-owned completion slot. Reusable: submit() re-arms it. The slot
/// must stay alive (and unmodified) from submit() until wait() returns.
class QueryEngine;

class Request {
 public:
  Query query;

  /// How the request ended (valid once wait() returns).
  enum class Outcome : std::uint8_t {
    kPending = 0,
    kOk = 1,
    kInvalid = 2,  ///< rejected: id or k out of range for the epoch served
    kTimeout = 3,  ///< deadline expired before execution
    /// Write shed: the delta layer is over budget (typed OVERLOAD — FLUSH
    /// or back off and retry).
    kOverload = 4,
  };

  /// Valid after wait(); unspecified while in flight.
  const Result& result() const { return result_; }
  /// True when the engine did not serve the query (invalid, timed out, or
  /// a shed write).
  bool failed() const {
    const std::uint32_t s = state_.load(std::memory_order_acquire);
    return s == kError || s == kTimeout || s == kOverload;
  }
  Outcome outcome() const {
    switch (state_.load(std::memory_order_acquire)) {
      case kDone: return Outcome::kOk;
      case kError: return Outcome::kInvalid;
      case kTimeout: return Outcome::kTimeout;
      case kOverload: return Outcome::kOverload;
      default: return Outcome::kPending;
    }
  }

 private:
  friend class QueryEngine;
  /// kFinishing is transient: finish() wakes the waiter under it, then
  /// stores the final state (see the lifetime note at finish()).
  static constexpr std::uint32_t kIdle = 0, kQueued = 1, kDone = 2,
                                 kError = 3, kTimeout = 4, kOverload = 5,
                                 kFinishing = 6;

  Result result_;
  std::atomic<std::uint32_t> state_{kIdle};
  /// The serving generation this request was admitted under. Holding the
  /// reference from admission to completion is what keeps a hot-swapped
  /// snapshot mapped until its last in-flight query drains.
  ServingStateRef pinned_;
  /// The engine that admitted the request; wait() runs batches on it.
  QueryEngine* engine_ = nullptr;
};

class QueryEngine {
 public:
  struct Options {
    /// Submission ring capacity — the admission/backpressure limit.
    std::size_t queue_capacity = 1024;
    /// Most requests coalesced into one micro-batch.
    std::size_t max_batch = 256;
    /// LRU result cache entries (rounded up to a power of two); 0 disables.
    std::size_t cache_entries = 4096;
    /// Host threads of the engine-owned SweepEngine (top-k row sweeps).
    std::size_t sweep_threads = 1;
    /// Shards for top-k row sweeps (SweepEngine::Options::shards).
    std::size_t sweep_shards = 1;
    /// Tile edge of the top-k row sweeps (multiple of 16).
    std::uint32_t sweep_tile = 256;
    /// Token-gate admission rate in queries/second; 0 disables the gate
    /// (the ring bound alone provides backpressure).
    double admit_rate = 0;
    /// Token-gate burst size (tokens the bucket can accumulate).
    double admit_burst = 64;
    /// Live-update delta layer configuration (buffering, memory budget,
    /// and the builder options effective-row rebuilds must share with the
    /// offline build).
    DeltaLayer::Options delta{};
  };

  struct Stats {
    std::uint64_t queries = 0;        ///< requests completed (incl. errors)
    std::uint64_t errors = 0;
    std::uint64_t batches = 0;
    /// Batches run by a waiting client thread rather than the batch worker.
    std::uint64_t inline_batches = 0;
    std::uint64_t max_batch_seen = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t cache_evictions = 0;
    std::uint64_t cyclic_pairs = 0;   ///< pairs that ran a kernel (misses)
    std::uint64_t topk_sweeps = 0;    ///< row sweeps executed
    std::uint64_t duplicate_topk = 0;   ///< top-k served from a shared sweep
    std::uint64_t kway_queries = 0;   ///< k-way / rule-score queries served
    /// Planner step counters: galloping sorted-list merges vs batmap
    /// counter sweeps chosen by the per-step cost model.
    std::uint64_t kway_list_steps = 0;
    std::uint64_t kway_sweep_steps = 0;
    /// Admissions shed with kRingFull or kShed (typed overload, not queued).
    std::uint64_t shed_overload = 0;
    /// Requests completed with outcome kTimeout (expired at admission or in
    /// the queue).
    std::uint64_t timeouts = 0;
    /// Requests executed against an older pinned epoch after a swap (the
    /// per-pair straggler path).
    std::uint64_t pinned_fallbacks = 0;
    /// Snapshot swaps the batches have observed (sweep rebind + cache
    /// clear).
    std::uint64_t epoch_rollovers = 0;
    /// Arena footprint of the batch planner; constant once warm (pinned in
    /// query_engine_test — the "no per-query heap allocation" witness).
    std::uint64_t arena_reserved_bytes = 0;
    std::uint64_t arena_blocks = 0;
    /// Row counts of the currently served snapshot by container layout
    /// (gauges recomputed per stats() call, not accumulated).
    std::uint64_t rows_batmap = 0;
    std::uint64_t rows_dense = 0;
    std::uint64_t rows_list = 0;
    std::uint64_t rows_wah = 0;
    /// Live-update gauges (delta layer state at stats() time) and write
    /// counters (cumulative).
    std::uint64_t delta_sets = 0;
    std::uint64_t delta_elements = 0;
    std::uint64_t delta_bytes = 0;
    std::uint64_t delta_writes = 0;
    std::uint64_t delta_deletes = 0;
    std::uint64_t compactions = 0;
    /// Rows compactions rebuilt or re-encoded instead of copying them from
    /// the base (cumulative).
    std::uint64_t compacted_rows = 0;
    /// Writes shed with Outcome::kOverload (delta over budget).
    std::uint64_t delta_shed = 0;
    /// Shard-internal calls served (semi_join, topk_against, row_supports:
    /// the router's X verb); not part of `queries`.
    std::uint64_t x_queries = 0;
  };

  /// Fixed-snapshot mode: serves `snap` forever (no hot-swap). The
  /// snapshot must outlive the engine. Spawns the batch worker.
  QueryEngine(const Snapshot& snap, Options opt);
  /// Hot-swap mode: serves whatever `mgr` currently publishes. The manager
  /// must outlive the engine.
  QueryEngine(SnapshotManager& mgr, Options opt);
  /// Drains nothing: callers must have collected their in-flight requests.
  ~QueryEngine();

  QueryEngine(const QueryEngine&) = delete;
  QueryEngine& operator=(const QueryEngine&) = delete;

  /// Shedding admission: kOk queues the request; kRingFull/kShed leave it
  /// idle (the caller's typed backpressure signal); kExpired completes it
  /// with outcome kTimeout.
  Admit try_submit_ex(Request& r);
  /// Blocking submit: spins (with yields) until admitted, waking the batch
  /// worker whenever the ring is full. A request whose deadline expires
  /// while spinning completes with outcome kTimeout.
  void submit(Request& r);
  /// Blocks until `r` completes, running queued micro-batches on the
  /// calling thread while the engine is free (see the file comment);
  /// returns false iff the engine rejected or timed out the request (see
  /// Request::outcome()).
  static bool wait(Request& r);

  /// Suggested client backoff after kRingFull/kShed, in nanoseconds.
  std::uint64_t retry_after_ns() const;

  /// Blocks until every admitted request has completed — the ring is empty
  /// and no batch is in flight — waking the batch worker for requests no
  /// one waits on. The graceful-shutdown and swap-drain hook.
  void drain() const;

  /// The naive reference path: executes one query synchronously on the
  /// calling thread against the current state — no queue, no batch, no
  /// cache, no row sweep, no k-way planner. Bit-identical to the batched
  /// answers. Read kinds only (REPRO_CHECK on mutations — use
  /// execute_serial for those).
  Result execute_one(const Query& q) const;

  /// The naive path including mutations: writes apply to the delta layer,
  /// FLUSH runs the flush hook (or no-ops when the delta is already empty).
  /// Throws DeltaFullError on an over-budget write and CheckError on an
  /// invalid query or failed compaction — the serial server's typed-reply
  /// contract.
  Result execute_serial(const Query& q);

  // ---- shard-internal entry points (the router's X verb) -------------
  // Thread-safe, delta-aware, executed on the calling thread against the
  // currently published state. These are what a batmap_serve shard runs
  // when a batmap_router forwards cross-shard work: semi-join hops carry
  // the shrinking intermediate element list between shards, and top-k
  // scatter sends the probe set's membership to every shard.

  /// Intersects the effective (delta-merged) rows of `ids` in order,
  /// starting from `seed` when `use_seed` is true (else from ids[0]'s
  /// row), and returns the surviving elements. With raw=false rows are
  /// full membership lists (exact counts — the I/K/R/T domain); with
  /// raw=true they are stored lists (elements minus insertion failures —
  /// the raw sweep domain the S verb counts in). Throws CheckError when an
  /// id is out of range or a needed element list was dropped at build.
  std::vector<std::uint64_t> semi_join(std::span<const std::uint32_t> ids,
                                       std::span<const std::uint64_t> seed,
                                       bool use_seed, bool raw) const;

  /// Ranks every local set id != exclude by |list ∩ S_id| (effective
  /// membership) through the canonical (count desc, id asc) order and
  /// returns the k best. `list` must be strictly increasing. `exclude` =
  /// UINT32_MAX disables the exclusion (used to drop the probe set itself
  /// on its owning shard). Costs O(Σ|S_id|) bit tests against a bitmap of
  /// `list` while ⌈universe/64⌉ ≤ the shard's stored elements, else one
  /// galloping merge per set.
  std::vector<TopEntry> topk_against(std::span<const std::uint64_t> list,
                                     std::uint32_t k,
                                     std::uint32_t exclude) const;

  /// Effective per-set support (|membership|) for every local set, in id
  /// order — the router's planning table for semi-join operand ordering.
  std::vector<std::uint64_t> row_supports() const;

  /// The live-update layer (writes, views, compaction protocol).
  DeltaLayer& delta() { return delta_; }

  /// Installs the FLUSH handler — normally Compactor::compact_now bound by
  /// the server. Returns the post-compaction epoch; without a hook FLUSH
  /// succeeds only when the delta is already empty.
  void set_flush_hook(std::function<std::uint64_t()> hook);

  /// Steady-clock timestamp in the units Query::deadline_ns uses.
  static std::uint64_t now_ns();

  std::uint64_t epoch() const { return mgr_->epoch(); }
  std::size_t size() const { return mgr_->current()->size(); }

  Stats stats() const;

 private:
  /// Mutex-guarded token bucket; only touched when admit_rate > 0.
  class TokenGate {
   public:
    void configure(double rate, double burst);
    bool admit();
    std::uint64_t retry_after_ns() const;

   private:
    mutable std::mutex mu_;
    double rate_ = 0;    ///< tokens per ns
    double burst_ = 0;
    double tokens_ = 0;
    std::uint64_t last_ns_ = 0;
  };

  static bool valid(const ServingState& st, const Query& q);
  /// Shared ctor tail: builds the sweep engine and scratch, configures the
  /// gate, spawns the worker. mgr_ must already point at a live manager.
  void init();
  void worker_loop();
  /// One round of queued work on the calling thread: takes the execution
  /// lock if it is free, runs up to max_batch queued requests as one
  /// micro-batch, and releases the lock. A waiter that leaves requests
  /// queued wakes the worker. Returns true iff the lock was taken and
  /// requests were still queued at release.
  bool run_queued(bool on_waiter) noexcept;
  void wake_worker() const;
  void execute_batch(std::size_t count, bool on_waiter);
  /// Merges the batch's pending counters into stats_ (and refreshes the
  /// gauges of lock-guarded state), then zeroes `local`.
  void publish(Stats& local);
  /// Canonical cache key under `epoch`: pair kinds are keyed on (min, max)
  /// since their counts are symmetric; top-k on (a, k).
  static ResultCache<Result>::Key cache_key(std::uint64_t epoch,
                                            const Query& q);
  void run_topk(const ServingState& st, Request& r, const DeltaView& dview);
  /// Cost-planned k-way execution inside a batch (arena scratch):
  /// operands ordered by snapshot-stored support, each step either a
  /// galloping list merge or a batmap counter sweep. Exact for both kinds.
  /// Queries touching a dirty set fold effective element lists instead.
  void run_kway(const ServingState& st, Request& r, Stats& local,
                const DeltaView& dview);
  /// The planner core: exact |∩ ids| over deduplicated operands, under the
  /// execution lock (scratch comes from the batch arena). The naive path
  /// (execute_on) instead folds element lists in protocol order, so
  /// batched-vs-naive fingerprint parity cross-checks the planner against
  /// an independent implementation.
  std::uint64_t kway_count(const ServingState& st,
                           std::span<const std::uint32_t> ids, Stats& local);
  /// The one pair answer (kIntersect exact, kSupport raw) of every path:
  /// the snapshot's layout kernel for clean rows; under pending ops, base
  /// kernel + delta correction, and for kSupport the effective rows'
  /// failure patch is subtracted so the raw count matches an offline
  /// rebuild.
  std::uint64_t pair_value(const ServingState& st, const DeltaView& dview,
                           const Query& q) const;
  /// The one mutation routine (batched and serial): FLUSH runs the flush
  /// hook, or without one succeeds only when nothing is pending; A/D record
  /// into the delta layer. Returns the reply value; throws CheckError on an
  /// invalid write or failed FLUSH and DeltaFullError over budget.
  std::uint64_t mutate(const ServingState& st, const Query& q);
  /// Every read kind against one state, on the calling thread: stragglers,
  /// execute_one and execute_serial.
  Result execute_on(const ServingState& st, const Query& q) const;
  /// Terminal transition for a queued request: releases the epoch pin,
  /// retires the in-flight count, and wakes the waiter.
  void finish(Request& r, std::uint32_t state);

  SnapshotManager* mgr_;
  std::unique_ptr<SnapshotManager> owned_mgr_;  ///< fixed-snapshot mode
  Options opt_;
  // Batch state: touched only by the holder of the execution lock (exec_).
  std::unique_ptr<core::SweepEngine> sweep_;
  /// Epoch the sweep engine and cache are bound to; kUnbound before the
  /// first batch. Epochs are strictly increasing across swaps, so an epoch
  /// compare (not a pointer compare) detects rollover without holding a
  /// reference that would block the old state's drain.
  static constexpr std::uint64_t kUnbound = ~0ull;
  std::uint64_t bound_epoch_ = kUnbound;
  ResultCache<Result> cache_;
  MpmcQueue<Request*> queue_;
  util::Arena arena_;                 ///< batch planning scratch
  std::vector<Request*> batch_;       ///< preallocated, max_batch slots
  std::vector<TopEntry> topk_merge_;  ///< per-shard k-best scratch
  std::vector<std::uint32_t> topk_sizes_;  ///< per-shard k-best fill

  /// The live-update layer. Internally synchronized: const read methods
  /// (views, effective rows) are safe from any thread; writes go through
  /// a batch (batched) or the caller (execute_serial).
  mutable DeltaLayer delta_;
  std::function<std::uint64_t()> flush_hook_;
  mutable std::mutex hook_mu_;

  TokenGate gate_;
  std::atomic<std::uint64_t> inflight_{0};  ///< admitted, not yet finished
  std::atomic<std::uint64_t> shed_{0};      ///< typed overload admissions
  std::atomic<std::uint64_t> adm_timeouts_{0};  ///< expired at admission
  std::atomic<std::uint64_t> delta_shed_{0};    ///< kOverload writes
  mutable std::atomic<std::uint64_t> x_queries_{0};  ///< shard-internal calls

  /// Bit 0 is the execution lock; the rest counts queued requests, two per
  /// request, each counted before its push and uncounted by the release
  /// after its pop. Every write is a read-modify-write, which is what
  /// run_queued's no-stranded-request argument rests on.
  std::atomic<std::uint64_t> exec_{0};
  mutable std::atomic<std::uint32_t> signal_{0};  ///< batch worker wake-ups
  std::atomic<bool> stop_{false};

  mutable std::mutex stats_mu_;
  Stats stats_;

  std::thread worker_;  ///< last member: starts after everything is built
};

/// The STATS reply line: the counters above plus the serving epoch and
/// the number of hot swaps.
std::string format_stats(const QueryEngine::Stats& s, std::uint64_t epoch,
                         std::uint64_t swaps);

}  // namespace repro::service
