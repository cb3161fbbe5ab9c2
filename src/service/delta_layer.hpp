// Live-update delta layer: LSM-style in-memory writes over the immutable
// snapshot epochs, with merge-on-read serving and compaction into new epochs.
//
// The serving snapshot stays what it always was — an mmap-ed, checksummed,
// read-only artifact. Writes (`A`/`D` protocol verbs) land in a DeltaLayer:
// per-set op buffers holding (element, tombstone) records with latest-wins
// semantics. Each set keeps a small append tail plus arena-backed sorted
// runs (the tail seals into a run at 64 ops; four runs merge into one), so
// a hot set's pending ops stay sorted and deduplicated without per-write
// allocation churn.
//
// Reads merge base + delta per query. The query engine asks for a DeltaView
// — an immutable per-batch snapshot of every pending op visible at the
// serving epoch — and applies a *correction* on top of the base kernel.
// A view costs what changed since the last one: each set caches its merged
// ops (shared, immutable) keyed on (epoch, set version), so a view build
// copies references and merges only the sets written since; freeze, commit
// and abort drop every cache, because they change which ops an epoch sees.
// For a pair (a, b) the exact count changes only at op-touched elements,
// so
//
//   |S'_a ∩ S'_b| = |S_a ∩ S_b| + Σ_x [x ∈ S'_a ∩ S'_b] − [x ∈ S_a ∩ S_b]
//
// summed over the union of touched elements (pair_delta_correction). Sets
// with no pending delta run the base kernel alone. kSupport
// answers (raw, unpatched sweep counts) additionally need the failure lists
// a *rebuilt* row would have; effective_row() materializes them by running
// the identical deterministic cuckoo build an offline rebuild would run
// (same context, same sorted insertion order, same builder options), which
// is what makes served answers byte-identical to an offline snapshot of the
// merged corpus — the delta_diff_test contract.
//
// Compaction is a freeze/commit protocol with epoch-gated visibility:
//
//   freeze()           live ops move into an immutable frozen layer
//   frozen_elements()  base ∪ adds \ tombstones per set, for the rebuild
//   commit_frozen(e)   the rebuilt snapshot published as epoch e: frozen
//                      ops stay visible to queries pinned *before* e and
//                      vanish for queries at e (the new base contains them)
//   abort_frozen()     emit/swap failed: ops return to the live layer, the
//                      old epoch keeps serving, nothing was published
//
// One previously-committed frozen layer is retained (prev_frozen_) so
// stragglers pinned one compaction back still see their epoch's delta;
// deeper stragglers are out of contract (the ring drains in microseconds,
// compactions are seconds apart).
//
// The Compactor drives this end to end and costs what changed: it writes
// the next epoch through the row writer (write_snapshot over rows), copying
// every clean row byte for byte from the mapped base and running the
// cuckoo build only for frozen-dirty rows. A clean row whose planned layout
// differs from its mapped one (the base was cut in another layout mode) is
// re-encoded, or rebuilt when the plan says batmap, so the emitted file
// equals an offline write_snapshot of the merged corpus under
// plan_layouts(mode) byte for byte. Then SnapshotManager::swap with
// wait_drain=false (the FLUSH hook runs on the thread that runs the batch —
// the thread that must drain old-epoch stragglers — so waiting would
// deadlock), then commit. REPRO_FAULT sites `compact_emit`, `compact_swap`
// and `delta_oom` make every failure window testable; a failed compaction
// aborts the freeze, removes any emitted file, and never publishes.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "batmap/builder.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/arena.hpp"
#include "util/check.hpp"

namespace repro::service {

/// One pending write: insert (tombstone == false) or delete of `elem`.
/// Latest op per (set, elem) wins.
struct DeltaOp {
  std::uint64_t elem = 0;
  bool tombstone = false;
};

/// Thrown by DeltaLayer::apply when the delta is over its memory budget (or
/// the `delta_oom` fault fires). Maps to the typed OVERLOAD reply — the
/// client should FLUSH or back off, the same contract as a full ring.
class DeltaFullError : public CheckError {
 public:
  explicit DeltaFullError(const std::string& what) : CheckError(what) {}
};

/// What a set's row *would* be if rebuilt from base+delta right now: the
/// merged sorted element list and the failure list of the deterministic
/// cuckoo rebuild. Shared so concurrent readers can hold it across a batch.
struct EffectiveRow {
  std::vector<std::uint64_t> elements;
  std::vector<std::uint64_t> failures;
};
using EffectiveRowRef = std::shared_ptr<const EffectiveRow>;

/// Exact-count correction for a pair under pending deltas: the signed change
/// of |S_a ∩ S_b| when each side's ops are applied to its sorted base list.
/// Ops spans are sorted by element with one op per element (latest wins).
/// Passing the same (base, ops) for both sides computes the |S ∩ S| = |S|
/// self-pair correctly.
std::int64_t pair_delta_correction(std::span<const std::uint64_t> base_a,
                                   std::span<const DeltaOp> ops_a,
                                   std::span<const std::uint64_t> base_b,
                                   std::span<const DeltaOp> ops_b);

/// Applies sorted latest-wins `ops` to sorted `base`: out gets base with
/// tombstoned elements removed and inserted elements merged in (sorted,
/// unique). `out` must have room for base.size() + ops.size(); returns the
/// filled count. Must not alias `base`.
std::size_t apply_delta_ops(std::span<const std::uint64_t> base,
                            std::span<const DeltaOp> ops, std::uint64_t* out);
/// Vector convenience of the above (clears and fills `out`).
void apply_delta_ops(std::span<const std::uint64_t> base,
                     std::span<const DeltaOp> ops,
                     std::vector<std::uint64_t>& out);

/// One set's merged latest-wins ops, shared by the layer's per-set cache and
/// every view that holds them; never modified once published.
using DeltaOpsRef = std::shared_ptr<const std::vector<DeltaOp>>;

/// An immutable per-batch snapshot of every op visible at one epoch: the
/// thread that runs the batch builds it once (one lock acquisition) and
/// every kernel, sweep visitor and correction in the batch reads it
/// lock-free, so all queries in a batch see one consistent delta state.
/// It holds references to the layer's cached op lists, not copies.
class DeltaView {
 public:
  /// Any pending ops at all? False => the whole batch takes clean paths.
  bool any() const { return !ids_.empty(); }
  /// Set `set` has pending ops (=> its cache entries are bypassed).
  bool dirty(std::uint32_t set) const;
  /// Sorted latest-wins ops of `set`; empty span when clean.
  std::span<const DeltaOp> ops(std::uint32_t set) const;

 private:
  friend class DeltaLayer;
  std::vector<std::uint32_t> ids_;  ///< sorted dirty set ids
  std::vector<DeltaOpsRef> ops_;    ///< parallel, never null
};

class DeltaLayer {
 public:
  struct Options {
    /// Memory budget; apply() throws DeltaFullError past it.
    std::size_t max_bytes = 64ull << 20;
    /// Cuckoo options for effective-row rebuilds and compaction — must
    /// match the offline build for byte-identical answers.
    batmap::BatmapBuilder::Options builder{};
  };

  struct Gauges {
    std::uint64_t delta_sets = 0;      ///< sets with pending (uncommitted) ops
    std::uint64_t delta_elements = 0;  ///< pending ops (live + uncommitted frozen)
    std::uint64_t delta_bytes = 0;     ///< approximate resident footprint
    std::uint64_t writes = 0;          ///< add ops recorded (cumulative)
    std::uint64_t deletes = 0;         ///< delete ops recorded (cumulative)
    std::uint64_t compactions = 0;     ///< committed compactions
    /// Rows committed compactions rebuilt or re-encoded rather than copied
    /// from the base (cumulative).
    std::uint64_t compacted_rows = 0;
    std::uint64_t failed_compactions = 0;  ///< aborted freezes (fault/IO)
  };

  // No `Options opt = {}` default argument: gcc rejects nested-aggregate
  // NSDMIs in enclosing-class default args (PR 96645); delegate instead.
  DeltaLayer() : DeltaLayer(Options()) {}
  explicit DeltaLayer(Options opt);

  const Options& options() const { return opt_; }

  /// Records adds (tombstone=false) or deletes (tombstone=true) of `elems`
  /// against set `set`. `base_elements` is the serving snapshot's sorted
  /// element list for the set and `base_epoch` its epoch — the visibility
  /// floor for the no-op check: an op is recorded only if it would change
  /// the set's membership as visible at that epoch (so re-adding a present
  /// element or re-deleting an absent one is free). Returns the number of
  /// ops recorded. Throws DeltaFullError over budget.
  std::uint64_t apply(std::uint32_t set, std::span<const std::uint64_t> elems,
                      bool tombstone, std::span<const std::uint64_t> base_elements,
                      std::uint64_t base_epoch);

  /// True iff a view at `epoch` would be empty (one relaxed load when the
  /// layer has never seen a write).
  bool empty_at(std::uint64_t epoch) const;
  /// Builds the consistent per-batch view of ops visible at `epoch`; an
  /// empty layer returns an empty view without taking the lock. Sets whose
  /// cached merge is current are shared, not re-merged.
  DeltaView view_at(std::uint64_t epoch) const;

  /// The deterministic rebuild of one row under the ops visible at `epoch`:
  /// merged elements + the failure list the cuckoo build produces for them.
  /// Cached beside the set's merged ops, under the same key, so repeated
  /// kSupport / k-way queries against the same delta state rebuild once.
  EffectiveRowRef effective_row(const Snapshot& snap, std::uint32_t set,
                                std::uint64_t epoch) const;

  // ---- compaction protocol (one compaction in flight at a time) ----------

  /// Moves every live op into a new frozen layer (the previous committed
  /// frozen layer rotates to the straggler slot). False when there is
  /// nothing to compact. It is a protocol error to freeze while an
  /// uncommitted freeze is outstanding.
  bool freeze();
  /// base ∪ frozen adds \ frozen tombstones for one set (sorted, unique),
  /// into `out` — the compactor's rebuild input. Only frozen ops apply;
  /// writes that landed after freeze() stay pending across the compaction.
  void frozen_elements(std::uint32_t set, std::span<const std::uint64_t> base,
                       std::vector<std::uint64_t>& out) const;
  /// Sorted ids of the sets the open freeze holds ops for.
  std::vector<std::uint32_t> frozen_sets() const;
  /// The frozen layer was published as `published_epoch`: its ops vanish
  /// for queries at that epoch and stay visible to earlier pins.
  /// `rebuilt_rows` (rows the emitted epoch did not copy) adds to the
  /// compacted_rows gauge.
  void commit_frozen(std::uint64_t published_epoch,
                     std::uint64_t rebuilt_rows);
  /// The compaction failed: frozen ops return to the live layer (as the
  /// oldest run) and nothing changes for readers.
  void abort_frozen();

  /// Live (unfrozen) ops — the compaction size trigger.
  std::uint64_t pending_ops() const {
    return live_ops_.load(std::memory_order_relaxed);
  }
  /// Live + uncommitted-frozen ops: 0 iff the base alone answers every
  /// query at the newest epoch.
  std::uint64_t pending_total() const;
  /// pending_total() == 0, read without the lock. A write, freeze or
  /// commit racing the read may be missed, so this only picks which thread
  /// runs a batch (QueryEngine::wait), never an answer.
  bool no_pending_ops() const {
    return live_ops_.load(std::memory_order_relaxed) == 0 &&
           open_ops_.load(std::memory_order_relaxed) == 0;
  }
  /// Milliseconds since the oldest live op was recorded (0 when none) —
  /// the compaction age trigger.
  std::uint64_t oldest_op_age_ms() const;

  Gauges gauges() const;

 private:
  /// A sealed sorted run of ops; memory lives in arena_.
  struct Run {
    const DeltaOp* data = nullptr;
    std::uint32_t n = 0;
  };
  struct SetDelta {
    std::vector<DeltaOp> tail;  ///< append order (newest last)
    std::vector<Run> runs;      ///< oldest first, each sorted latest-wins
    std::uint64_t version = 0;  ///< bumped by every apply that records ops
    // The set's one cache, keyed (epoch, version): its merged ops visible
    // at that epoch (null when none) and, built on demand, its effective
    // row. drop_caches_locked() empties every set's.
    std::uint64_t cache_epoch = ~0ull;
    std::uint64_t cache_version = ~0ull;
    DeltaOpsRef cache_ops;
    EffectiveRowRef cache_row;
  };
  /// An immutable frozen generation awaiting (or past) publication.
  struct Frozen {
    std::vector<std::uint32_t> ids;          ///< sorted
    std::vector<std::vector<DeltaOp>> ops;   ///< parallel, sorted latest-wins
    bool committed = false;
    std::uint64_t published_epoch = 0;
    std::uint64_t op_count = 0;
    std::uint64_t oldest_ms = 0;  ///< age restore point for abort
  };

  static bool frozen_visible(const Frozen& f, std::uint64_t epoch) {
    return !f.committed || epoch < f.published_epoch;
  }
  void ensure_size_locked(std::uint32_t set) const;
  /// Seals the tail into a run (and merges the runs at kMaxRuns).
  void seal_tail_locked(SetDelta& sd);
  /// All ops of `set` visible at `epoch`, merged latest-wins (null when
  /// none), from the set's cache or merged into it.
  const DeltaOpsRef& merged_ops_locked(std::uint32_t set,
                                       std::uint64_t epoch) const;
  /// Freeze, commit and abort change which ops an epoch sees.
  void drop_caches_locked();
  /// Latest op for (set, elem) visible at `epoch`, if any.
  std::optional<DeltaOp> find_op_locked(std::uint32_t set, std::uint64_t elem,
                                        std::uint64_t epoch) const;
  std::uint64_t recount_live_locked() const;
  std::uint64_t approx_bytes_locked() const;

  Options opt_;
  mutable std::mutex mu_;
  mutable std::vector<SetDelta> sets_;
  std::optional<Frozen> frozen_;
  std::optional<Frozen> prev_frozen_;  ///< last committed generation
  util::Arena arena_;                  ///< run storage; reset at freeze
  std::uint64_t writes_ = 0;
  std::uint64_t deletes_ = 0;
  std::uint64_t compactions_ = 0;
  std::uint64_t compacted_rows_ = 0;
  std::uint64_t failed_compactions_ = 0;
  std::uint64_t oldest_live_ms_ = 0;  ///< steady-clock ms of oldest live op
  std::atomic<std::uint64_t> live_ops_{0};
  std::atomic<std::uint64_t> frozen_ops_{0};  ///< frozen_ + prev_frozen_
  std::atomic<std::uint64_t> open_ops_{0};    ///< frozen_ while uncommitted
};

/// Drives compaction: emit base+frozen as the next snapshot epoch through
/// the row writer, copying clean rows and rebuilding frozen-dirty ones,
/// hot-swap it via SnapshotManager (wait_drain=false; see file comment),
/// commit the freeze. Also runs the optional background trigger thread
/// (size / age).
class Compactor {
 public:
  struct Options {
    /// Emitted snapshots land at "<out_prefix>.e<epoch>".
    std::string out_prefix = "/tmp/batmap_compact";
    LayoutMode layout = LayoutMode::kAuto;
    /// Background trigger: compact at >= this many live ops (0 = off).
    std::uint64_t trigger_ops = 0;
    /// Background trigger: compact when the oldest live op is older than
    /// this (0 = off).
    std::uint64_t max_age_ms = 0;
    std::uint64_t poll_ms = 20;
    /// Keep every emitted snapshot file (default: retain two generations).
    bool keep_files = false;
  };

  Compactor(SnapshotManager& mgr, DeltaLayer& delta, Options opt);
  ~Compactor();  ///< stops and joins the background thread

  Compactor(const Compactor&) = delete;
  Compactor& operator=(const Compactor&) = delete;

  /// One synchronous compaction cycle. Returns the serving epoch afterwards
  /// (unchanged when there was nothing to compact). Throws CheckError on
  /// emit/swap failure — the freeze is aborted, any partial file removed,
  /// and the old epoch keeps serving.
  std::uint64_t compact_now();

  /// Spawns the trigger thread (no-op if neither trigger is configured).
  void start_background();

 private:
  void loop();
  /// Writes `snap` ⊕ the open freeze to `path` as `epoch` with the layouts
  /// plan_layouts(opt_.layout) would give the merged corpus. Returns the
  /// rows not copied from `snap`; their rebuilt storage is freed on return.
  std::uint64_t write_compacted(const Snapshot& snap, const std::string& path,
                                std::uint64_t epoch) const;

  SnapshotManager* mgr_;
  DeltaLayer* delta_;
  Options opt_;
  std::mutex compact_mu_;  ///< one compaction at a time
  std::string last_emitted_;  ///< currently-serving emitted file
  std::string prev_emitted_;  ///< one generation back (straggler window)

  std::mutex bg_mu_;
  std::condition_variable bg_cv_;
  bool stop_ = false;
  std::thread bg_;
};

}  // namespace repro::service
