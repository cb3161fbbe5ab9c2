#include "service/delta_layer.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>

#include "util/fault.hpp"

namespace repro::service {

namespace {

/// Append-tail length before it seals into a sorted run.
constexpr std::size_t kTailLimit = 64;
/// Sorted runs per set before they merge into one.
constexpr std::size_t kMaxRuns = 4;

std::uint64_t now_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

bool contains(std::span<const std::uint64_t> sorted, std::uint64_t x) {
  return std::binary_search(sorted.begin(), sorted.end(), x);
}

/// Sorts by element and keeps the LAST op of each element run. The input is
/// in chronological order (oldest first), so stable sort + keep-last is
/// exactly latest-wins.
void sort_keep_last(std::vector<DeltaOp>& v) {
  std::stable_sort(v.begin(), v.end(), [](const DeltaOp& a, const DeltaOp& b) {
    return a.elem < b.elem;
  });
  std::size_t w = 0;
  for (std::size_t i = 0; i < v.size();) {
    std::size_t j = i;
    while (j + 1 < v.size() && v[j + 1].elem == v[i].elem) ++j;
    v[w++] = v[j];
    i = j + 1;
  }
  v.resize(w);
}

/// Sorted-unique op list lookup in a (ids, ops) parallel-array frozen layer.
std::span<const DeltaOp> ops_for(const std::vector<std::uint32_t>& ids,
                                 const std::vector<std::vector<DeltaOp>>& ops,
                                 std::uint32_t set) {
  const auto it = std::lower_bound(ids.begin(), ids.end(), set);
  if (it == ids.end() || *it != set) return {};
  return ops[static_cast<std::size_t>(it - ids.begin())];
}

const DeltaOp* find_in_sorted(const DeltaOp* data, std::uint32_t n,
                              std::uint64_t elem) {
  const DeltaOp* end = data + n;
  const DeltaOp* it = std::lower_bound(
      data, end, elem,
      [](const DeltaOp& o, std::uint64_t e) { return o.elem < e; });
  return (it != end && it->elem == elem) ? it : nullptr;
}

}  // namespace

// ---- free functions ---------------------------------------------------------

std::int64_t pair_delta_correction(std::span<const std::uint64_t> base_a,
                                   std::span<const DeltaOp> ops_a,
                                   std::span<const std::uint64_t> base_b,
                                   std::span<const DeltaOp> ops_b) {
  // Membership of untouched elements is unchanged on both sides, so the
  // exact count moves only at the union of op-touched elements.
  std::int64_t corr = 0;
  std::size_t i = 0, j = 0;
  const bool same_base = base_a.data() == base_b.data() &&
                         base_a.size() == base_b.size();
  while (i < ops_a.size() || j < ops_b.size()) {
    const DeltaOp* oa = nullptr;
    const DeltaOp* ob = nullptr;
    std::uint64_t e;
    if (j >= ops_b.size() ||
        (i < ops_a.size() && ops_a[i].elem < ops_b[j].elem)) {
      e = ops_a[i].elem;
      oa = &ops_a[i++];
    } else if (i >= ops_a.size() || ops_b[j].elem < ops_a[i].elem) {
      e = ops_b[j].elem;
      ob = &ops_b[j++];
    } else {
      e = ops_a[i].elem;
      oa = &ops_a[i++];
      ob = &ops_b[j++];
    }
    const bool before_a = contains(base_a, e);
    const bool before_b = same_base ? before_a : contains(base_b, e);
    const bool after_a = oa ? !oa->tombstone : before_a;
    const bool after_b = ob ? !ob->tombstone : before_b;
    corr += static_cast<std::int64_t>(after_a && after_b) -
            static_cast<std::int64_t>(before_a && before_b);
  }
  return corr;
}

std::size_t apply_delta_ops(std::span<const std::uint64_t> base,
                            std::span<const DeltaOp> ops, std::uint64_t* out) {
  std::size_t w = 0, i = 0, j = 0;
  while (i < base.size() && j < ops.size()) {
    if (base[i] < ops[j].elem) {
      out[w++] = base[i++];
    } else if (ops[j].elem < base[i]) {
      if (!ops[j].tombstone) out[w++] = ops[j].elem;
      ++j;
    } else {
      if (!ops[j].tombstone) out[w++] = base[i];
      ++i;
      ++j;
    }
  }
  while (i < base.size()) out[w++] = base[i++];
  for (; j < ops.size(); ++j) {
    if (!ops[j].tombstone) out[w++] = ops[j].elem;
  }
  return w;
}

void apply_delta_ops(std::span<const std::uint64_t> base,
                     std::span<const DeltaOp> ops,
                     std::vector<std::uint64_t>& out) {
  out.resize(base.size() + ops.size());
  out.resize(apply_delta_ops(base, ops, out.data()));
}

// ---- DeltaView --------------------------------------------------------------

bool DeltaView::dirty(std::uint32_t set) const {
  return std::binary_search(ids_.begin(), ids_.end(), set);
}

std::span<const DeltaOp> DeltaView::ops(std::uint32_t set) const {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), set);
  if (it == ids_.end() || *it != set) return {};
  return *ops_[static_cast<std::size_t>(it - ids_.begin())];
}

// ---- DeltaLayer -------------------------------------------------------------

DeltaLayer::DeltaLayer(Options opt) : opt_(opt) {}

void DeltaLayer::ensure_size_locked(std::uint32_t set) const {
  if (set >= sets_.size()) sets_.resize(static_cast<std::size_t>(set) + 1);
}

void DeltaLayer::seal_tail_locked(SetDelta& sd) {
  if (sd.tail.empty()) return;
  sort_keep_last(sd.tail);
  auto mem = arena_.alloc_array<DeltaOp>(sd.tail.size());
  std::copy(sd.tail.begin(), sd.tail.end(), mem.begin());
  sd.runs.push_back({mem.data(), static_cast<std::uint32_t>(sd.tail.size())});
  sd.tail.clear();
  if (sd.runs.size() >= kMaxRuns) {
    std::vector<DeltaOp> all;
    for (const Run& r : sd.runs) all.insert(all.end(), r.data, r.data + r.n);
    sort_keep_last(all);  // runs are appended oldest-first: still latest-wins
    auto merged = arena_.alloc_array<DeltaOp>(all.size());
    std::copy(all.begin(), all.end(), merged.begin());
    sd.runs.clear();
    sd.runs.push_back({merged.data(), static_cast<std::uint32_t>(all.size())});
  }
}

std::optional<DeltaOp> DeltaLayer::find_op_locked(std::uint32_t set,
                                                  std::uint64_t elem,
                                                  std::uint64_t epoch) const {
  // Newest first: tail (reverse append order), runs newest to oldest, then
  // the frozen generations if still visible at `epoch`.
  if (set < sets_.size()) {
    const SetDelta& sd = sets_[set];
    for (auto it = sd.tail.rbegin(); it != sd.tail.rend(); ++it) {
      if (it->elem == elem) return *it;
    }
    for (auto it = sd.runs.rbegin(); it != sd.runs.rend(); ++it) {
      if (const DeltaOp* op = find_in_sorted(it->data, it->n, elem)) return *op;
    }
  }
  for (const auto* f : {&frozen_, &prev_frozen_}) {
    if (!*f || !frozen_visible(**f, epoch)) continue;
    const auto ops = ops_for((*f)->ids, (*f)->ops, set);
    if (const DeltaOp* op = find_in_sorted(ops.data(),
                                           static_cast<std::uint32_t>(ops.size()),
                                           elem)) {
      return *op;
    }
  }
  return std::nullopt;
}

std::uint64_t DeltaLayer::recount_live_locked() const {
  std::uint64_t n = 0;
  for (const SetDelta& sd : sets_) {
    n += sd.tail.size();
    for (const Run& r : sd.runs) n += r.n;
  }
  return n;
}

std::uint64_t DeltaLayer::approx_bytes_locked() const {
  const std::uint64_t ops = live_ops_.load(std::memory_order_relaxed) +
                            frozen_ops_.load(std::memory_order_relaxed);
  return ops * sizeof(DeltaOp) + arena_.bytes_reserved();
}

std::uint64_t DeltaLayer::apply(std::uint32_t set,
                                std::span<const std::uint64_t> elems,
                                bool tombstone,
                                std::span<const std::uint64_t> base_elements,
                                std::uint64_t base_epoch) {
  std::lock_guard lock(mu_);
  if (util::fault::armed() && util::fault::fire("delta_oom")) {
    throw DeltaFullError("delta layer over budget (injected delta_oom)");
  }
  if (approx_bytes_locked() + elems.size() * sizeof(DeltaOp) > opt_.max_bytes) {
    throw DeltaFullError("delta layer over its max_bytes budget");
  }
  ensure_size_locked(set);
  const bool desired = !tombstone;
  const bool was_empty = live_ops_.load(std::memory_order_relaxed) == 0;
  std::uint64_t recorded = 0;
  for (const std::uint64_t e : elems) {
    // Record only ops that change visible membership: latest pending op if
    // any (frozen layers count while visible at base_epoch), else the base.
    const auto op = find_op_locked(set, e, base_epoch);
    const bool vis = op ? !op->tombstone : contains(base_elements, e);
    if (vis == desired) continue;
    SetDelta& sd = sets_[set];
    sd.tail.push_back({e, tombstone});
    ++recorded;
    if (sd.tail.size() >= kTailLimit) seal_tail_locked(sd);
  }
  if (recorded > 0) {
    SetDelta& sd = sets_[set];
    ++sd.version;
    if (tombstone) {
      deletes_ += recorded;
    } else {
      writes_ += recorded;
    }
    if (was_empty) oldest_live_ms_ = now_ms();
    live_ops_.store(recount_live_locked(), std::memory_order_relaxed);
  }
  return recorded;
}

bool DeltaLayer::empty_at(std::uint64_t epoch) const {
  if (live_ops_.load(std::memory_order_relaxed) != 0) return false;
  if (frozen_ops_.load(std::memory_order_relaxed) == 0) return true;
  // Some frozen generation exists; it only matters if visible at `epoch`.
  std::lock_guard lock(mu_);
  if (live_ops_.load(std::memory_order_relaxed) != 0) return false;
  for (const auto* f : {&frozen_, &prev_frozen_}) {
    if (*f && (*f)->op_count > 0 && frozen_visible(**f, epoch)) return false;
  }
  return true;
}

const DeltaOpsRef& DeltaLayer::merged_ops_locked(std::uint32_t set,
                                                std::uint64_t epoch) const {
  ensure_size_locked(set);
  SetDelta& sd = sets_[set];
  if (sd.cache_epoch == epoch && sd.cache_version == sd.version) {
    return sd.cache_ops;
  }
  std::vector<DeltaOp> out;
  // Chronological append order (oldest first), then latest-wins dedup.
  for (const auto* f : {&prev_frozen_, &frozen_}) {
    if (!*f || !frozen_visible(**f, epoch)) continue;
    const auto ops = ops_for((*f)->ids, (*f)->ops, set);
    out.insert(out.end(), ops.begin(), ops.end());
  }
  for (const Run& r : sd.runs) out.insert(out.end(), r.data, r.data + r.n);
  out.insert(out.end(), sd.tail.begin(), sd.tail.end());
  sort_keep_last(out);
  sd.cache_epoch = epoch;
  sd.cache_version = sd.version;
  sd.cache_ops = out.empty()
                     ? nullptr
                     : std::make_shared<const std::vector<DeltaOp>>(std::move(out));
  sd.cache_row.reset();
  return sd.cache_ops;
}

void DeltaLayer::drop_caches_locked() {
  for (SetDelta& sd : sets_) {
    sd.cache_epoch = ~0ull;
    sd.cache_ops.reset();
    sd.cache_row.reset();
  }
}

DeltaView DeltaLayer::view_at(std::uint64_t epoch) const {
  DeltaView v;
  if (empty_at(epoch)) return v;
  std::lock_guard lock(mu_);
  std::vector<std::uint32_t> cand;
  for (std::uint32_t i = 0; i < sets_.size(); ++i) {
    if (!sets_[i].tail.empty() || !sets_[i].runs.empty()) cand.push_back(i);
  }
  for (const auto* f : {&prev_frozen_, &frozen_}) {
    if (*f && frozen_visible(**f, epoch)) {
      cand.insert(cand.end(), (*f)->ids.begin(), (*f)->ids.end());
    }
  }
  std::sort(cand.begin(), cand.end());
  cand.erase(std::unique(cand.begin(), cand.end()), cand.end());
  v.ids_.reserve(cand.size());
  v.ops_.reserve(cand.size());
  for (const std::uint32_t id : cand) {
    const DeltaOpsRef& ops = merged_ops_locked(id, epoch);
    if (!ops) continue;
    v.ids_.push_back(id);
    v.ops_.push_back(ops);
  }
  return v;
}

EffectiveRowRef DeltaLayer::effective_row(const Snapshot& snap,
                                          std::uint32_t set,
                                          std::uint64_t epoch) const {
  std::lock_guard lock(mu_);
  const DeltaOpsRef ops_ref = merged_ops_locked(set, epoch);
  SetDelta& sd = sets_[set];
  if (sd.cache_row) return sd.cache_row;
  const std::span<const DeltaOp> ops =
      ops_ref ? std::span<const DeltaOp>(*ops_ref) : std::span<const DeltaOp>();
  auto row = std::make_shared<EffectiveRow>();
  apply_delta_ops(snap.elements(set), ops, row->elements);
  if (ops.empty()) {
    // No pending delta: the effective row IS the base row.
    const auto bf = snap.failures(set);
    row->failures.assign(bf.begin(), bf.end());
  } else {
    // The same deterministic cuckoo build an offline rebuild runs: same
    // context (universe, seed), same sorted-unique insertion order, same
    // builder options — so the failure list matches the rebuilt snapshot's
    // byte for byte (the kSupport identity contract).
    batmap::build_batmap(snap.context(), row->elements, &row->failures,
                         opt_.builder);
    std::sort(row->failures.begin(), row->failures.end());
  }
  sd.cache_row = row;
  return row;
}

bool DeltaLayer::freeze() {
  std::lock_guard lock(mu_);
  REPRO_CHECK_MSG(!frozen_ || frozen_->committed,
                  "freeze() while an uncommitted freeze is outstanding");
  if (live_ops_.load(std::memory_order_relaxed) == 0) return false;
  if (frozen_) {
    // Rotate the committed generation into the straggler slot; anything
    // older than that is out of the visibility contract (see header).
    prev_frozen_ = std::move(frozen_);
    frozen_.reset();
  }
  Frozen f;
  f.oldest_ms = oldest_live_ms_;
  for (std::uint32_t i = 0; i < sets_.size(); ++i) {
    SetDelta& sd = sets_[i];
    if (sd.tail.empty() && sd.runs.empty()) continue;
    std::vector<DeltaOp> ops;
    for (const Run& r : sd.runs) ops.insert(ops.end(), r.data, r.data + r.n);
    ops.insert(ops.end(), sd.tail.begin(), sd.tail.end());
    sort_keep_last(ops);
    f.op_count += ops.size();
    f.ids.push_back(i);
    f.ops.push_back(std::move(ops));
    sd.runs.clear();
    sd.tail.clear();
  }
  drop_caches_locked();
  open_ops_.store(f.op_count, std::memory_order_relaxed);
  frozen_ = std::move(f);
  arena_.reset();  // every live run was materialized above
  oldest_live_ms_ = 0;
  live_ops_.store(0, std::memory_order_relaxed);
  frozen_ops_.store(
      frozen_->op_count + (prev_frozen_ ? prev_frozen_->op_count : 0),
      std::memory_order_relaxed);
  return true;
}

void DeltaLayer::frozen_elements(std::uint32_t set,
                                 std::span<const std::uint64_t> base,
                                 std::vector<std::uint64_t>& out) const {
  std::lock_guard lock(mu_);
  REPRO_CHECK_MSG(frozen_ && !frozen_->committed,
                  "frozen_elements() without an open freeze");
  apply_delta_ops(base, ops_for(frozen_->ids, frozen_->ops, set), out);
}

std::vector<std::uint32_t> DeltaLayer::frozen_sets() const {
  std::lock_guard lock(mu_);
  REPRO_CHECK_MSG(frozen_ && !frozen_->committed,
                  "frozen_sets() without an open freeze");
  return frozen_->ids;
}

void DeltaLayer::commit_frozen(std::uint64_t published_epoch,
                               std::uint64_t rebuilt_rows) {
  std::lock_guard lock(mu_);
  REPRO_CHECK_MSG(frozen_ && !frozen_->committed,
                  "commit_frozen() without an open freeze");
  frozen_->committed = true;
  frozen_->published_epoch = published_epoch;
  open_ops_.store(0, std::memory_order_relaxed);
  ++compactions_;
  compacted_rows_ += rebuilt_rows;
  drop_caches_locked();
}

void DeltaLayer::abort_frozen() {
  std::lock_guard lock(mu_);
  REPRO_CHECK_MSG(frozen_ && !frozen_->committed,
                  "abort_frozen() without an open freeze");
  for (std::size_t k = 0; k < frozen_->ids.size(); ++k) {
    const std::uint32_t id = frozen_->ids[k];
    const auto& ops = frozen_->ops[k];
    ensure_size_locked(id);
    SetDelta& sd = sets_[id];
    auto mem = arena_.alloc_array<DeltaOp>(ops.size());
    std::copy(ops.begin(), ops.end(), mem.begin());
    // Frozen ops predate every current live op: re-enter as the oldest run.
    sd.runs.insert(sd.runs.begin(),
                   Run{mem.data(), static_cast<std::uint32_t>(ops.size())});
  }
  drop_caches_locked();
  if (frozen_->oldest_ms != 0 &&
      (oldest_live_ms_ == 0 || frozen_->oldest_ms < oldest_live_ms_)) {
    oldest_live_ms_ = frozen_->oldest_ms;
  }
  ++failed_compactions_;
  frozen_.reset();
  open_ops_.store(0, std::memory_order_relaxed);
  live_ops_.store(recount_live_locked(), std::memory_order_relaxed);
  frozen_ops_.store(prev_frozen_ ? prev_frozen_->op_count : 0,
                    std::memory_order_relaxed);
}

std::uint64_t DeltaLayer::pending_total() const {
  std::lock_guard lock(mu_);
  return live_ops_.load(std::memory_order_relaxed) +
         open_ops_.load(std::memory_order_relaxed);
}

std::uint64_t DeltaLayer::oldest_op_age_ms() const {
  std::lock_guard lock(mu_);
  if (oldest_live_ms_ == 0) return 0;
  const std::uint64_t now = now_ms();
  return now > oldest_live_ms_ ? now - oldest_live_ms_ : 1;
}

DeltaLayer::Gauges DeltaLayer::gauges() const {
  std::lock_guard lock(mu_);
  Gauges g;
  g.writes = writes_;
  g.deletes = deletes_;
  g.compactions = compactions_;
  g.compacted_rows = compacted_rows_;
  g.failed_compactions = failed_compactions_;
  std::uint64_t n_sets = 0;
  for (const SetDelta& sd : sets_) {
    if (!sd.tail.empty() || !sd.runs.empty()) ++n_sets;
  }
  if (frozen_ && !frozen_->committed) {
    for (const std::uint32_t id : frozen_->ids) {
      if (id >= sets_.size() ||
          (sets_[id].tail.empty() && sets_[id].runs.empty())) {
        ++n_sets;
      }
    }
  }
  g.delta_sets = n_sets;
  g.delta_elements =
      live_ops_.load(std::memory_order_relaxed) +
      ((frozen_ && !frozen_->committed) ? frozen_->op_count : 0);
  g.delta_bytes = approx_bytes_locked();
  return g;
}

// ---- Compactor --------------------------------------------------------------

Compactor::Compactor(SnapshotManager& mgr, DeltaLayer& delta, Options opt)
    : mgr_(&mgr), delta_(&delta), opt_(std::move(opt)) {}

Compactor::~Compactor() {
  {
    std::lock_guard lock(bg_mu_);
    stop_ = true;
  }
  bg_cv_.notify_all();
  if (bg_.joinable()) bg_.join();
}

std::uint64_t Compactor::write_compacted(const Snapshot& snap,
                                         const std::string& path,
                                         std::uint64_t epoch) const {
  const std::uint64_t universe = snap.universe();
  const std::vector<std::uint32_t> dirty = delta_->frozen_sets();
  /// A row the compaction does not copy: storage its spans point into.
  struct Owned {
    std::vector<std::uint64_t> elements;
    std::vector<std::uint64_t> failures;
    batmap::Batmap map;
    std::vector<std::uint32_t> payload;
  };
  std::deque<Owned> owned;  // stable addresses while the rows are written
  std::vector<core::RowContainer> rows(snap.size());
  auto next_dirty = dirty.begin();
  for (std::uint32_t i = 0; i < snap.size(); ++i) {
    core::RowContainer row = snap.row(i);
    const bool frozen = next_dirty != dirty.end() && *next_dirty == i;
    if (frozen) ++next_dirty;
    core::RowLayout target = row.layout;
    if (!frozen) {
      target = plan_row(opt_.layout, universe, row.range, row.elements,
                        row.failures);
      if (target == row.layout) {
        rows[i] = row;  // copied byte for byte from the mapped base
        continue;
      }
    }
    Owned& o = owned.emplace_back();
    if (frozen || target == core::RowLayout::kBatmap) {
      // The cuckoo build an offline rebuild of this row runs: same context,
      // sorted-unique insertion order and builder options.
      if (frozen) {
        delta_->frozen_elements(i, row.elements, o.elements);
        row.elements = o.elements;
      }
      o.map = batmap::build_batmap(snap.context(), row.elements, &o.failures,
                                   delta_->options().builder);
      std::sort(o.failures.begin(), o.failures.end());
      row.failures = o.failures;
      row.range = o.map.range();
      row.stored = o.map.stored_elements();
      row.words = o.map.words();
      if (frozen) {
        target = plan_row(opt_.layout, universe, row.range, row.elements,
                          row.failures);
      }
    }
    row.layout = target;
    if (target != core::RowLayout::kBatmap) {
      o.payload = encode_payload(target, universe, row.elements, row.failures);
      row.words = o.payload;
    }
    rows[i] = row;
  }
  write_snapshot(path, epoch, universe, snap.seed(), rows);
  return owned.size();
}

std::uint64_t Compactor::compact_now() {
  std::lock_guard lock(compact_mu_);
  // Pin the base generation: it stays mapped through the whole rebuild even
  // if the swap publishes before we finish reading from it.
  const ServingStateRef st = mgr_->current();
  const Snapshot& snap = st->snapshot();
  if (!delta_->freeze()) return snap.epoch();
  const std::uint64_t next_epoch = snap.epoch() + 1;
  const std::string path =
      opt_.out_prefix + ".e" + std::to_string(next_epoch);
  bool wrote = false;
  std::uint64_t rebuilt = 0;
  try {
    if (util::fault::armed() && util::fault::fire("compact_emit")) {
      throw CheckError("injected compact_emit fault");
    }
    rebuilt = write_compacted(snap, path, next_epoch);
    wrote = true;
    if (util::fault::armed() && util::fault::fire("compact_swap")) {
      throw CheckError("injected compact_swap fault");
    }
    // wait_drain=false: FLUSH runs this on the thread that runs the batch —
    // the thread that drains old-epoch stragglers — so waiting would
    // deadlock.
    const std::uint64_t published = mgr_->swap(path, /*wait_drain=*/false);
    delta_->commit_frozen(published, rebuilt);
    if (!opt_.keep_files && !prev_emitted_.empty()) {
      std::remove(prev_emitted_.c_str());  // two generations retained
    }
    prev_emitted_ = last_emitted_;
    last_emitted_ = path;
    return published;
  } catch (...) {
    delta_->abort_frozen();
    if (wrote) std::remove(path.c_str());
    throw;
  }
}

void Compactor::start_background() {
  if (opt_.trigger_ops == 0 && opt_.max_age_ms == 0) return;
  if (bg_.joinable()) return;
  bg_ = std::thread([this] { loop(); });
}

void Compactor::loop() {
  std::unique_lock lock(bg_mu_);
  while (!stop_) {
    bg_cv_.wait_for(lock, std::chrono::milliseconds(opt_.poll_ms),
                    [this] { return stop_; });
    if (stop_) return;
    const bool due =
        (opt_.trigger_ops > 0 && delta_->pending_ops() >= opt_.trigger_ops) ||
        (opt_.max_age_ms > 0 && delta_->oldest_op_age_ms() >= opt_.max_age_ms);
    if (!due) continue;
    lock.unlock();
    try {
      compact_now();
    } catch (const CheckError& e) {
      // A failed compaction aborted cleanly; serving is untouched. Back off
      // so a persistent fault does not spin the trigger loop.
      std::fprintf(stderr, "compactor: %s\n", e.what());
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
    lock.lock();
  }
}

}  // namespace repro::service
