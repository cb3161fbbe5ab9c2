// Multiway set intersection with batmaps — the paper's §V future-work
// directions, both implemented:
//
// (1) GENERALIZED d-of-(d+1) BATMAPS (GeneralBatmap). Each element is stored
//     in d of d+1 tables (one "hole" per set/element). For any k ≤ d sets
//     all containing x, at most k tables are holes, so at least one of the
//     d+1 tables stores x in ALL k maps — a position-aligned witness. To
//     count each common element exactly once we extend the paper's
//     indicator-bit idea: every occurrence carries its set's HOLE INDEX for
//     that element; at a matched position in table t, the element is counted
//     iff every table T < t is a hole of one of the k sets (i.e. t is the
//     first witnessing table). This reduces to a data-independent slot-wise
//     test, and for d = 2, k = 2 it is equivalent to the paper's cyclic
//     last-occurrence bit.
//     Slots are 16-bit: [hole:4 | code:12], code = (π_t(x) >> s) + 1 with
//     s chosen so the code fits 12 bits; 0x0000 is the empty slot.
//
// (2) PAIRWISE-COUNTER MULTIWAY (multiway_count_via_counters). Using plain
//     2-of-3 batmaps: sweep the base map B₁ against each other map with the
//     paper's exactly-once pair rule, accumulating per-position counters;
//     element x (with occurrences at positions p, p' of B₁) lies in the
//     k-way intersection iff counter[p] + counter[p'] == k−1. This is the
//     paper's "count, for each item in S_{i1}, how many times it appears in
//     S_{i2}, S_{i3}, …, then sum the counts for the two occurrences".
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "batmap/builder.hpp"
#include "batmap/context.hpp"
#include "hash/permutation.hpp"
#include "util/check.hpp"

namespace repro::batmap {

// ---------------------------------------------------------------------------
// (1) d-of-(d+1) generalized batmaps
// ---------------------------------------------------------------------------

/// Shared parameters for all GeneralBatmaps over one universe.
class MultiwayContext {
 public:
  /// `d`: copies per element (tables = d+1), 2 ≤ d ≤ 15.
  MultiwayContext(std::uint64_t universe, int d, std::uint64_t seed = 77);

  std::uint64_t universe() const { return m_; }
  int d() const { return d_; }
  int tables() const { return d_ + 1; }
  unsigned shift() const { return s_; }
  std::uint32_t r0() const { return r0_; }

  std::uint64_t permuted(int t, std::uint64_t x) const {
    return perms_[static_cast<std::size_t>(t)](x);
  }
  std::uint64_t unpermuted(int t, std::uint64_t v) const {
    return perms_[static_cast<std::size_t>(t)].inverse(v);
  }

  /// Interleaved position of permuted value v in table t for range r
  /// (generalizes LayoutParams::position to d+1 tables).
  std::uint64_t position(std::uint64_t v, int t, std::uint32_t r) const {
    const std::uint64_t slot = v & (r - 1);
    const std::uint64_t block = slot / r0_;
    const std::uint64_t low = v & (r0_ - 1);
    return static_cast<std::uint64_t>(tables()) * r0_ * block + low +
           static_cast<std::uint64_t>(t) * r0_;
  }

  int table_of(std::uint64_t pos) const {
    return static_cast<int>((pos / r0_) % static_cast<unsigned>(tables()));
  }

  std::uint32_t range_for_size(std::uint64_t size) const;

  /// 12-bit code, in [1, 4095].
  std::uint16_t code(std::uint64_t v) const {
    const std::uint64_t c = (v >> s_) + 1;
    REPRO_DCHECK(c >= 1 && c <= 4095);
    return static_cast<std::uint16_t>(c);
  }

 private:
  std::uint64_t m_;
  int d_;
  unsigned s_;
  std::uint32_t r0_;
  std::vector<hash::FeistelPermutation> perms_;
};

/// A sealed d-of-(d+1) batmap. Slots are 16-bit [hole:4 | code:12];
/// 0 = empty.
class GeneralBatmap {
 public:
  GeneralBatmap() = default;
  GeneralBatmap(std::uint32_t range, std::vector<std::uint16_t> slots,
                std::uint64_t stored)
      : range_(range), stored_(stored), slots_(std::move(slots)) {}

  std::uint32_t range() const { return range_; }
  std::uint64_t slot_count() const { return slots_.size(); }
  std::uint64_t stored_elements() const { return stored_; }
  std::uint16_t slot(std::uint64_t p) const { return slots_[p]; }
  std::span<const std::uint16_t> slots() const { return slots_; }
  std::uint64_t memory_bytes() const { return slots_.size() * 2; }
  bool empty() const { return slots_.empty(); }

  static std::uint16_t pack(int hole, std::uint16_t code) {
    return static_cast<std::uint16_t>((hole << 12) | code);
  }
  static int hole_of(std::uint16_t slot) { return slot >> 12; }
  static std::uint16_t code_of(std::uint16_t slot) {
    return slot & 0x0fffu;
  }

 private:
  std::uint32_t range_ = 0;
  std::uint64_t stored_ = 0;
  std::vector<std::uint16_t> slots_;
};

/// Builds a GeneralBatmap for `elements` (distinct, < universe). The builder
/// walks a (d+1)-table cuckoo loop; failures are returned like the 2-of-3
/// builder's. The per-element hole (the one unused table) is whichever table
/// ends up without a copy.
class GeneralBatmapBuilder {
 public:
  GeneralBatmapBuilder(const MultiwayContext& ctx, std::uint32_t range,
                       int max_loop = 256);

  bool insert(std::uint64_t x);
  const std::vector<std::uint64_t>& failures() const { return failures_; }
  GeneralBatmap seal() const;
  void check_invariants() const;

 private:
  static constexpr std::uint64_t kEmpty = ~0ull;
  std::uint64_t position(int t, std::uint64_t x) const {
    return ctx_->position(ctx_->permuted(t, x), t, range_);
  }
  std::uint64_t walk(std::uint64_t x, int start_table);
  void remove_all(std::uint64_t x);
  int copies_placed(std::uint64_t x) const;

  const MultiwayContext* ctx_;
  std::uint32_t range_;
  int max_loop_;
  std::vector<std::uint64_t> values_;
  std::vector<std::uint64_t> failures_;
};

GeneralBatmap build_general_batmap(const MultiwayContext& ctx,
                                   std::span<const std::uint64_t> elements,
                                   std::vector<std::uint64_t>* failed = nullptr);

/// Exact |S_1 ∩ … ∩ S_k| for k ≤ d maps of the SAME range built against one
/// MultiwayContext (all sets assumed failure-free; callers patch failures
/// like BatmapStore does). Data-independent sweep: a position counts iff all
/// k codes agree (non-empty) and no table earlier than this one witnesses —
/// evaluated from the k stored hole indices.
std::uint64_t multiway_intersect_count(
    const MultiwayContext& ctx,
    std::span<const GeneralBatmap* const> maps);

// ---------------------------------------------------------------------------
// (2) Pairwise-counter multiway on standard 2-of-3 batmaps
// ---------------------------------------------------------------------------

/// Materializing galloping sorted-list intersection: writes the elements
/// common to `a` and `b` into `out` (capacity >= min(|a|, |b|)) and returns
/// how many were written. The shorter list drives; each probe into the longer
/// list is an exponential gallop + binary search, so cost is
/// O(min·log(max/min)) — the serve path's K/R fold step. `out` may alias
/// either input's data (the write index never passes the read index), which
/// is what lets the k-way reduction run in one scratch buffer.
std::size_t gallop_intersect(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b,
                             std::uint64_t* out);

/// One aligned pair sweep of `other_words` against `base_words` (both packed
/// 4-slots-per-u32 batmap words), crediting counters[pb] once per counted
/// match under the paper's exactly-once pair rule. `counters` has one entry
/// per BASE slot. Widths are 3·2^j so the smaller slot count always divides
/// the larger; the wrap is done by block decomposition — no per-iteration
/// division.
void accumulate_pair_counters(std::span<const std::uint32_t> base_words,
                              std::span<const std::uint32_t> other_words,
                              std::span<std::uint32_t> counters);

/// Decode pass over sorted `elems` (all stored twice in the base map, which
/// must be failure-free): counts the elements whose two occurrence counters
/// sum to exactly `needed`.
std::uint64_t decode_counter_matches(const BatmapContext& ctx,
                                     std::span<const std::uint32_t> base_words,
                                     std::uint32_t base_range,
                                     std::span<const std::uint64_t> elems,
                                     std::span<const std::uint32_t> counters,
                                     std::uint64_t needed);

/// Exact |S_1 ∩ … ∩ S_k| using the 2-of-3 maps: per-position counters on the
/// base map accumulated over k−1 aligned pair sweeps, then a decode pass sums
/// each element's two occurrence counters and tests == k−1.
/// `base_elements` is S_1 (sorted); all maps share `ctx` and must be built
/// without failures (REPRO_CHECK'd via stored_elements).
std::uint64_t multiway_count_via_counters(
    const BatmapContext& ctx, const Batmap& base,
    std::span<const std::uint64_t> base_elements,
    std::span<const Batmap* const> others);

}  // namespace repro::batmap
