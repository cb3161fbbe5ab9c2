#include "batmap/multiway.hpp"

#include <algorithm>

#include "batmap/intersect.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

namespace repro::batmap {

MultiwayContext::MultiwayContext(std::uint64_t universe, int d,
                                 std::uint64_t seed)
    : m_(universe), d_(d) {
  REPRO_CHECK_MSG(universe >= 1, "universe must be non-empty");
  REPRO_CHECK_MSG(d >= 2 && d <= 15, "d must be in [2, 15] (hole fits 4 bits)");
  unsigned s = 0;
  while ((((m_ - 1) >> s) + 1) > 4095) ++s;
  s_ = s;
  std::uint32_t r0 = 4;
  if (s > 0) {
    const std::uint64_t floor = 1ull << s;
    while (r0 < floor) r0 *= 2;
  }
  r0_ = r0;
  SplitMix64 sm(seed);
  perms_.reserve(static_cast<std::size_t>(d + 1));
  for (int t = 0; t <= d; ++t) {
    perms_.emplace_back(universe, sm.next());
  }
}

std::uint32_t MultiwayContext::range_for_size(std::uint64_t size) const {
  // Unlike the 2-of-3 case, an element of a d-of-(d+1) map has only ONE
  // spare table, so any element involved in two unresolvable collisions
  // fails. Empirically (see bench/ablation_insertion and multiway_test) the
  // failure rate only vanishes once r = Ω(d·|S|); we use r ∈ [2d|S|, 4d|S|).
  // This quadratic-in-d space cost is a genuine finding about the paper's
  // §V proposal, documented in DESIGN.md.
  std::uint64_t r = (size == 0)
                        ? r0_
                        : 2ull * bits::next_pow2(static_cast<std::uint64_t>(d_) *
                                                 size);
  if (r < r0_) r = r0_;
  REPRO_CHECK_MSG(r <= 0xffffffffull, "set too large");
  return static_cast<std::uint32_t>(r);
}

GeneralBatmapBuilder::GeneralBatmapBuilder(const MultiwayContext& ctx,
                                           std::uint32_t range, int max_loop)
    : ctx_(&ctx), range_(range), max_loop_(max_loop) {
  REPRO_CHECK(bits::is_pow2(range) && range >= ctx.r0());
  REPRO_CHECK(max_loop >= 1);
  values_.assign(static_cast<std::uint64_t>(ctx.tables()) * range, kEmpty);
}

std::uint64_t GeneralBatmapBuilder::walk(std::uint64_t x, int /*unused*/) {
  std::uint64_t tau = x;
  for (int round = 0; round < max_loop_; ++round) {
    for (int t = 0; t < ctx_->tables(); ++t) {
      std::uint64_t& slot = values_[position(t, tau)];
      std::swap(tau, slot);
      if (tau == kEmpty) return kEmpty;
    }
  }
  return tau;
}

void GeneralBatmapBuilder::remove_all(std::uint64_t x) {
  for (int t = 0; t < ctx_->tables(); ++t) {
    std::uint64_t& slot = values_[position(t, x)];
    if (slot == x) slot = kEmpty;
  }
}

int GeneralBatmapBuilder::copies_placed(std::uint64_t x) const {
  int copies = 0;
  for (int t = 0; t < ctx_->tables(); ++t) {
    copies += (values_[position(t, x)] == x);
  }
  return copies;
}

bool GeneralBatmapBuilder::insert(std::uint64_t x) {
  REPRO_CHECK_MSG(x < ctx_->universe(), "element outside universe");
  REPRO_DCHECK(copies_placed(x) == 0);
  for (int copy = 0; copy < ctx_->d(); ++copy) {
    const std::uint64_t nestless = walk(x, 0);
    if (nestless != kEmpty) {
      // Failure handling mirrors the 2-of-3 builder: drop x entirely, then
      // give the evicted survivor one repair walk (cascade bounded to the
      // chain length; evicted elements that cannot be repaired are dropped
      // and recorded).
      remove_all(x);
      failures_.push_back(x);
      std::uint64_t pending = nestless;
      for (int rounds = 0; rounds < 8 && pending != x && pending != kEmpty;
           ++rounds) {
        const std::uint64_t evicted = walk(pending, 0);
        if (evicted == kEmpty) return false;
        if (evicted == pending) break;
        pending = evicted;
      }
      if (pending != x && pending != kEmpty) {
        remove_all(pending);
        failures_.push_back(pending);
      }
      return false;
    }
  }
  return true;
}

void GeneralBatmapBuilder::check_invariants() const {
  std::vector<std::uint64_t> seen;
  for (std::uint64_t p = 0; p < values_.size(); ++p) {
    const std::uint64_t v = values_[p];
    if (v == kEmpty) continue;
    const int t = ctx_->table_of(p);
    REPRO_CHECK_MSG(position(t, v) == p, "value at wrong position");
    seen.push_back(v);
  }
  std::sort(seen.begin(), seen.end());
  for (std::size_t i = 0; i < seen.size();) {
    std::size_t j = i;
    while (j < seen.size() && seen[j] == seen[i]) ++j;
    REPRO_CHECK_MSG(j - i == static_cast<std::size_t>(ctx_->d()),
                    "value does not occur exactly d times");
    i = j;
  }
}

GeneralBatmap GeneralBatmapBuilder::seal() const {
  std::vector<std::uint16_t> slots(values_.size(), 0);
  std::uint64_t occupied = 0;
  for (std::uint64_t p = 0; p < values_.size(); ++p) {
    const std::uint64_t v = values_[p];
    if (v == kEmpty) continue;
    ++occupied;
    // The hole is the unique table without a copy of v.
    int hole = -1;
    for (int t = 0; t < ctx_->tables(); ++t) {
      if (values_[position(t, v)] != v) {
        REPRO_CHECK_MSG(hole == -1, "more than one hole");
        hole = t;
      }
    }
    REPRO_CHECK_MSG(hole != -1, "element stored in every table");
    const int t = ctx_->table_of(p);
    slots[p] = GeneralBatmap::pack(hole, ctx_->code(ctx_->permuted(t, v)));
  }
  return GeneralBatmap(range_, std::move(slots),
                       occupied / static_cast<std::uint64_t>(ctx_->d()));
}

GeneralBatmap build_general_batmap(const MultiwayContext& ctx,
                                   std::span<const std::uint64_t> elements,
                                   std::vector<std::uint64_t>* failed) {
  GeneralBatmapBuilder b(ctx, ctx.range_for_size(elements.size()));
  for (const std::uint64_t x : elements) b.insert(x);
  if (failed) {
    failed->insert(failed->end(), b.failures().begin(), b.failures().end());
  }
  return b.seal();
}

std::uint64_t multiway_intersect_count(
    const MultiwayContext& ctx,
    std::span<const GeneralBatmap* const> maps) {
  REPRO_CHECK_MSG(maps.size() >= 2, "need at least two sets");
  REPRO_CHECK_MSG(static_cast<int>(maps.size()) <= ctx.d(),
                  "witness guarantee requires k <= d");
  // Same-range requirement keeps the sweep a plain zip; nested sizes would
  // wrap exactly as in the 2-of-3 case (same layout algebra).
  const std::uint32_t r = maps[0]->range();
  for (const auto* m : maps) {
    REPRO_CHECK_MSG(m->range() == r, "maps must share a range");
  }
  const std::uint64_t slots = maps[0]->slot_count();
  std::uint64_t count = 0;
  for (std::uint64_t p = 0; p < slots; ++p) {
    const std::uint16_t first = maps[0]->slot(p);
    const std::uint16_t code = GeneralBatmap::code_of(first);
    if (code == 0) continue;
    bool all = true;
    std::uint32_t hole_mask = 1u << GeneralBatmap::hole_of(first);
    for (std::size_t i = 1; i < maps.size(); ++i) {
      const std::uint16_t s = maps[i]->slot(p);
      if (GeneralBatmap::code_of(s) != code) {
        all = false;
        break;
      }
      hole_mask |= 1u << GeneralBatmap::hole_of(s);
    }
    if (!all) continue;
    // Count only at the FIRST witnessing table: every earlier table must be
    // some set's hole.
    const int t = ctx.table_of(p);
    const std::uint32_t below = (1u << t) - 1;
    if ((hole_mask & below) == below) ++count;
  }
  return count;
}

namespace {

inline std::uint8_t slot_at(std::span<const std::uint32_t> words,
                            std::uint64_t p) {
  return static_cast<std::uint8_t>(words[p >> 2] >> (8 * (p & 3)));
}

inline bool slot_match(std::uint8_t a, std::uint8_t b) {
  return ((a ^ b) & 0x7f) == 0 && ((a | b) & 0x80);
}

}  // namespace

std::size_t gallop_intersect(std::span<const std::uint64_t> a,
                             std::span<const std::uint64_t> b,
                             std::uint64_t* out) {
  if (a.size() > b.size()) std::swap(a, b);
  std::size_t n = 0;
  std::size_t j = 0;
  for (const std::uint64_t x : a) {
    j = gallop_to(b, j, x);
    if (j == b.size()) break;
    if (b[j] == x) {
      out[n++] = x;
      ++j;
    }
  }
  return n;
}

void accumulate_pair_counters(std::span<const std::uint32_t> base_words,
                              std::span<const std::uint32_t> other_words,
                              std::span<std::uint32_t> counters) {
  const std::uint64_t base_slots = base_words.size() * 4;
  const std::uint64_t other_slots = other_words.size() * 4;
  REPRO_CHECK(counters.size() == base_slots);
  REPRO_CHECK(base_slots > 0 && other_slots > 0);
  if (base_slots >= other_slots) {
    // Nesting lemma: pos_small = pos_big mod 3r_small, and 3·2^j widths mean
    // other_slots divides base_slots — sweep base in other-sized blocks.
    REPRO_CHECK(base_slots % other_slots == 0);
    for (std::uint64_t off = 0; off < base_slots; off += other_slots) {
      for (std::uint64_t p = 0; p < other_slots; ++p) {
        if (slot_match(slot_at(base_words, off + p),
                       slot_at(other_words, p))) {
          ++counters[off + p];
        }
      }
    }
  } else {
    REPRO_CHECK(other_slots % base_slots == 0);
    for (std::uint64_t off = 0; off < other_slots; off += base_slots) {
      for (std::uint64_t p = 0; p < base_slots; ++p) {
        if (slot_match(slot_at(base_words, p),
                       slot_at(other_words, off + p))) {
          ++counters[p];
        }
      }
    }
  }
}

std::uint64_t decode_counter_matches(const BatmapContext& ctx,
                                     std::span<const std::uint32_t> base_words,
                                     std::uint32_t base_range,
                                     std::span<const std::uint64_t> elems,
                                     std::span<const std::uint32_t> counters,
                                     std::uint64_t needed) {
  const LayoutParams& prm = ctx.params();
  std::uint64_t count = 0;
  for (const std::uint64_t x : elems) {
    std::uint64_t total = 0;
    int occurrences = 0;
    for (int t = 0; t < 3; ++t) {
      const std::uint64_t v = ctx.permuted(t, x);
      const std::uint64_t p = prm.position(v, t, base_range);
      const std::uint8_t slot = slot_at(base_words, p);
      if (slot != kNullSlot &&
          static_cast<std::uint8_t>(slot & 0x7f) == prm.code(v)) {
        total += counters[p];
        ++occurrences;
      }
    }
    REPRO_CHECK_MSG(occurrences == 2, "base element not stored twice");
    if (total == needed) ++count;
  }
  return count;
}

std::uint64_t multiway_count_via_counters(
    const BatmapContext& ctx, const Batmap& base,
    std::span<const std::uint64_t> base_elements,
    std::span<const Batmap* const> others) {
  REPRO_CHECK_MSG(!others.empty(), "need at least one other set");
  REPRO_CHECK_MSG(base.stored_elements() == base_elements.size(),
                  "base map has insertion failures; patch before counting");
  const std::uint64_t base_slots = base.slot_count();
  // Worst-case credit per base position is one per aligned other block, so
  // the per-position bound is Σ max(1, other_slots/base_slots). The counters
  // are 32-bit; check the bound so a pathological mix cannot wrap (the old
  // uint16_t counters could: a single other with slot ratio > 65535 wraps a
  // counter back to a small value that can falsely equal k−1).
  std::uint64_t max_credit = 0;
  for (const Batmap* other : others) {
    max_credit += std::max<std::uint64_t>(1, other->slot_count() / base_slots);
  }
  REPRO_CHECK_MSG(max_credit <= 0xffffffffull,
                  "counter bound exceeds 32 bits; widen counters");
  std::vector<std::uint32_t> counters(base_slots, 0);

  // One aligned pair sweep per other map, crediting the base position of
  // the (exactly one) counted match per common element.
  for (const Batmap* other : others) {
    accumulate_pair_counters(base.words(), other->words(), counters);
  }

  // Decode pass: element x lies in all sets iff its two occurrence counters
  // sum to the number of other sets.
  return decode_counter_matches(ctx, base.words(), base.range(), base_elements,
                                counters, others.size());
}

}  // namespace repro::batmap
