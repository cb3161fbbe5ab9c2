// High-level public API for batmap set intersection.
//
// BatmapStore owns a universe context and a collection of sets; it builds a
// compressed batmap per set and answers exact intersection-size queries,
// transparently patching the (rare) cuckoo insertion failures: an element
// x ∈ S_a ∩ S_b is counted by the batmap sweep iff it is represented in both
// maps, so the exact answer is
//
//   count(B_a, B_b) + |(F_a ∪ F_b) ∩ S_a ∩ S_b|
//
// where F_i is the failure list of set i (almost always empty).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "batmap/batmap.hpp"
#include "batmap/builder.hpp"
#include "batmap/context.hpp"

namespace repro::batmap {

class BatmapStore {
 public:
  struct Options {
    std::uint64_t seed = 0x9d2c5680;
    BatmapBuilder::Options builder{};
    /// Keep sorted element lists for exact failure patching (and decode
    /// checks). Disable only if you can tolerate undercounts on failures.
    bool keep_elements = true;
  };

  explicit BatmapStore(std::uint64_t universe);
  BatmapStore(std::uint64_t universe, Options opt);

  /// Adds a set (elements < universe, duplicates ignored); returns its id.
  std::size_t add(std::span<const std::uint64_t> elements);

  std::size_t size() const { return maps_.size(); }
  std::uint64_t universe() const { return ctx_.universe(); }
  const BatmapContext& context() const { return ctx_; }
  /// Hash seed the context was built with (snapshots persist it so a
  /// reader can rebuild identical permutations).
  std::uint64_t seed() const { return opt_.seed; }

  const Batmap& map(std::size_t id) const;
  /// All batmaps, in id order (contiguous; feed to pack_sorted_maps).
  std::span<const Batmap> maps() const { return maps_; }
  std::span<const std::uint64_t> failures(std::size_t id) const;
  std::span<const std::uint64_t> elements(std::size_t id) const;

  /// Exact |S_a ∩ S_b| (batmap sweep + failure patch).
  std::uint64_t intersection_size(std::size_t a, std::size_t b) const;

  /// The raw, unpatched sweep count (what the device kernel produces).
  std::uint64_t raw_count(std::size_t a, std::size_t b) const;

  /// Bytes held by the compressed batmaps only (the "device footprint").
  std::uint64_t batmap_bytes() const;
  /// Bytes held by everything (maps + retained element lists + failures).
  std::uint64_t memory_bytes() const;

  /// Total insertion failures across all sets.
  std::uint64_t total_failures() const;

  /// Binary serialization: writes universe, seed, and every map (packed
  /// words + failure + element lists) so a store can be reloaded without
  /// re-running cuckoo insertion. The format is versioned and carries an
  /// FNV-1a digest of the whole payload; load() rejects mismatching
  /// magic/version, truncation, and any byte-level corruption.
  void save(std::ostream& out) const;
  static BatmapStore load(std::istream& in);

 private:
  BatmapContext ctx_;
  Options opt_;
  std::vector<Batmap> maps_;
  std::vector<std::vector<std::uint64_t>> failed_;
  std::vector<std::vector<std::uint64_t>> elements_;  // sorted, deduplicated
};

/// Exact patched intersection for two independently built sets.
/// `sorted_a`/`sorted_b` are the full sorted element lists.
std::uint64_t patched_intersect_count(
    const Batmap& map_a, std::span<const std::uint64_t> failed_a,
    std::span<const std::uint64_t> sorted_a, const Batmap& map_b,
    std::span<const std::uint64_t> failed_b,
    std::span<const std::uint64_t> sorted_b);

/// First index i' >= i with v[i'] >= x in sorted `v` (v.size() if none):
/// an exponential probe from i, then a binary search within the bracket.
/// Across a sorted probe sequence the cursor only moves forward, so a whole
/// probe list costs one galloping merge instead of per-element searches.
inline std::size_t gallop_to(std::span<const std::uint64_t> v, std::size_t i,
                             std::uint64_t x) {
  if (i >= v.size() || v[i] >= x) return i;
  std::size_t lo = i;  // v[lo] < x
  std::size_t hi = i + 1;
  std::size_t step = 1;
  while (hi < v.size() && v[hi] < x) {
    lo = hi;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, v.size());
  return static_cast<std::size_t>(
      std::lower_bound(v.begin() + static_cast<std::ptrdiff_t>(lo),
                       v.begin() + static_cast<std::ptrdiff_t>(hi), x) -
      v.begin());
}

/// The failure correction alone: |(F_a ∪ F_b) ∩ S_a ∩ S_b| over sorted
/// lists, by galloping merge. patched count = raw sweep count + this
/// (zero whenever both failure lists are empty — the usual case).
std::uint64_t failure_patch_correction(std::span<const std::uint64_t> failed_a,
                                       std::span<const std::uint64_t> sorted_a,
                                       std::span<const std::uint64_t> failed_b,
                                       std::span<const std::uint64_t> sorted_b);

}  // namespace repro::batmap
