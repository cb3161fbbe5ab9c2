// Snapshot store: the serving-side row-container format.
//
// A snapshot is a single file holding a sequence of sealed rows (per-row
// layout payload, failure lists, element lists) in a versioned,
// checksummed, 64-byte-aligned layout designed to be mmap-ed read-only.
// One writer emits it from rows: a BatmapStore's (offline builds and
// shard-split) or the compactor's mix of mapped and rebuilt rows.
//
//   [SnapshotHeader: 64 B]
//   [MapEntry table: map_count × 64 B]
//   [words section    (u32, 64B-aligned runs, one per map)]
//   [failures section (u64, 64B-aligned runs)]
//   [elements section (u64, 64B-aligned runs)]
//
// Version 3 tags every directory entry with a core::RowLayout: the words run
// of a row is batmap words, a dense bit vector, a sorted u32 id list, or a
// WAH stream, chosen per row by the builder's cost model (plan_layouts).
// Non-batmap payloads are built from the row's STORED elements, so every
// cross-layout kernel reproduces the raw sweep count exactly and the failure
// patch on top keeps results byte-identical to the all-batmap path. Legacy
// version-1 files (no layout tags; the field was reserved-zero) still open
// and read as all-batmap.
//
// All multi-byte fields are native-endian PODs (snapshots are a deployment
// artifact for one fleet architecture, not an interchange format). Every
// per-map run starts on a 64-byte boundary so mmap-ed word spans have the
// same cache-line alignment the SIMD kernels and the arena allocator
// guarantee for heap batmaps. The header stores an FNV-1a digest of the
// whole file (its own checksum field read as zero); open() rejects wrong
// magic, unsupported versions, truncated files, unknown layout tags, and
// any corruption — header or payload — before handing out a view.
//
// Once open, a Snapshot is an immutable view shared by all query-engine
// workers with zero copy: word/failure/element accessors return spans
// straight into the mapping. The context (layout parameters + the three
// permutations) is rebuilt from (universe, seed) — O(1), no tables.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "batmap/context.hpp"
#include "batmap/intersect.hpp"
#include "core/row_container.hpp"
#include "util/check.hpp"

namespace repro::service {

inline constexpr std::uint64_t kSnapshotMagic = 0x50414e5354414221ull;  // "!BATSNAP"
inline constexpr std::uint32_t kSnapshotVersion = 3;
/// Pre-layout-tag files: the layout field was a reserved-zero u64, so every
/// row reads back as kBatmap. Still accepted by open().
inline constexpr std::uint32_t kSnapshotVersionLegacy = 1;

struct SnapshotHeader {
  std::uint64_t magic = kSnapshotMagic;
  std::uint32_t version = kSnapshotVersion;
  std::uint32_t header_bytes = 64;
  std::uint64_t file_bytes = 0;  ///< total snapshot size, for truncation checks
  /// FNV-1a over the whole file with this field read as zero — every header
  /// field and every payload byte is covered, so one flipped bit anywhere
  /// fails open().
  std::uint64_t checksum = 0;
  std::uint64_t epoch = 0;       ///< build generation, keys the result cache
  std::uint64_t universe = 0;
  std::uint64_t seed = 0;
  std::uint64_t map_count = 0;
};
static_assert(sizeof(SnapshotHeader) == 64, "header must stay one cache line");

/// Per-map directory entry (one cache line). Offsets are absolute file
/// offsets in bytes, each 64-byte aligned. `word_count` counts u32 words of
/// whatever payload `layout` names; `range` stays the batmap range the row
/// would use, for cost accounting and context checks, whatever the layout.
struct SnapshotMapEntry {
  std::uint64_t words_off = 0;
  std::uint64_t fail_off = 0;
  std::uint64_t elem_off = 0;
  std::uint32_t word_count = 0;
  std::uint32_t range = 0;
  std::uint64_t stored_elements = 0;
  std::uint64_t fail_count = 0;
  std::uint64_t elem_count = 0;
  std::uint32_t layout = 0;    ///< core::RowLayout tag (0 = batmap)
  std::uint32_t reserved = 0;
};
static_assert(sizeof(SnapshotMapEntry) == 64);

/// Thrown by Snapshot::open() when a version-3 directory entry carries a
/// layout tag this build does not know. Derives from CheckError so existing
/// reload/swap error handling keeps working untouched.
class SnapshotLayoutError : public CheckError {
 public:
  explicit SnapshotLayoutError(const std::string& what) : CheckError(what) {}
};

/// Layout selection for write_snapshot: force one layout everywhere, or let
/// the per-row cost model pick (auto).
enum class LayoutMode { kBatmap, kAuto, kDense, kList, kWah };

/// Parses "batmap|auto|dense|list|wah"; nullopt on anything else.
std::optional<LayoutMode> parse_layout_mode(std::string_view name);

/// Build-time cost model: picks a layout per row. kAuto chooses the smallest
/// encoding of {batmap, dense, list, wah} (ties to the faster kernel); forced
/// modes apply one layout everywhere. Rows a non-batmap layout cannot
/// represent exactly — element lists dropped, or ids wider than u32 — stay
/// batmap; if any nonempty row lacks its element list the whole plan falls
/// back to all-batmap, because cross-layout kernels need stored elements.
std::vector<core::RowLayout> plan_layouts(const batmap::BatmapStore& store,
                                          LayoutMode mode);

/// plan_layouts' rule for one row that retains its element list: batmap
/// range `range` (its batmap bytes), sorted `elements` and the failures
/// among them (its stored ids). The compactor plans mapped rows with it,
/// so a compacted epoch carries the layouts an offline plan would pick.
core::RowLayout plan_row(LayoutMode mode, std::uint64_t universe,
                         std::uint32_t range,
                         std::span<const std::uint64_t> elements,
                         std::span<const std::uint64_t> failures);

/// A non-batmap row payload (dense, list or WAH words) encoded from the
/// row's stored ids: `elements` minus `failures`, which must fit u32.
std::vector<std::uint32_t> encode_payload(core::RowLayout layout,
                                          std::uint64_t universe,
                                          std::span<const std::uint64_t> elements,
                                          std::span<const std::uint64_t> failures);

/// The one snapshot writer: serializes `rows` in order (set id i is
/// rows[i]) at `path`. Each row brings its layout tag, batmap range,
/// stored-element count and spans for its payload words, failures and
/// elements; the writer lays out the directory and the three 64B-aligned
/// sections and checksums the file. `epoch` tags the build generation
/// (cache keys include it, so a hot-swapped snapshot never serves stale
/// cached results). The spans must stay valid for the call.
void write_snapshot(const std::string& path, std::uint64_t epoch,
                    std::uint64_t universe, std::uint64_t seed,
                    std::span<const core::RowContainer> rows);

/// Serializes a BatmapStore, every row batmap.
void write_snapshot(const batmap::BatmapStore& store, const std::string& path,
                    std::uint64_t epoch = 0);

/// As above with an explicit per-row layout plan (from plan_layouts, or
/// hand-built in tests). Empty span = all batmap.
void write_snapshot(const batmap::BatmapStore& store, const std::string& path,
                    std::uint64_t epoch, std::span<const core::RowLayout> layouts);

/// Serializes only the store rows named by `rows`, in that order (the new
/// snapshot's set id i is store row rows[i]). The payload bytes of each
/// selected row are identical to a full-store snapshot's — no rebuild, so
/// raw sweep counts and failure lists survive the split bit-exactly. This
/// is how `batmap_cli shard-split` cuts one corpus into per-shard
/// snapshots that a ShardMap-consistent router can address. `layouts` is
/// indexed by output position (size rows.size(), or empty = all batmap).
/// All three BatmapStore overloads feed the row writer above.
void write_snapshot(const batmap::BatmapStore& store, const std::string& path,
                    std::uint64_t epoch, std::span<const core::RowLayout> layouts,
                    std::span<const std::uint32_t> rows);

class Snapshot {
 public:
  /// Per-layout row/byte accounting over the directory, for snapshot-info
  /// and the serve-side STATS gauges. Indexed by core::RowLayout tag.
  struct LayoutBreakdown {
    std::uint64_t rows[core::kRowLayoutCount] = {};
    std::uint64_t payload_bytes[core::kRowLayoutCount] = {};
    /// Words-section bytes an all-batmap snapshot of the same store would
    /// use (64B-aligned runs, from each entry's recorded range).
    std::uint64_t all_batmap_payload_bytes = 0;
    /// Actual words-section bytes (64B-aligned runs).
    std::uint64_t payload_bytes_total = 0;
  };

  /// mmaps `path` read-only and validates magic, version, size, alignment,
  /// layout tags, and the full payload checksum. Throws CheckError on any
  /// violation (SnapshotLayoutError for an unknown layout tag).
  static Snapshot open(const std::string& path);

  Snapshot(Snapshot&& other) noexcept;
  Snapshot& operator=(Snapshot&& other) noexcept;
  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;
  ~Snapshot();

  std::size_t size() const { return entries_.size(); }
  std::uint64_t universe() const { return header_->universe; }
  std::uint64_t epoch() const { return header_->epoch; }
  std::uint64_t seed() const { return header_->seed; }
  /// On-disk format version (kSnapshotVersion, or kSnapshotVersionLegacy
  /// for pre-layout-tag files served as all-batmap).
  std::uint32_t version() const { return header_->version; }
  const batmap::BatmapContext& context() const { return ctx_; }

  std::uint32_t range(std::size_t id) const { return entry(id).range; }
  std::uint64_t stored_elements(std::size_t id) const {
    return entry(id).stored_elements;
  }
  /// Container layout of set `id`'s words run.
  core::RowLayout layout(std::size_t id) const {
    return static_cast<core::RowLayout>(entry(id).layout);
  }
  /// True iff every row is batmap — the fast path the packed sweep engine
  /// and the strip kernels require.
  bool all_batmap() const { return all_batmap_; }

  /// Layout payload words, straight out of the mapping (64B-aligned).
  std::span<const std::uint32_t> words(std::size_t id) const;
  /// Sorted failed-insertion list of set `id`.
  std::span<const std::uint64_t> failures(std::size_t id) const;
  /// Sorted element list of set `id` (empty if the store dropped elements).
  std::span<const std::uint64_t> elements(std::size_t id) const;

  /// The unified non-owning view of one row (payload + element/failure
  /// spans), ready for the cross-layout kernels.
  core::RowContainer row(std::size_t id) const;

  /// Exact |S_a ∩ S_b|: the layout-pair kernel over the mapped payloads plus
  /// the failure patch — the single-query reference path (and the serving
  /// oracle).
  std::uint64_t intersection_size(std::size_t a, std::size_t b) const;
  /// The raw, unpatched count |stored_a ∩ stored_b| (the batmap sweep when
  /// both rows are batmap).
  std::uint64_t raw_count(std::size_t a, std::size_t b) const;

  /// Bytes of the whole mapping (the snapshot's resident footprint).
  std::uint64_t mapped_bytes() const { return map_bytes_; }
  /// Total insertion failures recorded across all sets.
  std::uint64_t total_failures() const;

  LayoutBreakdown layout_breakdown() const;

 private:
  Snapshot() = default;

  const SnapshotMapEntry& entry(std::size_t id) const {
    REPRO_CHECK_MSG(id < entries_.size(), "snapshot set id out of range");
    return entries_[id];
  }

  const std::byte* base_ = nullptr;   ///< mmap base (nullptr when moved-from)
  std::uint64_t map_bytes_ = 0;
  const SnapshotHeader* header_ = nullptr;
  std::span<const SnapshotMapEntry> entries_;
  batmap::BatmapContext ctx_{1};
  bool all_batmap_ = true;
};

}  // namespace repro::service
