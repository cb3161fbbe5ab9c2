#include "service/snapshot.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <fstream>
#include <vector>

#include "util/bits.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"
#include "util/fnv.hpp"

namespace repro::service {

namespace {

constexpr std::uint64_t kAlign = 64;

/// Writes `bytes` zero bytes of padding.
void write_pad(std::ostream& out, util::Fnv1a& hash, std::uint64_t bytes) {
  static constexpr char zeros[kAlign] = {};
  while (bytes > 0) {
    const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(bytes, kAlign));
    out.write(zeros, static_cast<std::streamsize>(n));
    hash.update(zeros, n);
    bytes -= n;
  }
}

void write_hashed(std::ostream& out, util::Fnv1a& hash, const void* data,
                  std::size_t bytes) {
  out.write(static_cast<const char*>(data),
            static_cast<std::streamsize>(bytes));
  hash.update(data, bytes);
}

/// The row's stored elements (elements set-minus failures) as u32 ids — the
/// source material for every non-batmap payload. Requires ids to fit u32.
std::vector<std::uint32_t> stored_ids_u32(std::span<const std::uint64_t> elems,
                                          std::span<const std::uint64_t> fails) {
  std::vector<std::uint32_t> out;
  out.reserve(elems.size() - std::min(fails.size(), elems.size()));
  std::size_t f = 0;
  for (const std::uint64_t v : elems) {
    while (f < fails.size() && fails[f] < v) ++f;
    if (f < fails.size() && fails[f] == v) {
      ++f;
      continue;
    }
    REPRO_CHECK_MSG(v <= 0xffffffffull, "stored id does not fit u32");
    out.push_back(static_cast<std::uint32_t>(v));
  }
  return out;
}

/// True when the store retains the element lists the cross-layout kernels
/// need to stay exact (every nonempty row has its sorted element list).
bool elements_retained(const batmap::BatmapStore& store) {
  for (std::size_t i = 0; i < store.size(); ++i) {
    if (store.map(i).stored_elements() + store.failures(i).size() > 0 &&
        store.elements(i).empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::optional<LayoutMode> parse_layout_mode(std::string_view name) {
  if (name == "batmap") return LayoutMode::kBatmap;
  if (name == "auto") return LayoutMode::kAuto;
  if (name == "dense") return LayoutMode::kDense;
  if (name == "list") return LayoutMode::kList;
  if (name == "wah") return LayoutMode::kWah;
  return std::nullopt;
}

core::RowLayout plan_row(LayoutMode mode, std::uint64_t universe,
                         std::uint32_t range,
                         std::span<const std::uint64_t> elements,
                         std::span<const std::uint64_t> failures) {
  const bool ids_fit_u32 = universe <= 0x100000000ull;
  switch (mode) {
    case LayoutMode::kBatmap:
      break;
    case LayoutMode::kDense:
      return core::RowLayout::kDense;
    case LayoutMode::kList:
      if (ids_fit_u32) return core::RowLayout::kSortedList;
      break;
    case LayoutMode::kWah:
      if (ids_fit_u32) return core::RowLayout::kWah;
      break;
    case LayoutMode::kAuto: {
      // Smallest encoding wins; ties go to the faster intersect kernel
      // (dense word AND < batmap sweep < galloping list < WAH decode).
      std::uint64_t best_bytes = core::dense_word_count(universe) * 8;
      int best_rank = 0;
      core::RowLayout best = core::RowLayout::kDense;
      const auto consider = [&](std::uint64_t bytes, int rank,
                                core::RowLayout layout) {
        if (bytes < best_bytes || (bytes == best_bytes && rank < best_rank)) {
          best_bytes = bytes;
          best_rank = rank;
          best = layout;
        }
      };
      consider(batmap::LayoutParams::words(range) * 4, 1,
               core::RowLayout::kBatmap);
      if (ids_fit_u32) {
        const auto ids = stored_ids_u32(elements, failures);
        consider(ids.size() * 4, 2, core::RowLayout::kSortedList);
        consider(core::wah_encode(ids, universe).size() * 4, 3,
                 core::RowLayout::kWah);
      }
      return best;
    }
  }
  return core::RowLayout::kBatmap;
}

std::vector<core::RowLayout> plan_layouts(const batmap::BatmapStore& store,
                                          LayoutMode mode) {
  std::vector<core::RowLayout> plan(store.size(), core::RowLayout::kBatmap);
  // Cross-layout kernels patch and merge via stored-element lists; a store
  // that dropped them can only be served all-batmap.
  if (mode == LayoutMode::kBatmap || !elements_retained(store)) return plan;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    plan[i] = plan_row(mode, store.universe(), store.map(i).range(),
                       store.elements(i), store.failures(i));
  }
  return plan;
}

std::vector<std::uint32_t> encode_payload(core::RowLayout layout,
                                          std::uint64_t universe,
                                          std::span<const std::uint64_t> elements,
                                          std::span<const std::uint64_t> failures) {
  // Every alternative payload is built from the STORED elements, so raw
  // cross-layout counts equal the raw sweep.
  const auto ids = stored_ids_u32(elements, failures);
  switch (layout) {
    case core::RowLayout::kDense: {
      const auto dense = core::dense_from_ids(ids, universe);
      std::vector<std::uint32_t> out(dense.size() * 2);
      std::memcpy(out.data(), dense.data(), dense.size() * 8);
      return out;
    }
    case core::RowLayout::kSortedList:
      return ids;
    case core::RowLayout::kWah:
      return core::wah_encode(ids, universe);
    case core::RowLayout::kBatmap:
      break;
  }
  REPRO_CHECK_MSG(false, "batmap payloads come from the cuckoo build");
  return {};
}

void write_snapshot(const batmap::BatmapStore& store, const std::string& path,
                    std::uint64_t epoch) {
  write_snapshot(store, path, epoch, {});
}

void write_snapshot(const batmap::BatmapStore& store, const std::string& path,
                    std::uint64_t epoch,
                    std::span<const core::RowLayout> layouts) {
  write_snapshot(store, path, epoch, layouts, {});
}

void write_snapshot(const batmap::BatmapStore& store, const std::string& path,
                    std::uint64_t epoch,
                    std::span<const core::RowLayout> layouts,
                    std::span<const std::uint32_t> rows) {
  // The snapshot records only (universe, seed); the layout it implies must
  // be the one the store actually used, or a reader would mis-decode.
  const batmap::LayoutParams derived =
      batmap::LayoutParams::for_universe(store.universe());
  REPRO_CHECK_MSG(derived.r0 == store.context().params().r0 &&
                      derived.s == store.context().params().s,
                  "store layout is not the default for its universe; "
                  "snapshot format cannot represent it");

  // An empty `rows` means "all rows" (the 4-arg overload), so a shard that
  // owns zero sets cannot be expressed here — shard-split rejects that
  // topology before calling.
  const bool subset = !rows.empty();
  const std::size_t n = subset ? rows.size() : store.size();
  REPRO_CHECK_MSG(layouts.empty() || layouts.size() == n,
                  "layout plan size does not match store");
  // Batmap rows reuse the store's packed words with zero copy; the other
  // payloads are encoded up front and live in `built` through the write.
  std::vector<std::vector<std::uint32_t>> built(n);
  std::vector<core::RowContainer> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t r = subset ? rows[i] : i;
    REPRO_CHECK_MSG(r < store.size(), "shard row id out of range");
    const auto& m = store.map(r);
    core::RowContainer& row = out[i];
    row = {layouts.empty() ? core::RowLayout::kBatmap : layouts[i],
           store.universe(),  m.range(),          m.stored_elements(),
           m.words(),         store.elements(r),  store.failures(r)};
    if (row.layout != core::RowLayout::kBatmap) {
      built[i] = encode_payload(row.layout, row.universe, row.elements,
                                row.failures);
      row.words = built[i];
    }
  }
  write_snapshot(path, epoch, store.universe(), store.seed(), out);
}

void write_snapshot(const std::string& path, std::uint64_t epoch,
                    std::uint64_t universe, std::uint64_t seed,
                    std::span<const core::RowContainer> rows) {
  const std::uint64_t n = rows.size();
  SnapshotHeader hdr;
  hdr.epoch = epoch;
  hdr.universe = universe;
  hdr.seed = seed;
  hdr.map_count = n;

  // Lay out the directory and the three 64B-aligned sections.
  std::vector<SnapshotMapEntry> entries(n);
  std::uint64_t off = sizeof(SnapshotHeader) + n * sizeof(SnapshotMapEntry);
  off = bits::round_up(off, kAlign);
  for (std::uint64_t i = 0; i < n; ++i) {
    const core::RowContainer& row = rows[i];
    REPRO_CHECK_MSG(row.words.size() <= 0xffffffffull, "row payload too large");
    REPRO_CHECK_MSG(row.layout == core::RowLayout::kBatmap ||
                        row.elements.size() ==
                            row.stored + row.failures.size(),
                    "non-batmap layout requires retained element lists");
    entries[i].word_count = static_cast<std::uint32_t>(row.words.size());
    entries[i].range = row.range;
    entries[i].stored_elements = row.stored;
    entries[i].layout = static_cast<std::uint32_t>(row.layout);
    entries[i].words_off = off;
    off = bits::round_up(off + row.words.size() * sizeof(std::uint32_t),
                         kAlign);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    entries[i].fail_count = rows[i].failures.size();
    entries[i].fail_off = off;
    off = bits::round_up(off + entries[i].fail_count * sizeof(std::uint64_t),
                         kAlign);
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    entries[i].elem_count = rows[i].elements.size();
    entries[i].elem_off = off;
    off = bits::round_up(off + entries[i].elem_count * sizeof(std::uint64_t),
                         kAlign);
  }
  hdr.file_bytes = off;

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  REPRO_CHECK_MSG(out.good(), "cannot open " + path + " for writing");
  // The header goes out first with checksum 0 — and is hashed that way, so
  // the digest covers every header field; the final value is patched in at
  // the end (regular files are seekable).
  out.write(reinterpret_cast<const char*>(&hdr), sizeof(hdr));

  util::Fnv1a hash;
  hash.update(&hdr, sizeof(hdr));
  std::uint64_t pos = sizeof(SnapshotHeader);
  write_hashed(out, hash, entries.data(), n * sizeof(SnapshotMapEntry));
  pos += n * sizeof(SnapshotMapEntry);

  const auto put = [&](std::uint64_t target, const void* data,
                       std::size_t bytes) {
    REPRO_CHECK(target >= pos);
    write_pad(out, hash, target - pos);
    write_hashed(out, hash, data, bytes);
    pos = target + bytes;
  };
  for (std::uint64_t i = 0; i < n; ++i) {
    put(entries[i].words_off, rows[i].words.data(),
        rows[i].words.size() * sizeof(std::uint32_t));
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    put(entries[i].fail_off, rows[i].failures.data(),
        rows[i].failures.size() * sizeof(std::uint64_t));
  }
  for (std::uint64_t i = 0; i < n; ++i) {
    put(entries[i].elem_off, rows[i].elements.data(),
        rows[i].elements.size() * sizeof(std::uint64_t));
  }
  put(hdr.file_bytes, nullptr, 0);

  hdr.checksum = hash.digest();
  out.seekp(static_cast<std::streamoff>(offsetof(SnapshotHeader, checksum)));
  out.write(reinterpret_cast<const char*>(&hdr.checksum),
            sizeof(hdr.checksum));
  out.flush();
  REPRO_CHECK_MSG(out.good(), "snapshot write failed: " + path);
}

Snapshot Snapshot::open(const std::string& path) {
  // Chaos hooks: each site simulates one real failure mode the reload path
  // must survive (see util/fault.hpp). They fire before the corresponding
  // syscall so no resource leaks on the injected path.
  const bool inject = util::fault::armed();
  REPRO_CHECK_MSG(!(inject && util::fault::fire("snap_open")),
                  "fault injection: cannot open snapshot " + path);
  const int fd = ::open(path.c_str(), O_RDONLY);
  REPRO_CHECK_MSG(fd >= 0, "cannot open snapshot " + path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    REPRO_CHECK_MSG(false, "cannot stat snapshot " + path);
  }
  const auto file_bytes = static_cast<std::uint64_t>(st.st_size);
  if (file_bytes < sizeof(SnapshotHeader)) {
    ::close(fd);
    REPRO_CHECK_MSG(false, "snapshot smaller than its header: " + path);
  }
  if (inject && util::fault::fire("snap_mmap")) {
    ::close(fd);
    REPRO_CHECK_MSG(false, "fault injection: mmap failed for snapshot " + path);
  }
  void* base = ::mmap(nullptr, file_bytes, PROT_READ, MAP_SHARED, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  REPRO_CHECK_MSG(base != MAP_FAILED, "mmap failed for snapshot " + path);

  Snapshot snap;
  snap.base_ = static_cast<const std::byte*>(base);
  snap.map_bytes_ = file_bytes;
  // From here on, any validation failure must unmap; the Snapshot
  // destructor does that once base_ is set.
  const auto* hdr = reinterpret_cast<const SnapshotHeader*>(snap.base_);
  snap.header_ = hdr;
  REPRO_CHECK_MSG(hdr->magic == kSnapshotMagic,
                  "not a batmap snapshot: " + path);
  REPRO_CHECK_MSG(hdr->version == kSnapshotVersion ||
                      hdr->version == kSnapshotVersionLegacy,
                  "unsupported snapshot version");
  REPRO_CHECK_MSG(hdr->header_bytes == sizeof(SnapshotHeader),
                  "snapshot header size mismatch");
  REPRO_CHECK_MSG(hdr->file_bytes == file_bytes,
                  "snapshot truncated or padded: header says " +
                      std::to_string(hdr->file_bytes) + " bytes, file has " +
                      std::to_string(file_bytes));

  util::Fnv1a hash;
  SnapshotHeader zeroed = *hdr;
  zeroed.checksum = 0;
  hash.update(&zeroed, sizeof(zeroed));
  hash.update(snap.base_ + sizeof(SnapshotHeader),
              file_bytes - sizeof(SnapshotHeader));
  std::uint64_t digest = hash.digest();
  if (inject && util::fault::fire("snap_checksum")) digest ^= 1;
  REPRO_CHECK_MSG(digest == hdr->checksum,
                  "snapshot checksum mismatch (corrupt file): " + path);

  const std::uint64_t n = hdr->map_count;
  const std::uint64_t table_end =
      sizeof(SnapshotHeader) + n * sizeof(SnapshotMapEntry);
  REPRO_CHECK_MSG(table_end <= file_bytes, "snapshot directory out of bounds");
  snap.entries_ = {reinterpret_cast<const SnapshotMapEntry*>(
                       snap.base_ + sizeof(SnapshotHeader)),
                   static_cast<std::size_t>(n)};
  const std::uint64_t dense_words = 2 * core::dense_word_count(hdr->universe);
  for (const auto& e : snap.entries_) {
    const auto span_ok = [&](std::uint64_t off, std::uint64_t count,
                             std::uint64_t elem_size) {
      return off % kAlign == 0 && off >= table_end && off <= file_bytes &&
             count * elem_size <= file_bytes - off;
    };
    REPRO_CHECK_MSG(span_ok(e.words_off, e.word_count, 4) &&
                        span_ok(e.fail_off, e.fail_count, 8) &&
                        span_ok(e.elem_off, e.elem_count, 8),
                    "snapshot map entry out of bounds or misaligned");
    if (!core::row_layout_known(e.layout)) {
      throw SnapshotLayoutError("snapshot row has unknown layout tag " +
                                std::to_string(e.layout) +
                                " (newer writer?): " + path);
    }
    // Per-layout shape checks: the payload length must be the one the tag
    // implies, and non-batmap rows must carry the element lists the
    // cross-layout kernels patch with.
    switch (static_cast<core::RowLayout>(e.layout)) {
      case core::RowLayout::kBatmap:
        REPRO_CHECK_MSG(e.word_count == batmap::LayoutParams::words(e.range),
                        "snapshot word count inconsistent with range");
        break;
      case core::RowLayout::kDense:
        REPRO_CHECK_MSG(e.word_count == dense_words,
                        "snapshot dense row has wrong word count");
        break;
      case core::RowLayout::kSortedList:
        REPRO_CHECK_MSG(e.word_count == e.stored_elements,
                        "snapshot list row has wrong word count");
        break;
      case core::RowLayout::kWah:
        break;  // variable length; covered by bounds + checksum
    }
    if (e.layout != 0) {
      snap.all_batmap_ = false;
      REPRO_CHECK_MSG(e.elem_count == e.stored_elements + e.fail_count,
                      "non-batmap snapshot row lacks its element list");
    }
  }
  snap.ctx_ = batmap::BatmapContext(hdr->universe, hdr->seed);
  return snap;
}

Snapshot::Snapshot(Snapshot&& other) noexcept { *this = std::move(other); }

Snapshot& Snapshot::operator=(Snapshot&& other) noexcept {
  if (this != &other) {
    if (base_ != nullptr) {
      ::munmap(const_cast<std::byte*>(base_), map_bytes_);
    }
    base_ = other.base_;
    map_bytes_ = other.map_bytes_;
    header_ = other.header_;
    entries_ = other.entries_;
    ctx_ = other.ctx_;
    all_batmap_ = other.all_batmap_;
    other.base_ = nullptr;
    other.map_bytes_ = 0;
    other.header_ = nullptr;
    other.entries_ = {};
    other.all_batmap_ = true;
  }
  return *this;
}

Snapshot::~Snapshot() {
  if (base_ != nullptr) {
    ::munmap(const_cast<std::byte*>(base_), map_bytes_);
  }
}

std::span<const std::uint32_t> Snapshot::words(std::size_t id) const {
  const auto& e = entry(id);
  return {reinterpret_cast<const std::uint32_t*>(base_ + e.words_off),
          e.word_count};
}

std::span<const std::uint64_t> Snapshot::failures(std::size_t id) const {
  const auto& e = entry(id);
  return {reinterpret_cast<const std::uint64_t*>(base_ + e.fail_off),
          static_cast<std::size_t>(e.fail_count)};
}

std::span<const std::uint64_t> Snapshot::elements(std::size_t id) const {
  const auto& e = entry(id);
  return {reinterpret_cast<const std::uint64_t*>(base_ + e.elem_off),
          static_cast<std::size_t>(e.elem_count)};
}

core::RowContainer Snapshot::row(std::size_t id) const {
  const auto& e = entry(id);
  return {static_cast<core::RowLayout>(e.layout), header_->universe, e.range,
          e.stored_elements, words(id), elements(id), failures(id)};
}

std::uint64_t Snapshot::raw_count(std::size_t a, std::size_t b) const {
  if (layout(a) == core::RowLayout::kBatmap &&
      layout(b) == core::RowLayout::kBatmap) {
    const auto wa = words(a);
    const auto wb = words(b);
    return wa.size() >= wb.size() ? batmap::intersect_count_words(wa, wb)
                                  : batmap::intersect_count_words(wb, wa);
  }
  return core::intersect_count(row(a), row(b));
}

std::uint64_t Snapshot::intersection_size(std::size_t a, std::size_t b) const {
  return raw_count(a, b) +
         batmap::failure_patch_correction(failures(a), elements(a),
                                          failures(b), elements(b));
}

std::uint64_t Snapshot::total_failures() const {
  std::uint64_t total = 0;
  for (const auto& e : entries_) total += e.fail_count;
  return total;
}

Snapshot::LayoutBreakdown Snapshot::layout_breakdown() const {
  LayoutBreakdown br;
  for (const auto& e : entries_) {
    const std::uint64_t run = bits::round_up(e.word_count * 4ull, kAlign);
    br.rows[e.layout] += 1;
    br.payload_bytes[e.layout] += run;
    br.payload_bytes_total += run;
    br.all_batmap_payload_bytes +=
        bits::round_up(batmap::LayoutParams::words(e.range) * 4ull, kAlign);
  }
  return br;
}

}  // namespace repro::service
