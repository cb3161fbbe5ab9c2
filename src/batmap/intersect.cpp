#include "batmap/intersect.hpp"

#include <algorithm>
#include <istream>
#include <ostream>

#include "util/fnv.hpp"

namespace repro::batmap {

BatmapStore::BatmapStore(std::uint64_t universe)
    : BatmapStore(universe, Options{}) {}

BatmapStore::BatmapStore(std::uint64_t universe, Options opt)
    : ctx_(universe, opt.seed), opt_(opt) {}

std::size_t BatmapStore::add(std::span<const std::uint64_t> elements) {
  std::vector<std::uint64_t> sorted(elements.begin(), elements.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  std::vector<std::uint64_t> failed;
  maps_.push_back(build_batmap(ctx_, sorted, &failed, opt_.builder));
  std::sort(failed.begin(), failed.end());
  failed_.push_back(std::move(failed));
  if (opt_.keep_elements) {
    elements_.push_back(std::move(sorted));
  } else {
    elements_.emplace_back();
  }
  return maps_.size() - 1;
}

const Batmap& BatmapStore::map(std::size_t id) const {
  REPRO_CHECK(id < maps_.size());
  return maps_[id];
}

std::span<const std::uint64_t> BatmapStore::failures(std::size_t id) const {
  REPRO_CHECK(id < failed_.size());
  return failed_[id];
}

std::span<const std::uint64_t> BatmapStore::elements(std::size_t id) const {
  REPRO_CHECK(id < elements_.size());
  return elements_[id];
}

std::uint64_t BatmapStore::raw_count(std::size_t a, std::size_t b) const {
  return intersect_count(map(a), map(b));
}

std::uint64_t BatmapStore::intersection_size(std::size_t a,
                                             std::size_t b) const {
  REPRO_CHECK(a < maps_.size() && b < maps_.size());
  return patched_intersect_count(maps_[a], failed_[a], elements_[a], maps_[b],
                                 failed_[b], elements_[b]);
}

std::uint64_t BatmapStore::batmap_bytes() const {
  std::uint64_t total = 0;
  for (const auto& m : maps_) total += m.memory_bytes();
  return total;
}

std::uint64_t BatmapStore::memory_bytes() const {
  std::uint64_t total = batmap_bytes();
  for (const auto& e : elements_) total += e.size() * sizeof(std::uint64_t);
  for (const auto& f : failed_) total += f.size() * sizeof(std::uint64_t);
  return total;
}

std::uint64_t BatmapStore::total_failures() const {
  std::uint64_t total = 0;
  for (const auto& f : failed_) total += f.size();
  return total;
}

namespace {

/// |list ∩ a ∩ b| for sorted lists, one forward merge pass.
std::uint64_t count_in_both(std::span<const std::uint64_t> list,
                            std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) {
  std::uint64_t c = 0;
  std::size_t ia = 0, ib = 0;
  for (const std::uint64_t x : list) {
    ia = gallop_to(a, ia, x);
    if (ia == a.size()) break;
    if (a[ia] != x) continue;
    ib = gallop_to(b, ib, x);
    if (ib == b.size()) break;
    if (b[ib] == x) ++c;
  }
  return c;
}

}  // namespace

std::uint64_t failure_patch_correction(
    std::span<const std::uint64_t> failed_a,
    std::span<const std::uint64_t> sorted_a,
    std::span<const std::uint64_t> failed_b,
    std::span<const std::uint64_t> sorted_b) {
  // An element in both failure lists must be counted once, hence the
  // exclusion of duplicates from the second pass.
  std::uint64_t c = count_in_both(failed_a, sorted_a, sorted_b);
  std::size_t ifa = 0, isa = 0, isb = 0;
  for (const std::uint64_t x : failed_b) {
    ifa = gallop_to(failed_a, ifa, x);
    if (ifa < failed_a.size() && failed_a[ifa] == x) continue;
    isa = gallop_to(sorted_a, isa, x);
    if (isa == sorted_a.size()) break;
    if (sorted_a[isa] != x) continue;
    isb = gallop_to(sorted_b, isb, x);
    if (isb == sorted_b.size()) break;
    if (sorted_b[isb] == x) ++c;
  }
  return c;
}

std::uint64_t patched_intersect_count(
    const Batmap& map_a, std::span<const std::uint64_t> failed_a,
    std::span<const std::uint64_t> sorted_a, const Batmap& map_b,
    std::span<const std::uint64_t> failed_b,
    std::span<const std::uint64_t> sorted_b) {
  // Patch elements missing from either map.
  return intersect_count(map_a, map_b) +
         failure_patch_correction(failed_a, sorted_a, failed_b, sorted_b);
}

namespace {

constexpr std::uint64_t kMagic = 0x424154'4d41'5031ull;  // "BATMAP1"
// Version 2: every payload byte after the magic+version preamble is folded
// into an FNV-1a digest appended as a trailer; load() re-hashes while
// parsing and rejects any mismatch, so a single flipped bit anywhere in
// the stream fails loudly instead of decoding into a corrupt store.
constexpr std::uint32_t kVersion = 2;
// Sanity cap on serialized vector lengths: corruption in a length field
// must raise CheckError, not a multi-terabyte allocation.
constexpr std::uint64_t kMaxVecElems = 1ull << 40;

/// Hashing ostream shim: everything written after the preamble flows
/// through here so the trailer digest covers the whole payload.
struct HashedWriter {
  std::ostream& out;
  util::Fnv1a hash;

  void write(const void* data, std::size_t bytes) {
    out.write(static_cast<const char*>(data),
              static_cast<std::streamsize>(bytes));
    hash.update(data, bytes);
  }
  template <typename T>
  void pod(const T& v) {
    write(&v, sizeof(T));
  }
  template <typename T>
  void span(std::span<const T> v) {
    pod<std::uint64_t>(v.size());
    write(v.data(), v.size() * sizeof(T));
  }
};

/// Hashing istream shim, mirror of HashedWriter.
struct HashedReader {
  std::istream& in;
  util::Fnv1a hash;

  void read(void* data, std::size_t bytes) {
    in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
    REPRO_CHECK_MSG(in.good(), "truncated batmap store stream");
    hash.update(data, bytes);
  }
  template <typename T>
  T pod() {
    T v{};
    read(&v, sizeof(T));
    return v;
  }
  /// Bytes left in the stream, or -1 when it is not seekable.
  std::int64_t remaining_bytes() {
    const auto cur = in.tellg();
    if (cur == std::istream::pos_type(-1)) return -1;
    in.seekg(0, std::ios::end);
    const auto end = in.tellg();
    in.seekg(cur);
    if (end == std::istream::pos_type(-1)) return -1;
    return static_cast<std::int64_t>(end - cur);
  }
  template <typename T>
  std::vector<T> vec() {
    const auto size = pod<std::uint64_t>();
    // A corrupt length field must raise CheckError, never reach the
    // allocator: bound by the bytes actually left in the stream when it
    // is seekable (files and stringstreams are), and in any case by a
    // cap checked with a division so huge values cannot wrap past it.
    const std::int64_t left = remaining_bytes();
    REPRO_CHECK_MSG(size < kMaxVecElems / sizeof(T) &&
                        (left < 0 || size <= static_cast<std::uint64_t>(left) /
                                                 sizeof(T)),
                    "implausible vector size (corrupt stream)");
    std::vector<T> v(size);
    read(v.data(), size * sizeof(T));
    return v;
  }
};

template <typename T>
void write_pod(std::ostream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  REPRO_CHECK_MSG(in.good(), "truncated batmap store stream");
  return v;
}

}  // namespace

void BatmapStore::save(std::ostream& out) const {
  write_pod(out, kMagic);
  write_pod(out, kVersion);
  HashedWriter w{out, {}};
  w.pod<std::uint64_t>(ctx_.universe());
  w.pod<std::uint64_t>(opt_.seed);
  w.pod<std::uint8_t>(opt_.keep_elements ? 1 : 0);
  w.pod<std::uint64_t>(maps_.size());
  for (std::size_t i = 0; i < maps_.size(); ++i) {
    w.pod<std::uint32_t>(maps_[i].range());
    w.pod<std::uint64_t>(maps_[i].stored_elements());
    w.span(maps_[i].words());  // streamed straight from the map
    w.span<std::uint64_t>(failed_[i]);
    w.span<std::uint64_t>(elements_[i]);
  }
  write_pod<std::uint64_t>(out, w.hash.digest());  // trailer, not hashed
  REPRO_CHECK_MSG(out.good(), "write failed");
}

BatmapStore BatmapStore::load(std::istream& in) {
  REPRO_CHECK_MSG(read_pod<std::uint64_t>(in) == kMagic,
                  "not a batmap store stream");
  REPRO_CHECK_MSG(read_pod<std::uint32_t>(in) == kVersion,
                  "unsupported batmap store version");
  HashedReader r{in, {}};
  const auto universe = r.pod<std::uint64_t>();
  Options opt;
  opt.seed = r.pod<std::uint64_t>();
  opt.keep_elements = r.pod<std::uint8_t>() != 0;
  BatmapStore store(universe, opt);
  const auto count = r.pod<std::uint64_t>();
  REPRO_CHECK_MSG(count < kMaxVecElems,
                  "implausible map count (corrupt stream)");
  for (std::uint64_t i = 0; i < count; ++i) {
    const auto range = r.pod<std::uint32_t>();
    const auto stored = r.pod<std::uint64_t>();
    auto words = r.vec<std::uint32_t>();
    store.maps_.emplace_back(range, stored, std::move(words),
                             store.ctx_.params());
    store.failed_.push_back(r.vec<std::uint64_t>());
    store.elements_.push_back(r.vec<std::uint64_t>());
  }
  const std::uint64_t expected = r.hash.digest();
  REPRO_CHECK_MSG(read_pod<std::uint64_t>(in) == expected,
                  "batmap store checksum mismatch (corrupt stream)");
  return store;
}

}  // namespace repro::batmap
