#include "hash/permutation.hpp"

#include <atomic>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "util/bits.hpp"
#include "util/rng.hpp"

namespace repro::hash {

// The lookup table for one (domain, seed). It is filled once, under its
// once_flag; the atomic pointer is the lock-free fast path after that.
struct FeistelPermutation::Table {
  std::once_flag once;
  std::atomic<const std::uint16_t*> values{nullptr};
  std::vector<std::uint16_t> storage;
};

// Process-wide (domain, seed) → table map. Entries are weak, so a table dies
// with the last permutation holding it; expired entries are swept on insert.
// Leaked on purpose so permutations in static objects may outlive it.
std::shared_ptr<FeistelPermutation::Table> FeistelPermutation::shared_table(
    std::uint64_t domain, std::uint64_t seed) {
  struct Cache {
    std::mutex mu;
    std::map<std::pair<std::uint64_t, std::uint64_t>, std::weak_ptr<Table>>
        entries;
  };
  static Cache* const cache = new Cache;
  const std::lock_guard<std::mutex> lock(cache->mu);
  const auto key = std::make_pair(domain, seed);
  if (const auto it = cache->entries.find(key); it != cache->entries.end()) {
    if (auto table = it->second.lock()) return table;
  }
  std::erase_if(cache->entries,
                [](const auto& entry) { return entry.second.expired(); });
  auto table = std::make_shared<Table>();
  cache->entries[key] = table;
  return table;
}

FeistelPermutation::FeistelPermutation(std::uint64_t domain,
                                       std::uint64_t seed)
    : domain_(domain) {
  REPRO_CHECK_MSG(domain >= 1, "permutation domain must be non-empty");
  // Cover the domain with an even number of bits, at least 2, so the Feistel
  // halves are balanced. Cycle-walking brings values back into [0, domain).
  unsigned bits = bits::bit_width(domain - 1);
  if (bits < 2) bits = 2;
  if (bits % 2) ++bits;
  half_bits_ = bits / 2;
  half_mask_ = (half_bits_ >= 64) ? ~0ULL : ((1ULL << half_bits_) - 1);
  SplitMix64 sm(seed ^ 0x5bf03635a1ce9075ULL);
  for (auto& k : keys_) k = sm.next();
  if (domain <= kMaxTableDomain) table_ = shared_table(domain, seed);
}

std::uint64_t FeistelPermutation::round_fn(std::uint64_t half,
                                           std::uint64_t key) const {
  // One splitmix-style mixing round keyed by `key`; only the low half_bits_
  // of the result are used by the caller.
  std::uint64_t z = half + key;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t FeistelPermutation::encrypt_once(std::uint64_t x) const {
  std::uint64_t left = (x >> half_bits_) & half_mask_;
  std::uint64_t right = x & half_mask_;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t next = left ^ (round_fn(right, keys_[static_cast<std::size_t>(r)]) & half_mask_);
    left = right;
    right = next;
  }
  return (left << half_bits_) | right;
}

std::uint64_t FeistelPermutation::decrypt_once(std::uint64_t y) const {
  std::uint64_t left = (y >> half_bits_) & half_mask_;
  std::uint64_t right = y & half_mask_;
  for (int r = kRounds - 1; r >= 0; --r) {
    const std::uint64_t prev = right ^ (round_fn(left, keys_[static_cast<std::size_t>(r)]) & half_mask_);
    right = left;
    left = prev;
  }
  return (left << half_bits_) | right;
}

std::uint64_t FeistelPermutation::walk_forward(std::uint64_t x) const {
  std::uint64_t y = encrypt_once(x);
  while (y >= domain_) y = encrypt_once(y);  // cycle-walk
  return y;
}

const std::uint16_t* FeistelPermutation::table() const {
  const std::uint16_t* values = table_->values.load(std::memory_order_acquire);
  if (values != nullptr) return values;
  std::call_once(table_->once, [this] {
    std::vector<std::uint16_t>& storage = table_->storage;
    storage.resize(domain_);
    for (std::uint64_t x = 0; x < domain_; ++x) {
      storage[x] = static_cast<std::uint16_t>(walk_forward(x));
    }
    table_->values.store(storage.data(), std::memory_order_release);
  });
  return table_->values.load(std::memory_order_acquire);
}

std::uint64_t FeistelPermutation::operator()(std::uint64_t x) const {
  REPRO_DCHECK(x < domain_);
  return table_ ? table()[x] : walk_forward(x);
}

std::uint64_t FeistelPermutation::inverse(std::uint64_t y) const {
  REPRO_DCHECK(y < domain_);
  std::uint64_t x = decrypt_once(y);
  while (x >= domain_) x = decrypt_once(x);
  return x;
}

PermutationTriple::PermutationTriple(std::uint64_t domain, std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (int t = 0; t < 3; ++t) {
    pis_[static_cast<std::size_t>(t)] = FeistelPermutation(domain, sm.next());
  }
}

}  // namespace repro::hash
