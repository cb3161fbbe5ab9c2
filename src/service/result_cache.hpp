// Fixed-capacity LRU result cache for the query engine.
//
// Keys are (snapshot epoch, query kind, a, b-or-k); values are full Result
// payloads. Everything — the bucket heads, the chained hash nodes, and the
// intrusive LRU list — is preallocated at construction, so steady-state
// serving inserts and evicts without touching the heap. Eviction is
// strict LRU: when every node is in use, the least recently touched entry
// is unlinked and its node recycled for the new key.
//
// The cache is deliberately single-threaded: only the thread that runs the
// engine's batch (the holder of its execution lock) reads or writes it,
// between (not during) kernel execution, so it needs no locks of its own
// and lookups cost one hash + a short chain walk.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/bits.hpp"

namespace repro::service {

template <typename Result>
class ResultCache {
 public:
  struct Key {
    std::uint64_t epoch = 0;
    std::uint32_t a = 0;
    std::uint32_t b = 0;  ///< second set id, or k for top-k queries
    std::uint8_t kind = 0;

    bool operator==(const Key& o) const {
      return epoch == o.epoch && a == o.a && b == o.b && kind == o.kind;
    }
  };

  /// `entries` == 0 disables the cache (lookups miss, inserts drop).
  explicit ResultCache(std::size_t entries) {
    if (entries == 0) return;
    nodes_.resize(bits::next_pow2(entries));
    buckets_.assign(nodes_.size() * 2, kNil);  // load factor <= 0.5
    bucket_mask_ = buckets_.size() - 1;
    // All nodes start on the free list (chained through lru_next).
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].lru_next = i + 1 < nodes_.size() ? i + 1 : kNil;
    }
    free_head_ = 0;
  }

  std::size_t capacity() const { return nodes_.size(); }

  /// Returns the cached result or nullptr; a hit is promoted to MRU.
  const Result* find(const Key& key) {
    if (nodes_.empty()) return nullptr;
    const std::uint32_t b = bucket_of(key);
    for (std::uint32_t i = buckets_[b]; i != kNil; i = nodes_[i].chain_next) {
      if (nodes_[i].key == key) {
        touch(i);
        return &nodes_[i].result;
      }
    }
    return nullptr;
  }

  /// Inserts (or refreshes) key -> result, evicting the LRU entry if full.
  void insert(const Key& key, const Result& result) {
    if (nodes_.empty()) return;
    const std::uint32_t b = bucket_of(key);
    for (std::uint32_t i = buckets_[b]; i != kNil; i = nodes_[i].chain_next) {
      if (nodes_[i].key == key) {
        nodes_[i].result = result;
        touch(i);
        return;
      }
    }
    std::uint32_t node;
    if (free_head_ != kNil) {
      node = free_head_;
      free_head_ = nodes_[node].lru_next;
    } else {
      node = lru_tail_;
      ++evictions_;
      unlink_lru(node);
      unchain(node);
    }
    nodes_[node].key = key;
    nodes_[node].result = result;
    nodes_[node].chain_next = buckets_[bucket_of(key)];
    buckets_[bucket_of(key)] = node;
    push_mru(node);
  }

  /// Drops every entry (snapshot swap); capacity is retained.
  void clear() {
    if (nodes_.empty()) return;
    std::fill(buckets_.begin(), buckets_.end(), kNil);
    for (std::uint32_t i = 0; i < nodes_.size(); ++i) {
      nodes_[i].lru_next = i + 1 < nodes_.size() ? i + 1 : kNil;
    }
    free_head_ = 0;
    lru_head_ = lru_tail_ = kNil;
  }

  std::uint64_t evictions() const { return evictions_; }

 private:
  static constexpr std::uint32_t kNil = ~0u;

  struct Node {
    Key key;
    Result result;
    std::uint32_t chain_next = kNil;
    std::uint32_t lru_prev = kNil;
    std::uint32_t lru_next = kNil;
  };

  std::uint32_t bucket_of(const Key& key) const {
    // SplitMix-style avalanche over the packed key words.
    std::uint64_t h = key.epoch * 0x9e3779b97f4a7c15ull;
    h ^= (static_cast<std::uint64_t>(key.a) << 32 | key.b) + key.kind;
    h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
    h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
    return static_cast<std::uint32_t>((h ^ (h >> 31)) & bucket_mask_);
  }

  void unchain(std::uint32_t node) {
    std::uint32_t* slot = &buckets_[bucket_of(nodes_[node].key)];
    while (*slot != node) slot = &nodes_[*slot].chain_next;
    *slot = nodes_[node].chain_next;
  }

  void unlink_lru(std::uint32_t node) {
    Node& n = nodes_[node];
    if (n.lru_prev != kNil) nodes_[n.lru_prev].lru_next = n.lru_next;
    if (n.lru_next != kNil) nodes_[n.lru_next].lru_prev = n.lru_prev;
    if (lru_head_ == node) lru_head_ = n.lru_next;
    if (lru_tail_ == node) lru_tail_ = n.lru_prev;
  }

  void push_mru(std::uint32_t node) {
    Node& n = nodes_[node];
    n.lru_prev = kNil;
    n.lru_next = lru_head_;
    if (lru_head_ != kNil) nodes_[lru_head_].lru_prev = node;
    lru_head_ = node;
    if (lru_tail_ == kNil) lru_tail_ = node;
  }

  void touch(std::uint32_t node) {
    if (lru_head_ == node) return;
    unlink_lru(node);
    push_mru(node);
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> buckets_;
  std::size_t bucket_mask_ = 0;
  std::uint32_t free_head_ = kNil;
  std::uint32_t lru_head_ = kNil;
  std::uint32_t lru_tail_ = kNil;
  std::uint64_t evictions_ = 0;
};

}  // namespace repro::service
