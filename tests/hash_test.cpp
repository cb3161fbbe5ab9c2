// Tests for the hash substrate: Feistel permutations must be exact
// bijections on arbitrary domains (the batmap compression proof depends on
// it), invertible, deterministic in the seed, and reasonably uniform.
#include <gtest/gtest.h>

#include <array>
#include <latch>
#include <numeric>
#include <thread>
#include <vector>

#include "hash/hash_family.hpp"
#include "hash/permutation.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace repro::hash {
namespace {

class PermutationDomains : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PermutationDomains, IsBijection) {
  const std::uint64_t domain = GetParam();
  const FeistelPermutation pi(domain, 123);
  std::vector<bool> hit(domain, false);
  for (std::uint64_t x = 0; x < domain; ++x) {
    const std::uint64_t y = pi(x);
    ASSERT_LT(y, domain);
    ASSERT_FALSE(hit[y]) << "collision at x=" << x;
    hit[y] = true;
  }
}

TEST_P(PermutationDomains, InverseRoundTrips) {
  const std::uint64_t domain = GetParam();
  const FeistelPermutation pi(domain, 99);
  for (std::uint64_t x = 0; x < domain; ++x) {
    ASSERT_EQ(pi.inverse(pi(x)), x);
  }
}

INSTANTIATE_TEST_SUITE_P(Domains, PermutationDomains,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 15, 16, 17,
                                           100, 127, 128, 129, 1000, 4096,
                                           5000, 65536, 100000));

TEST(Permutation, DeterministicInSeed) {
  const FeistelPermutation a(1000, 5), b(1000, 5), c(1000, 6);
  bool all_eq = true, any_diff = false;
  for (std::uint64_t x = 0; x < 1000; ++x) {
    all_eq &= (a(x) == b(x));
    any_diff |= (a(x) != c(x));
  }
  EXPECT_TRUE(all_eq);
  EXPECT_TRUE(any_diff);
}

TEST(Permutation, LargeDomainSpotChecks) {
  const std::uint64_t domain = 1ull << 40;
  const FeistelPermutation pi(domain, 321);
  Xoshiro256 rng(1);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t x = rng.below(domain);
    const std::uint64_t y = pi(x);
    ASSERT_LT(y, domain);
    ASSERT_EQ(pi.inverse(y), x);
  }
}

TEST(Permutation, NotIdentityLike) {
  // A random permutation of [0, 4096) should have very few fixed points.
  const FeistelPermutation pi(4096, 2024);
  int fixed = 0;
  for (std::uint64_t x = 0; x < 4096; ++x) fixed += (pi(x) == x);
  EXPECT_LT(fixed, 20);
}

TEST(Permutation, RoughlyUniformBuckets) {
  // Image of an interval should spread across the domain.
  const std::uint64_t domain = 1 << 16;
  const FeistelPermutation pi(domain, 77);
  std::vector<int> bucket(16, 0);
  for (std::uint64_t x = 0; x < 4096; ++x) {
    ++bucket[pi(x) / (domain / 16)];
  }
  for (const int b : bucket) {
    EXPECT_GT(b, 4096 / 16 / 3);
    EXPECT_LT(b, 4096 / 16 * 3);
  }
}

TEST(PermutationTripleTest, ThreeIndependentPermutations) {
  const PermutationTriple triple(10000, 42);
  EXPECT_EQ(triple.domain(), 10000u);
  int agree01 = 0, agree12 = 0;
  for (std::uint64_t x = 0; x < 10000; ++x) {
    agree01 += (triple.pi(0)(x) == triple.pi(1)(x));
    agree12 += (triple.pi(1)(x) == triple.pi(2)(x));
  }
  // Independent random permutations agree on ~1 point in expectation.
  EXPECT_LT(agree01, 20);
  EXPECT_LT(agree12, 20);
}

// Golden FNV-1a digests of π_t(x) and π_t⁻¹(x), fed as u64, for the
// BatmapContext default seed, recorded from the Feistel network alone. The
// domains sit on both sides of the lookup-table cap, so they pin the tables
// to the network's exact outputs.
TEST(PermutationTripleTest, GoldenDigestsOnBothSidesOfTheTableCap) {
  struct Golden {
    std::uint64_t domain;
    std::array<std::uint64_t, 3> forward, inverse;
  };
  constexpr std::uint64_t kCap = FeistelPermutation::kMaxTableDomain;
  static_assert(kCap == (1ull << 16));
  const Golden goldens[] = {
      {8000,
       {0xa67fcc3c046bb6ffull, 0x15c46b7e5db5cd03ull, 0xe0f5cb82f2aba043ull},
       {0xe1b87c8b9180f723ull, 0x12c2433d40c0a10full, 0x5c45a4fd505d309full}},
      {60000,
       {0x775758af5b898f63ull, 0xfa5b52e4378d901full, 0x7d4dbdb0b7e24b23ull},
       {0xdc4708f46e635897ull, 0x116929a734f9d447ull, 0xa234d0996fb82b67ull}},
      {kCap,
       {0xcac7d6fe5378ed4bull, 0xb95ef2e4bd4d0cbbull, 0x5def467bf460d5dbull},
       {0x9913df9d71210a17ull, 0xa2f779e223edc13bull, 0x4fb495ae12b495a3ull}},
      {kCap + 1,
       {0xdfca04328665657eull, 0xc33524901f4ea9d6ull, 0x6ab9e0fc8b384dcaull},
       {0x239ff662adda8edaull, 0x42740fb704831b76ull, 0x510927e462940b4aull}},
  };
  for (const Golden& g : goldens) {
    const PermutationTriple triple(g.domain, 0x9d2c5680);
    for (int t = 0; t < 3; ++t) {
      util::Fnv1a forward, inverse;
      for (std::uint64_t x = 0; x < g.domain; ++x) {
        const std::uint64_t y = triple.pi(t)(x);
        const std::uint64_t z = triple.pi(t).inverse(x);
        forward.update(&y, sizeof y);
        inverse.update(&z, sizeof z);
      }
      const auto ti = static_cast<std::size_t>(t);
      EXPECT_EQ(forward.digest(), g.forward[ti])
          << "m=" << g.domain << " t=" << t;
      EXPECT_EQ(inverse.digest(), g.inverse[ti])
          << "m=" << g.domain << " t=" << t;
    }
  }
}

// Threads that construct permutations of one fresh (domain, seed) at once
// race on the shared cache entry and on the lazy table build; every thread
// must still see exactly the single-threaded answers.
TEST(Permutation, ConcurrentFirstUseMatchesSingleThreadedReference) {
  constexpr std::uint64_t kDomain = 50000, kSeed = 0x51ed;
  constexpr int kThreads = 8;
  std::vector<std::uint64_t> forward_ref(kDomain), inverse_ref(kDomain);
  {
    // Destroyed before the threads start, which frees its table.
    const FeistelPermutation ref(kDomain, kSeed);
    for (std::uint64_t x = 0; x < kDomain; ++x) {
      forward_ref[x] = ref(x);
      inverse_ref[x] = ref.inverse(x);
    }
  }
  std::vector<int> mismatches(kThreads, 0);
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      const FeistelPermutation pi(kDomain, kSeed);
      int& bad = mismatches[static_cast<std::size_t>(i)];
      for (std::uint64_t x = 0; x < kDomain; ++x) {
        bad += pi(x) != forward_ref[x];
        bad += pi.inverse(x) != inverse_ref[x];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kThreads; ++i) {
    EXPECT_EQ(mismatches[static_cast<std::size_t>(i)], 0) << "thread " << i;
  }
}

TEST(MultiplyShiftTest, RangeAndSpread) {
  const MultiplyShift h(9, 10);  // 10-bit output
  std::vector<int> bucket(1024, 0);
  for (std::uint64_t x = 0; x < 100000; ++x) {
    const std::uint64_t y = h(x);
    ASSERT_LT(y, 1024u);
    ++bucket[y];
  }
  int empty = 0;
  for (const int b : bucket) empty += (b == 0);
  EXPECT_LT(empty, 64);  // most buckets hit
}

TEST(MultiplyShiftTest, SeedsDiffer) {
  const MultiplyShift a(1, 32), b(2, 32);
  int agree = 0;
  for (std::uint64_t x = 1; x <= 1000; ++x) agree += (a(x) == b(x));
  EXPECT_LT(agree, 5);
}

}  // namespace
}  // namespace repro::hash
