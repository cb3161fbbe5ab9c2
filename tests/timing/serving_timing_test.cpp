// Wall-clock gates on the serving engine. Their bounds depend on the host,
// so this binary is built but not registered with ctest; CI runs it by
// name (the speedup gate in Release, the overload gate under ASan+UBSan):
//
//   serving_timing_test --gtest_filter='*BatchedWithCacheAtLeastTwiceNaive'
//   serving_timing_test --gtest_filter='*OverloadShedsTypedWithinP99Bound'
//
// Exactness of the same paths is serving_parity_test's job; these only
// time them.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "../serving_workload.hpp"
#include "util/fault.hpp"

namespace repro::service {
namespace {

using namespace workload;

struct Served {
  explicit Served(const Spec& s)
      : store(make_store(s)), stream(make_stream(s)) {
    const std::string path = scratch_path("timing");
    write_snapshot(store, path, /*epoch=*/1);
    mgr = std::make_unique<SnapshotManager>(Snapshot::open(path));
    std::remove(path.c_str());
  }

  batmap::BatmapStore store;
  std::vector<Query> stream;
  std::unique_ptr<SnapshotManager> mgr;
};

// 32 clients over the default 30,000-query zipf workload: the batched
// engine with its result cache must serve the stream at least twice as
// fast as one-query-at-a-time serving (max_batch = 1, cache off). The arms
// alternate five times and the gate reads the median ratio, so one run
// slowed by a neighbour on a shared host cannot decide it alone.
TEST(ServingTimingTest, BatchedWithCacheAtLeastTwiceNaive) {
  const Spec s;
  const Served served(s);
  const auto run = [&](Engine e) {
    QueryEngine engine(*served.mgr, engine_options(e, s));
    return run_engine(engine, served.stream, s.clients);
  };
  std::vector<double> ratios;
  for (int i = 0; i < 5; ++i) {
    const ArmRun naive = run(Engine::kNaive);
    const ArmRun cached = run(Engine::kCached);
    EXPECT_EQ(naive.fingerprint, cached.fingerprint);
    ratios.push_back(naive.seconds / cached.seconds);
    std::printf("naive %.0f qps, batched+cache %.0f qps: %.2fx\n",
                static_cast<double>(s.queries) / naive.seconds,
                static_cast<double>(s.queries) / cached.seconds,
                ratios.back());
  }
  std::sort(ratios.begin(), ratios.end());
  std::printf("median %.2fx\n", ratios[2]);
  EXPECT_GE(ratios[2], 2.0);
}

// Stalled batches (5 ms each, whichever thread runs them), a 4-slot ring
// and 15 ms deadlines for 32 clients: the engine must shed or time out
// work with typed verdicts instead of queueing it, and the queries it does
// serve must see a p99 of at most 250 ms.
TEST(ServingTimingTest, OverloadShedsTypedWithinP99Bound) {
  const Spec s{.queries = 2000};
  const Served served(s);
  struct FaultGuard {
    ~FaultGuard() { util::fault::configure(""); }
  } guard;
  util::fault::configure("worker_stall_ms=5");
  QueryEngine::Options opt = engine_options(Engine::kBatched, s);
  opt.queue_capacity = 4;
  opt.max_batch = 2;
  QueryEngine engine(*served.mgr, opt);
  const OverloadRun run = run_overload(engine, served.stream, s.clients, 15);
  const std::uint64_t n_served = run.count(OverloadRun::kServed);
  const std::uint64_t n_timeout = run.count(OverloadRun::kTimedOut);
  const std::uint64_t n_shed = run.count(OverloadRun::kShed);
  const double p99_ms = percentile_ms(run.served_latency_ns, 0.99);
  std::printf("%llu served, %llu timed out, %llu shed; served p99 %.2f ms\n",
              static_cast<unsigned long long>(n_served),
              static_cast<unsigned long long>(n_timeout),
              static_cast<unsigned long long>(n_shed), p99_ms);
  EXPECT_EQ(n_served + n_timeout + n_shed, s.queries);
  EXPECT_GE(n_timeout + n_shed, 1u);
  EXPECT_GE(n_timeout, 1u);
  EXPECT_LE(p99_ms, 250.0);
}

}  // namespace
}  // namespace repro::service
