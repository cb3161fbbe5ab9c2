// Serving parity: every serving path answers a zipf-skewed I/S/T/K/R
// stream exactly as the offline BatmapStore oracle does. Each arm drives
// one path from concurrent closed-loop clients and compares the XOR
// fingerprint of its answers (serving_workload.hpp) with the oracle's:
//
//   engines        side by side on one snapshot: direct (one thread calling
//                  QueryEngine::execute_one), naive (max_batch = 1, cache
//                  off), batched (cache off) and cached — over uniform pairs
//                  + top-k, a k-way mix, and a size-spread store on batmap
//                  and on auto layouts
//   swapped        cached, while the same store is re-snapshotted at rising
//                  epochs and hot-swapped back to back; every retired
//                  mapping must be released once the engine drains
//   live           commuting A/D writes with compactions under load: zero
//                  dropped requests, then the compacted state must equal
//                  the offline rebuild of the tracked model
//   router         RouterCores over 1, 2 and 3 in-process engine shards,
//                  side by side
//   overload       a 4-slot ring, 15 ms deadlines and a stalled worker:
//                  every query ends in exactly one typed outcome (served,
//                  timed out or shed), and every served answer is exact
//
// Each workload is sized like the largest run of the load generator these
// arms replace. Arms of one case run concurrently, so a serial `ctest`
// pays for the slowest arm, not their sum. The spawned-process fleet is
// router_smoke_test.
#include <gtest/gtest.h>

#include "router/router_core.hpp"
#include "router/shard_map.hpp"
#include "serving_workload.hpp"
#include "service/delta_layer.hpp"
#include "util/check.hpp"
#include "util/fault.hpp"

namespace repro::service {
namespace {

using namespace workload;

enum class Path { kEngines, kSwapped, kLive, kRouter, kOverload };

struct Arm {
  std::string name;
  Path path;
  Spec spec;
  LayoutMode layout = LayoutMode::kBatmap;
};

// The workloads (Spec defaults: 512 sets of 1200 over [0, 60000), 32
// clients, zipf 1.1, 10% top-k, 25% raw support, the rest exact pairs).
Spec uniform() { return Spec{}; }  // 30,000 queries
Spec kway_mix() {
  return {.queries = 20000, .topk_permille = 20, .kway_permille = 200};
}
Spec spread() {
  return {.sets = 256, .set_size = 600, .size_spread = 16, .queries = 20000,
          .kway_permille = 150};
}
Spec swap_load() { return {.queries = 8000, .clients = 4}; }
Spec live() {
  return {.sets = 64, .universe = 10000, .set_size = 150, .queries = 6000,
          .clients = 8, .topk_permille = 30, .kway_permille = 60};
}
Spec routed() {
  return {.sets = 256, .universe = 30000, .set_size = 400, .queries = 10000,
          .clients = 16, .topk_permille = 30, .kway_permille = 100};
}
Spec overload() { return {.queries = 2000}; }

constexpr std::uint64_t kLiveWritePermille = 300;

/// Disarms the global fault registry on exit, armed or not.
struct FaultGuard {
  ~FaultGuard() { util::fault::configure(""); }
};

/// Runs job(0), ..., job(n - 1) on n threads at once.
template <typename Job>
void in_parallel(std::size_t n, Job job) {
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < n; ++i) threads.emplace_back(job, i);
  for (auto& t : threads) t.join();
}

/// Polls `pred` for up to a minute; the caller asserts what it needed.
template <typename Pred>
void wait_until(Pred pred) {
  const auto end = std::chrono::steady_clock::now() + std::chrono::minutes(1);
  while (!pred() && std::chrono::steady_clock::now() < end) {
    std::this_thread::yield();
  }
}

/// Serves stream[i] through the engine; queries past the stream's midpoint
/// first wait for `ready()`, so part of the load runs on each side of it.
template <typename Ready>
ArmRun run_engine_split(QueryEngine& engine, std::span<const Query> stream,
                        std::size_t clients, Ready&& ready) {
  std::atomic<std::size_t> started{0};
  return run_clients(stream, clients, [&](std::size_t i, Result& r) {
    if (started.fetch_add(1) >= stream.size() / 2) wait_until(ready);
    thread_local Request req;
    req.query = stream[i];
    engine.submit(req);
    if (!QueryEngine::wait(req)) return false;
    r = req.result();
    return true;
  });
}

ArmRun run_swapped(const batmap::BatmapStore& store,
                   std::span<const core::RowLayout> layouts,
                   SnapshotManager& mgr, std::span<const Query> stream,
                   const Spec& s) {
  QueryEngine engine(mgr, engine_options(Engine::kCached, s));
  // Epoch e is written to path e % 2: the file being overwritten is never
  // the mapped one, since swap() returns only once its predecessor drained.
  const std::string paths[2] = {scratch_path("parity_swap_a"),
                                scratch_path("parity_swap_b")};
  std::atomic<bool> done{false};
  std::thread swapper([&] {
    try {
      for (std::uint64_t epoch = 2; !done.load(); ++epoch) {
        write_snapshot(store, paths[epoch % 2], epoch, layouts);
        mgr.swap(paths[epoch % 2]);
      }
    } catch (const CheckError& e) {
      ADD_FAILURE() << "swap failed: " << e.what();
    }
  });
  const ArmRun run = run_engine_split(engine, stream, s.clients,
                                      [&] { return mgr.swaps() > 0; });
  done.store(true);
  swapper.join();
  engine.drain();
  EXPECT_GE(engine.stats().epoch_rollovers, 1u);
  EXPECT_EQ(mgr.retired_resident(), 0u);
  for (const auto& p : paths) std::remove(p.c_str());
  return run;
}

ArmRun run_router(const batmap::BatmapStore& store,
                  std::span<const core::RowLayout> layouts,
                  std::span<const Query> stream, const Spec& s,
                  std::uint32_t shards) {
  const auto part = router::ShardMap(router::ShardMap::Options{shards})
                        .partition(static_cast<std::uint32_t>(s.sets));
  std::vector<std::unique_ptr<EngineServer>> fleet;
  router::RouterCore::Options ropt;
  for (std::uint32_t sh = 0; sh < shards; ++sh) {
    std::vector<core::RowLayout> sub;
    for (const std::uint32_t id : part.owned[sh]) sub.push_back(layouts[id]);
    fleet.push_back(std::make_unique<EngineServer>(
        store, part.owned[sh],
        "parity_shard" + std::to_string(sh) + "_of" + std::to_string(shards),
        QueryEngine::Options{}, sub));
    EXPECT_TRUE(fleet.back()->start());
    ropt.ports.push_back(fleet.back()->listener->port());
  }
  router::RouterCore core(ropt);
  return run_clients(stream, s.clients, [&](std::size_t i, Result& r) {
    const router::RouterCore::Reply rep = core.execute(stream[i], 0);
    r = rep.result;
    return rep.ok;
  });
}

void check_overload(SnapshotManager& mgr, std::span<const Query> stream,
                    const Spec& s, std::span<const std::uint64_t> want) {
  FaultGuard guard;
  util::fault::configure("worker_stall_ms=5");
  QueryEngine::Options opt = engine_options(Engine::kBatched, s);
  opt.queue_capacity = 4;
  opt.max_batch = 2;
  QueryEngine engine(mgr, opt);
  const OverloadRun run = run_overload(engine, stream, s.clients, 15);
  EXPECT_EQ(run.count(OverloadRun::kUnsettled), 0u);
  std::size_t wrong = 0;
  for (std::size_t i = 0; i < stream.size(); ++i) {
    wrong += run.outcome[i] == OverloadRun::kServed && run.served[i] != want[i];
  }
  EXPECT_EQ(wrong, 0u);
}

/// The live arm. Base sets draw from the lower universe half; adds draw
/// globally unique elements from the upper half and deletes remove only
/// base elements, so the final corpus is the same under every client
/// interleaving and each write's recorded-op count is known in advance.
void check_live(const Arm& arm) {
  const Spec& s = arm.spec;
  std::vector<std::set<std::uint64_t>> model(s.sets);
  std::vector<std::vector<std::uint64_t>> deletable(s.sets);
  batmap::BatmapStore base(s.universe);
  Xoshiro256 rng(s.seed ^ 0x11feull);
  std::vector<std::uint64_t> v;
  for (std::uint64_t i = 0; i < s.sets; ++i) {
    while (model[i].size() < std::min(s.set_size, s.universe / 4)) {
      model[i].insert(rng.below(s.universe / 2));
    }
    deletable[i].assign(model[i].begin(), model[i].end());
    v.assign(model[i].begin(), model[i].end());
    base.add(v);
  }
  const std::string path = scratch_path("parity_" + arm.name);
  write_snapshot(base, path, /*epoch=*/1, plan_layouts(base, arm.layout));
  SnapshotManager mgr(Snapshot::open(path));
  std::remove(path.c_str());

  const std::vector<Query> stream = make_stream(s);
  std::vector<Query> ops = stream;
  const Zipf zipf(s.sets, s.zipf);
  std::uint64_t next_add = s.universe / 2;
  for (Query& slot : ops) {
    if (rng.below(1000) >= kLiveWritePermille) continue;  // stays a read
    Query q;
    q.a = zipf(rng);
    const std::size_t want = 1 + rng.below(4);
    auto& d = deletable[q.a];
    q.kind = rng.below(4) == 0 && !d.empty() ? QueryKind::kDelete
                                             : QueryKind::kAdd;
    while (q.nids < want) {
      std::uint64_t e = 0;
      if (q.kind == QueryKind::kDelete) {
        if (d.empty()) break;
        e = d.back();
        d.pop_back();
        model[q.a].erase(e);
      } else {
        if (next_add == s.universe) break;
        e = next_add++;
        model[q.a].insert(e);
      }
      q.ids[q.nids++] = static_cast<std::uint32_t>(e);
    }
    if (q.nids > 0) slot = q;
  }

  QueryEngine engine(mgr, engine_options(Engine::kCached, s));
  Compactor::Options copt;
  copt.out_prefix = "/tmp/batmap_parity_" + arm.name + "_" +
                    std::to_string(::getpid());
  copt.layout = arm.layout;
  Compactor compactor(mgr, engine.delta(), copt);
  std::atomic<bool> done{false};
  std::thread compacting([&] {
    try {
      while (!done.load()) {
        if (engine.delta().pending_ops() > 0) {
          compactor.compact_now();
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
      }
    } catch (const CheckError& e) {
      ADD_FAILURE() << "compaction failed: " << e.what();
    }
  });
  std::atomic<std::size_t> started{0};
  const ArmRun run = run_clients(ops, s.clients, [&](std::size_t i, Result&) {
    if (started.fetch_add(1) >= ops.size() / 2) {
      wait_until([&] { return mgr.swaps() > 0; });
    }
    thread_local Request req;
    req.query = ops[i];
    engine.submit(req);
    QueryEngine::wait(req);
    const bool write = ops[i].kind == QueryKind::kAdd ||
                       ops[i].kind == QueryKind::kDelete;
    return req.outcome() == Request::Outcome::kOk &&
           (!write || req.result().value == ops[i].nids);
  });
  done.store(true);
  compacting.join();
  EXPECT_EQ(run.errors, 0u) << "dropped or miscounted requests";
  EXPECT_GE(mgr.swaps(), 1u) << "no compaction under load";

  compactor.compact_now();  // drains what the load left pending
  EXPECT_EQ(engine.stats().delta_elements, 0u);
  batmap::BatmapStore rebuilt(s.universe);
  for (const auto& set : model) {
    v.assign(set.begin(), set.end());
    rebuilt.add(v);
  }
  const ArmRun after = run_engine(engine, stream, s.clients);
  EXPECT_EQ(after.errors, 0u);
  EXPECT_EQ(after.fingerprint, xor_all(oracle_digests(rebuilt, stream)));
  for (std::uint64_t e = 2; e <= mgr.epoch(); ++e) {
    std::remove((copt.out_prefix + ".e" + std::to_string(e)).c_str());
  }
}

void check_engines(SnapshotManager& mgr, std::span<const Query> stream,
                   const Spec& s, std::uint64_t want) {
  const char* names[] = {"direct", "naive", "batched", "cached"};
  const Engine engines[] = {Engine::kBatched, Engine::kNaive, Engine::kBatched,
                            Engine::kCached};
  ArmRun runs[4];
  in_parallel(4, [&](std::size_t a) {
    QueryEngine engine(mgr, engine_options(engines[a], s));
    if (a > 0) {
      runs[a] = run_engine(engine, stream, s.clients);
      return;
    }
    runs[a] = run_clients(stream, 1, [&](std::size_t i, Result& r) {
      r = engine.execute_one(stream[i]);
      return true;
    });
  });
  for (std::size_t a = 0; a < 4; ++a) {
    EXPECT_EQ(runs[a].errors, 0u) << names[a];
    EXPECT_EQ(runs[a].fingerprint, want) << names[a];
  }
}

class ServingParityTest : public ::testing::TestWithParam<Arm> {};

TEST_P(ServingParityTest, FingerprintMatchesOracle) {
  const Arm& arm = GetParam();
  if (arm.path == Path::kLive) return check_live(arm);
  const Spec& s = arm.spec;
  const batmap::BatmapStore store = make_store(s);
  const std::vector<Query> stream = make_stream(s);
  const std::vector<std::uint64_t> want = oracle_digests(store, stream);
  const std::vector<core::RowLayout> layouts = plan_layouts(store, arm.layout);
  const std::string path = scratch_path("parity_" + arm.name);
  write_snapshot(store, path, /*epoch=*/1, layouts);
  SnapshotManager mgr(Snapshot::open(path));
  std::remove(path.c_str());

  switch (arm.path) {
    case Path::kEngines:
      return check_engines(mgr, stream, s, xor_all(want));
    case Path::kSwapped: {
      const ArmRun run = run_swapped(store, layouts, mgr, stream, s);
      EXPECT_EQ(run.errors, 0u);
      EXPECT_EQ(run.fingerprint, xor_all(want));
      return;
    }
    case Path::kRouter: {
      ArmRun runs[3];
      in_parallel(3, [&](std::size_t i) {
        runs[i] = run_router(store, layouts, stream, s,
                             static_cast<std::uint32_t>(i + 1));
      });
      for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(runs[i].errors, 0u) << i + 1 << " shards";
        EXPECT_EQ(runs[i].fingerprint, xor_all(want)) << i + 1 << " shards";
      }
      return;
    }
    case Path::kOverload:
      return check_overload(mgr, stream, s, want);
    case Path::kLive:
      return;
  }
}

std::vector<Arm> arms() {
  return {
      {"uniform", Path::kEngines, uniform()},
      {"kway", Path::kEngines, kway_mix()},
      {"spread_batmap", Path::kEngines, spread()},
      {"spread_auto", Path::kEngines, spread(), LayoutMode::kAuto},
      {"swapped", Path::kSwapped, swap_load()},
      {"live_batmap", Path::kLive, live()},
      {"live_auto", Path::kLive, live(), LayoutMode::kAuto},
      {"router", Path::kRouter, routed()},
      {"overload", Path::kOverload, overload()},
  };
}

INSTANTIATE_TEST_SUITE_P(Arms, ServingParityTest, ::testing::ValuesIn(arms()),
                         [](const auto& info) { return info.param.name; });

}  // namespace
}  // namespace repro::service
