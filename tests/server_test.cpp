// In-process tests of the server skeleton (src/service/server) and of the
// two handlers it serves: EngineHandler over a QueryEngine, and RouterCore
// over a fleet of EngineHandler shards started in this process on
// ephemeral ports. No process is spawned.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "router/router_core.hpp"
#include "router/shard_map.hpp"
#include "serving_workload.hpp"
#include "service/engine_handler.hpp"
#include "service/protocol.hpp"
#include "service/query_engine.hpp"
#include "service/server.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_manager.hpp"
#include "util/fault.hpp"
#include "util/fnv.hpp"
#include "util/rng.hpp"

namespace repro::service {
namespace {

using Clock = std::chrono::steady_clock;

/// A line client over one connected fd.
class Client {
 public:
  explicit Client(int fd) : fd_(fd) {}
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  static std::unique_ptr<Client> connect_tcp(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0);
    return std::make_unique<Client>(fd);
  }

  /// Writes one line; false once the server closed its end (no SIGPIPE).
  bool try_send(const std::string& line) {
    const std::string out = line + "\n";
    return ::send(fd_, out.data(), out.size(), MSG_NOSIGNAL) ==
           static_cast<ssize_t>(out.size());
  }
  void send(const std::string& line) { ASSERT_TRUE(try_send(line)); }

  /// The next reply line; "<eof>" once the server closed the connection,
  /// "<timeout>" after 5 s without one.
  std::string read_line() {
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return line;
      }
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, 5000) <= 0) return "<timeout>";
      char tmp[4096];
      const ssize_t n = ::read(fd_, tmp, sizeof(tmp));
      if (n <= 0) return "<eof>";
      buf_.append(tmp, static_cast<std::size_t>(n));
    }
  }

  std::string call(const std::string& line) {
    send(line);
    return read_line();
  }

 private:
  int fd_;
  std::string buf_;
};

/// Answers I a b with OK a+b (a == 0 is a typed error), FLUSH with epoch
/// 42, and records every RELOAD argument. With `gate` set, execute blocks
/// until open_gate().
class FakeHandler : public Handler {
 public:
  Reply execute(const Query& q, std::uint64_t) override {
    std::unique_lock lock(mu_);
    ++executing_;
    cv_.notify_all();
    cv_.wait(lock, [this] { return !gate_; });
    --executing_;
    if (q.kind == QueryKind::kFlush) return {true, Result{42}, {}};
    if (q.a == 0) return {false, {}, "ERR RANGE fake"};
    return {true, Result{q.a + q.b}, {}};
  }
  std::string stats_line() override { return "STATS fake=1"; }
  std::string reload(const std::string& path) override {
    std::lock_guard lock(mu_);
    reloads_.push_back(path);
    return "RELOADED " + path;
  }

  void close_gate() {
    std::lock_guard lock(mu_);
    gate_ = true;
  }
  void open_gate() {
    std::lock_guard lock(mu_);
    gate_ = false;
    cv_.notify_all();
  }
  void await_executing(int n) {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [&] { return executing_ == n; });
  }
  int executing() {
    std::lock_guard lock(mu_);
    return executing_;
  }
  std::vector<std::string> reloads() {
    std::lock_guard lock(mu_);
    return reloads_;
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool gate_ = false;
  int executing_ = 0;
  std::vector<std::string> reloads_;
};

/// serve_connection on one end of a socketpair, on its own thread, which
/// closes its end afterwards as the listener's connection threads do.
struct PairSession {
  PairSession(Handler& h, const ServeOptions& opt) {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    client = std::make_unique<Client>(fds[0]);
    thread = std::thread([this, &h, opt, fd = fds[1]] {
      serve_connection(h, fd, fd, opt);
      ::close(fd);
      done.store(true);
    });
  }
  ~PairSession() {
    if (thread.joinable()) thread.join();
  }

  std::unique_ptr<Client> client;
  std::thread thread;
  std::atomic<bool> done{false};
};

std::string fp_line(const util::Fnv1a& fp) {
  char tmp[32];
  std::snprintf(tmp, sizeof(tmp), "FP %016llx",
                static_cast<unsigned long long>(fp.digest()));
  return tmp;
}

/// The verbs the skeleton owns, on any transport. Ends with QUIT.
void check_shared_verbs(Client& c, FakeHandler& h) {
  c.send("");  // an empty line gets no reply at all
  EXPECT_EQ(c.call("I 1 2"), "OK 3");
  EXPECT_EQ(c.call("I 1 " + std::string(200, '7')), "ERR BADREQ line too long");
  EXPECT_EQ(c.call("I 2 2\r"), "OK 4");
  EXPECT_EQ(c.call("I 0 2"), "ERR RANGE fake");
  EXPECT_EQ(c.call("I -1 2"), proto::kBadReqHelp);
  EXPECT_EQ(c.call("X Z"), proto::kBadReqHelp);  // no shard verb here
  EXPECT_EQ(c.call("STATS"), "STATS fake=1");
  EXPECT_EQ(c.call("RELOAD"), "RELOADED ");
  EXPECT_EQ(c.call("RELOAD snap.bin"), "RELOADED snap.bin");
  EXPECT_EQ(c.call("FLUSH"), "FLUSHED epoch=42");
  EXPECT_EQ(h.reloads(), (std::vector<std::string>{"", "snap.bin"}));
  c.send("QUIT");
  c.try_send("I 1 2");  // after QUIT: never answered (end may be closed)
  EXPECT_EQ(c.read_line(), "<eof>");
}

ServeOptions small_lines(const std::atomic<bool>* stop = nullptr) {
  return {.name = "server_test", .max_line = 64, .default_deadline_ms = 0,
          .stop = stop};
}

TEST(ServerTest, SharedVerbsOverSocketpair) {
  FakeHandler h;
  PairSession s(h, small_lines());
  check_shared_verbs(*s.client, h);
  s.thread.join();
  EXPECT_TRUE(s.done.load());
}

TEST(ServerTest, SharedVerbsOverTcp) {
  FakeHandler h;
  std::atomic<bool> stop{false};
  Listener l(0);
  ASSERT_TRUE(l.ok());
  ASSERT_NE(l.port(), 0);
  std::thread server([&] { l.serve(h, small_lines(&stop)); });
  {
    const auto c = Client::connect_tcp(l.port());
    check_shared_verbs(*c, h);
  }
  stop.store(true);
  server.join();
}

TEST(ServerTest, ErrorsAndFlushDoNotAdvanceFingerprint) {
  FakeHandler h;
  PairSession s(h, small_lines());
  Client& c = *s.client;
  util::Fnv1a fp;
  EXPECT_EQ(c.call("FINGERPRINT"), fp_line(fp));
  EXPECT_EQ(c.call("I 0 9"), "ERR RANGE fake");
  EXPECT_EQ(c.call("FLUSH"), "FLUSHED epoch=42");
  EXPECT_EQ(c.call("I 1"), proto::kBadReqHelp);
  EXPECT_EQ(c.call("STATS"), "STATS fake=1");
  EXPECT_EQ(c.call("FINGERPRINT"), fp_line(fp));

  EXPECT_EQ(c.call("I 4 5"), "OK 9");
  const proto::ParsedRequest p = proto::parse_request("I 4 5");
  ASSERT_TRUE(p.ok);
  proto::fold_result(fp, p.q, Result{9});
  EXPECT_EQ(c.call("FINGERPRINT"), fp_line(fp));
  c.send("QUIT");
}

TEST(ServerTest, StopEndsAnIdleConnectionPromptly) {
  FakeHandler h;
  std::atomic<bool> stop{false};
  PairSession s(h, small_lines(&stop));
  EXPECT_EQ(s.client->call("I 1 1"), "OK 2");
  const auto t0 = Clock::now();
  stop.store(true);
  s.thread.join();  // the client never sends QUIT or closes
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(1));
  EXPECT_EQ(s.client->read_line(), "<eof>");
}

TEST(ServerTest, ListenerReturnsOnlyAfterEveryConnectionThreadExited) {
  FakeHandler h;
  std::atomic<bool> stop{false};
  Listener l(0);
  ASSERT_TRUE(l.ok());
  std::atomic<bool> returned{false};
  std::thread server([&] {
    l.serve(h, small_lines(&stop));
    // Every connection thread has left the handler by now.
    EXPECT_EQ(h.executing(), 0);
    returned.store(true);
  });
  const auto idle = Client::connect_tcp(l.port());
  const auto busy = Client::connect_tcp(l.port());
  EXPECT_EQ(idle->call("I 1 1"), "OK 2");
  h.close_gate();
  busy->send("I 2 3");
  h.await_executing(1);  // one connection thread is inside execute
  stop.store(true);
  std::this_thread::sleep_for(std::chrono::milliseconds(400));
  EXPECT_FALSE(returned.load());
  EXPECT_EQ(idle->read_line(), "<eof>");  // the idle one is gone already
  h.open_gate();
  server.join();
  EXPECT_TRUE(returned.load());
  EXPECT_EQ(busy->read_line(), "OK 5");  // the in-flight query completed
  EXPECT_EQ(busy->read_line(), "<eof>");
}

// ---- the engine handler and the router over in-process shards ----------

batmap::BatmapStore make_store(std::uint64_t universe, int sets,
                               std::uint64_t seed) {
  batmap::BatmapStore store(universe);
  Xoshiro256 rng(seed);
  for (int i = 0; i < sets; ++i) {
    std::set<std::uint64_t> s;
    const std::size_t size = 20 + rng.below(100);
    while (s.size() < size) s.insert(rng.below(universe));
    const std::vector<std::uint64_t> v(s.begin(), s.end());
    store.add(v);
  }
  return store;
}

using workload::EngineServer;

/// The value of `key=` in a STATS line; -1 when absent.
long long stat(const std::string& line, const std::string& key) {
  const std::size_t pos = line.find(" " + key + "=");
  if (pos == std::string::npos) return -1;
  return std::stoll(line.substr(pos + key.size() + 2));
}

std::vector<std::uint32_t> all_rows(std::size_t n) {
  std::vector<std::uint32_t> rows(n);
  for (std::uint32_t i = 0; i < n; ++i) rows[i] = i;
  return rows;
}

TEST(EngineHandlerTest, ShardVerbsAreCountedApartFromQueries) {
  const batmap::BatmapStore store = make_store(3000, 24, 7);
  EngineServer srv(store, all_rows(store.size()), "xcount");
  PairSession s(*srv.handler, small_lines());
  Client& c = *s.client;

  std::string z = c.call("X Z");
  EXPECT_EQ(z.rfind("OK 3000 24 ", 0), 0u) << z;
  const std::uint32_t ids[] = {3, 5};
  const std::vector<std::uint64_t> both =
      srv.engine->semi_join(ids, {}, false, false);
  std::string want = "OK ";
  proto::append_list(want, both);
  EXPECT_EQ(c.call("X J 2 3 5"), want);
  EXPECT_EQ(c.call("X RI 3 2 1 2").rfind("OK ", 0), 0u);
  EXPECT_EQ(c.call("X T 2 4294967295 0").rfind("OK 2 ", 0), 0u);
  EXPECT_EQ(c.call("X RJ 99"), "ERR RANGE id or k out of range");
  EXPECT_EQ(c.call("X Q"), "ERR BADREQ bad X request");
  EXPECT_EQ(c.call("X I 1 3 99999 1"), "ERR BADREQ bad X request");
  const std::string before = c.call("STATS");
  EXPECT_EQ(stat(before, "queries"), 0) << before;
  // The direct semi_join above, X Z, J, RI, T and the out-of-range RJ.
  EXPECT_EQ(stat(before, "x_queries"), 6) << before;

  EXPECT_EQ(c.call("I 3 5"), "OK " + std::to_string(both.size()));
  const std::string after = c.call("STATS");
  EXPECT_EQ(stat(after, "queries"), 1) << after;
  EXPECT_EQ(stat(after, "x_queries"), 6) << after;
  c.send("QUIT");
}

/// The "OK <c> <lid>:<cnt>..." reply X T must give: every set but `xlid`
/// ranked by |probe ∩ set| (count desc, id asc), the k best.
std::string brute_topk(const std::vector<std::set<std::uint64_t>>& sets,
                       const std::vector<std::uint64_t>& probe,
                       std::uint32_t k, std::uint32_t xlid) {
  std::vector<std::pair<std::uint64_t, std::uint32_t>> ranked;
  for (std::uint32_t id = 0; id < sets.size(); ++id) {
    if (id == xlid) continue;
    std::uint64_t cnt = 0;
    for (const std::uint64_t e : probe) cnt += sets[id].count(e);
    ranked.emplace_back(cnt, id);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
    return x.first != y.first ? x.first > y.first : x.second < y.second;
  });
  ranked.resize(std::min<std::size_t>(k, ranked.size()));
  std::string out = "OK ";
  proto::append_u64(out, ranked.size());
  for (const auto& [cnt, id] : ranked) {
    out.push_back(' ');
    proto::append_u64(out, id);
    out.push_back(':');
    proto::append_u64(out, cnt);
  }
  return out;
}

/// X T against brute force over random probes, on a shard with pending
/// writes. A universe of 3,000 needs 47 bitmap words against ~1,700
/// stored elements (the bitmap arm); one of 2^24 needs 262,144 words
/// against ~1,700 (the gallop arm).
TEST(EngineHandlerTest, TopkAgainstMatchesBruteForce) {
  for (const std::uint64_t universe : {3000ull, 1ull << 24}) {
    SCOPED_TRACE(universe);
    const batmap::BatmapStore store = make_store(universe, 24, 5);
    EngineServer srv(store, all_rows(store.size()), "xtopk");
    std::vector<std::set<std::uint64_t>> sets(store.size());
    for (std::uint32_t id = 0; id < store.size(); ++id) {
      const auto e = store.elements(id);
      sets[id].insert(e.begin(), e.end());
    }
    Xoshiro256 rng(universe);
    const auto pick = [&](std::uint32_t id) {
      // Half from the set itself, so deletes hit and adds overlap.
      const std::vector<std::uint64_t> own(sets[id].begin(), sets[id].end());
      return rng.below(2) == 0 && !own.empty() ? own[rng.below(own.size())]
                                               : rng.below(universe);
    };
    // Dirty rows: pending adds and deletes on a third of the sets.
    for (int w = 0; w < 16; ++w) {
      const std::uint32_t id = static_cast<std::uint32_t>(rng.below(8)) * 3;
      const bool add = rng.below(2) == 0;
      std::string line = add ? "A " : "D ";
      proto::append_u64(line, id);
      for (int j = 0; j < 3; ++j) {
        const std::uint64_t e = pick(id);
        line.push_back(' ');
        proto::append_u64(line, e);
        if (add) {
          sets[id].insert(e);
        } else {
          sets[id].erase(e);
        }
      }
      const proto::ParsedRequest p = proto::parse_request(line);
      ASSERT_TRUE(p.ok) << line;
      ASSERT_TRUE(srv.handler->execute(p.q, 0).ok) << line;
    }
    ASSERT_GT(srv.engine->stats().delta_sets, 0u);
    for (int trial = 0; trial < 60; ++trial) {
      // Probes draw from the set of a random id plus noise, and reach 64
      // past the universe, where no set has elements.
      std::set<std::uint64_t> probe;
      const std::uint32_t from = static_cast<std::uint32_t>(
          rng.below(store.size()));
      const std::size_t size = rng.below(150);
      while (probe.size() < size) {
        probe.insert(rng.below(3) == 0 ? universe + rng.below(64)
                                       : pick(from));
      }
      const std::vector<std::uint64_t> list(probe.begin(), probe.end());
      const std::uint32_t k = trial % 3 == 0   ? 1
                              : trial % 3 == 1 ? kMaxTopK
                                               : 1 + rng.below(kMaxTopK);
      const std::uint32_t xlid =
          trial % 2 == 0 ? 4294967295u : from;
      std::string line = "X T ";
      proto::append_u64(line, k);
      line.push_back(' ');
      proto::append_u64(line, xlid);
      line.push_back(' ');
      proto::append_list(line, list);
      EXPECT_EQ(srv.handler->shard_verb(line), brute_topk(sets, list, k, xlid))
          << line;
    }
  }
}

/// Element lists on the X verbs must be strictly increasing: an unsorted
/// or repeated list is a typed grammar error, never a count.
TEST(EngineHandlerTest, XListsThatAreNotStrictlyIncreasingAreRejected) {
  const batmap::BatmapStore store = make_store(3000, 24, 7);
  EngineServer srv(store, all_rows(store.size()), "xhostile");
  EngineHandler& h = *srv.handler;
  for (const char* line :
       {"X I 1 3 3 9 5 7", "X I 1 3 2 5 5", "X RI 3 2 2 1",
        "X RI 3 3 1 1 2", "X T 2 4294967295 3 1 3 2",
        "X T 2 4294967295 2 8 8"}) {
    EXPECT_EQ(h.shard_verb(line), "ERR BADREQ bad X request") << line;
  }
  EXPECT_EQ(h.shard_verb("X I 1 3 3 5 7 9").rfind("OK ", 0), 0u);
  EXPECT_EQ(h.shard_verb("X RI 3 2 1 2").rfind("OK ", 0), 0u);
  EXPECT_EQ(h.shard_verb("X T 2 4294967295 3 1 2 3").rfind("OK 2 ", 0), 0u);
}

TEST(EngineHandlerTest, ReloadRejectionRepliesItsReasonWithoutSourcePaths) {
  const batmap::BatmapStore store = make_store(3000, 24, 7);
  EngineServer srv(store, all_rows(store.size()), "reload");
  const std::string reply = srv.handler->reload("/nonexistent");
  EXPECT_EQ(reply, "ERR RELOAD cannot open snapshot /nonexistent");
  EXPECT_EQ(reply.find(".cpp"), std::string::npos) << reply;
  EXPECT_EQ(srv.mgr->epoch(), 1u);  // the old snapshot keeps serving
}

/// A two-shard fleet cut from one store, as batmap_cli shard-split does.
struct Fleet {
  explicit Fleet(QueryEngine::Options shard1_opt = {})
      : store(make_store(4000, 40, 11)),
        part(router::ShardMap(router::ShardMap::Options{2}).partition(40)) {
    for (std::uint32_t s = 0; s < 2; ++s) {
      shards.push_back(std::make_unique<EngineServer>(
          store, part.owned[s], "fleet" + std::to_string(s),
          s == 1 ? shard1_opt : QueryEngine::Options{}));
      EXPECT_TRUE(shards.back()->start());
    }
    router::RouterCore::Options ropt;
    for (const auto& sh : shards) ropt.ports.push_back(sh->listener->port());
    core = std::make_unique<router::RouterCore>(ropt);
  }

  /// An "I a b" request with both ids owned by shard `s`, so the router
  /// forwards it directly.
  Query pair_on(std::uint32_t s) const {
    Query q;
    q.a = part.owned[s][0];
    q.b = part.owned[s][1];
    return q;
  }

  batmap::BatmapStore store;
  router::ShardMap::Partition part;
  std::vector<std::unique_ptr<EngineServer>> shards;
  std::unique_ptr<router::RouterCore> core;
};

TEST(RouterTypedErrorsTest, StoppedShardIsUnavailableAfterOneRetry) {
  Fleet f;
  const Query q = f.pair_on(1);
  ASSERT_TRUE(f.core->execute(q, 0).ok);

  const std::uint16_t port = f.shards[1]->listener->port();
  f.shards[1]->stop();  // closes the router's connection and the listener
  const router::RouterCore::Reply r = f.core->execute(q, 0);
  EXPECT_FALSE(r.ok);
  EXPECT_EQ(r.error, "ERR UNAVAILABLE shard=1");
  EXPECT_TRUE(f.core->execute(f.pair_on(0), 0).ok);  // shard 0 unaffected
  EXPECT_EQ(f.core->stats_line(), "ERR UNAVAILABLE shard=1");

  // Back on the same port, the next request reconnects lazily.
  ASSERT_TRUE(f.shards[1]->start(port));
  EXPECT_TRUE(f.core->execute(q, 0).ok);
  const std::string st = f.core->stats_line();
  EXPECT_EQ(stat(st, "router_unavailable"), 2) << st;  // query + STATS
  EXPECT_GE(stat(st, "router_retries"), 2) << st;
  EXPECT_GE(stat(st, "router_reconnects"), 1) << st;
}

TEST(RouterTypedErrorsTest, ShardOverloadPassesThroughThenGatesAtTheRouter) {
  QueryEngine::Options shedding;
  shedding.admit_rate = 0.01;  // one token per 100 s after the first
  shedding.admit_burst = 1;
  Fleet f(shedding);
  const Query q = f.pair_on(1);
  ASSERT_TRUE(f.core->execute(q, 0).ok);  // spends the one token

  const router::RouterCore::Reply shed = f.core->execute(q, 0);
  ASSERT_FALSE(shed.ok);
  EXPECT_EQ(shed.error.rfind("ERR OVERLOAD retry_ms=", 0), 0u) << shed.error;
  std::string st = f.core->stats_line();
  EXPECT_EQ(stat(st, "shed"), 1) << st;  // the shard's own admission
  EXPECT_EQ(stat(st, "router_overloads"), 1) << st;
  EXPECT_EQ(stat(st, "router_backpressure"), 0) << st;

  const router::RouterCore::Reply gated = f.core->execute(q, 0);
  ASSERT_FALSE(gated.ok);
  EXPECT_EQ(gated.error.rfind("ERR OVERLOAD retry_ms=", 0), 0u) << gated.error;
  EXPECT_TRUE(f.core->execute(f.pair_on(0), 0).ok);  // shard 0 unaffected
  st = f.core->stats_line();
  EXPECT_EQ(stat(st, "shed"), 1) << st;  // never reached the shard
  EXPECT_EQ(stat(st, "router_backpressure"), 1) << st;
}

/// Holds its reply to "X hold" until an "X release" arrives, on any
/// connection, for at most 5 s.
class HoldingShard : public Handler {
 public:
  Reply execute(const Query&, std::uint64_t) override {
    return {false, {}, "ERR RANGE unused"};
  }
  std::string stats_line() override { return "STATS holding=1"; }
  std::string reload(const std::string&) override { return "ERR RELOAD"; }
  std::string shard_verb(const std::string& line) override {
    std::unique_lock lock(mu_);
    if (line == "X release") {
      released_ = true;
      cv_.notify_all();
      return "OK released";
    }
    holding_ = true;
    cv_.notify_all();
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [this] { return released_; })
               ? "OK held"
               : "ERR held 5 s without a second request";
  }
  bool await_holding() {
    std::unique_lock lock(mu_);
    return cv_.wait_for(lock, std::chrono::seconds(5),
                        [this] { return holding_; });
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool holding_ = false;
  bool released_ = false;
};

// A request whose reply is pending must not hold up another thread's
// request to the same shard: the second one takes its own connection.
TEST(ShardClientTest, ConcurrentRequestsDoNotQueueBehindEachOther) {
  HoldingShard h;
  std::atomic<bool> stop{false};
  Listener l(0);
  ASSERT_TRUE(l.ok());
  std::thread server([&] { l.serve(h, small_lines(&stop)); });
  {
    router::ShardClient client(router::ShardClient::Options{l.port()});
    std::string held;
    router::ShardClient::Io held_io{};
    std::thread first([&] { held_io = client.request("X hold", 0, held); });
    EXPECT_TRUE(h.await_holding());
    std::string released;
    EXPECT_EQ(client.request("X release", 0, released),
              router::ShardClient::Io::kOk);
    EXPECT_EQ(released, "OK released");
    first.join();
    EXPECT_EQ(held_io, router::ShardClient::Io::kOk);
    EXPECT_EQ(held, "OK held");
    EXPECT_EQ(client.idle(), 2u);  // both connections back in the pool
  }
  stop.store(true);
  server.join();
}

// Restarting a shard leaves every pooled connection to it dead. The first
// failure drops them all, so the router's one retry connects fresh.
TEST(RouterTypedErrorsTest, RestartedShardServesAfterOneRetryWithPooledConns) {
  Fleet f;
  const Query q = f.pair_on(1);
  {
    // Shard 1's first batch stalls, so four concurrent requests are in
    // flight together and each takes its own connection.
    struct FaultGuard {
      ~FaultGuard() { util::fault::configure(""); }
    } guard;
    util::fault::configure("worker_stall_ms=400:1");
    std::vector<std::thread> threads;
    std::atomic<int> ok{0};
    for (int i = 0; i < 4; ++i) {
      threads.emplace_back([&] { ok += f.core->execute(q, 0).ok ? 1 : 0; });
    }
    for (auto& t : threads) t.join();
    ASSERT_EQ(ok.load(), 4);
  }
  std::string st = f.core->stats_line();
  // Shard 0 pools the one connection of the handshake; shard 1 the rest.
  ASSERT_GE(stat(st, "router_idle_connections"), 1 + 3) << st;
  const long long retries = stat(st, "router_retries");

  const std::uint16_t port = f.shards[1]->listener->port();
  f.shards[1]->stop();
  ASSERT_TRUE(f.shards[1]->start(port));
  EXPECT_TRUE(f.core->execute(q, 0).ok);
  st = f.core->stats_line();
  EXPECT_EQ(stat(st, "router_retries"), retries + 1) << st;
  EXPECT_GE(stat(st, "router_reconnects"), 1) << st;
  EXPECT_EQ(stat(st, "router_unavailable"), 0) << st;
}

}  // namespace
}  // namespace repro::service
