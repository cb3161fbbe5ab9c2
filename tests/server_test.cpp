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

}  // namespace
}  // namespace repro::service
