#include "service/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <csignal>
#include <cstdio>
#include <thread>

#include "service/line_io.hpp"
#include "util/fnv.hpp"

namespace repro::service {

namespace {

// Signal handlers only flip these; every blocking loop polls them.
std::atomic<bool> g_stop{false};
std::atomic<bool> g_hangup{false};
bool g_reload_on_hup = false;

void on_stop_signal(int) { g_stop.store(true, std::memory_order_relaxed); }
void on_hup_signal(int) { g_hangup.store(true, std::memory_order_relaxed); }

}  // namespace

void serve_connection(Handler& h, int in_fd, int out_fd,
                      const ServeOptions& opt) {
  FdLineIo io(in_fd, out_fd, opt.max_line, opt.stop);
  util::Fnv1a fp;
  std::string line;
  for (;;) {
    const FdLineIo::Line st = io.read_line(line);
    if (st == FdLineIo::Line::kEof) break;
    if (st == FdLineIo::Line::kTooLong) {
      io.write_line("ERR BADREQ line too long");
      continue;
    }
    if (line.empty()) continue;
    if (line == "QUIT") break;
    if (line == "STATS") {
      io.write_line(h.stats_line());
      continue;
    }
    if (line == "FINGERPRINT") {
      char tmp[32];
      std::snprintf(tmp, sizeof(tmp), "FP %016" PRIx64, fp.digest());
      io.write_line(tmp);
      continue;
    }
    if (line == "RELOAD" || line.rfind("RELOAD ", 0) == 0) {
      io.write_line(h.reload(line.size() > 7 ? line.substr(7) : ""));
      continue;
    }
    if (line.rfind("X ", 0) == 0) {
      io.write_line(h.shard_verb(line));
      continue;
    }
    const proto::ParsedRequest p = proto::parse_request(line);
    if (!p.ok) {
      io.write_line(proto::kBadReqHelp);
      continue;
    }
    const bool write = p.op == 'A' || p.op == 'D' || p.op == 'F';
    const std::uint64_t deadline_ms =
        write ? 0 : (p.have_dl ? p.dl_ms : opt.default_deadline_ms);
    const std::uint64_t deadline_ns =
        deadline_ms > 0 ? QueryEngine::now_ns() + deadline_ms * 1'000'000ull
                        : 0;
    const Handler::Reply r = h.execute(p.q, deadline_ns);
    if (!r.ok) {
      io.write_line(r.error);
      continue;
    }
    if (p.op != 'F') proto::fold_result(fp, p.q, r.result);
    io.write_line(proto::format_result(r.result, p.op));
  }
}

Listener::Listener(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    std::perror("socket");
    return;
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, 64) != 0) {
    std::perror("bind/listen");
    ::close(fd_);
    fd_ = -1;
    return;
  }
  // With port 0 the kernel picked the port; read it back so the LISTENING
  // line always carries the real one.
  socklen_t len = sizeof(addr);
  ::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
}

Listener::~Listener() {
  if (fd_ >= 0) ::close(fd_);
}

void Listener::serve(Handler& h, const ServeOptions& opt) {
  std::fprintf(stderr, "%s: listening on 127.0.0.1:%u\n", opt.name, port_);
  // The orchestration contract: the port reaches stdout (flushed) before
  // the first accept, so a parent that spawned us with --port 0 can
  // connect as soon as it reads this line.
  std::printf("LISTENING %u\n", port_);
  std::fflush(stdout);
  // Connection threads are detached (a long-lived server must not hoard
  // one joinable zombie per past connection); the counter keeps the
  // handler alive until the last connection drains after accept() stops.
  std::atomic<std::size_t> active{0};
  while (!(opt.stop && opt.stop->load(std::memory_order_relaxed))) {
    pollfd pfd{fd_, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, 100);
    if (pr < 0 && errno != EINTR) break;
    if (pr <= 0) continue;
    const int fd = ::accept(fd_, nullptr, nullptr);
    if (fd < 0) continue;
    active.fetch_add(1, std::memory_order_relaxed);
    std::thread([fd, &h, &opt, &active] {
      serve_connection(h, fd, fd, opt);
      ::close(fd);
      active.fetch_sub(1, std::memory_order_release);
    }).detach();
  }
  ::close(fd_);  // stop accepting; connections see the stop flag and exit
  fd_ = -1;
  while (active.load(std::memory_order_acquire) != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

bool parse_port(std::string_view s, std::optional<std::uint16_t>& out) {
  if (s.empty()) return true;
  std::uint32_t port = 0;
  if (!proto::parse_u32(s, port) || port > 65535) return false;
  out = static_cast<std::uint16_t>(port);
  return true;
}

void install_signal_handlers(bool reload_on_hup) {
  std::signal(SIGPIPE, SIG_IGN);
  std::signal(SIGTERM, on_stop_signal);
  std::signal(SIGINT, on_stop_signal);
  if (reload_on_hup) std::signal(SIGHUP, on_hup_signal);
  g_reload_on_hup = reload_on_hup;
}

int run_server(Handler& h, std::optional<std::uint16_t> port,
               ServeOptions opt) {
  opt.stop = &g_stop;
  // SIGHUP reloads in the background so idle servers reload promptly.
  std::thread control;
  if (g_reload_on_hup) {
    control = std::thread([&h] {
      while (!g_stop.load(std::memory_order_relaxed)) {
        if (g_hangup.exchange(false, std::memory_order_relaxed)) h.reload("");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      }
    });
  }
  int rc = 0;
  if (port) {
    Listener l(*port);
    if (l.ok()) {
      l.serve(h, opt);
    } else {
      rc = 1;
    }
  } else {
    serve_connection(h, STDIN_FILENO, STDOUT_FILENO, opt);
  }
  g_stop.store(true, std::memory_order_relaxed);
  if (control.joinable()) control.join();
  return rc;
}

}  // namespace repro::service
