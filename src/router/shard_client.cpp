#include "router/shard_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

#include "service/query_engine.hpp"

namespace repro::router {

namespace {

int connect_loopback(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// MSG_NOSIGNAL: a shard that died must surface as a write error on this
/// thread, not a process-wide SIGPIPE.
bool send_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, data, n, MSG_NOSIGNAL);
    if (w <= 0) return false;
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

}  // namespace

ShardClient::~ShardClient() {
  for (const int fd : idle_) ::close(fd);
}

std::size_t ShardClient::idle() const {
  std::lock_guard lock(mu_);
  return idle_.size();
}

void ShardClient::fail(int fd) {
  std::vector<int> idle;
  {
    std::lock_guard lock(mu_);
    idle.swap(idle_);
    failed_ = true;
  }
  if (fd >= 0) ::close(fd);
  for (const int i : idle) ::close(i);
}

int ShardClient::send(const std::string& line) {
  int fd = -1;
  {
    std::lock_guard lock(mu_);
    if (!idle_.empty()) {
      fd = idle_.back();
      idle_.pop_back();
    }
  }
  if (fd < 0) {
    fd = connect_loopback(opt_.port);
    if (fd < 0) {
      fail(-1);
      return -1;
    }
    std::lock_guard lock(mu_);
    if (std::exchange(failed_, false)) {
      reconnects_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  std::string out = line;
  out.push_back('\n');
  if (!send_all(fd, out.data(), out.size())) {
    fail(fd);
    return -1;
  }
  return fd;
}

ShardClient::Io ShardClient::receive(int fd, std::uint64_t deadline_ns,
                                     std::string& reply) {
  if (fd < 0) return Io::kConnFail;
  reply.clear();
  char buf[1 << 14];
  for (;;) {
    int wait_ms = -1;
    if (deadline_ns != 0) {
      const std::uint64_t now = service::QueryEngine::now_ns();
      if (now >= deadline_ns) {
        ::close(fd);  // the late reply would answer the next request
        return Io::kTimeout;
      }
      wait_ms = static_cast<int>((deadline_ns - now + 999'999) / 1'000'000);
    }
    pollfd pfd{fd, POLLIN, 0};
    const int pr = ::poll(&pfd, 1, wait_ms);
    if (pr < 0 && errno == EINTR) continue;
    if (pr == 0) continue;  // the deadline check above ends the wait
    const ssize_t n = pr < 0 ? -1 : ::recv(fd, buf, sizeof(buf), 0);
    if (n <= 0) break;
    const std::size_t old = reply.size();
    reply.append(buf, static_cast<std::size_t>(n));
    const std::size_t nl = reply.find('\n', old);
    if (nl == std::string::npos) {
      if (reply.size() > opt_.max_reply) break;
      continue;
    }
    // One request, one reply line: bytes past it mean a misaligned stream.
    if (nl + 1 != reply.size() || nl > opt_.max_reply) break;
    reply.pop_back();
    if (!reply.empty() && reply.back() == '\r') reply.pop_back();
    std::lock_guard lock(mu_);
    idle_.push_back(fd);
    return Io::kOk;
  }
  fail(fd);
  return Io::kConnFail;
}

}  // namespace repro::router
