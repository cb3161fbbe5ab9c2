#include "harness.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

// Live children, readable from a signal handler (pid 0 = free slot).
constexpr int kMaxChildren = 32;
std::atomic<pid_t> g_children[kMaxChildren];

void register_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = 0;
    if (slot.compare_exchange_strong(expected, pid)) return;
  }
  throw std::runtime_error("too many spawned processes");
}

void unregister_child(pid_t pid) {
  for (auto& slot : g_children) {
    pid_t expected = pid;
    if (slot.compare_exchange_strong(expected, 0)) return;
  }
}

void on_fatal_signal(int sig) {
  kill_all_children();
  signal(sig, SIG_DFL);
  raise(sig);
}

}  // namespace

void kill_all_children() {
  for (auto& slot : g_children) {
    const pid_t pid = slot.exchange(0);
    if (pid > 0) {
      kill(pid, SIGKILL);
      waitpid(pid, nullptr, 0);
    }
  }
}

void install_child_reaper() {
  std::atexit(kill_all_children);
  signal(SIGTERM, on_fatal_signal);
  signal(SIGINT, on_fatal_signal);
  signal(SIGPIPE, SIG_IGN);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Proc::Proc(const std::vector<std::string>& argv, const std::string& log_path) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    const int devnull = open("/dev/null", O_RDONLY);
    if (devnull >= 0) dup2(devnull, STDIN_FILENO);
    const int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    close(fds[0]);
    close(fds[1]);
    std::vector<char*> args;
    for (const auto& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  register_child(pid);

  // Read "LISTENING <port>\n" (the first stdout line) within 60 s.
  std::string line;
  const std::uint64_t deadline = now_ns() + 60'000'000'000ull;
  while (line.find('\n') == std::string::npos) {
    const std::uint64_t now = now_ns();
    if (now >= deadline) break;
    pollfd pfd{out_fd_, POLLIN, 0};
    const int pr = poll(&pfd, 1, static_cast<int>((deadline - now) / 1'000'000 + 1));
    if (pr <= 0) continue;
    char c[256];
    const ssize_t n = read(out_fd_, c, sizeof(c));
    if (n <= 0) break;
    line.append(c, static_cast<std::size_t>(n));
  }
  unsigned port = 0;
  if (std::sscanf(line.c_str(), "LISTENING %u", &port) != 1 || port == 0 ||
      port > 65535) {
    reap();
    throw std::runtime_error(argv[0] + " did not report LISTENING (see " +
                             log_path + ")");
  }
  port_ = static_cast<std::uint16_t>(port);
}

Proc::~Proc() { reap(); }

std::uint64_t Proc::status_kib(const std::string& field) const {
  if (pid_ <= 0) return 0;
  std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (f >> key) {
    if (key == field) {
      std::uint64_t kib = 0;
      f >> kib;
      return kib;
    }
    f.ignore(1 << 16, '\n');
  }
  return 0;
}

int Proc::reap() {
  if (pid_ <= 0) return -1;
  int status = 0;
  kill(pid_, SIGTERM);
  bool done = false;
  for (int i = 0; i < 500 && !done; ++i) {
    if (waitpid(pid_, &status, WNOHANG) == pid_) {
      done = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (!done) {
    kill(pid_, SIGKILL);
    waitpid(pid_, &status, 0);
  }
  unregister_child(pid_);
  pid_ = -1;
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  return status;
}

LineClient::LineClient(std::uint16_t port) {
  fd_ = socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd_);
    fd_ = -1;
    throw std::runtime_error("connect to port " + std::to_string(port) +
                             " failed");
  }
  const int one = 1;
  setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{20, 0};
  setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
}

LineClient::~LineClient() {
  if (fd_ >= 0) close(fd_);
}

bool LineClient::call(const std::string& line, std::string& reply) {
  if (fd_ < 0) return false;
  std::string msg = line;
  msg.push_back('\n');
  std::size_t off = 0;
  while (off < msg.size()) {
    const ssize_t n = send(fd_, msg.data() + off, msg.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      close(fd_);
      fd_ = -1;
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (!read_line(reply)) {
    close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
}

bool LineClient::read_line(std::string& out) {
  for (;;) {
    const std::size_t nl = buf_.find('\n', pos_);
    if (nl != std::string::npos) {
      out.assign(buf_, pos_, nl - pos_);
      pos_ = nl + 1;
      if (pos_ == buf_.size()) {
        buf_.clear();
        pos_ = 0;
      }
      return true;
    }
    char tmp[4096];
    const ssize_t n = recv(fd_, tmp, sizeof(tmp), 0);
    if (n <= 0) return false;
    buf_.append(tmp, static_cast<std::size_t>(n));
  }
}

std::map<std::string, std::uint64_t> parse_stats(const std::string& line) {
  std::map<std::string, std::uint64_t> out;
  std::size_t i = 0;
  while (i < line.size()) {
    std::size_t j = line.find(' ', i);
    if (j == std::string::npos) j = line.size();
    const std::string tok = line.substr(i, j - i);
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos && eq + 1 < tok.size() &&
        std::all_of(tok.begin() + static_cast<std::ptrdiff_t>(eq) + 1,
                    tok.end(), [](char c) { return c >= '0' && c <= '9'; })) {
      out[tok.substr(0, eq)] = std::stoull(tok.substr(eq + 1));
    }
    i = j + 1;
  }
  return out;
}

std::uint64_t stat_delta(const std::map<std::string, std::uint64_t>& a,
                         const std::map<std::string, std::uint64_t>& b,
                         const std::string& key) {
  const auto ia = a.find(key);
  const auto ib = b.find(key);
  const std::uint64_t va = ia == a.end() ? 0 : ia->second;
  const std::uint64_t vb = ib == b.end() ? 0 : ib->second;
  return vb >= va ? vb - va : 0;
}

std::optional<double> percentile_us(std::vector<std::uint64_t> ns, double p) {
  const std::size_t n = ns.size();
  if (n == 0) return std::nullopt;
  // Nearest rank: the smallest sample with at least p of the data at or
  // below it.
  std::size_t rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  std::nth_element(ns.begin(), ns.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   ns.end());
  return static_cast<double>(ns[rank - 1]) / 1e3;
}

double supported_percentile_us(const std::vector<std::uint64_t>& ns,
                               double p, double& used) {
  for (const double q : {p, 0.90, 0.50}) {
    if (q > p) continue;
    if (const auto v = percentile_us(ns, q)) {
      used = q;
      return *v;
    }
  }
  used = 1.0;
  return ns.empty() ? 0.0
                    : static_cast<double>(*std::max_element(ns.begin(), ns.end())) /
                          1e3;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace perfbench
