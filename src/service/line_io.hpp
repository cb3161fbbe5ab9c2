// Minimal buffered line IO over raw fds, shared by every line-protocol
// front end (batmap_serve, batmap_router) for both the stdin/stdout and
// TCP paths; iostreams don't wrap sockets portably. Reads poll with a
// short timeout and re-check the owner's stop flag, so connection threads
// exit promptly on shutdown even when the peer is idle.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstddef>
#include <string>

namespace repro::service {

class FdLineIo {
 public:
  /// `stop` may be null (never interrupted); when set, a true load makes
  /// the next read return kEof.
  FdLineIo(int in_fd, int out_fd, std::size_t max_line,
           const std::atomic<bool>* stop = nullptr)
      : in_(in_fd), out_(out_fd), max_line_(max_line), stop_(stop) {}

  enum class Line {
    kOk = 0,
    kEof = 1,      ///< EOF, read error, or shutdown requested
    kTooLong = 2,  ///< line exceeded max_line; the excess was discarded
  };

  /// Strips the trailing newline (and '\r').
  Line read_line(std::string& line) {
    line.clear();
    bool overflow = false;
    for (;;) {
      if (pos_ == len_) {
        for (;;) {
          if (stop_ && stop_->load(std::memory_order_relaxed)) {
            return Line::kEof;
          }
          pollfd pfd{in_, POLLIN, 0};
          const int pr = ::poll(&pfd, 1, 100);
          if (pr > 0) break;
          if (pr < 0 && errno != EINTR) return Line::kEof;
        }
        const ssize_t n = ::read(in_, buf_, sizeof(buf_));
        if (n <= 0) {
          if (line.empty() && !overflow) return Line::kEof;
          return overflow ? Line::kTooLong : Line::kOk;
        }
        pos_ = 0;
        len_ = static_cast<std::size_t>(n);
      }
      const char c = buf_[pos_++];
      if (c == '\n') {
        if (!line.empty() && line.back() == '\r') line.pop_back();
        return overflow ? Line::kTooLong : Line::kOk;
      }
      if (line.size() >= max_line_) {
        overflow = true;  // keep consuming to the newline, drop the excess
        continue;
      }
      line.push_back(c);
    }
  }

  void write_all(const char* data, std::size_t n) {
    while (n > 0) {
      // On a socket, MSG_NOSIGNAL: a peer that closed (a router that timed
      // out a request) must not raise SIGPIPE in a process that did not
      // ignore it, such as an in-process shard.
      ssize_t w = socket_ ? ::send(out_, data, n, MSG_NOSIGNAL) : -1;
      if (w < 0 && (!socket_ || errno == ENOTSOCK)) {
        socket_ = false;
        w = ::write(out_, data, n);
      }
      if (w <= 0) return;  // client went away; replies are best-effort
      data += w;
      n -= static_cast<std::size_t>(w);
    }
  }

  void write_line(const std::string& s) {
    std::string out = s;
    out.push_back('\n');
    write_all(out.data(), out.size());
  }

 private:
  int in_, out_;
  std::size_t max_line_;
  const std::atomic<bool>* stop_;
  bool socket_ = true;  ///< until a send reports ENOTSOCK
  char buf_[1 << 16];
  std::size_t pos_ = 0, len_ = 0;
};

}  // namespace repro::service
