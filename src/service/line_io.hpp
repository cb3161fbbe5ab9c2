// Minimal buffered line IO over raw fds, shared by every line-protocol
// front end (batmap_serve, batmap_router) for both the stdin/stdout and
// TCP paths; iostreams don't wrap sockets portably. Reads poll with a
// short timeout and re-check the owner's stop flag, so connection threads
// exit promptly on shutdown even when the peer is idle.
#pragma once

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
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

  /// Writes `s` and its newline in one call, without copying the reply.
  void write_line(const std::string& s) {
    char newline = '\n';
    iovec iov[2] = {{const_cast<char*>(s.data()), s.size()}, {&newline, 1}};
    write_all(iov, 2);
  }

 private:
  /// Writes every byte of iov[0, n), advancing it over partial writes.
  void write_all(iovec* iov, int n) {
    while (n > 0) {
      // On a socket, MSG_NOSIGNAL: a peer that closed (a router that timed
      // out a request) must not raise SIGPIPE in a process that did not
      // ignore it, such as an in-process shard.
      msghdr msg{};
      msg.msg_iov = iov;
      msg.msg_iovlen = static_cast<std::size_t>(n);
      ssize_t w = socket_ ? ::sendmsg(out_, &msg, MSG_NOSIGNAL) : -1;
      if (w < 0 && (!socket_ || errno == ENOTSOCK)) {
        socket_ = false;
        w = ::writev(out_, iov, n);
      }
      if (w <= 0) return;  // client went away; replies are best-effort
      auto left = static_cast<std::size_t>(w);
      while (n > 0 && left >= iov->iov_len) {
        left -= iov->iov_len;
        ++iov;
        --n;
      }
      if (n > 0) {
        iov->iov_base = static_cast<char*>(iov->iov_base) + left;
        iov->iov_len -= left;
      }
    }
  }

  int in_, out_;
  std::size_t max_line_;
  const std::atomic<bool>* stop_;
  bool socket_ = true;  ///< until a send reports ENOTSOCK
  char buf_[1 << 16];
  std::size_t pos_ = 0, len_ = 0;
};

}  // namespace repro::service
