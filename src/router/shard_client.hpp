// Line-protocol connections to one batmap_serve shard, safe for
// concurrent router threads.
//
// The client keeps a pool of idle connections. Each request leases one
// (or connects a new one when none is idle), writes its line, reads the
// one reply line and returns the connection to the pool, so a connection
// never carries more than one request and requests from different router
// threads never wait for each other's replies. The pool grows only while
// every pooled connection is busy, so its size is bounded by the number
// of requests the router has in flight to this shard.
//
// A timeout or any IO error closes the connection: its late reply would
// otherwise answer the next request on it. A connection failure also
// closes every idle connection (they most likely reached the same dead
// shard), so the router's one retry connects fresh.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace repro::router {

class ShardClient {
 public:
  struct Options {
    std::uint16_t port = 0;  ///< on 127.0.0.1 (shards are loopback-only)
    /// Longest accepted reply line. Semi-join and top-k scatter replies
    /// carry element lists, so this is far above batmap_serve's request
    /// default.
    std::size_t max_reply = 1u << 22;
  };

  explicit ShardClient(Options opt) : opt_(opt) {}
  ~ShardClient();

  ShardClient(const ShardClient&) = delete;
  ShardClient& operator=(const ShardClient&) = delete;

  enum class Io {
    kOk = 0,
    kConnFail = 1,  ///< connect/send/receive failed; connection closed
    kTimeout = 2,   ///< deadline expired while waiting for the reply
  };

  /// One request/reply exchange: send() then receive(). `line` must not
  /// contain '\n'. deadline_ns == 0 means no deadline.
  Io request(const std::string& line, std::uint64_t deadline_ns,
             std::string& reply) {
    return receive(send(line), deadline_ns, reply);
  }

  /// Leases a connection and writes `line` on it. Returns the leased fd,
  /// or -1 when no connection could be made or the write failed.
  int send(const std::string& line);
  /// Reads the reply to the request in flight on `fd` (a send() result;
  /// -1 yields kConnFail) and ends the lease: back to the pool on kOk,
  /// closed otherwise.
  Io receive(int fd, std::uint64_t deadline_ns, std::string& reply);

  std::uint16_t port() const { return opt_.port; }
  /// Connections made after a connection failure.
  std::uint64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  /// Connections idle in the pool right now.
  std::size_t idle() const;

 private:
  /// Closes `fd` and every idle connection.
  void fail(int fd);

  Options opt_;
  mutable std::mutex mu_;
  std::vector<int> idle_;
  bool failed_ = false;  ///< a connection failed since the last connect
  std::atomic<std::uint64_t> reconnects_{0};
};

}  // namespace repro::router
