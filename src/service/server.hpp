// The line-protocol server skeleton shared by every front end
// (batmap_serve, batmap_router): one TCP listener, one connection loop,
// and the process lifecycle (signals, stdio vs TCP, SIGHUP reload, drain).
//
// The skeleton owns every verb the front ends share, so they reject,
// reply and fingerprint byte-identically:
//
//   empty line          ignored
//   over --max-line     "ERR BADREQ line too long"
//   QUIT                closes the connection
//   STATS               Handler::stats_line()
//   FINGERPRINT         "FP <hex>": FNV-1a over this connection's OK
//                       results (errors and FLUSH never fold)
//   RELOAD [path]       Handler::reload(path, or "" for a bare RELOAD)
//   X <form> ...        Handler::shard_verb() (never folds)
//   anything else       proto::parse_request, then Handler::execute with
//                       the request's deadline ([ms], else --deadline-ms;
//                       writes and FLUSH take none)
//
// A Handler answers the rest: QueryEngine through EngineHandler
// (engine_handler.hpp) or a shard fleet through router::RouterCore.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/protocol.hpp"
#include "service/query_engine.hpp"

namespace repro::service {

class Handler {
 public:
  /// One query's answer: `result` when ok (the loop formats and folds it),
  /// otherwise the full typed error line.
  struct Reply {
    bool ok = false;
    Result result;
    std::string error;
  };

  Handler() = default;
  Handler(const Handler&) = delete;
  Handler& operator=(const Handler&) = delete;
  virtual ~Handler() = default;

  /// Executes one parsed request; deadline_ns == 0 means none.
  virtual Reply execute(const Query& q, std::uint64_t deadline_ns) = 0;
  virtual std::string stats_line() = 0;
  /// `path` is empty for a bare RELOAD.
  virtual std::string reload(const std::string& path) = 0;
  /// The shard-internal X verb; front ends without one reject it like any
  /// unknown request.
  virtual std::string shard_verb(const std::string& /*line*/) {
    return proto::kBadReqHelp;
  }
};

struct ServeOptions {
  const char* name = "server";  ///< stderr log prefix
  std::size_t max_line = 4096;  ///< longest accepted request line, bytes
  std::uint64_t default_deadline_ms = 0;  ///< 0 = none
  /// A true load ends the accept loop and every connection (polled every
  /// 100 ms). Null = never stop.
  const std::atomic<bool>* stop = nullptr;
};

/// Serves one connection until QUIT, EOF or stop.
void serve_connection(Handler& h, int in_fd, int out_fd,
                      const ServeOptions& opt);

/// A TCP listener on 127.0.0.1.
class Listener {
 public:
  /// Binds `port` (0 = ephemeral); ok() is false after a failure, which
  /// is reported through perror.
  explicit Listener(std::uint16_t port);
  ~Listener();
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;

  bool ok() const { return fd_ >= 0; }
  std::uint16_t port() const { return port_; }

  /// Prints "LISTENING <port>" to stdout (flushed) before the first
  /// accept, then serves each connection on its own detached thread until
  /// `opt.stop`. Returns only after every connection thread has exited.
  void serve(Handler& h, const ServeOptions& opt);

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Parses --port: empty = serve stdin/stdout (`out` stays empty), else a
/// decimal port. False on anything else.
bool parse_port(std::string_view s, std::optional<std::uint16_t>& out);

/// Process lifecycle for the front-end tools. SIGPIPE is ignored (a
/// departed client is not a crash); SIGTERM/SIGINT request a stop; with
/// `reload_on_hup`, SIGHUP runs a bare RELOAD. Install before loading any
/// data so a signal during start-up is a clean stop.
void install_signal_handlers(bool reload_on_hup);

/// Serves TCP on `port`, or stdin/stdout when it is empty, until a stop
/// signal, EOF or (stdio) QUIT. `opt.stop` is replaced by the signal flag.
/// Returns the process exit code: 1 when the port cannot be bound.
int run_server(Handler& h, std::optional<std::uint16_t> port,
               ServeOptions opt);

}  // namespace repro::service
