// Process, socket and statistics plumbing for the serving benchmark.
//
// Proc owns one spawned server or router: fork/exec with stdout on a pipe
// (the LISTENING <port> contract), stderr to a log file in the run's
// scratch dir, and SIGTERM-then-SIGKILL reaping from its destructor, so
// every exit path of the driver stops what it started. The child also gets
// PR_SET_PDEATHSIG, so a driver killed outright takes its fleet with it.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

class Proc {
 public:
  /// Spawns argv[0] with argv, waits for "LISTENING <port>" on stdout.
  /// Throws std::runtime_error when the process dies or stays silent.
  Proc(const std::vector<std::string>& argv, const std::string& log_path);
  ~Proc();  ///< reap(); never throws

  Proc(const Proc&) = delete;
  Proc& operator=(const Proc&) = delete;

  std::uint16_t port() const { return port_; }
  /// A /proc/<pid>/status field in KiB ("VmRSS:" now, "VmHWM:" peak);
  /// 0 once reaped.
  std::uint64_t status_kib(const std::string& field) const;
  /// SIGTERM, wait up to 5 s, then SIGKILL. Returns the exit status
  /// (waitpid encoding), or -1 when already reaped.
  int reap();

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Kills every live spawned child (SIGKILL) and waits for it. Installed as
/// the driver's SIGTERM/SIGINT handler and atexit hook.
void kill_all_children();
void install_child_reaper();

/// One blocking line-protocol connection to 127.0.0.1:port.
class LineClient {
 public:
  explicit LineClient(std::uint16_t port);
  ~LineClient();
  LineClient(const LineClient&) = delete;
  LineClient& operator=(const LineClient&) = delete;

  /// Sends `line` + '\n' and reads one reply line (without '\n') into
  /// `reply`. False when the connection was lost (EOF, error, or a 20 s
  /// receive stall).
  bool call(const std::string& line, std::string& reply);

 private:
  bool read_line(std::string& out);

  int fd_ = -1;
  std::string buf_;
  std::size_t pos_ = 0;
};

/// "STATS k=v ..." -> {k: v}; non-numeric tokens are skipped.
std::map<std::string, std::uint64_t> parse_stats(const std::string& line);
/// b[k] - a[k] (0 when missing).
std::uint64_t stat_delta(const std::map<std::string, std::uint64_t>& a,
                         const std::map<std::string, std::uint64_t>& b,
                         const std::string& key);

/// Nearest-rank percentile of `ns` (nanoseconds) in microseconds. nullopt
/// ("flagged") when fewer than 10 samples lie beyond the rank, which is the
/// rule for any percentile the benchmark reports.
std::optional<double> percentile_us(std::vector<std::uint64_t> ns, double p);
/// The highest of p99, p90, p50 that percentile_us supports, else the max;
/// `used` receives the percentile actually taken. For per-layer metrics,
/// which must always carry a value.
double supported_percentile_us(const std::vector<std::uint64_t>& ns,
                               double p, double& used);
double median(std::vector<double> v);

/// Monotonic nanoseconds.
std::uint64_t now_ns();

}  // namespace perfbench
