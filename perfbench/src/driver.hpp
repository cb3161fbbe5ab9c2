// Shared state of one benchmark run: the workload, its corpus and streams,
// the files it set up, and the metrics it reports.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "batmap/intersect.hpp"
#include "core/row_container.hpp"
#include "workload.hpp"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Timings of one set-up: store build, layout plan, snapshot write (and
/// shard cut), then process start until every LISTENING line arrived.
struct SetupTimes {
  double build_s = 0, plan_s = 0, write_s = 0, total_s = 0;
};

struct Run {
  Spec spec;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool corrupt_oracle = false;
  std::size_t clients = 4;
  std::string rundir;     ///< this run's scratch dir (removed by run.py)
  std::string trace_out;  ///< spans file written by traced runs
  std::string serve_bin, router_bin;

  Corpus corpus;
  std::optional<repro::batmap::BatmapStore> store;
  std::vector<repro::core::RowLayout> layouts;
  Streams streams;
  std::string main_snap;  ///< unsplit snapshot of the base corpus
  std::vector<SetupTimes> setups;

  std::vector<Metric> metrics;
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// The traced run's in-process replays (trace.cpp). Appends per-layer
/// metrics; returns false on a correctness failure.
bool trace_in_process(Run& run, double tcp_p50_us);

/// Ops of every client stream that are reads, flattened in client order.
std::vector<const Op*> read_ops(const Run& run);

}  // namespace perfbench
