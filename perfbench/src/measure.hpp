// Shared measuring kit for the GeoProof system benchmark: run options, the
// result sheet every phase writes into, order statistics, a determinism
// digest, CPU clocks and a one-shot HTTP scrape.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double elapsed_s(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}
inline double since_s(Clock::time_point from) {
  return elapsed_s(from, Clock::now());
}

/// One live daemon of the loopback fleet, as spawned by run.py.
struct FleetDaemon {
  std::uint16_t port = 0;
  int pid = 0;
  double lat = 0.0;        // prover: the true position
  double lon = 0.0;
  double oneway_ms = 0.0;  // vantage: emulated one-way path delay
};

struct FleetPlan {
  FleetDaemon prover;
  std::uint16_t prover_metrics_port = 0;
  std::uint64_t file_id = 0;
  std::uint64_t n_segments = 0;
  std::vector<FleetDaemon> vantages;
  double ms_per_km = 0.0;  // RTT slope of the emulated geography
  bool present() const { return prover.port != 0 && !vantages.empty(); }
};

/// How far one phase runs: at least `seconds` of measured time and at
/// least `min_ops` sweeps or fixes, so that every check can fire.
struct PhaseBudget {
  double seconds = 0.0;       // 0 = bounded by min_ops alone
  std::uint64_t min_ops = 0;  // sweeps or fixes
};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;   // smoke-test sizes
  unsigned cpus = 1;    // nproc
  /// Audit engine shards: half the CPUs. The host's CPUs are shared, and a
  /// sweep waits for its slowest shard; with CPUs to spare, the scheduler
  /// moves shards off a CPU that another tenant is loading. (Two busy
  /// loops pinned to two of 4 CPUs slowed a 4-shard sweep 1.5x and a
  /// 2-shard sweep not at all.)
  unsigned shards = 1;
  FleetPlan fleet;
};

/// The result sheet. Phases add metrics, count operations and record
/// every failed check (the run continues; `failed` counts them).
class Sheet {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_[name] = {value, unit};
  }
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// One failed operation, with why (the first few reasons are kept).
  void fail(const std::string& why);
  void digest(const std::string& name, const std::string& hex) {
    digests_[name] = hex;
  }
  void note(const std::string& name, double value) { notes_[name] = value; }
  double note_or(const std::string& name, double fallback) const {
    const auto it = notes_.find(name);
    return it == notes_.end() ? fallback : it->second;
  }
  void stamp(const std::string& name, const std::string& value) {
    stamp_[name] = value;
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// The sheet as one line of JSON, which run.py reads.
  std::string to_json(bool optimized_build) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::map<std::string, std::string> digests_;
  std::map<std::string, double> notes_;
  std::map<std::string, std::string> stamp_;
  std::vector<std::string> reasons_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Linear-interpolated percentile, q in [0, 100]. Empty input gives 0.
double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}
double mean(const std::vector<double>& values);

/// FNV-1a 64 over the values a run must reproduce exactly.
class Digest {
 public:
  void add(std::uint64_t v);
  void add(double v);  // quantised to 1e-9 so printing noise cannot leak in
  void add(const std::string& s);
  std::string hex() const;

 private:
  void byte(std::uint8_t b) {
    h_ ^= b;
    h_ *= 0x100000001b3ULL;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// One pass of a fixed, benchmark-owned CPU loop (serial integer mixing,
/// no memory traffic, no calls into the program), in milliseconds: about
/// 2 ms on the reference machine. Its median over a run says how fast the
/// shared host ran during that run.
double calibration_ms();

double thread_cpu_s();
double process_cpu_s();
/// utime + stime of another process from /proc/<pid>/stat, in seconds;
/// negative when the process is gone.
double pid_cpu_s(int pid);

/// GET http://127.0.0.1:<port><path> with a short timeout; the body, or
/// empty on any failure.
std::string http_get(std::uint16_t port, const std::string& path);

/// Value of an unlabelled Prometheus sample `name` in `text`, or -1.
double prometheus_value(const std::string& text, const std::string& name);

}  // namespace perfbench
