// fleet_loopback: daemon::AuditorClient::run in a closed loop against a
// live fleet of real processes — one geoproofd and the geoproof-vantage
// daemons run.py spawned on loopback with kernel-chosen ports. One auditor
// thread, one connection per vantage, a per-fix deadline
// (sweep_timeout_ms) so a hung vantage becomes a failed fix instead of a
// hung benchmark.
//
// Layers are timed from outside: the vantages' own SampleReport elapsed
// times, a replay of the fix's ranges through Multilaterator::estimate,
// /proc CPU times of every daemon and the prover's /metrics counters.
#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "daemon/auditor_client.hpp"
#include "locate/multilaterate.hpp"
#include "net/geo.hpp"
#include "phases.hpp"

namespace perfbench {
namespace {

using namespace geoproof;

constexpr double kFixDeadlineMs = 2000.0;
constexpr std::uint32_t kRounds = 8;     // timed rounds per vantage sweep
constexpr double kInterceptMs = 0.1;    // loopback + sleep overshoot, declared
constexpr double kMaxErrorKm = 100.0;   // a fix further from the prover fails

double fleet_cpu_s(const std::vector<FleetDaemon>& daemons, Sheet& sheet) {
  double total = 0.0;
  for (const FleetDaemon& d : daemons) {
    const double cpu = pid_cpu_s(d.pid);
    if (cpu < 0.0) sheet.fail("daemon pid " + std::to_string(d.pid) + " is gone");
    total += std::max(cpu, 0.0);
  }
  return total;
}

double prover_requests(const FleetPlan& plan) {
  return prometheus_value(http_get(plan.prover_metrics_port, "/metrics"),
                          "geoproof_prover_requests_served_total");
}

constexpr double kSliceSeconds = 0.25;

/// The fleet phase: fixes back to back for one time slice per call. In a
/// traced run every other slice is traced. Daemon and auditor CPU times
/// are read around each slice, so the other phases' slices never count.
class FleetPhase final : public Phase {
 public:
  FleetPhase(const Options& opts, const PhaseBudget& budget, Sheet& sheet)
      : opts_(opts), plan_(opts.fleet), budget_(budget), sheet_(sheet) {
    if (!plan_.present()) throw std::invalid_argument("no loopback fleet was given");
    log::set_level(log::Level::kWarn);
    for (const FleetDaemon& v : plan_.vantages) {
      cfg_.vantages.push_back(daemon::VantageEndpoint{"127.0.0.1", v.port});
      max_oneway_ms_ = std::max(max_oneway_ms_, v.oneway_ms);
    }
    cfg_.prover_port = plan_.prover.port;
    cfg_.file_id = plan_.file_id;
    cfg_.n_segments = plan_.n_segments;
    cfg_.rounds = kRounds;
    cfg_.sweep_timeout_ms = kFixDeadlineMs;
    cfg_.cal_ms_per_km = plan_.ms_per_km;
    cfg_.cal_intercept_ms = kInterceptMs;
    requests0_ = prover_requests(plan_);
    if (requests0_ < 0.0) sheet_.fail("prover /metrics scrape failed");
  }

  double setup_s() const override { return 0.0; }

  double progress() const override {
    if (opts_.trace && traced_ms_.empty() && !untraced_ms_.empty()) return 0.99;
    return budget_progress(budget_, spent_s_, fixes_);
  }

  void slice() override;
  void finish() override;

 private:
  void fix(bool tracing);
  double emulated_floor_ms() const;

  const Options& opts_;
  const FleetPlan& plan_;
  PhaseBudget budget_;
  Sheet& sheet_;
  daemon::AuditorConfig cfg_;
  double max_oneway_ms_ = 0.0;
  double requests0_ = 0.0;
  std::uint64_t fixes_ = 0;
  std::uint64_t slices_ = 0;
  double spent_s_ = 0.0;
  double prover_cpu_s_ = 0.0;
  double vantage_cpu_s_ = 0.0;
  double auditor_cpu_s_ = 0.0;
  std::vector<double> untraced_ms_;
  std::vector<double> traced_ms_;
  std::vector<double> vantage_sweep_ms_;
  std::vector<double> solve_ms_;
  std::vector<double> transport_ms_;
  std::vector<double> error_km_;
  const locate::Multilaterator solver_;
};

void FleetPhase::slice() {
  const bool tracing = opts_.trace && slices_++ % 2 == 1;
  const double prover0 = fleet_cpu_s({plan_.prover}, sheet_);
  const double vantages0 = fleet_cpu_s(plan_.vantages, sheet_);
  const double auditor0 = thread_cpu_s();
  double spent = 0.0;
  while (spent < kSliceSeconds) {
    const auto t0 = Clock::now();
    fix(tracing);
    spent += since_s(t0);
  }
  spent_s_ += spent;
  auditor_cpu_s_ += thread_cpu_s() - auditor0;
  vantage_cpu_s_ += fleet_cpu_s(plan_.vantages, sheet_) - vantages0;
  prover_cpu_s_ += fleet_cpu_s({plan_.prover}, sheet_) - prover0;
}

void FleetPhase::fix(bool tracing) {
  const std::uint64_t i = fixes_++;
  cfg_.probe_seed = opts_.seed * 0x9e3779b97f4a7c15ULL + i;
  daemon::AuditorClient client(cfg_);
  sheet_.attempt();
  const auto t0 = Clock::now();
  daemon::FleetReport report;
  try {
    report = client.run();
  } catch (const std::exception& err) {
    sheet_.fail(std::string("fleet fix threw: ") + err.what());
  }
  const double ms = 1e3 * since_s(t0);
  (tracing ? traced_ms_ : untraced_ms_).push_back(ms);

  if (report.completed != plan_.vantages.size() || !report.have_estimate ||
      !report.estimate.converged) {
    std::string why = "fleet fix " + std::to_string(i) + " did not converge (" +
                      std::to_string(report.completed) + " sweeps completed";
    for (const auto& o : report.outcomes) {
      if (!o.error.empty()) why += "; " + o.error;
    }
    sheet_.fail(why + ")");
    return;
  }
  const net::GeoPoint truth{plan_.prover.lat, plan_.prover.lon};
  const double err = net::haversine(report.estimate.position, truth).value;
  error_km_.push_back(err);
  if (err > kMaxErrorKm) {
    sheet_.fail("fleet fix " + std::to_string(i) + " landed " + std::to_string(err) +
                " km from the prover");
  }
  if (!tracing) return;
  double sweep_ms = 0.0;
  std::vector<locate::VantageRange> ranges;
  for (const auto& o : report.outcomes) {
    sweep_ms = std::max(sweep_ms, o.report.elapsed_ms);
    locate::VantageRange range;
    range.vantage = geoloc::Landmark{
        o.report.vantage_name, net::GeoPoint{o.report.latitude_deg, o.report.longitude_deg}};
    range.distance = o.distance;
    range.sigma = o.sigma;
    ranges.push_back(range);
  }
  const auto s0 = Clock::now();
  const locate::PositionEstimate replayed = solver_.estimate(ranges);
  const double solve = 1e3 * since_s(s0);
  if (replayed.inliers.size() != report.estimate.inliers.size()) {
    sheet_.note("fleet.replay_mismatch", 1.0);
  }
  vantage_sweep_ms_.push_back(sweep_ms);
  solve_ms_.push_back(solve);
  transport_ms_.push_back(ms - sweep_ms - solve);
}

/// The emulated-distance sleep floor of one fix as this machine sleeps it:
/// the farthest vantage's `rounds` sleeps of twice its one-way delay (the
/// vantages sleep in parallel). It cannot be optimised; it is reported so
/// it can be excluded.
double FleetPhase::emulated_floor_ms() const {
  const auto sleep = std::chrono::duration<double, std::milli>(2.0 * max_oneway_ms_);
  std::vector<double> floors;
  for (int rep = 0; rep < 5; ++rep) {
    const auto t0 = Clock::now();
    for (std::uint32_t r = 0; r < kRounds; ++r) std::this_thread::sleep_for(sleep);
    floors.push_back(1e3 * since_s(t0));
  }
  return median(floors);
}

void FleetPhase::finish() {
  const double fixes = static_cast<double>(fixes_);
  const double requests = prover_requests(plan_) - requests0_;
  const double expected = static_cast<double>(plan_.vantages.size() * kRounds);
  if (requests != expected * fixes) {
    sheet_.fail("prover served " + std::to_string(requests) + " requests for " +
                std::to_string(fixes) + " fixes");
  }
  sheet_.note("fleet.fixes", fixes);
  sheet_.note("fleet.error_km_p50", median(error_km_));
  // The configured sleep of one fix, which no host speed changes.
  sheet_.note("fleet.emulated_floor_ms", 2.0 * max_oneway_ms_ * kRounds);
  if (!opts_.trace) {
    sheet_.metric("fleet_fix_ms_p50", median(untraced_ms_), "ms");
    sheet_.metric("fleet_fix_ms_p99", percentile(untraced_ms_, 99.0), "ms");
    return;
  }
  sheet_.metric("net.transport_ms", median(transport_ms_), "ms");
  sheet_.metric("daemon.vantage_sweep_ms", median(vantage_sweep_ms_), "ms");
  sheet_.metric("daemon.emulated_ms", emulated_floor_ms(), "ms");
  sheet_.metric("daemon.prover_cpu_ms_per_fix", 1e3 * prover_cpu_s_ / fixes, "ms");
  sheet_.metric("daemon.vantage_cpu_ms_per_fix", 1e3 * vantage_cpu_s_ / fixes, "ms");
  sheet_.metric("daemon.auditor_cpu_ms_per_fix", 1e3 * auditor_cpu_s_ / fixes, "ms");
  sheet_.metric("daemon.prover_requests_per_fix", requests / fixes, "count");
  sheet_.note("fleet.solve_ms", median(solve_ms_));
  sheet_.note("fleet.trace_overhead_pct",
              100.0 * (median(traced_ms_) - median(untraced_ms_)) / median(untraced_ms_));
}

}  // namespace

std::unique_ptr<Phase> make_fleet_phase(const Options& opts, const PhaseBudget& budget,
                                        Sheet& sheet) {
  return std::make_unique<FleetPhase>(opts, budget, sheet);
}

}  // namespace perfbench
