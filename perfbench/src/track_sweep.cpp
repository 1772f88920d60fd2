// track_sweep: track::TrackService::record for P providers x 8 vantages,
// then commit_sweep, back to back.
//
// The providers sit at fixed homes; the RTT sample sets are generated from
// the seed outside the timed region, the way bench_track's observe() builds
// them. A quarter of the providers have one lying vantage; one provider in
// eight relocates 800 km at a fixed sweep and must raise exactly one
// relocation alarm within the detection budget. Layers are timed from outside: the traced run mirrors each
// track's per-vantage RTT windows and replays the sweep's ranges through
// Multilaterator::estimate.
#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geoloc/schemes.hpp"
#include "locate/delay_model.hpp"
#include "locate/measurement.hpp"
#include "locate/multilaterate.hpp"
#include "net/geo.hpp"
#include "phases.hpp"
#include "track/track_service.hpp"

namespace perfbench {
namespace {

using namespace geoproof;
using net::GeoPoint;

constexpr double kInterceptMs = 4.0;
constexpr double kMsPerKm = 0.015;
constexpr unsigned kProviders = 8;  // one mover, two with a liar
constexpr unsigned kVantages = 8;
constexpr unsigned kRounds = 8;
constexpr unsigned kRelocateAt = 5;     // first sweep observed at the new site
constexpr unsigned kDetectBudget = 6;   // sweeps from relocation to alarm
constexpr double kLieMs = 10.0;         // a liar adds ~670 km of fake path
constexpr double kMaxErrorKm = 150.0;   // an honest fix further off fails
constexpr unsigned kDigestSweeps = kRelocateAt + kDetectBudget;
/// The accuracy metric covers the fixes of sweeps window..kAccuracySweeps,
/// so it depends on the seed alone, never on how many sweeps a run fits.
constexpr unsigned kAccuracySweeps = 24;

locate::DelayModel exact_model() {
  std::vector<locate::CalibrationPoint> pts;
  for (int i = 0; i <= 8; ++i) {
    const double d = 250.0 * i;
    pts.push_back({Kilometers{d}, Millis{kInterceptMs + kMsPerKm * d}});
  }
  return locate::DelayModel::fit(pts);
}

locate::VantageObservation observe(const geoloc::Landmark& vantage,
                                   const GeoPoint& prover, double lie_ms,
                                   Rng& rng) {
  const double base = kInterceptMs + lie_ms +
                      kMsPerKm * net::haversine(vantage.pos, prover).value;
  std::vector<Millis> samples;
  for (unsigned round = 0; round < kRounds; ++round) {
    samples.push_back(Millis{base + 0.8 * rng.next_double()});
  }
  locate::VantageObservation obs;
  obs.vantage = vantage;
  obs.stats = locate::SampleStats::of(samples);
  obs.reported_rtt = locate::min_filtered(samples);
  obs.completed = true;
  return obs;
}

struct Provider {
  std::uint64_t id = 0;
  GeoPoint home;
  GeoPoint away;
  bool mover = false;
  std::optional<unsigned> liar;  // index of its lying vantage
  std::optional<std::uint64_t> alarm_at;
  /// Mirror of the track's per-vantage RTT windows, keyed like the track
  /// (by vantage name), so the traced run can replay the exact ranges.
  std::map<std::string, locate::SampleWindow> windows;

  GeoPoint truth(std::uint64_t sweep) const {
    return mover && sweep >= kRelocateAt ? away : home;
  }
};

struct World {
  track::TrackService service;
  locate::DelayModel model = exact_model();
  std::vector<geoloc::Landmark> fleet;
  std::vector<Provider> providers;
};

std::unique_ptr<World> build_world(const Options& opts, unsigned n_providers) {
  auto world = std::make_unique<World>();
  World& w = *world;
  Rng bearings(opts.seed * 0x2545f4914f6cdd1dULL + 0x6e0c4);
  const GeoPoint center = net::places::brisbane();
  w.fleet = geoloc::spiral_landmarks(center, Kilometers{1500.0}, kVantages);
  for (unsigned p = 0; p < n_providers; ++p) {
    Provider pr;
    std::string name = "p";
    name += std::to_string(p);
    pr.id = w.service.add(name, w.model);
    // The geography and the liars are fixed (homes on a golden-angle
    // spiral); the seed draws the RTT samples and the relocation bearings.
    const double golden = 0.6180339887498949 * (p + 1);
    pr.home = net::destination(center, 137.50776405 * p,
                               Kilometers{50.0 + 350.0 * (golden - std::floor(golden))});
    pr.mover = p % 8 == 6;
    pr.away = net::destination(pr.home, 360.0 * bearings.next_double(),
                               Kilometers{800.0});
    if (p % 4 == 1) pr.liar = (p / 4) % kVantages;
    for (const auto& v : w.fleet) {
      pr.windows.emplace(v.name, locate::SampleWindow(track::TrackOptions{}.window));
    }
    w.providers.push_back(std::move(pr));
  }
  return world;
}

/// The ranges PositionTrack::commit_sweep builds from its windows.
std::vector<locate::VantageRange> ranges_of(const World& w, const Provider& pr) {
  std::vector<locate::VantageRange> ranges;
  for (const auto& [name, window] : pr.windows) {
    if (window.empty()) continue;
    locate::VantageRange range;
    for (const auto& v : w.fleet) {
      if (v.name == name) range.vantage = v;
    }
    range.distance = w.model.distance_for_rtt(window.min());
    const locate::SampleStats stats = window.stats();
    const double spread_km =
        w.model
            .spread_to_distance(Millis{
                stats.stddev_ms /
                std::sqrt(static_cast<double>(std::max<std::size_t>(stats.count, 1)))})
            .value;
    range.sigma = Kilometers{std::max({w.model.distance_sigma().value, spread_km, 5.0})};
    ranges.push_back(range);
  }
  return ranges;
}

struct Log {
  double timed_s = 0.0;
  std::uint64_t sweeps = 0;
  std::vector<double> sweep_s;         // timed record + commit, per sweep
  std::vector<double> record_us;       // per record() call, per sweep mean
  std::vector<double> commit_self_ms;  // commit minus replayed solves
  std::vector<double> solve_honest_ms;
  std::vector<double> solve_byz_ms;
  double commit_wall_s = 0.0;
  double commit_cpu_s = 0.0;
};

/// The track phase: one sweep per slice. In a traced run every other sweep
/// is traced (its solves replayed), so traced and untraced sweeps share the
/// same stretch of the run.
class TrackPhase final : public Phase {
 public:
  TrackPhase(const Options& opts, const PhaseBudget& budget, Sheet& sheet)
      : opts_(opts),
        budget_(budget),
        sheet_(sheet),
        jitter_(opts.seed * 0x9e3779b97f4a7c15ULL + 0xbe6c7) {
    budget_.min_ops = std::max<std::uint64_t>(
        budget.min_ops, std::max(kRelocateAt + kDetectBudget, kAccuracySweeps));
    std::vector<double> setups;
    for (unsigned i = 0; i < (opts.tiny ? 1u : 3u); ++i) {
      world_.reset();
      const auto t0 = Clock::now();
      world_ = build_world(opts, kProviders);
      setups.push_back(since_s(t0));
    }
    setup_s_ = median(setups);
  }

  double setup_s() const override { return setup_s_; }

  double progress() const override {
    // A traced run must also have traced something.
    if (opts_.trace && traced_.sweeps == 0 && sweep_ > 0) return 0.99;
    return budget_progress(budget_, untraced_.timed_s + traced_.timed_s, sweep_);
  }

  void slice() override;
  void finish() override;

 private:
  const Options& opts_;
  PhaseBudget budget_;
  Sheet& sheet_;
  double setup_s_ = 0.0;
  std::unique_ptr<World> world_;
  Rng jitter_;
  std::uint64_t sweep_ = 0;
  Digest digest_;
  std::vector<double> error_km_;
  std::vector<double> detect_sweeps_;
  double liar_outliers_ = 0.0;
  double liar_fixes_ = 0.0;
  std::uint64_t honest_outliers_ = 0;
  Log untraced_;
  Log traced_;
  const locate::Multilaterator solver_;
};

void TrackPhase::slice() {
  World& w = *world_;
  const std::uint64_t sweep = ++sweep_;
  const std::uint64_t window = track::TrackOptions{}.window;
  const bool tracing = opts_.trace && sweep % 2 == 0;
  Log& log = tracing ? traced_ : untraced_;

  // Inputs for this sweep, generated outside the timed region.
  std::vector<std::vector<locate::VantageObservation>> inputs;
  for (Provider& pr : w.providers) {
    std::vector<locate::VantageObservation> obs;
    for (unsigned v = 0; v < kVantages; ++v) {
      const double lie = pr.liar == v ? kLieMs : 0.0;
      obs.push_back(observe(w.fleet[v], pr.truth(sweep), lie, jitter_));
      pr.windows.at(w.fleet[v].name).push(obs.back().reported_rtt);
    }
    inputs.push_back(std::move(obs));
  }

  const std::uint64_t fixes_before = w.service.stats().fixes;
  const auto t0 = Clock::now();
  for (std::size_t p = 0; p < w.providers.size(); ++p) {
    for (const auto& obs : inputs[p]) w.service.record(w.providers[p].id, obs);
  }
  const auto t1 = Clock::now();
  const double cpu0 = process_cpu_s();
  const std::vector<track::TrackService::ProviderAlarm> alarms =
      w.service.commit_sweep(sweep);
  const double cpu1 = process_cpu_s();
  const auto t2 = Clock::now();
  const std::uint64_t fixes = w.service.stats().fixes - fixes_before;

  log.timed_s += elapsed_s(t0, t2);
  log.sweep_s.push_back(elapsed_s(t0, t2));
  ++log.sweeps;
  log.commit_wall_s += elapsed_s(t1, t2);
  log.commit_cpu_s += cpu1 - cpu0;
  log.record_us.push_back(1e6 * elapsed_s(t0, t1) /
                          static_cast<double>(w.providers.size() * kVantages));

  // Checks: every provider fixed, honest fixes near the truth, alarms
  // exactly on the movers and within the budget.
  sheet_.attempt(w.providers.size());
  if (fixes != w.providers.size()) {
    sheet_.fail("sweep " + std::to_string(sweep) + " committed " + std::to_string(fixes) +
                " of " + std::to_string(w.providers.size()) + " fixes");
  }
  for (const auto& alarm : alarms) {
    for (Provider& pr : w.providers) {
      if (pr.id != alarm.provider_id) continue;
      if (!pr.mover || sweep < kRelocateAt || pr.alarm_at.has_value()) {
        sheet_.fail("false relocation alarm on " + alarm.name + " at sweep " +
                    std::to_string(sweep));
      } else {
        pr.alarm_at = sweep;
        detect_sweeps_.push_back(static_cast<double>(sweep - kRelocateAt + 1));
      }
      if (sweep <= kDigestSweeps) {
        digest_.add(pr.id);
        digest_.add(sweep);
      }
    }
  }
  double solve_ms_total = 0.0;
  for (Provider& pr : w.providers) {
    if (pr.mover && sweep == kRelocateAt + kDetectBudget - 1 && !pr.alarm_at) {
      sheet_.fail("relocation of provider " + std::to_string(pr.id) +
                  " not detected within " + std::to_string(kDetectBudget) + " sweeps");
    }
    const track::TrackService::Report report = w.service.report(pr.id);
    if (!report.fix || report.fix->sweep != sweep) continue;
    const locate::PositionEstimate& est = report.fix->estimate;
    if (!pr.mover || sweep < kRelocateAt) {
      const double err = net::haversine(est.position, pr.truth(sweep)).value;
      // The accuracy metric is the steady state: once the per-vantage RTT
      // windows are full. Every fix is still checked.
      if (sweep >= window && sweep <= kAccuracySweeps) error_km_.push_back(err);
      if (err > kMaxErrorKm) {
        sheet_.fail("provider " + std::to_string(pr.id) + " fixed " +
                    std::to_string(err) + " km from truth");
      }
    }
    if (pr.liar) {
      liar_outliers_ += static_cast<double>(est.outliers.size());
      liar_fixes_ += 1.0;
    } else {
      honest_outliers_ += est.outliers.size();
    }
    if (sweep <= kDigestSweeps) {
      digest_.add(pr.id);
      digest_.add(est.position.lat_deg);
      digest_.add(est.position.lon_deg);
      digest_.add(std::uint64_t{est.outliers.size()});
    }
    if (tracing) {
      const std::vector<locate::VantageRange> ranges = ranges_of(w, pr);
      const auto s0 = Clock::now();
      const locate::PositionEstimate replayed = solver_.estimate(ranges);
      const double ms = 1e3 * since_s(s0);
      solve_ms_total += ms;
      (pr.liar ? log.solve_byz_ms : log.solve_honest_ms).push_back(ms);
      if (replayed.outliers.size() != est.outliers.size()) {
        sheet_.note("track.replay_mismatch", 1.0);
      }
    }
  }
  if (tracing) log.commit_self_ms.push_back(1e3 * elapsed_s(t1, t2) - solve_ms_total);
}

void TrackPhase::finish() {
  for (const Provider& pr : world_->providers) {
    if (pr.mover && !pr.alarm_at) {
      sheet_.fail("provider " + std::to_string(pr.id) + " moved without an alarm");
    }
  }
  sheet_.digest("track_sweep", digest_.hex());
  sheet_.note("track.providers", kProviders);
  sheet_.note("track.sweeps", static_cast<double>(sweep_));
  sheet_.note("track.honest_outliers", static_cast<double>(honest_outliers_));
  // Throughput at the median sweep: every sweep commits one fix per
  // provider, so this is fixes / wall time without the odd stalled sweep.
  const double untraced_rate = kProviders / median(untraced_.sweep_s);
  if (!opts_.trace) {
    sheet_.metric("track_fixes_per_s", untraced_rate, "fixes/s");
    sheet_.metric("track_fix_error_km_p90", percentile(error_km_, 90.0), "km");
    sheet_.metric("track_detect_sweeps", mean(detect_sweeps_), "sweeps");
    return;
  }
  const double traced_rate = kProviders / median(traced_.sweep_s);
  sheet_.metric("track.record_us", median(traced_.record_us), "us");
  sheet_.metric("track.commit_self_ms", median(traced_.commit_self_ms), "ms");
  sheet_.metric("track.cpu_util",
                traced_.commit_cpu_s / (traced_.commit_wall_s * opts_.cpus), "ratio");
  sheet_.metric("locate.estimate_ms", median(traced_.solve_honest_ms), "ms");
  sheet_.metric("locate.estimate_ms_byz", median(traced_.solve_byz_ms), "ms");
  sheet_.metric("locate.outliers_per_fix",
                liar_fixes_ > 0.0 ? liar_outliers_ / liar_fixes_ : 0.0, "count");
  sheet_.note("track.trace_overhead_pct",
              100.0 * (untraced_rate - traced_rate) / traced_rate);
}

}  // namespace

std::unique_ptr<Phase> make_track_phase(const Options& opts, const PhaseBudget& budget,
                                        Sheet& sheet) {
  return std::make_unique<TrackPhase>(opts, budget, sheet);
}

}  // namespace perfbench
