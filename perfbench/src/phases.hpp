// The three phases every benchmark run drives. Each builds its own slice of
// the GeoProof world, then runs in time slices that main interleaves, so
// every phase's measurements spread over the whole run. Each checks every
// verdict or fix it sees and writes its metrics into the sheet at finish().
#pragma once

#include <algorithm>
#include <limits>
#include <memory>

#include "measure.hpp"

namespace perfbench {

class Phase {
 public:
  virtual ~Phase() = default;
  /// Median world-build time of this phase's slice of the world, seconds.
  virtual double setup_s() const = 0;
  /// Share of the budget done; the phase is finished at >= 1.
  virtual double progress() const = 0;
  /// Run one time slice (or one sweep, for the track phase).
  virtual void slice() = 0;
  /// Write the metrics.
  virtual void finish() = 0;
};

inline constexpr double kDone = std::numeric_limits<double>::infinity();

/// Progress against a budget: both the measured seconds and the minimum
/// operation count must be reached.
inline double budget_progress(const PhaseBudget& budget, double spent_s,
                              std::uint64_t ops) {
  double p = kDone;
  if (budget.seconds > 0.0) p = std::min(p, spent_s / budget.seconds);
  if (budget.min_ops > 0) {
    p = std::min(p, static_cast<double>(ops) / static_cast<double>(budget.min_ops));
  }
  return p;
}

/// ShardedAuditEngine sweeps over a registry of POR-encoded files at
/// simulated LAN sites, with owner writes to the dynamic files in between.
std::unique_ptr<Phase> make_audit_phase(const Options& opts,
                                        const PhaseBudget& budget, Sheet& sheet);

/// TrackService record + commit_sweep over providers x 8 vantages, with
/// lying vantages and relocating providers.
std::unique_ptr<Phase> make_track_phase(const Options& opts,
                                        const PhaseBudget& budget, Sheet& sheet);

/// daemon::AuditorClient::run against the live loopback fleet run.py
/// spawned. Builds nothing (run.py measures the fleet's spawn time).
std::unique_ptr<Phase> make_fleet_phase(const Options& opts,
                                        const PhaseBudget& budget, Sheet& sheet);

}  // namespace perfbench
