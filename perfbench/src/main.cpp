// geoproof_perfbench — the measuring half of the GeoProof system benchmark.
//
// perfbench/run.py builds this binary, spawns the loopback fleet and runs
//
//   geoproof_perfbench --workload audit_sweep|track_sweep|fleet_loopback
//                      --seed N --seconds S --trace 0|1 [--tiny]
//                      --prover PORT:PID:LAT:LON --prover-metrics-port P
//                      --file ID:SEGMENTS --vantage PORT:PID:ONEWAY_MS...
//                      --ms-per-km SLOPE
//
// Every run drives all three phases, so every end-to-end metric is reported
// on every workload: the S measured seconds are shared out among the phases,
// the workload's own phase taking the largest share, and their time slices
// are interleaved. It prints one JSON line: the sheet with metrics,
// attempted/failed counts, digests, notes and the build stamp.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "phases.hpp"

namespace {

using namespace perfbench;

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::stringstream in(s);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

/// PORT:PID:LAT:LON for the prover (its position is the truth a fix is
/// checked against), PORT:PID:ONEWAY_MS for a vantage.
FleetDaemon parse_daemon(const std::string& spec, bool vantage) {
  const std::vector<std::string> f = split(spec, ':');
  if (f.size() != (vantage ? 3u : 4u)) {
    throw std::invalid_argument("bad daemon spec '" + spec + "'");
  }
  FleetDaemon d;
  d.port = static_cast<std::uint16_t>(std::stoul(f[0]));
  d.pid = std::stoi(f[1]);
  if (vantage) {
    d.oneway_ms = std::stod(f[2]);
  } else {
    d.lat = std::stod(f[2]);
    d.lon = std::stod(f[3]);
  }
  return d;
}

Options parse(int argc, char** argv) {
  Options o;
  o.cpus = std::max(1u, std::min(32u, std::thread::hardware_concurrency()));
  o.shards = std::max(1u, o.cpus / 2);
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      o.tiny = true;
      continue;
    }
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--prover") {
      o.fleet.prover = parse_daemon(v, false);
    } else if (flag == "--prover-metrics-port") {
      o.fleet.prover_metrics_port = static_cast<std::uint16_t>(std::stoul(v));
    } else if (flag == "--file") {
      const std::vector<std::string> f = split(v, ':');
      if (f.size() != 2) throw std::invalid_argument("bad --file");
      o.fleet.file_id = std::stoull(f[0]);
      o.fleet.n_segments = std::stoull(f[1]);
    } else if (flag == "--vantage") {
      o.fleet.vantages.push_back(parse_daemon(v, true));
    } else if (flag == "--ms-per-km") {
      o.fleet.ms_per_km = std::stod(v);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (o.workload != "audit_sweep" && o.workload != "track_sweep" &&
      o.workload != "fleet_loopback") {
    throw std::invalid_argument("unknown --workload '" + o.workload + "'");
  }
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

bool optimized_build() {
#ifdef __OPTIMIZE__
  return true;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  try {
    opts = parse(argc, argv);
  } catch (const std::exception& err) {
    std::fprintf(stderr, "geoproof_perfbench: %s\n", err.what());
    return 2;
  }

  Sheet sheet;
  sheet.stamp("build_type", PERFBENCH_BUILD_TYPE);
  sheet.stamp("compiler", PERFBENCH_COMPILER);
  sheet.stamp("optimized", optimized_build() ? "yes" : "no");
  sheet.note("cpus", opts.cpus);
  sheet.note("shards", opts.shards);

  // --seconds is the run's measured time, shared out among the three
  // phases: the workload's own phase takes the largest share. The track
  // phase never gets less than 0.4 of it: a track sweep is one serial solve
  // per provider, so its samples are few and long, and a single thread feels
  // a loaded host most. The scheduler always runs a slice of the phase
  // furthest behind its budget, so all three spread over the whole run.
  const auto budget = [&](const char* workload, double own, double side,
                          std::uint64_t own_ops) {
    return opts.workload == workload
               ? PhaseBudget{opts.seconds * own, own_ops}
               : PhaseBudget{opts.seconds * side, opts.tiny ? 4u : 20u};
  };
  try {
    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(make_audit_phase(opts, budget("audit_sweep", 0.4, 0.2, 10), sheet));
    phases.push_back(make_track_phase(opts, budget("track_sweep", 0.6, 0.4, 0), sheet));
    phases.push_back(
        make_fleet_phase(opts, budget("fleet_loopback", 0.4, 0.2, 20), sheet));
    double setup = 0.0;
    for (const auto& phase : phases) setup += phase->setup_s();
    sheet.note("world_setup_s", setup);
    std::vector<double> calibration;
    for (;;) {
      Phase* next = nullptr;
      double least = 1.0;
      for (const auto& phase : phases) {
        if (phase->progress() < least) {
          least = phase->progress();
          next = phase.get();
        }
      }
      if (next == nullptr) break;
      // The host speed probe runs on this thread, between slices, never
      // next to the program's own work.
      calibration.push_back(calibration_ms());
      next->slice();
    }
    for (const auto& phase : phases) phase->finish();
    sheet.note("host.calibration_ms", median(calibration));
  } catch (const std::exception& err) {
    sheet.fail(std::string("run aborted: ") + err.what());
  }
  if (opts.trace) {
    const std::string phase = opts.workload.substr(0, opts.workload.find('_'));
    sheet.metric("trace_overhead_pct",
                 sheet.note_or(phase + ".trace_overhead_pct", 0.0), "%");
  }
  std::printf("%s\n", sheet.to_json(optimized_build()).c_str());
  return 0;
}
