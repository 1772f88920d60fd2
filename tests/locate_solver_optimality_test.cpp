// Optimality tests for the multilaterator's local solve: on seeded noisy
// fleets (honest, and with one material liar) the returned position must
// be a genuine local minimum of the inlier weighted-LS cost, lie inside
// the documented coverage box, and be exactly reproducible.
#include "locate/multilaterate.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <ostream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "geoloc/schemes.hpp"
#include "locate/measurement.hpp"
#include "net/geo.hpp"

namespace geoproof::locate {
namespace {

using net::GeoPoint;
using net::haversine;

struct Fleet {
  std::vector<VantageRange> ranges;
  GeoPoint truth;
};

/// `vantages` on a 1500 km spiral, the prover well inside the hull, 15 km
/// Gaussian range noise and per-vantage sigmas of 8-30 km (so the refit's
/// weights and their median floor both matter). With `liar`, vantage 1
/// overstates its distance by 1500 km.
Fleet noisy_fleet(Rng& rng, unsigned vantages, bool liar) {
  Fleet f;
  const GeoPoint center{-40.0 + 30.0 * rng.next_double(),
                        110.0 + 40.0 * rng.next_double()};
  f.truth = net::destination(center, 360.0 * rng.next_double(),
                             Kilometers{600.0 * rng.next_double()});
  for (const geoloc::Landmark& lm :
       geoloc::spiral_landmarks(center, Kilometers{1500.0}, vantages)) {
    VantageRange r;
    r.vantage = lm;
    r.distance = Kilometers{haversine(lm.pos, f.truth).value +
                            15.0 * rng.next_gaussian()};
    r.sigma = Kilometers{8.0 + 22.0 * rng.next_double()};
    f.ranges.push_back(r);
  }
  if (liar) f.ranges[1].distance.value += 1500.0;
  return f;
}

/// The refit's objective as the header documents it: Σ over the inliers of
/// ((range − distance) / w)², each weight the vantage's sigma floored at
/// the inliers' median sigma (never below 1 km).
double inlier_cost(const std::vector<VantageRange>& ranges,
                   const PositionEstimate& est, const GeoPoint& p) {
  std::vector<double> sigmas;
  for (const std::size_t i : est.inliers) {
    sigmas.push_back(ranges[i].sigma.value);
  }
  const double floor_km = std::max(1.0, median(sigmas));
  double cost = 0.0;
  for (const std::size_t i : est.inliers) {
    const double w = std::max(ranges[i].sigma.value, floor_km);
    const double err =
        haversine(ranges[i].vantage.pos, p).value - ranges[i].distance.value;
    cost += (err / w) * (err / w);
  }
  return cost;
}

/// The documented coverage box over the inlier vantages: their lat/lon
/// extent padded by 5% of its diagonal plus 200 km.
bool inside_coverage_box(const std::vector<VantageRange>& ranges,
                         const PositionEstimate& est) {
  double lat_min = 90.0, lat_max = -90.0, lon_min = 360.0, lon_max = -360.0;
  for (const std::size_t i : est.inliers) {
    const GeoPoint& v = ranges[i].vantage.pos;
    lat_min = std::min(lat_min, v.lat_deg);
    lat_max = std::max(lat_max, v.lat_deg);
    lon_min = std::min(lon_min, v.lon_deg);
    lon_max = std::max(lon_max, v.lon_deg);
  }
  const double cos_lat = std::max(
      0.2, std::cos((lat_min + lat_max) / 2.0 * std::numbers::pi / 180.0));
  const double diag_km = std::hypot((lat_max - lat_min) * 111.0,
                                    (lon_max - lon_min) * 111.0 * cos_lat);
  const double margin_km = 0.05 * diag_km + 200.0;
  const GeoPoint& p = est.position;
  return p.lat_deg >= lat_min - margin_km / 111.0 &&
         p.lat_deg <= lat_max + margin_km / 111.0 &&
         p.lon_deg >= lon_min - margin_km / (111.0 * cos_lat) &&
         p.lon_deg <= lon_max + margin_km / (111.0 * cos_lat);
}

struct Case {
  unsigned vantages;
  bool liar;
};

void PrintTo(const Case& c, std::ostream* os) {
  *os << c.vantages << (c.liar ? " vantages, one liar" : " vantages, honest");
}

class SolverOptimality : public ::testing::TestWithParam<Case> {};

TEST_P(SolverOptimality, ReturnsALocalMinimumInsideTheCoverageBox) {
  const Case c = GetParam();
  Rng rng(0x0971c0 + c.vantages * 2 + (c.liar ? 1 : 0));
  const Multilaterator solver;
  for (unsigned trial = 0; trial < 8; ++trial) {
    const Fleet f = noisy_fleet(rng, c.vantages, c.liar);
    const PositionEstimate est = solver.estimate(f.ranges);
    ASSERT_TRUE(est.converged) << "trial " << trial;
    if (c.liar) {
      EXPECT_EQ(est.outliers, std::vector<std::size_t>{1})
          << "trial " << trial;
    }
    EXPECT_TRUE(inside_coverage_box(f.ranges, est)) << "trial " << trial;

    // No probe 50 m away in any of eight directions improves the fit.
    const double at_fix = inlier_cost(f.ranges, est, est.position);
    for (unsigned k = 0; k < 8; ++k) {
      const GeoPoint probe =
          net::destination(est.position, 45.0 * k, Kilometers{0.05});
      EXPECT_GE(inlier_cost(f.ranges, est, probe), at_fix)
          << "trial " << trial << " probe bearing " << 45.0 * k;
    }
  }
}

TEST_P(SolverOptimality, RepeatedCallsAreBitIdentical) {
  const Case c = GetParam();
  Rng rng(0xb17 + c.vantages * 2 + (c.liar ? 1 : 0));
  for (unsigned trial = 0; trial < 4; ++trial) {
    const Fleet f = noisy_fleet(rng, c.vantages, c.liar);
    const PositionEstimate a = Multilaterator{}.estimate(f.ranges);
    const PositionEstimate b = Multilaterator{}.estimate(f.ranges);
    EXPECT_EQ(a.position.lat_deg, b.position.lat_deg) << "trial " << trial;
    EXPECT_EQ(a.position.lon_deg, b.position.lon_deg) << "trial " << trial;
    EXPECT_EQ(a.radius_km.value, b.radius_km.value) << "trial " << trial;
    EXPECT_EQ(a.ellipse.semi_major.value, b.ellipse.semi_major.value);
    EXPECT_EQ(a.ellipse.semi_minor.value, b.ellipse.semi_minor.value);
    EXPECT_EQ(a.ellipse.orientation_deg, b.ellipse.orientation_deg);
    EXPECT_EQ(a.inliers, b.inliers) << "trial " << trial;
    EXPECT_EQ(a.outliers, b.outliers) << "trial " << trial;
    EXPECT_EQ(a.converged, b.converged) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    NoisyFleets, SolverOptimality,
    ::testing::Values(Case{8, false}, Case{8, true}, Case{16, false},
                      Case{16, true}),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::to_string(info.param.vantages) +
             (info.param.liar ? "OneLiar" : "Honest");
    });

}  // namespace
}  // namespace geoproof::locate
