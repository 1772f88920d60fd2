#include "locate/delay_model.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "common/errors.hpp"
#include "locate/measurement.hpp"
#include "net/geo.hpp"

namespace geoproof::locate {
namespace {

TEST(DelayModel, RecoversAnExactLine) {
  // rtt = 10 + 0.02 * d, sampled at a few distances.
  std::vector<CalibrationPoint> points;
  for (const double d : {100.0, 500.0, 1200.0, 2500.0, 4000.0}) {
    points.push_back({Kilometers{d}, Millis{10.0 + 0.02 * d}});
  }
  const DelayModel model = DelayModel::fit(points);
  ASSERT_TRUE(model.calibrated());
  EXPECT_NEAR(model.fit_stats().intercept_ms, 10.0, 1e-9);
  EXPECT_NEAR(model.fit_stats().ms_per_km, 0.02, 1e-12);
  EXPECT_NEAR(model.fit_stats().r2, 1.0, 1e-12);
  EXPECT_NEAR(model.distance_for_rtt(Millis{10.0 + 0.02 * 1800.0}).value,
              1800.0, 1e-6);
  // A perfect fit has no residual spread.
  EXPECT_NEAR(model.distance_sigma().value, 0.0, 1e-9);
}

TEST(DelayModel, UncalibratedFallsBackToPhysicalBound) {
  const DelayModel model;
  EXPECT_FALSE(model.calibrated());
  // (rtt/2) * c with c = 300 km/ms.
  EXPECT_NEAR(model.distance_for_rtt(Millis{10.0}).value, 1500.0, 1e-9);
  EXPECT_NEAR(DelayModel::upper_bound_distance(Millis{10.0}).value, 1500.0,
              1e-9);
  EXPECT_NEAR(DelayModel::upper_bound_distance(Millis{-1.0}).value, 0.0, 0.0);
}

TEST(DelayModel, TooFewOrDegeneratePointsAreUnusable) {
  EXPECT_FALSE(DelayModel::fit({}).calibrated());
  const std::vector<CalibrationPoint> two = {
      {Kilometers{100.0}, Millis{12.0}}, {Kilometers{200.0}, Millis{14.0}}};
  EXPECT_FALSE(DelayModel::fit(two).calibrated());
  // All probes at one distance: no slope to learn.
  const std::vector<CalibrationPoint> flat = {
      {Kilometers{100.0}, Millis{12.0}},
      {Kilometers{100.0}, Millis{13.0}},
      {Kilometers{100.0}, Millis{14.0}}};
  EXPECT_FALSE(DelayModel::fit(flat).calibrated());
  // A *negative* slope (delay shrinking with distance) is garbage in,
  // bound out.
  const std::vector<CalibrationPoint> inverted = {
      {Kilometers{100.0}, Millis{40.0}},
      {Kilometers{1000.0}, Millis{30.0}},
      {Kilometers{2000.0}, Millis{20.0}}};
  const DelayModel bad = DelayModel::fit(inverted);
  EXPECT_FALSE(bad.calibrated());
  EXPECT_NEAR(bad.distance_for_rtt(Millis{30.0}).value,
              DelayModel::upper_bound_distance(Millis{30.0}).value, 1e-9);
}

TEST(DelayModel, CalibratedEstimateIsClampedToPhysics) {
  // A fit with a tiny slope would invert small RTTs into absurd distances;
  // the physical bound caps it.
  std::vector<CalibrationPoint> points;
  for (const double d : {1000.0, 2000.0, 3000.0, 4000.0}) {
    points.push_back({Kilometers{d}, Millis{1.0 + 0.0001 * d}});
  }
  const DelayModel model = DelayModel::fit(points);
  ASSERT_TRUE(model.calibrated());
  const Millis rtt{2.0};
  EXPECT_LE(model.distance_for_rtt(rtt).value,
            DelayModel::upper_bound_distance(rtt).value + 1e-9);
  // And RTTs below the intercept clamp to zero, not negative distance.
  EXPECT_GE(model.distance_for_rtt(Millis{0.5}).value, 0.0);
}

TEST(DelayModel, FromInternetModelRecoversTheModelInverse) {
  net::InternetModelParams params;
  params.jitter_stddev_ms = 0.0;
  const net::InternetModel internet(params);
  const DelayModel model =
      DelayModel::from_internet_model(internet, Kilometers{4000.0});
  ASSERT_TRUE(model.calibrated());
  // The InternetModel is linear in distance, so the fit inverts it exactly.
  for (const double d : {250.0, 900.0, 2700.0}) {
    EXPECT_NEAR(model.distance_for_rtt(internet.rtt(Kilometers{d})).value, d,
                1.0);
  }
  EXPECT_THROW(DelayModel::from_internet_model(internet, Kilometers{0.0}),
               InvalidArgument);
}

TEST(DelayModel, FromSurveyFitsThePapersTableThree) {
  const DelayModel model = DelayModel::from_survey();
  ASSERT_TRUE(model.calibrated());
  const DelayFit& fit = model.fit_stats();
  // The paper's measured RTTs are strongly linear in distance: ~17-20 ms
  // of access latency plus ~0.018 ms/km.
  EXPECT_GT(fit.r2, 0.95);
  EXPECT_GT(fit.intercept_ms, 10.0);
  EXPECT_LT(fit.intercept_ms, 30.0);
  EXPECT_GT(fit.ms_per_km, 0.01);
  EXPECT_LT(fit.ms_per_km, 0.03);
  // Perth's measured 82 ms should invert to roughly its 3605 km.
  EXPECT_NEAR(model.distance_for_rtt(Millis{82.0}).value, 3605.0, 500.0);
}

TEST(DelayModel, SpreadMapsThroughTheSlope) {
  std::vector<CalibrationPoint> points;
  for (const double d : {100.0, 1000.0, 2000.0, 3000.0}) {
    points.push_back({Kilometers{d}, Millis{15.0 + 0.02 * d}});
  }
  const DelayModel model = DelayModel::fit(points);
  ASSERT_TRUE(model.calibrated());
  EXPECT_NEAR(model.spread_to_distance(Millis{1.0}).value, 50.0, 1e-6);
  // Uncalibrated: spread maps at c/2 like any other delay.
  EXPECT_NEAR(DelayModel{}.spread_to_distance(Millis{1.0}).value, 150.0, 1e-9);
}

TEST(DelayModel, RangeSigmaShrinksTheSpreadByDepthAndFloorsIt) {
  // Exact line at 0.02 ms/km: 1 ms of spread is 50 km, and a perfect fit
  // contributes no calibration residual.
  std::vector<CalibrationPoint> points;
  for (const double d : {100.0, 1000.0, 2000.0, 3000.0}) {
    points.push_back({Kilometers{d}, Millis{15.0 + 0.02 * d}});
  }
  const DelayModel model = DelayModel::fit(points);
  SampleStats stats;
  stats.stddev_ms = 2.0;
  stats.count = 16;  // best-of-16: 2 ms / 4 = 0.5 ms = 25 km
  EXPECT_NEAR(model.range_sigma(stats).value, 25.0, 1e-9);
  stats.count = 0;  // treated as one sample: 2 ms = 100 km
  EXPECT_NEAR(model.range_sigma(stats).value, 100.0, 1e-9);
  stats.stddev_ms = 0.01;  // 0.5 km of spread: the 5 km floor wins
  EXPECT_EQ(model.range_sigma(stats).value, 5.0);
}

}  // namespace
}  // namespace geoproof::locate
