#include "locate/multilaterate.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "common/errors.hpp"
#include "locate/measurement.hpp"  // locate::median

namespace geoproof::locate {

using net::GeoPoint;
using net::haversine;

Multilaterator::Multilaterator() : Multilaterator(Options{}) {}

Multilaterator::Multilaterator(Options options) : options_(options) {
  if (options_.grid < 4) {
    throw InvalidArgument("Multilaterator: grid too small");
  }
  if (options_.min_inlier_fraction <= 0.5 ||
      options_.min_inlier_fraction > 1.0) {
    throw InvalidArgument(
        "Multilaterator: min_inlier_fraction must be in (0.5, 1] — a "
        "minority-consistent estimate is exactly what a Byzantine fleet "
        "could forge");
  }
  if (options_.trim_factor < 1.0) {
    throw InvalidArgument("Multilaterator: trim_factor must be >= 1");
  }
}

namespace {

constexpr double kDeg = std::numbers::pi / 180.0;

struct BoundingBox {
  double lat_min, lat_max, lon_min, lon_max;
};

/// The fleet's coverage region: the box over the active vantage positions,
/// padded by a margin proportional to the fleet's extent. Every solve is
/// *constrained* to this region on purpose — multilateration outside the
/// vantage hull is extrapolation, and an unconstrained fit lets uniformly
/// inflated distances (a relayed or stalling prover) "converge" at a
/// far-field runaway point where the residuals artificially equalise.
/// Constrained, that inflation has nowhere to hide: residuals stay large
/// inside the region and the confidence radius honestly blows up.
BoundingBox coverage_box(std::span<const VantageRange> ranges,
                         const std::vector<std::size_t>& active) {
  // Longitudes are unwrapped to within ±180° of the first active vantage:
  // a fleet straddling the antimeridian must get its ~real hull, not a
  // 360°-wide box that would wreck the coarse scan and re-admit the
  // far-field runaway. Iterates may leave [-180, 180) — haversine is
  // periodic in longitude — and the caller re-normalises the estimate.
  const double lon_ref = ranges[active.front()].vantage.pos.lon_deg;
  BoundingBox box{90.0, -90.0, 1e9, -1e9};
  for (const std::size_t i : active) {
    const GeoPoint& p = ranges[i].vantage.pos;
    const double lon = lon_ref + std::remainder(p.lon_deg - lon_ref, 360.0);
    box.lat_min = std::min(box.lat_min, p.lat_deg);
    box.lat_max = std::max(box.lat_max, p.lat_deg);
    box.lon_min = std::min(box.lon_min, lon);
    box.lon_max = std::max(box.lon_max, lon);
  }
  // 1 degree latitude ~ 111 km; longitude degrees shrink with latitude,
  // capped so polar fleets do not blow the box up to the whole globe.
  const double cos_lat =
      std::max(0.2, std::cos((box.lat_min + box.lat_max) / 2.0 * kDeg));
  const double diag_km = std::hypot(
      (box.lat_max - box.lat_min) * 111.0,
      (box.lon_max - box.lon_min) * 111.0 * cos_lat);
  // Tight on purpose: the margin only admits provers slightly beyond the
  // hull. Every extra kilometre of slack is a kilometre of consistent
  // relay inflation the constrained fit could silently cancel by drifting
  // outward instead of reporting it in the radius.
  const double margin_km = 0.05 * diag_km + 200.0;
  box.lat_min = std::max(box.lat_min - margin_km / 111.0, -89.9);
  box.lat_max = std::min(box.lat_max + margin_km / 111.0, 89.9);
  box.lon_min -= margin_km / (111.0 * cos_lat);
  box.lon_max += margin_km / (111.0 * cos_lat);
  return box;
}

/// The refit's per-inlier weights: each sigma floored at the active set's
/// median sigma (>= 1 km). Shared by solve_refine and the covariance so the
/// ellipse describes exactly the fit that produced the position.
std::vector<double> refit_weights(std::span<const VantageRange> ranges,
                                  const std::vector<std::size_t>& active) {
  std::vector<double> weights;
  weights.reserve(active.size());
  for (const std::size_t i : active) weights.push_back(ranges[i].sigma.value);
  const double floor_km = std::max(1.0, median(weights));
  for (double& w : weights) w = std::max(w, floor_km);
  return weights;
}

/// The fit Σ (r_i / w_i)² over `members` (`weights` parallel) linearised at
/// `p`, in km east (x) and north (y): residual r_i grows along the unit
/// direction u_i *at p* away from vantage i (none on it or its antipode), so
/// ∂r_i/∂p = u_i. Shared by the Gauss–Newton steps and the covariance.
struct NormalEquations {
  double fxx = 0.0, fxy = 0.0, fyy = 0.0;  // JᵀWJ
  double gx = 0.0, gy = 0.0;               // JᵀW·r
  double chi2 = 0.0;                       // Σ (r_i / w_i)²
  std::size_t used = 0;                    // members with a direction
};

NormalEquations linearise(std::span<const VantageRange> ranges,
                          const std::vector<std::size_t>& members,
                          const std::vector<double>& weights,
                          const GeoPoint& p) {
  NormalEquations ne;
  for (std::size_t k = 0; k < members.size(); ++k) {
    const GeoPoint& v = ranges[members[k]].vantage.pos;
    const double residual =
        haversine(v, p).value - ranges[members[k]].distance.value;
    const double w2 = 1.0 / (weights[k] * weights[k]);
    ne.chi2 += residual * residual * w2;
    // East and north components of the initial bearing from p to v; their
    // norm is sin(angular distance), so it vanishes on v and its antipode.
    const double lat_p = p.lat_deg * kDeg, lat_v = v.lat_deg * kDeg;
    const double dlon = (v.lon_deg - p.lon_deg) * kDeg;
    const double east = std::sin(dlon) * std::cos(lat_v);
    const double north = std::cos(lat_p) * std::sin(lat_v) -
                         std::sin(lat_p) * std::cos(lat_v) * std::cos(dlon);
    const double norm = std::hypot(east, north);
    if (norm < 1e-9) continue;
    const double ux = -east / norm, uy = -north / norm;
    ne.fxx += ux * ux * w2;
    ne.fxy += ux * uy * w2;
    ne.fyy += uy * uy * w2;
    ne.gx += ux * residual * w2;
    ne.gy += uy * residual * w2;
    ++ne.used;
  }
  return ne;
}

/// Damped (Levenberg–Marquardt) Gauss–Newton on the NormalEquations fit
/// from `seed`, clamped to `box`: a step that does not lower χ² raises the
/// damping; the descent stops once the step shrinks under a millimetre.
GeoPoint gauss_newton(std::span<const VantageRange> ranges,
                      const std::vector<std::size_t>& members,
                      const std::vector<double>& weights, const GeoPoint& seed,
                      const BoundingBox& box) {
  constexpr double kKmPerDeg = 6371.0 * kDeg;
  GeoPoint p = seed;
  NormalEquations ne = linearise(ranges, members, weights, p);
  // Active set: a coordinate an outward gradient holds at a box edge stays.
  const auto pinned = [](double x, double lo, double hi, double g) {
    return (x <= lo && g > 0.0) || (x >= hi && g < 0.0);
  };
  double damping = 1e-3;
  for (unsigned iter = 0; iter < 100 && damping < 1e12; ++iter) {
    if (pinned(p.lat_deg, box.lat_min, box.lat_max, ne.gy)) ne.fxy = ne.gy = 0;
    if (pinned(p.lon_deg, box.lon_min, box.lon_max, ne.gx)) ne.fxy = ne.gx = 0;
    const double trace = ne.fxx + ne.fyy;
    if (trace <= 0.0) break;
    // (JᵀWJ + damping·trace·I)·δ = −JᵀW·r, in closed form for the 2x2.
    for (; damping < 1e12; damping *= 10.0) {
      const double d11 = ne.fxx + damping * trace;
      const double d22 = ne.fyy + damping * trace;
      const double det = d11 * d22 - ne.fxy * ne.fxy;
      const double east = (ne.fxy * ne.gy - d22 * ne.gx) / det;
      const double north = (ne.fxy * ne.gx - d11 * ne.gy) / det;
      if (std::hypot(east, north) < 1e-6) return p;
      const GeoPoint next{
          std::clamp(p.lat_deg + north / kKmPerDeg, box.lat_min, box.lat_max),
          std::clamp(p.lon_deg + east / kKmPerDeg / std::cos(p.lat_deg * kDeg),
                     box.lon_min, box.lon_max)};
      const NormalEquations at_next = linearise(ranges, members, weights, next);
      if (at_next.chi2 < ne.chi2) {
        p = next;
        ne = at_next;
        damping = std::max(damping / 10.0, 1e-9);
        break;
      }
    }
  }
  return p;
}

/// Covariance of the weighted-LS refit at `position`: C = s²·F⁻¹ with the
/// Fisher information F = JᵀWJ and s² = max(1, χ²/dof) — floored at 1 so a
/// merely lucky fit cannot claim less uncertainty than the vantages' own
/// sigmas. C's eigen-decomposition gives the semi-axes and orientation;
/// `radius_cap` (the confidence disk) clamps both axes.
ErrorEllipse refit_ellipse(std::span<const VantageRange> ranges,
                           const std::vector<std::size_t>& active,
                           const GeoPoint& position, double axis_factor,
                           double radius_cap) {
  ErrorEllipse out;
  const NormalEquations f =
      linearise(ranges, active, refit_weights(ranges, active), position);
  if (f.used < 3) return out;
  const double det = f.fxx * f.fyy - f.fxy * f.fxy;
  // Collinear bearings make F singular: no finite ellipse exists.
  const double trace = f.fxx + f.fyy;
  if (det <= trace * trace * 1e-9) return out;

  const double s2 = std::max(1.0, f.chi2 / static_cast<double>(f.used - 2));
  // Eigenvalues of the symmetric 2x2 via the trace/det form.
  const double cxx = s2 * f.fyy / det;
  const double cyy = s2 * f.fxx / det;
  const double cxy = -s2 * f.fxy / det;
  const double mid = (cxx + cyy) / 2.0;
  const double diff = std::hypot((cxx - cyy) / 2.0, cxy);
  const double lam_max = mid + diff;
  const double lam_min = std::max(0.0, mid - diff);
  // Major-axis direction: eigenvector angle from the east axis, converted
  // to a bearing east of north in [0, 180).
  const double alpha = 0.5 * std::atan2(2.0 * cxy, cxx - cyy);
  double bearing_deg = std::fmod(90.0 - alpha / kDeg, 180.0);
  if (bearing_deg < 0.0) bearing_deg += 180.0;

  // The same confidence multiplier as the disk, so "ellipse vs disk" is an
  // apples-to-apples comparison of shapes at one coverage level.
  out.semi_major =
      Kilometers{std::min(axis_factor * std::sqrt(lam_max), radius_cap)};
  out.semi_minor = Kilometers{
      std::min(axis_factor * std::sqrt(lam_min), out.semi_major.value)};
  out.orientation_deg = bearing_deg;
  out.valid = true;
  return out;
}

}  // namespace

double ErrorEllipse::area_km2() const {
  return std::numbers::pi * semi_major.value * semi_minor.value;
}

GeoPoint Multilaterator::solve_robust(std::span<const VantageRange> ranges,
                                      const std::vector<std::size_t>& active,
                                      std::size_t min_inliers) const {
  // Least-quantile-of-squares at the majority floor: the position
  // minimising the min_inliers-th smallest squared residual — i.e. the
  // best position that explains a 2f+1-of-3f+1 majority. A lying minority
  // cannot drag this fit (their residuals sit above the quantile), so the
  // trim loop sees them stand out. Unlike the plain median, the majority
  // quantile cannot be gamed by a fit that "explains" only the nearest
  // half of the fleet, as a uniformly-inflated (relayed) set invites.
  const std::size_t quantile =
      std::min(active.size() - 1,
               std::max(active.size() / 2,
                        min_inliers > 0 ? min_inliers - 1 : 0));
  // (squared residual, vantage); ranked, the first h are best explained.
  std::vector<std::pair<double, std::size_t>> ranked;
  ranked.reserve(active.size());
  const auto lqs_cost = [&](const GeoPoint& p) {
    ranked.clear();
    for (const std::size_t i : active) {
      const double err =
          haversine(ranges[i].vantage.pos, p).value - ranges[i].distance.value;
      ranked.emplace_back(err * err, i);
    }
    std::nth_element(ranked.begin(),
                     ranked.begin() + static_cast<std::ptrdiff_t>(quantile),
                     ranked.end());
    return ranked[quantile].first;
  };

  // The LQS surface is multi-modal: a minority of coincidentally-consistent
  // circles can carve a second near-zero basin. A coarse scan of the
  // coverage box keeps the kBeam best cells as candidate basins.
  constexpr std::ptrdiff_t kBeam = 5;
  const BoundingBox box = coverage_box(ranges, active);
  const double dlat = (box.lat_max - box.lat_min) / options_.grid;
  const double dlon = (box.lon_max - box.lon_min) / options_.grid;
  struct Cell {
    double cost;
    GeoPoint point;
    bool operator<(const Cell& o) const { return cost < o.cost; }
  };
  std::vector<Cell> cells;
  cells.reserve((options_.grid + 1) * (options_.grid + 1));
  for (unsigned gy = 0; gy <= options_.grid; ++gy) {
    for (unsigned gx = 0; gx <= options_.grid; ++gx) {
      const GeoPoint p{box.lat_min + gy * dlat, box.lon_min + gx * dlon};
      cells.push_back({lqs_cost(p), p});
    }
  }
  std::partial_sort(cells.begin(), cells.begin() + kBeam, cells.end());
  cells.resize(kBeam);

  // From each cell, concentration steps descend to a local trimmed-LS
  // optimum: fit the h best-explained vantages, re-rank, repeat until the
  // subset is stable. The true basin's lower LQS floor wins.
  const std::vector<double> unit_weights(quantile + 1, 1.0);
  Cell best{std::numeric_limits<double>::infinity(), {}};
  for (const Cell& cell : cells) {
    GeoPoint p = cell.point;
    std::vector<std::size_t> subset;
    for (unsigned step = 0; step < 32; ++step) {
      lqs_cost(p);
      std::vector<std::size_t> next(quantile + 1);
      for (std::size_t k = 0; k <= quantile; ++k) next[k] = ranked[k].second;
      std::sort(next.begin(), next.end());
      if (next == subset) break;
      subset = std::move(next);
      p = gauss_newton(ranges, subset, unit_weights, p, box);
    }
    best = std::min(best, Cell{lqs_cost(p), p});
  }
  return best.point;
}

GeoPoint Multilaterator::solve_refine(std::span<const VantageRange> ranges,
                                      const std::vector<std::size_t>& active,
                                      const GeoPoint& seed) const {
  // Weighted least squares over the (post-trim) inlier set — the
  // statistically efficient refit once the Byzantine vantages are out.
  // Weights are floored at the active set's median sigma: a vantage that
  // *claims* near-zero uncertainty (the obvious play for dominating a
  // weighted fit) gets no more say than the majority's typical confidence.
  // The robust optimum already sits in the inliers' basin.
  return gauss_newton(ranges, active, refit_weights(ranges, active), seed,
                      coverage_box(ranges, active));
}

PositionEstimate Multilaterator::estimate(
    std::span<const VantageRange> ranges) const {
  if (ranges.size() < 3) {
    throw InvalidArgument("Multilaterator: need >= 3 vantage ranges");
  }
  const std::size_t n = ranges.size();
  const std::size_t min_inliers = static_cast<std::size_t>(
      std::ceil(options_.min_inlier_fraction * static_cast<double>(n)));

  std::vector<std::size_t> active(n);
  for (std::size_t i = 0; i < n; ++i) active[i] = i;
  std::vector<std::size_t> trimmed;

  // Trim loop against the robust (least-quantile-of-squares) fit: compute
  // residuals, eject the vantages whose residual stands out against the
  // majority's scale, re-solve; stop at consistency or the majority floor.
  std::vector<double> residuals;  // parallel to active
  const auto compute_residuals = [&](const GeoPoint& position) {
    residuals.clear();
    for (const std::size_t i : active) {
      residuals.push_back(std::abs(
          haversine(ranges[i].vantage.pos, position).value -
          ranges[i].distance.value));
    }
  };
  const auto threshold = [&](std::size_t k, double scale) {
    return std::max({options_.min_trim.value, options_.trim_factor * scale,
                     options_.sigma_factor * ranges[active[k]].sigma.value});
  };
  GeoPoint robust{};
  for (;;) {
    robust = solve_robust(ranges, active, min_inliers);
    compute_residuals(robust);
    const std::size_t floor = std::max<std::size_t>(min_inliers, 3);
    if (active.size() <= floor) break;

    // Batch-trim every vantage whose residual stands out against the
    // majority's robust scale (worst first, bounded by the majority
    // floor), then re-solve. The robust fit is what makes batching safe:
    // it is already pinned to the consistent majority, so all the
    // suspects' residuals are measured against the same honest geometry —
    // and one robust solve per *round* instead of per ejection keeps
    // 200-vantage fleets with dozens of liars tractable.
    const double scale = median(residuals);
    std::vector<std::pair<double, std::size_t>> suspects;  // (excess, pos)
    for (std::size_t k = 0; k < active.size(); ++k) {
      const double excess = residuals[k] - threshold(k, scale);
      if (excess > 0.0) suspects.emplace_back(excess, k);
    }
    if (suspects.empty()) break;  // everyone consistent
    std::sort(suspects.begin(), suspects.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    suspects.resize(std::min(suspects.size(), active.size() - floor));
    // Erase back-to-front so the remaining positions stay valid.
    std::sort(suspects.begin(), suspects.end(),
              [](const auto& a, const auto& b) { return a.second > b.second; });
    for (const auto& [excess, pos] : suspects) {
      trimmed.push_back(active[pos]);
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }

  // Final position: the efficient weighted refit on the surviving inliers,
  // seeded from the last robust fit (which ran on exactly this set).
  GeoPoint position = solve_refine(ranges, active, robust);
  // The solve runs in unwrapped longitude space (see coverage_box);
  // bring the answer back to [-180, 180).
  position.lon_deg = std::remainder(position.lon_deg, 360.0);
  if (position.lon_deg == 180.0) position.lon_deg = -180.0;
  compute_residuals(position);

  PositionEstimate out;
  out.position = position;
  out.inliers = active;
  std::sort(trimmed.begin(), trimmed.end());
  out.outliers = std::move(trimmed);

  double sum_abs = 0.0, max_res = 0.0, max_sigma = 0.0;
  for (std::size_t k = 0; k < active.size(); ++k) {
    sum_abs += residuals[k];
    max_res = std::max(max_res, residuals[k]);
    max_sigma = std::max(max_sigma, ranges[active[k]].sigma.value);
  }
  out.mean_abs_residual_km =
      Kilometers{sum_abs / static_cast<double>(active.size())};
  out.max_inlier_residual_km = Kilometers{max_res};
  out.radius_km = Kilometers{std::max(
      options_.min_radius.value,
      options_.radius_factor * std::max(max_res, max_sigma))};
  out.ellipse = refit_ellipse(ranges, active, position, options_.radius_factor,
                              out.radius_km.value);

  // Converged = a majority-consistent inlier set whose residuals are all
  // within their own trim thresholds (no suspect left standing because the
  // majority floor stopped the trimming).
  const double scale = median(residuals);
  bool all_within = true;
  for (std::size_t k = 0; k < active.size(); ++k) {
    all_within = all_within && residuals[k] <= threshold(k, scale);
  }
  out.converged = active.size() >= min_inliers && all_within;
  return out;
}

}  // namespace geoproof::locate
