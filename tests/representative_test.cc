// Tests for representative trajectory generation (§4.3, Fig. 13-15) and the
// average direction vector (Definition 11).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "cluster/representative.h"
#include "common/rng.h"
#include "geom/vector_ops.h"

namespace traclus::cluster {
namespace {

using geom::Point;
using geom::Segment;

// Builds a cluster over all of `segs`.
Cluster AllOf(const std::vector<Segment>& segs) {
  Cluster c;
  c.id = 0;
  for (size_t i = 0; i < segs.size(); ++i) c.member_indices.push_back(i);
  return c;
}

RepresentativeOptions Options(double min_lns, double gamma = 0.0,
                              RepresentativeMethod method =
                                  RepresentativeMethod::kProjection) {
  RepresentativeOptions opt;
  opt.min_lns = min_lns;
  opt.gamma = gamma;
  opt.method = method;
  return opt;
}

TEST(AverageDirectionVectorTest, ParallelSegmentsAverageToSharedDirection) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(0, 1), Point(10, 1)),
      Segment(Point(0, 2), Point(10, 2)),
  };
  const Point v = AverageDirectionVector(segs, AllOf(segs));
  EXPECT_DOUBLE_EQ(v.x(), 10.0);
  EXPECT_DOUBLE_EQ(v.y(), 0.0);
}

TEST(AverageDirectionVectorTest, LongerSegmentsContributeMore) {
  // Definition 11 sums full vectors, not unit vectors.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(100, 0)),  // Long, east.
      Segment(Point(0, 0), Point(0, 1)),    // Short, north.
  };
  const Point v = AverageDirectionVector(segs, AllOf(segs));
  EXPECT_GT(v.x(), 10 * v.y());
}

TEST(AverageDirectionVectorTest, OpposingSegmentsFallBackToLongest) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(10, 1), Point(0, 1)),  // Exactly opposite.
  };
  const Point v = AverageDirectionVector(segs, AllOf(segs));
  EXPECT_GT(v.Norm(), 0.0);  // Fallback produced a usable axis.
}

TEST(RepresentativeTest, ParallelBundleYieldsCenterline) {
  // Three identical-span parallel segments at y = 0, 1, 2: the representative
  // must run along y = 1 across the full span.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(0, 1), Point(10, 1)),
      Segment(Point(0, 2), Point(10, 2)),
  };
  const auto rep = RepresentativeTrajectory(segs, AllOf(segs), Options(3));
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    EXPECT_NEAR(p.y(), 1.0, 1e-9);
  }
  EXPECT_NEAR(rep.points().front().x(), 0.0, 1e-9);
  EXPECT_NEAR(rep.points().back().x(), 10.0, 1e-9);
}

TEST(RepresentativeTest, SweepSkipsPositionsBelowMinLns) {
  // Staggered spans: only [4, 6] is covered by all three segments.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(6, 0)),
      Segment(Point(4, 1), Point(10, 1)),
      Segment(Point(4, 2), Point(6, 2)),
  };
  const auto rep = RepresentativeTrajectory(segs, AllOf(segs), Options(3));
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    EXPECT_GE(p.x(), 4.0 - 1e-9);
    EXPECT_LE(p.x(), 6.0 + 1e-9);
  }
}

TEST(RepresentativeTest, EmptyWhenNoPositionReachesMinLns) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(4, 0)),
      Segment(Point(6, 1), Point(10, 1)),  // Disjoint spans.
  };
  const auto rep = RepresentativeTrajectory(segs, AllOf(segs), Options(2));
  EXPECT_TRUE(rep.empty());
}

TEST(RepresentativeTest, GammaSmoothingThinsPoints) {
  std::vector<Segment> segs;
  // Twelve parallel segments with slightly staggered spans → many sweep stops.
  for (int i = 0; i < 12; ++i) {
    segs.emplace_back(Point(0.1 * i, 0.1 * i), Point(10 + 0.1 * i, 0.1 * i));
  }
  const auto dense =
      RepresentativeTrajectory(segs, AllOf(segs), Options(3, 0.0));
  const auto sparse =
      RepresentativeTrajectory(segs, AllOf(segs), Options(3, 2.0));
  EXPECT_GT(dense.size(), sparse.size());
  ASSERT_GE(sparse.size(), 2u);
  // Consecutive sweep gaps must respect γ.
  for (size_t i = 1; i < sparse.size(); ++i) {
    EXPECT_GE(geom::Distance(sparse[i - 1], sparse[i]), 2.0 - 1e-6);
  }
}

TEST(RepresentativeTest, RotationAndProjectionMethodsAgreeIn2D) {
  common::Rng rng(42);
  for (int trial = 0; trial < 20; ++trial) {
    // A coherent bundle at a random orientation.
    const double angle = rng.Uniform(0, 2 * M_PI);
    const Point dir(std::cos(angle), std::sin(angle));
    const Point normal(-dir.y(), dir.x());
    std::vector<Segment> segs;
    for (int i = 0; i < 6; ++i) {
      const Point base = normal * (0.5 * i) + dir * rng.Uniform(-1.0, 0.0);
      segs.emplace_back(base, base + dir * rng.Uniform(8.0, 12.0));
    }
    const auto c = AllOf(segs);
    const auto rot = RepresentativeTrajectory(
        segs, c, Options(3, 0.0, RepresentativeMethod::kRotation2D));
    const auto proj = RepresentativeTrajectory(
        segs, c, Options(3, 0.0, RepresentativeMethod::kProjection));
    ASSERT_EQ(rot.size(), proj.size());
    for (size_t i = 0; i < rot.size(); ++i) {
      EXPECT_NEAR(rot[i].x(), proj[i].x(), 1e-9);
      EXPECT_NEAR(rot[i].y(), proj[i].y(), 1e-9);
    }
  }
}

TEST(RepresentativeTest, RepresentativeFollowsCurvedClusterTrend) {
  // Segments along a gentle arc: representative points should stay within the
  // band the member segments occupy.
  std::vector<Segment> segs;
  common::Rng rng(7);
  for (int i = 0; i < 10; ++i) {
    const double x0 = i * 2.0;
    const double y0 = 0.05 * x0 * x0 + rng.Uniform(-0.3, 0.3);
    const double x1 = x0 + 4.0;
    const double y1 = 0.05 * x1 * x1 + rng.Uniform(-0.3, 0.3);
    segs.emplace_back(Point(x0, y0), Point(x1, y1));
  }
  const auto rep = RepresentativeTrajectory(segs, AllOf(segs), Options(3));
  ASSERT_GE(rep.size(), 2u);
  for (const auto& p : rep.points()) {
    const double expected = 0.05 * p.x() * p.x();
    EXPECT_NEAR(p.y(), expected, 3.0);
  }
}

TEST(RepresentativeTest, WeightedSweepCountsUseWeights) {
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0), 0, 0, /*weight=*/3.0),
      Segment(Point(0, 1), Point(10, 1), 1, 1, /*weight=*/3.0),
  };
  RepresentativeOptions opt = Options(5);  // Count 2 < 5, weight 6 ≥ 5.
  const auto unweighted = RepresentativeTrajectory(segs, AllOf(segs), opt);
  EXPECT_TRUE(unweighted.empty());
  opt.use_weights = true;
  const auto weighted = RepresentativeTrajectory(segs, AllOf(segs), opt);
  EXPECT_GE(weighted.size(), 2u);
}

TEST(RepresentativeTest, SingleMemberClusterBehaves) {
  std::vector<Segment> segs = {Segment(Point(0, 0), Point(10, 5))};
  const auto rep = RepresentativeTrajectory(segs, AllOf(segs), Options(1));
  ASSERT_EQ(rep.size(), 2u);
  EXPECT_NEAR(rep[0].x(), 0.0, 1e-9);
  EXPECT_NEAR(rep[1].y(), 5.0, 1e-9);
}

TEST(RepresentativeTest, ReversedMembersStillProduceForwardSweep) {
  // Mixed orientations within a coherent flow (a few reversed segments) must
  // not break the sweep; the average direction still dominates.
  std::vector<Segment> segs = {
      Segment(Point(0, 0), Point(10, 0)),
      Segment(Point(0, 1), Point(10, 1)),
      Segment(Point(0, 2), Point(10, 2)),
      Segment(Point(10, 3), Point(0, 3)),  // Reversed.
  };
  const auto rep = RepresentativeTrajectory(segs, AllOf(segs), Options(3));
  ASSERT_GE(rep.size(), 2u);
  EXPECT_LT(rep.points().front().x(), rep.points().back().x());
}

// ---------------------------------------------------------------------------
// Randomized bitwise oracle: the quadratic Fig. 15 sweep the event sweep
// replaced, kept verbatim. At every sweep stop it rescans all members twice,
// once for the mass and once for the residual sum, both in member order.
// ---------------------------------------------------------------------------

struct OracleFrameSegment {
  double t_lo;
  double t_hi;
  Point r_lo;
  Point r_hi;
  double weight = 1.0;

  Point ResidualAt(double t) const {
    if (t_hi == t_lo) return r_lo;
    const double u = (t - t_lo) / (t_hi - t_lo);
    return r_lo + (r_hi - r_lo) * u;
  }
};

void OracleDecompose(const Point& p, const Point& unit_axis, double* t,
                     Point* residual) {
  *t = geom::Dot(p, unit_axis);
  *residual = p - unit_axis * (*t);
}

traj::Trajectory OracleSweep(const std::vector<Segment>& segments,
                             const Cluster& cluster,
                             const RepresentativeOptions& options) {
  traj::Trajectory rep(/*id=*/cluster.id, /*label=*/"representative");
  if (cluster.member_indices.empty()) return rep;
  Point axis = AverageDirectionVector(segments, cluster);

  const int dims = segments[cluster.member_indices.front()].dims();
  axis = axis / axis.Norm();
  double cos_phi = 1.0;
  double sin_phi = 0.0;
  if (options.method == RepresentativeMethod::kRotation2D) {
    cos_phi = axis.x();
    sin_phi = axis.y();
  }

  std::vector<OracleFrameSegment> frame;
  std::vector<double> sweep_values;
  for (const size_t idx : cluster.member_indices) {
    const Segment& s = segments[idx];
    OracleFrameSegment fs;
    fs.weight = s.weight();
    double t_s = 0.0;
    double t_e = 0.0;
    Point r_s, r_e;
    if (options.method == RepresentativeMethod::kRotation2D) {
      t_s = cos_phi * s.start().x() + sin_phi * s.start().y();
      t_e = cos_phi * s.end().x() + sin_phi * s.end().y();
      r_s = Point(0.0, -sin_phi * s.start().x() + cos_phi * s.start().y());
      r_e = Point(0.0, -sin_phi * s.end().x() + cos_phi * s.end().y());
    } else {
      OracleDecompose(s.start(), axis, &t_s, &r_s);
      OracleDecompose(s.end(), axis, &t_e, &r_e);
    }
    if (t_s <= t_e) {
      fs.t_lo = t_s;
      fs.t_hi = t_e;
      fs.r_lo = r_s;
      fs.r_hi = r_e;
    } else {
      fs.t_lo = t_e;
      fs.t_hi = t_s;
      fs.r_lo = r_e;
      fs.r_hi = r_s;
    }
    frame.push_back(fs);
    sweep_values.push_back(t_s);
    sweep_values.push_back(t_e);
  }
  std::sort(sweep_values.begin(), sweep_values.end());
  sweep_values.erase(std::unique(sweep_values.begin(), sweep_values.end()),
                     sweep_values.end());

  bool have_prev = false;
  double prev_t = 0.0;
  for (const double t : sweep_values) {
    double mass = 0.0;
    size_t hits = 0;
    for (const auto& fs : frame) {
      if (fs.t_lo <= t && t <= fs.t_hi) {
        mass += options.use_weights ? fs.weight : 1.0;
        ++hits;
      }
    }
    if (mass < options.min_lns) continue;
    if (have_prev && (t - prev_t) < options.gamma) continue;
    Point r_sum = dims == 3 ? Point(0, 0, 0) : Point(0, 0);
    for (const auto& fs : frame) {
      if (fs.t_lo <= t && t <= fs.t_hi) r_sum = r_sum + fs.ResidualAt(t);
    }
    const Point r_avg = r_sum / static_cast<double>(hits);
    Point world;
    if (options.method == RepresentativeMethod::kRotation2D) {
      const double yp = r_avg.y();
      world = Point(cos_phi * t - sin_phi * yp, sin_phi * t + cos_phi * yp);
    } else {
      world = axis * t + r_avg;
    }
    rep.Add(world);
    have_prev = true;
    prev_t = t;
  }
  return rep;
}

// Fails with the first differing bit pattern, if any.
void ExpectBitwiseEqual(const traj::Trajectory& want,
                        const traj::Trajectory& got) {
  EXPECT_EQ(got.id(), want.id());
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].dims(), want[i].dims()) << "point " << i;
    for (int c = 0; c < want[i].dims(); ++c) {
      const double a = want[i][c];
      const double b = got[i][c];
      ASSERT_EQ(std::memcmp(&a, &b, sizeof a), 0)
          << "point " << i << " coord " << c << ": want " << a << ", got "
          << b;
    }
  }
}

// A segment pool and a cluster over some of it.
struct OracleCase {
  std::vector<Segment> segments;
  Cluster cluster;
};

// A random flow of segments drifting along +x, plus a cluster over a shuffled
// subset of them. Coordinates sit on a quarter grid; a third of the segments
// start where the previous one ended, a few repeat an earlier segment, a few
// are reversed and a few are points, so endpoints and stops coincide and
// zero-span members occur.
OracleCase RandomFlow(uint64_t seed, size_t members, int dims) {
  common::Rng rng(seed);
  auto grid = [&rng](double lo, double hi) {
    return std::floor(rng.Uniform(lo, hi) * 4.0) * 0.25;
  };
  auto point = [&](double x, double y, double z) {
    return dims == 3 ? Point(x, y, z) : Point(x, y);
  };
  OracleCase c;
  const size_t pool = members + members / 3 + 1;
  for (size_t i = 0; i < pool; ++i) {
    if (i > 0 && rng.Bernoulli(0.05)) {
      c.segments.push_back(
          c.segments[static_cast<size_t>(rng.UniformInt(0, i - 1))]);
      continue;
    }
    const Point start = i > 0 && rng.Bernoulli(0.33)
                            ? c.segments.back().end()
                            : point(grid(0, 100), grid(0, 20), grid(0, 5));
    Point end = point(start.x() + grid(0.25, 8), start.y() + grid(-2, 2),
                      dims == 3 ? start.z() + grid(-1, 1) : 0.0);
    if (rng.Bernoulli(0.04)) end = start;
    Segment s(start, end, static_cast<geom::SegmentId>(i), 0,
              0.25 * static_cast<double>(rng.UniformInt(1, 8)));
    if (rng.Bernoulli(0.15)) s = s.Reversed();
    c.segments.push_back(s);
  }
  std::vector<size_t> order(pool);
  std::iota(order.begin(), order.end(), size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  c.cluster.id = static_cast<int>(seed % 7);
  c.cluster.member_indices.assign(order.begin(), order.begin() + members);
  return c;
}

// Integer-grid horizontal segments plus up/down pairs perpendicular to them:
// the pairs cancel, so the axis lies exactly along +x and every
// perpendicular member has a zero span (t_lo == t_hi) at a stop it shares
// with others. The cluster holds all of them, shuffled.
OracleCase AxisAlignedFlow(uint64_t seed, size_t members, int dims) {
  common::Rng rng(seed);
  auto point = [dims](double x, double y) {
    return dims == 3 ? Point(x, y, 1.0) : Point(x, y);
  };
  OracleCase c;
  for (size_t i = 0; c.segments.size() < members; ++i) {
    const auto x = static_cast<double>(rng.UniformInt(0, 40));
    const auto y = static_cast<double>(rng.UniformInt(0, 10));
    if (i % 4 == 3) {
      const auto len = static_cast<double>(rng.UniformInt(1, 3));
      c.segments.emplace_back(point(x, y), point(x, y + len));
      c.segments.emplace_back(point(x, y + len), point(x, y));
    } else {
      const auto len = static_cast<double>(rng.UniformInt(1, 6));
      c.segments.emplace_back(point(x, y), point(x + len, y));
    }
  }
  std::vector<size_t> order(c.segments.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::shuffle(order.begin(), order.end(), rng.engine());
  c.cluster.id = 3;
  c.cluster.member_indices = order;
  return c;
}

// Compares both overloads at every thread count against the oracle for one
// option set.
void CheckAgainstOracle(const OracleCase& c, const traj::SegmentStore& store,
                        RepresentativeOptions options) {
  const traj::Trajectory want = OracleSweep(c.segments, c.cluster, options);
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(testing::Message() << "threads=" << threads);
    options.num_threads = threads;
    ExpectBitwiseEqual(
        want, RepresentativeTrajectory(c.segments, c.cluster, options));
    ExpectBitwiseEqual(want,
                       RepresentativeTrajectory(store, c.cluster, options));
  }
}

// Every method, weighting, γ and MinLns combination; `full` adds a MinLns
// above every hit count.
void CheckOptionMatrix(const OracleCase& c, int dims, bool full) {
  const traj::SegmentStore store(c.segments);
  std::vector<RepresentativeMethod> methods = {
      RepresentativeMethod::kProjection};
  if (dims == 2) methods.push_back(RepresentativeMethod::kRotation2D);
  std::vector<double> min_lns_values = {0.0, 3.0};
  if (full) min_lns_values.push_back(1e9);  // Above every hit count.
  for (const RepresentativeMethod method : methods) {
    for (const bool weighted : {false, true}) {
      for (const double gamma : {0.0, 0.6}) {
        for (const double min_lns : min_lns_values) {
          SCOPED_TRACE(testing::Message()
                       << "method=" << static_cast<int>(method)
                       << " weighted=" << weighted << " gamma=" << gamma
                       << " min_lns=" << min_lns);
          RepresentativeOptions o;
          o.method = method;
          o.use_weights = weighted;
          o.gamma = gamma;
          o.min_lns = min_lns;
          CheckAgainstOracle(c, store, o);
        }
      }
    }
  }
}

TEST(RepresentativeOracleTest, RandomFlowsMatchQuadraticSweepBitForBit) {
  uint64_t seed = 1;
  for (const int dims : {2, 3}) {
    for (const size_t members : {size_t{1}, size_t{2}, size_t{3}, size_t{17},
                                 size_t{160}}) {
      for (int rep = 0; rep < 2; ++rep, ++seed) {
        SCOPED_TRACE(testing::Message() << "dims=" << dims << " members="
                                        << members << " seed=" << seed);
        CheckOptionMatrix(RandomFlow(seed, members, dims), dims,
                          /*full=*/true);
      }
    }
  }
}

TEST(RepresentativeOracleTest, ZeroSpanMembersAndSharedStopsMatchOracle) {
  for (const int dims : {2, 3}) {
    for (const size_t members : {size_t{8}, size_t{90}}) {
      SCOPED_TRACE(testing::Message()
                   << "dims=" << dims << " members=" << members);
      CheckOptionMatrix(AxisAlignedFlow(40 + members, members, dims), dims,
                        /*full=*/true);
    }
  }
}

TEST(RepresentativeOracleTest, SplitSweepsMatchOracleAtEveryThreadCount) {
  // Clusters on both sides of the split threshold: MinLns 0 and γ 0 emit
  // every stop, so the large cluster's stops exceed kSweepSplitMinStops.
  for (const int dims : {2, 3}) {
    const OracleCase small = RandomFlow(90 + dims, 450, dims);
    const OracleCase large = RandomFlow(95 + dims, 1400, dims);
    RepresentativeOptions all;
    all.min_lns = 0.0;
    EXPECT_LT(OracleSweep(small.segments, small.cluster, all).size(),
              kSweepSplitMinStops);
    EXPECT_GE(OracleSweep(large.segments, large.cluster, all).size(),
              kSweepSplitMinStops);
    SCOPED_TRACE(testing::Message() << "dims=" << dims);
    CheckOptionMatrix(small, dims, /*full=*/false);
    CheckOptionMatrix(large, dims, /*full=*/false);
  }
}

}  // namespace
}  // namespace traclus::cluster
