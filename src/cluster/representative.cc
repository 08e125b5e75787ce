#include "cluster/representative.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>

#include "common/thread_pool.h"
#include "geom/vector_ops.h"

namespace traclus::cluster {

geom::Point AverageDirectionVector(const std::vector<geom::Segment>& segments,
                                   const Cluster& cluster) {
  TRACLUS_CHECK(!cluster.member_indices.empty());
  const int dims = segments[cluster.member_indices.front()].dims();
  geom::Point sum = dims == 3 ? geom::Point(0, 0, 0) : geom::Point(0, 0);
  for (const size_t idx : cluster.member_indices) {
    sum = sum + segments[idx].Direction();
  }
  geom::Point avg = sum / static_cast<double>(cluster.member_indices.size());

  if (avg.Norm() < 1e-12) {
    // Members cancel out (e.g. perfectly opposing directions). Fall back to the
    // longest member's direction so downstream rotation is still well defined.
    double best_len = -1.0;
    for (const size_t idx : cluster.member_indices) {
      if (segments[idx].Length() > best_len) {
        best_len = segments[idx].Length();
        avg = segments[idx].Direction();
      }
    }
  }
  return avg;
}

geom::Point AverageDirectionVector(const traj::SegmentStore& store,
                                   const Cluster& cluster) {
  TRACLUS_CHECK(!cluster.member_indices.empty());
  const int dims = store.dims();
  geom::Point sum = dims == 3 ? geom::Point(0, 0, 0) : geom::Point(0, 0);
  for (const size_t idx : cluster.member_indices) {
    sum = sum + store.direction(idx);
  }
  geom::Point avg = sum / static_cast<double>(cluster.member_indices.size());

  if (avg.Norm() < 1e-12) {
    double best_len = -1.0;
    for (const size_t idx : cluster.member_indices) {
      if (store.length(idx) > best_len) {
        best_len = store.length(idx);
        avg = store.direction(idx);
      }
    }
  }
  return avg;
}

namespace {

// One member endpoint on the sweep axis. `code` is 2·(member position) plus
// 1 for the member's exit end (t_hi) or 0 for its enter end (t_lo).
struct Event {
  double t;
  uint32_t code;
};

// A cluster's sweep, built once: every member in the sweep frame as columns
// indexed by member position, and the endpoint events sorted by X'-value and
// grouped into stops (one stop per distinct value).
struct SweepPlan {
  int dims = 2;
  bool rotation = false;
  geom::Point axis;  // Unit average direction.
  double cos_phi = 1.0;
  double sin_phi = 0.0;

  // Member i covers [t_lo, t_hi]; its residual at t is
  // r_lo + dr·(t − t_lo)/span, with span = t_hi − t_lo and dr = r_hi − r_lo.
  std::vector<double> t_lo;
  std::vector<double> t_hi;
  std::vector<double> span;
  std::vector<double> weight;
  std::array<std::vector<double>, geom::kMaxDims> r_lo;
  std::array<std::vector<double>, geom::kMaxDims> dr;

  // Endpoint events in ascending t; stop k's events are
  // [stop_begin[k], stop_begin[k + 1]), and hits[k] members contain it.
  std::vector<Event> events;
  std::vector<uint32_t> stop_begin;
  std::vector<uint32_t> hits;

  size_t members() const { return t_lo.size(); }
  size_t stops() const { return hits.size(); }
  double stop(size_t k) const { return events[stop_begin[k]].t; }
};

// Decomposes p into (t, residual) for a unit axis u anchored at the origin.
void Decompose(const geom::Point& p, const geom::Point& unit_axis, double* t,
               geom::Point* residual) {
  *t = geom::Dot(p, unit_axis);
  *residual = p - unit_axis * (*t);
}

// Expresses every member in the sweep frame along a precomputed
// (unnormalized) average direction vector and sorts its endpoint events.
SweepPlan PlanSweep(const std::vector<geom::Segment>& segments,
                    const Cluster& cluster,
                    const RepresentativeOptions& options, geom::Point axis) {
  SweepPlan plan;
  const size_t m = cluster.member_indices.size();
  TRACLUS_CHECK(m < (size_t{1} << 31)) << "cluster too large to sweep";
  plan.dims = segments[cluster.member_indices.front()].dims();
  plan.rotation = options.method == RepresentativeMethod::kRotation2D;
  TRACLUS_CHECK(!plan.rotation || plan.dims == 2)
      << "kRotation2D requires 2-D segments";
  // Residual columns the output reads: kRotation2D only uses y'.
  const int first_col = plan.rotation ? 1 : 0;

  plan.axis = axis / axis.Norm();
  if (plan.rotation) {
    // Formula (9): rotate by φ, the angle between the average direction vector
    // and the unit x axis, so X' is parallel to the average direction.
    plan.cos_phi = plan.axis.x();
    plan.sin_phi = plan.axis.y();
  }

  plan.t_lo.resize(m);
  plan.t_hi.resize(m);
  plan.span.resize(m);
  plan.weight.resize(m);
  for (int c = first_col; c < plan.dims; ++c) {
    plan.r_lo[c].resize(m);
    plan.dr[c].resize(m);
  }
  plan.events.reserve(2 * m);
  for (size_t i = 0; i < m; ++i) {
    const geom::Segment& s = segments[cluster.member_indices[i]];
    double t_s = 0.0;
    double t_e = 0.0;
    geom::Point r_s, r_e;
    if (plan.rotation) {
      // x' = cosφ·x + sinφ·y ; y' = −sinφ·x + cosφ·y. The residual is the 2-D
      // point (0, y'), of which only y' is kept.
      const double cos_phi = plan.cos_phi;
      const double sin_phi = plan.sin_phi;
      t_s = cos_phi * s.start().x() + sin_phi * s.start().y();
      t_e = cos_phi * s.end().x() + sin_phi * s.end().y();
      r_s = geom::Point(
          0.0, -sin_phi * s.start().x() + cos_phi * s.start().y());
      r_e = geom::Point(0.0, -sin_phi * s.end().x() + cos_phi * s.end().y());
    } else {
      Decompose(s.start(), plan.axis, &t_s, &r_s);
      Decompose(s.end(), plan.axis, &t_e, &r_e);
    }
    const bool flipped = !(t_s <= t_e);
    const geom::Point& r_lo = flipped ? r_e : r_s;
    const geom::Point& r_hi = flipped ? r_s : r_e;
    plan.t_lo[i] = flipped ? t_e : t_s;
    plan.t_hi[i] = flipped ? t_s : t_e;
    plan.span[i] = plan.t_hi[i] - plan.t_lo[i];
    plan.weight[i] = s.weight();
    for (int c = first_col; c < plan.dims; ++c) {
      plan.r_lo[c][i] = r_lo[c];
      plan.dr[c][i] = r_hi[c] - r_lo[c];
    }
    const auto code = static_cast<uint32_t>(2 * i);
    plan.events.push_back({t_s, code + (flipped ? 1u : 0u)});
    plan.events.push_back({t_e, code + (flipped ? 0u : 1u)});
  }

  // Fig. 15 lines 03-04: sort the starting and ending points by X'-value. The
  // keys go in start/end order and are compared by value alone, so equal
  // values (+0 and −0) end up where a plain sort of the values puts them,
  // and each stop keeps the first value of its run.
  std::sort(plan.events.begin(), plan.events.end(),
            [](const Event& a, const Event& b) { return a.t < b.t; });
  plan.stop_begin.reserve(plan.events.size() + 1);
  plan.hits.reserve(plan.events.size());
  uint32_t active = 0;
  for (size_t e = 0; e < plan.events.size();) {
    const double t = plan.events[e].t;
    plan.stop_begin.push_back(static_cast<uint32_t>(e));
    uint32_t exits = 0;
    for (; e < plan.events.size() && plan.events[e].t == t; ++e) {
      if ((plan.events[e].code & 1u) != 0) {
        ++exits;
      } else {
        ++active;
      }
    }
    // A member contains t iff t_lo <= t <= t_hi: it counts from its enter
    // stop through its exit stop.
    plan.hits.push_back(active);
    active -= exits;
  }
  plan.stop_begin.push_back(static_cast<uint32_t>(plan.events.size()));
  return plan;
}

// The members containing one stop, as a bitmap over member positions.
// Visiting set bits word by word walks members in cluster.member_indices
// order, the order every floating-point sum over them adds in.
class ActiveSet {
 public:
  // Seeds the set at stop k with one containment scan.
  ActiveSet(const SweepPlan& plan, size_t k)
      : plan_(plan), words_((plan.members() + 63) / 64, 0), at_(k) {
    const double t = plan.stop(k);
    for (size_t i = 0; i < plan.members(); ++i) {
      if (plan.t_lo[i] <= t && t <= plan.t_hi[i]) Flip(i);
    }
  }

  // Moves forward to stop k: members leave after their exit stop and join
  // at their enter stop.
  void AdvanceTo(size_t k) {
    for (; at_ < k; ++at_) {
      for (uint32_t e = plan_.stop_begin[at_]; e < plan_.stop_begin[at_ + 1];
           ++e) {
        const uint32_t code = plan_.events[e].code;
        if ((code & 1u) != 0) Flip(code >> 1);
      }
      for (uint32_t e = plan_.stop_begin[at_ + 1];
           e < plan_.stop_begin[at_ + 2]; ++e) {
        const uint32_t code = plan_.events[e].code;
        if ((code & 1u) == 0) Flip(code >> 1);
      }
    }
  }

  // Calls f(member position) for every active member, in ascending order.
  template <typename F>
  void ForEach(F&& f) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        f((w << 6) + static_cast<size_t>(__builtin_ctzll(bits)));
      }
    }
  }

 private:
  // Enters only ever set a clear bit and exits clear a set one.
  void Flip(size_t i) { words_[i >> 6] ^= uint64_t{1} << (i & 63); }

  const SweepPlan& plan_;
  std::vector<uint64_t> words_;
  size_t at_;
};

// Fig. 15 line 06, weighted: the weight of the members at the current stop.
double MassOf(const SweepPlan& plan, const ActiveSet& active) {
  double mass = 0.0;
  active.ForEach([&](size_t i) { mass += plan.weight[i]; });
  return mass;
}

// Σ residual at t over the active members, per column in [kFirst, kDims),
// adding in member order exactly as Σ ResidualAt(t) over member Points did.
// The column range is a template argument so the sums stay in registers.
template <int kFirst, int kDims>
std::array<double, geom::kMaxDims> SumResiduals(const SweepPlan& plan,
                                                const ActiveSet& active,
                                                double t) {
  const double* t_lo = plan.t_lo.data();
  const double* span = plan.span.data();
  const double* r_lo[kDims];
  const double* dr[kDims];
  for (int c = kFirst; c < kDims; ++c) {
    r_lo[c] = plan.r_lo[c].data();
    dr[c] = plan.dr[c].data();
  }
  double sum[kDims] = {};
  active.ForEach([&](size_t i) {
    if (span[i] == 0.0) {
      for (int c = kFirst; c < kDims; ++c) sum[c] += r_lo[c][i];
      return;
    }
    const double u = (t - t_lo[i]) / span[i];
    for (int c = kFirst; c < kDims; ++c) sum[c] += r_lo[c][i] + dr[c][i] * u;
  });
  std::array<double, geom::kMaxDims> r_sum{};
  for (int c = kFirst; c < kDims; ++c) r_sum[c] = sum[c];
  return r_sum;
}

// Fig. 15 lines 10-11: the average residual of the members at stop k,
// recomposed into world coordinates.
geom::Point PointAt(const SweepPlan& plan, const ActiveSet& active, size_t k) {
  const double t = plan.stop(k);
  std::array<double, geom::kMaxDims> r_sum;
  if (plan.rotation) {
    r_sum = SumResiduals<1, 2>(plan, active, t);
  } else if (plan.dims == 2) {
    r_sum = SumResiduals<0, 2>(plan, active, t);
  } else {
    r_sum = SumResiduals<0, 3>(plan, active, t);
  }
  const double inv_hits = 1.0 / static_cast<double>(plan.hits[k]);
  if (plan.rotation) {
    const double yp = r_sum[1] * inv_hits;
    return geom::Point(plan.cos_phi * t - plan.sin_phi * yp,
                       plan.sin_phi * t + plan.cos_phi * yp);
  }
  std::array<double, geom::kMaxDims> world{};
  for (int c = 0; c < plan.dims; ++c) {
    world[c] = plan.axis[c] * t + r_sum[c] * inv_hits;
  }
  return plan.dims == 3 ? geom::Point(world[0], world[1], world[2])
                        : geom::Point(world[0], world[1]);
}

// Runs body(lo, hi) over [0, n): as one range, or, from kSweepSplitMinStops
// on, as contiguous ranges on the shared pool. Each range writes only its
// own index-addressed slots.
void ForRanges(int num_threads, size_t n,
               const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  if (n < kSweepSplitMinStops) {
    body(0, n);
    return;
  }
  common::SharedPool(num_threads).ParallelForChunked(0, n, body);
}

// The Fig. 15 sweep over a precomputed (unnormalized) average direction
// vector; both public overloads delegate here, so their outputs are
// byte-identical by construction.
traj::Trajectory SweepWithAxis(const std::vector<geom::Segment>& segments,
                               const Cluster& cluster,
                               const RepresentativeOptions& options,
                               geom::Point axis) {
  traj::Trajectory rep(/*id=*/cluster.id, /*label=*/"representative");
  if (cluster.member_indices.empty()) return rep;
  const SweepPlan plan = PlanSweep(segments, cluster, options, axis);

  // Line 06: count (or weigh) the segments containing each stop. Weighted
  // masses do not depend on γ, so ranges over all stops compute them first.
  std::vector<double> masses;
  if (options.use_weights) {
    masses.resize(plan.stops());
    ForRanges(options.num_threads, plan.stops(), [&](size_t lo, size_t hi) {
      ActiveSet active(plan, lo);
      for (size_t k = lo; k < hi; ++k) {
        active.AdvanceTo(k);
        masses[k] = MassOf(plan, active);
      }
    });
  }

  // Lines 07-09, one serial pass: γ is measured from the last emitted stop.
  std::vector<size_t> emitted;
  for (size_t k = 0; k < plan.stops(); ++k) {
    const double mass = options.use_weights
                            ? masses[k]
                            : static_cast<double>(plan.hits[k]);
    if (mass < options.min_lns) continue;
    if (!emitted.empty() &&
        (plan.stop(k) - plan.stop(emitted.back())) < options.gamma) {
      continue;
    }
    emitted.push_back(k);
  }

  // Lines 10-11 per emitted stop, each range seeding its own active set.
  std::vector<geom::Point> points(emitted.size());
  ForRanges(options.num_threads, emitted.size(), [&](size_t lo, size_t hi) {
    ActiveSet active(plan, emitted[lo]);
    for (size_t j = lo; j < hi; ++j) {
      active.AdvanceTo(emitted[j]);
      points[j] = PointAt(plan, active, emitted[j]);
    }
  });
  for (const geom::Point& p : points) rep.Add(p);  // Line 12.
  return rep;
}

}  // namespace

traj::Trajectory RepresentativeTrajectory(
    const std::vector<geom::Segment>& segments, const Cluster& cluster,
    const RepresentativeOptions& options) {
  if (cluster.member_indices.empty()) {
    return traj::Trajectory(cluster.id, "representative");
  }
  return SweepWithAxis(segments, cluster, options,
                       AverageDirectionVector(segments, cluster));
}

traj::Trajectory RepresentativeTrajectory(
    const traj::SegmentStore& store, const Cluster& cluster,
    const RepresentativeOptions& options) {
  if (cluster.member_indices.empty()) {
    return traj::Trajectory(cluster.id, "representative");
  }
  // The axis sums the store's cached direction vectors; the sweep itself
  // reads endpoints, which only the AoS view carries.
  return SweepWithAxis(store.segments(), cluster, options,
                       AverageDirectionVector(store, cluster));
}

}  // namespace traclus::cluster
