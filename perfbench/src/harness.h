#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// Measurement utilities shared by the benchmark's untimed set-up, its timed
// end-to-end loops, and its traced mode: clocks, order statistics, output
// fingerprints, a named-metric sink, and an in-memory span tracer.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "core/snapshot.h"
#include "traj/trajectory.h"

namespace perfbench {

namespace cluster = traclus::cluster;
namespace common = traclus::common;
namespace core = traclus::core;
namespace traj = traclus::traj;

/// Monotonic wall clock, seconds.
double WallNow();
/// CPU time consumed by the whole process (all threads), seconds.
double CpuNow();
/// Peak resident set of the process so far (getrusage), MiB.
double PeakRssMb();

/// Median (mean of the middle pair for even sizes). Empty input → 0.
double Median(std::vector<double> values);
/// Nearest-rank quantile, q in [0, 1]. Empty input → 0.
double Quantile(std::vector<double> values, double q);

/// FNV-1a 64-bit accumulator.
class Hasher {
 public:
  void Add(const void* data, size_t bytes);
  void AddText(const std::string& text) { Add(text.data(), text.size()); }
  template <typename T>
  void AddPod(const T& value) {
    Add(&value, sizeof(value));
  }
  uint64_t value() const { return state_; }

 private:
  uint64_t state_ = 1469598103934665603ULL;
};

/// Fingerprint of one clustering run's observable output: every segment
/// label plus every representative point printed at %.17g (which round-trips
/// IEEE doubles exactly).
uint64_t ResultFingerprint(
    const cluster::ClusteringResult& clustering,
    const std::vector<traj::Trajectory>& representatives);
/// Fingerprint of one trajectory assignment (labels, distances, vote).
uint64_t AssignFingerprint(const core::TrajectoryAssignment& a);
/// Fingerprint of a list of ε-neighborhoods.
uint64_t NeighborListsFingerprint(
    const std::vector<std::vector<size_t>>& lists);

/// Renders a run in the byte format of the repository's golden files
/// (tests/golden/*.golden).
std::string GoldenText(const core::TraclusResult& result);

/// Named metric with unit, as printed and as emitted in the result JSON.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Metrics in the order they were added.
class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Human-readable `metric <name> <value> <unit>` lines on stdout.
  void Print() const;
  /// `"name": {"value": v, "unit": "u"}, ...` for the result line.
  std::string JsonBody() const;

 private:
  std::vector<Metric> metrics_;
};

/// One traced interval: wall and process-CPU bounds plus the enclosing span.
struct Span {
  std::string name;
  int parent = -1;
  double wall_start = 0.0;
  double wall_end = 0.0;
  double cpu_start = 0.0;
  double cpu_end = 0.0;

  double wall() const { return wall_end - wall_start; }
  double cpu() const { return cpu_end - cpu_start; }
};

/// In-memory span recorder. Spans nest by call order (the innermost open
/// span is the parent of the next one begun); nothing is written until
/// Write() at the end of the run, so recording costs two clock reads.
class Tracer {
 public:
  int Begin(const std::string& name);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }
  /// Per span: its wall time minus the wall time its direct children cover.
  std::vector<double> SelfTimes() const;
  /// Median self time of every span called `name` (0 when there is none).
  double MedianSelf(const std::string& name) const;
  /// Median process-CPU time of every span called `name`.
  double MedianCpu(const std::string& name) const;

  /// Writes every span as one JSON document (times relative to the first
  /// span), including its self time.
  bool Write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name)
      : tracer_(tracer), id_(tracer.Begin(name)) {}
  ~ScopedSpan() { tracer_.End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

/// A fixed integer spin timed on one thread and then as `threads` concurrent
/// copies.
struct Calibration {
  /// Wall time of the one-thread spin: how fast one core runs right now.
  double spin_s = 0.0;
  /// threads · t1 / t_threads: ≈ threads on an idle machine, ≈ 1 when the
  /// container has been squeezed onto one core.
  double parallelism = 0.0;
};
Calibration Calibrate(int threads);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
