#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <thread>

namespace perfbench {

double WallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

void Hasher::Add(const void* data, size_t bytes) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < bytes; ++i) {
    state_ ^= p[i];
    state_ *= 1099511628211ULL;
  }
}

uint64_t ResultFingerprint(
    const cluster::ClusteringResult& clustering,
    const std::vector<traj::Trajectory>& representatives) {
  Hasher h;
  h.AddPod(clustering.labels.size());
  for (const int label : clustering.labels) h.AddPod(label);
  char buf[64];
  for (const auto& rep : representatives) {
    h.AddText("rep");
    for (const auto& p : rep.points()) {
      for (int d = 0; d < p.dims(); ++d) {
        const int len = std::snprintf(buf, sizeof(buf), " %.17g", p[d]);
        h.Add(buf, static_cast<size_t>(len));
      }
    }
  }
  return h.value();
}

uint64_t AssignFingerprint(const core::TrajectoryAssignment& a) {
  Hasher h;
  h.AddPod(a.cluster);
  h.AddPod(a.segment_labels.size());
  for (const int label : a.segment_labels) h.AddPod(label);
  for (const double d : a.segment_distances) h.AddPod(d);
  return h.value();
}

uint64_t NeighborListsFingerprint(
    const std::vector<std::vector<size_t>>& lists) {
  Hasher h;
  for (const auto& list : lists) {
    h.AddPod(list.size());
    h.Add(list.data(), list.size() * sizeof(size_t));
  }
  return h.value();
}

std::string GoldenText(const core::TraclusResult& r) {
  std::string out;
  char buf[160];
  auto put = [&](const char* fmt, auto... args) {
    const int len = std::snprintf(buf, sizeof(buf), fmt, args...);
    out.append(buf, static_cast<size_t>(len));
  };
  put("segments %zu\n", r.clustering.labels.size());
  for (const auto& s : r.segments()) {
    put("seg %lld %lld %.17g %.17g %.17g %.17g\n",
        static_cast<long long>(s.id()),
        static_cast<long long>(s.trajectory_id()), s.start().x(),
        s.start().y(), s.end().x(), s.end().y());
  }
  for (size_t t = 0; t < r.characteristic_points.size(); ++t) {
    put("cps %zu", t);
    for (const size_t cp : r.characteristic_points[t]) put(" %zu", cp);
    out += "\n";
  }
  out += "labels";
  for (const int label : r.clustering.labels) put(" %d", label);
  out += "\n";
  put("clusters %zu\n", r.clustering.clusters.size());
  put("noise %zu\n", r.clustering.num_noise);
  for (const auto& c : r.clustering.clusters) {
    put("cluster %d", c.id);
    for (const size_t m : c.member_indices) put(" %zu", m);
    out += "\n";
  }
  for (size_t i = 0; i < r.representatives.size(); ++i) {
    put("rep %zu", i);
    for (const auto& p : r.representatives[i].points()) {
      put(" %.17g %.17g", p.x(), p.y());
    }
    out += "\n";
  }
  return out;
}

void MetricSet::Add(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void MetricSet::Print() const {
  for (const Metric& m : metrics_) {
    std::printf("metric %-30s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

std::string MetricSet::JsonBody() const {
  std::string out;
  char buf[64];
  for (const Metric& m : metrics_) {
    if (!out.empty()) out += ", ";
    // Non-finite values are not JSON; they never pass validation upstream.
    const double v = std::isfinite(m.value) ? m.value : -1.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += "\"" + m.name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  return out;
}

int Tracer::Begin(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = open_.empty() ? -1 : open_.back();
  s.cpu_start = CpuNow();
  s.wall_start = WallNow();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void Tracer::End(int id) {
  Span& s = spans_[static_cast<size_t>(id)];
  s.wall_end = WallNow();
  s.cpu_end = CpuNow();
  // Spans close innermost-first (RAII); tolerate out-of-order ends anyway.
  const auto it = std::find(open_.begin(), open_.end(), id);
  if (it != open_.end()) open_.erase(it);
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].wall();
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.wall();
  }
  return self;
}

double Tracer::MedianSelf(const std::string& name) const {
  const std::vector<double> self = SelfTimes();
  std::vector<double> values;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) values.push_back(self[i]);
  }
  return Median(values);
}

double Tracer::MedianCpu(const std::string& name) const {
  std::vector<double> values;
  for (const Span& s : spans_) {
    if (s.name == name) values.push_back(s.cpu());
  }
  return Median(values);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const double t0 = spans_.empty() ? 0.0 : spans_.front().wall_start;
  const std::vector<double> self = SelfTimes();
  std::fprintf(f, "{\"spans\": [\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f, \"wall_s\": %.9f, "
                 "\"cpu_s\": %.9f, \"self_s\": %.9f}%s\n",
                 i, s.name.c_str(), s.parent, s.wall_start - t0,
                 s.wall_end - t0, s.wall(), s.cpu(), self[i],
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

namespace {

// A dependent xorshift chain: pure ALU work the optimizer cannot elide.
uint64_t Spin(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

}  // namespace

Calibration Calibrate(int threads) {
  constexpr uint64_t kIterations = 40'000'000;  // About 0.1 s per copy.
  volatile uint64_t sink = 0;
  const double t0 = WallNow();
  sink = sink + Spin(kIterations, sink + 1);
  const double one = WallNow() - t0;

  std::vector<std::thread> pool;
  std::vector<uint64_t> out(static_cast<size_t>(threads));
  const double t1 = WallNow();
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&out, t] {
      out[static_cast<size_t>(t)] =
          Spin(kIterations, static_cast<uint64_t>(t) + 2);
    });
  }
  for (auto& th : pool) th.join();
  const double many = WallNow() - t1;
  for (const uint64_t v : out) sink = sink + v;
  Calibration c;
  c.spin_s = one;
  c.parallelism = many > 0.0 ? static_cast<double>(threads) * one / many : 0.0;
  return c;
}

}  // namespace perfbench
