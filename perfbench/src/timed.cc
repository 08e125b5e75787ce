// The timed mode: untraced operations, end-to-end metrics only.

#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kSetupRepetitions = 9;
// Cold runs and reruns get at least this many samples each, so their
// medians survive one outlier.
constexpr size_t kMinSamples = 3;
// After each clustering phase, the assignment loop runs for this share of
// the phase's duration (and at least kMinWindowCalls calls). Spreading the
// calls over the whole run in many windows keeps one noisy moment of a
// shared machine from setting a run's latency.
constexpr double kAssignShare = 0.1;
constexpr size_t kMinWindowCalls = 64;
// The minimum-sample rule may stretch a run on a slow machine, up to this
// multiple of --seconds (further only until every MinLns has run once).
constexpr double kMaxStretch = 2.0;

struct Samples {
  std::vector<double> cluster_s;
  std::vector<double> cpu_s;
  /// Rerun wall times, one list per rerun MinLns (in spec order).
  std::vector<std::vector<double>> rerun_s;
  /// Successful assignment latencies in call order; calls walk the held-out
  /// queries in order, so the first k * queries of them are k whole passes.
  std::vector<double> assign_us;
  size_t assign_calls = 0;
  size_t attempted = 0;
  size_t failed = 0;
};

// The CPUs this process may run on.
std::vector<int> AllowedCpus() {
  std::vector<int> cpus;
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
    }
  }
  return cpus;
}

// Reruns at different MinLns do different amounts of sweep work, so a median
// over all of them would jump between MinLns values as their sample counts
// change. The rerun time is instead the mean, over the MinLns values, of each
// value's median.
double RerunSeconds(const std::vector<std::vector<double>>& per_min_lns) {
  double sum = 0.0;
  for (const auto& times : per_min_lns) sum += Median(times);
  return sum / static_cast<double>(per_min_lns.size());
}

size_t FewestSamples(const std::vector<std::vector<double>>& per_min_lns) {
  size_t fewest = SIZE_MAX;
  for (const auto& times : per_min_lns) fewest = std::min(fewest, times.size());
  return fewest;
}

void PrintSamples(const char* name, const std::vector<double>& values) {
  std::printf("samples %s:", name);
  for (const double v : values) std::printf(" %.4g", v);
  std::printf("\n");
}

// Pins the calling thread to one CPU.
void PinTo(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

}  // namespace

int RunTimed(const Options& options, const WorkloadSpec& spec) {
  std::printf("# workload %s seed %llu threads %d seconds %g\n", spec.name,
              static_cast<unsigned long long>(options.seed), options.threads,
              options.seconds);
  const Calibration calib_before = Calibrate(options.threads);

  // Untimed reference runs at every MinLns; they also warm the thread pools
  // and the allocator before anything is timed.
  Setup setup;
  References refs;
  common::Status status = PrepareInputs(options, spec, &setup);
  if (status.ok()) status = ComputeReferences(setup, &refs);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
    return 1;
  }
  bool correct = CheckGolden(options, setup, refs.primary);
  PrintCorpusSummary(setup, refs.primary);

  // Set-up time: inputs, CSV, engines, and the snapshot build/save/load,
  // repeated; the last repetition's artifacts are the ones served.
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    Setup fresh;
    const double t0 = WallNow();
    status = PrepareInputs(options, spec, &fresh);
    if (status.ok()) status = PrepareSnapshot(refs.primary, &fresh);
    setup_s.push_back(WallNow() - t0);
    if (!status.ok()) {
      std::fprintf(stderr, "set-up: %s\n", status.ToString().c_str());
      return 1;
    }
    setup = std::move(fresh);
  }
  const auto expected_assign = ExpectedAssignments(setup);
  if (!expected_assign.ok()) {
    std::fprintf(stderr, "set-up: %s\n",
                 expected_assign.status().ToString().c_str());
    return 1;
  }

  const std::string cache_dir = options.workdir + "/nbcache";
  Samples samples;
  bool planted = options.plant_mismatch;
  // One clustering run: timed, then checked against its reference. Only a
  // run that succeeded and matched contributes a time.
  samples.rerun_s.resize(spec.rerun_min_lns.size());
  auto cluster_op = [&](double m, bool cold, size_t rerun_index) {
    ++samples.attempted;
    const double c0 = CpuNow();
    const double t0 = WallNow();
    auto run = RunOperation(setup, m, cache_dir);
    const double dt = WallNow() - t0;
    const double dc = CpuNow() - c0;
    uint64_t want = refs.For(m);
    if (cold && planted) {
      want ^= 1;
      planted = false;
    }
    if (!run.ok() ||
        ResultFingerprint(run->clustering, run->representatives) != want) {
      ++samples.failed;
      std::printf("check %s run at MinLns %g: %s\n", cold ? "cold" : "rerun",
                  m, run.ok() ? "MISMATCH" : run.status().ToString().c_str());
      return;
    }
    if (cold) {
      samples.cluster_s.push_back(dt);
      samples.cpu_s.push_back(dc);
    } else {
      samples.rerun_s[rerun_index].push_back(dt);
    }
  };

  const size_t num_queries = setup.queries.size();
  core::AssignOptions assign_options;
  assign_options.num_threads = 1;
  size_t next_query = 0;
  // One window of the closed loop: one client sends each query when the
  // last returned. A window visits every allowed CPU in turn, as a fresh
  // client thread pinned there for an equal share of the window: the cores
  // of a shared host do not run equally fast, and neither one core nor one
  // placement of the kernels' thread_local staging buffers should set a
  // run's latency.
  const std::vector<int> cpus = AllowedCpus();
  const size_t legs = std::max<size_t>(cpus.size(), 1);
  size_t windows = 0;
  auto assign_window = [&](double budget_s, size_t min_calls) {
    ++windows;
    const double leg_s = budget_s / static_cast<double>(legs);
    for (size_t leg = 0; leg < legs; ++leg) {
      std::thread client([&, leg] {
        if (!cpus.empty()) PinTo(cpus[leg]);
        // Untimed first call: sizes this thread's staging buffers.
        (void)setup.snapshot->AssignTrajectory(
            setup.queries[next_query % num_queries], assign_options);
        const double w0 = WallNow();
        for (size_t k = 0; k * legs < min_calls || WallNow() - w0 < leg_s;
             ++k) {
          const size_t i = next_query++ % num_queries;
          ++samples.attempted;
          ++samples.assign_calls;
          const double q0 = WallNow();
          auto a = setup.snapshot->AssignTrajectory(setup.queries[i],
                                                    assign_options);
          const double dq = WallNow() - q0;
          if (!a.ok() || AssignFingerprint(*a) != (*expected_assign)[i]) {
            ++samples.failed;
            continue;
          }
          samples.assign_us.push_back(dq * 1e6);
        }
      });
      client.join();
    }
  };

  size_t next_rerun = 0;
  const double start = WallNow();
  double longest_iteration = 0.0;
  int iterations = 0;
  for (;;) {
    const double it0 = WallNow();
    // A cold run (for the cache workload, from an empty cache directory),
    // then reruns at new MinLns: all of them for the cache workload, whose
    // reruns read the file the cold run wrote; one per iteration otherwise.
    // An assignment window follows each of the two phases.
    if (spec.mode == Mode::kCache && !ResetDirectory(cache_dir)) {
      std::fprintf(stderr, "cannot reset %s\n", cache_dir.c_str());
      return 1;
    }
    const double cold0 = WallNow();
    cluster_op(spec.min_lns, /*cold=*/true, 0);
    assign_window(kAssignShare * (WallNow() - cold0), kMinWindowCalls);
    const double rerun0 = WallNow();
    const size_t reruns =
        spec.mode == Mode::kCache ? spec.rerun_min_lns.size() : 1;
    for (size_t r = 0; r < reruns; ++r) {
      const size_t k = next_rerun++ % spec.rerun_min_lns.size();
      cluster_op(spec.rerun_min_lns[k], /*cold=*/false, k);
    }
    assign_window(kAssignShare * (WallNow() - rerun0), kMinWindowCalls);

    ++iterations;
    longest_iteration = std::max(longest_iteration, WallNow() - it0);
    const double elapsed = WallNow() - start;
    const bool enough = samples.cluster_s.size() >= kMinSamples &&
                        FewestSamples(samples.rerun_s) >= kMinSamples &&
                        samples.assign_calls >= num_queries;
    if (enough && elapsed + 0.5 * longest_iteration >= options.seconds) break;
    // Past the stretch limit a run ends as soon as every metric has a sample
    // (or an operation has failed, which already makes the run incorrect).
    const bool each_once = !samples.cluster_s.empty() &&
                           FewestSamples(samples.rerun_s) >= 1 &&
                           !samples.assign_us.empty();
    if (elapsed >= kMaxStretch * options.seconds &&
        (each_once || samples.failed != 0)) {
      break;
    }
  }
  // A closing window completes the pass over the held-out queries in
  // progress, so that no served call falls outside a whole pass.
  const size_t rest = (num_queries - next_query % num_queries) % num_queries;
  if (rest != 0) assign_window(0.0, rest);
  const double measured = WallNow() - start;
  // A machine that lost cores during the run shows here, so a slow run can
  // be told apart from a regression.
  const Calibration calib_after = Calibrate(options.threads);
  std::printf(
      "calib common.calib_parallelism %.3f before, %.3f after (of %d "
      "threads); one-core spin %.1f ms before, %.1f ms after\n",
      calib_before.parallelism, calib_after.parallelism, options.threads,
      1e3 * calib_before.spin_s, 1e3 * calib_after.spin_s);
  // Process high-water mark: set-up allocates far less than one operation,
  // so this is the peak of the timed operations.
  const double peak_rss = PeakRssMb();

  if (samples.failed != 0) correct = false;
  if (samples.cluster_s.empty() || FewestSamples(samples.rerun_s) == 0 ||
      samples.assign_us.empty()) {
    std::fprintf(stderr, "no successful operation to time\n");
    correct = false;
  }
  // Latency statistics cover whole passes over the held-out queries only, so
  // every query weighs the same however many calls the run's time allowed.
  const size_t passes = samples.assign_us.size() / num_queries;
  const size_t kept =
      passes > 0 ? passes * num_queries : samples.assign_us.size();
  const std::vector<double> assign_us(
      samples.assign_us.begin(),
      samples.assign_us.begin() + static_cast<std::ptrdiff_t>(kept));
  double assign_s = 0.0;
  for (const double us : assign_us) assign_s += us * 1e-6;
  MetricSet metrics;
  metrics.Add("cluster_s", Median(samples.cluster_s), "s");
  metrics.Add("rerun_s", RerunSeconds(samples.rerun_s), "s");
  metrics.Add("cpu_s", Median(samples.cpu_s), "s");
  metrics.Add("assign_p50_us", Median(assign_us), "us");
  metrics.Add("assign_p90_us", Quantile(assign_us, 0.90), "us");
  metrics.Add("setup_s", Median(setup_s), "s");
  metrics.Add("peak_rss_mb", peak_rss, "MB");
  metrics.Print();
  // Reported, but not result metrics: on a shared host the slowest 1% of
  // calls, and with them the mean, follow the neighbours' load from run to
  // run by more than any useful bound.
  MetricSet report;
  report.Add("assign_p99_us", Quantile(assign_us, 0.99), "us");
  report.Add("assign_per_s", static_cast<double>(assign_us.size()) / assign_s,
             "traj/s");
  PrintSamples("cluster_s", samples.cluster_s);
  size_t rerun_count = 0;
  for (size_t k = 0; k < samples.rerun_s.size(); ++k) {
    const std::string name =
        "rerun_s@MinLns" +
        std::to_string(static_cast<int>(spec.rerun_min_lns[k]));
    PrintSamples(name.c_str(), samples.rerun_s[k]);
    rerun_count += samples.rerun_s[k].size();
  }
  report.Add("failed_frac",
             static_cast<double>(samples.failed) /
                 static_cast<double>(samples.attempted),
             "ratio");
  report.Print();
  std::printf(
      "samples: %d iterations in %.2f s | cold runs %zu, reruns %zu, assign "
      "calls %zu in %zu windows, %zu in %zu whole passes (%zu beyond p99) | "
      "setup x%d | attempted %zu failed %zu\n",
      iterations, measured, samples.cluster_s.size(), rerun_count,
      samples.assign_us.size(), windows, assign_us.size(), passes,
      assign_us.size() / 100,
      kSetupRepetitions, samples.attempted, samples.failed);
  return EmitResult(correct, samples.attempted, samples.failed,
                    metrics.JsonBody());
}

}  // namespace perfbench
