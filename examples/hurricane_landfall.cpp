// Application scenario 1 (§1): hurricane landfall forecasting.
//
// "Meteorologists will be interested in the common behaviors of hurricanes
// near the coastline (i.e., at the time of landing) or at sea (i.e., before
// landing). Thus, discovering the common sub-trajectories helps improve the
// accuracy of hurricane landfall forecasts."
//
// This example clusters the synthetic Atlantic tracks, then intersects the
// representative trajectories with a coastline band (a region of special
// interest) and reports the approach corridors — exactly the "regions of
// special interest" analysis the partition-and-group framework enables. It
// also demonstrates the weighted extension (§4.2): stronger hurricanes get
// higher weight, shifting density toward intense corridors.
//
// Build & run:   ./build/examples/hurricane_landfall

#include <cstdio>

#include "core/engine.h"
#include "datagen/hurricane_generator.h"
#include "traj/svg_writer.h"

int main() {
  using traclus::geom::Point;

  // Synthetic Best Track substitute with intensity weights 1..5.
  traclus::datagen::HurricaneConfig gen;
  gen.min_weight = 1.0;
  gen.max_weight = 5.0;
  const auto db = traclus::datagen::GenerateHurricanes(gen);
  std::printf("tracks: %zu, fixes: %zu\n", db.size(), db.TotalPoints());

  // The "coastline": the western edge of the basin, x in [10, 30].
  const double coast_lo = 10.0;
  const double coast_hi = 30.0;

  traclus::core::DbscanGroupOptions group;
  group.eps = 0.94;
  group.min_lns = 7;
  group.use_weights = true;  // Intensity-weighted density (§4.2).
  traclus::core::SweepRepresentativeOptions reps;
  reps.min_lns = group.min_lns;
  reps.use_weights = true;
  const auto engine = traclus::core::TraclusEngine::Builder()
                          .UseDbscanGrouping(group)
                          .UseSweepRepresentatives(reps)
                          .Build();
  if (!engine.ok()) {
    std::fprintf(stderr, "%s\n", engine.status().ToString().c_str());
    return 1;
  }
  const auto run = engine->Run(db);
  if (!run.ok()) {
    std::fprintf(stderr, "%s\n", run.status().ToString().c_str());
    return 1;
  }
  const traclus::core::TraclusResult& result = *run;
  std::printf("clusters: %zu (weighted by hurricane intensity)\n\n",
              result.clustering.clusters.size());

  std::printf("common sub-trajectories crossing the coastline band "
              "x in [%.0f, %.0f]:\n", coast_lo, coast_hi);
  int near_coast = 0;
  for (size_t c = 0; c < result.representatives.size(); ++c) {
    const auto& rep = result.representatives[c];
    bool crosses = false;
    for (const auto& p : rep.points()) {
      if (p.x() >= coast_lo && p.x() <= coast_hi) crosses = true;
    }
    if (!crosses || rep.size() < 2) continue;
    ++near_coast;
    const auto& f = rep.points().front();
    const auto& b = rep.points().back();
    std::printf(
        "  corridor %zu: enters at (%.1f, %.1f), heading %s, landfall band "
        "latitude %.1f\n",
        c, f.x(), f.y(), b.x() < f.x() ? "westward (landfalling)" : "eastward",
        b.y());
  }
  if (near_coast == 0) {
    std::printf(
        "  (none — raise eps or lower MinLns to find broader corridors)\n");
  }

  // Scaling to a full Best Track archive: sieve-sampled grouping
  // (README "Sieve + tiled kernels"). Only every 4th hurricane's segments go
  // through DBSCAN; the rest are batch-assigned to the nearest sampled
  // cluster member within the DBSCAN stage's eps — O((n/k)² + n·|sample|)
  // instead of O(n²), deterministic for a fixed (k, offset).
  traclus::core::SieveGroupOptions sieve;
  sieve.k = 4;  // Cluster a 1-in-4 trajectory sample.
  const auto sieved_engine = traclus::core::TraclusEngine::Builder()
                                 .UseDbscanGrouping(group)
                                 .UseSweepRepresentatives(reps)
                                 .WithSieveGrouping(sieve)
                                 .Build();
  if (!sieved_engine.ok()) {
    std::fprintf(stderr, "%s\n", sieved_engine.status().ToString().c_str());
    return 1;
  }
  const auto sieved = sieved_engine->Run(db);
  if (!sieved.ok()) {
    std::fprintf(stderr, "%s\n", sieved.status().ToString().c_str());
    return 1;
  }
  size_t agree = 0;
  const auto& full_labels = result.clustering.labels;
  const auto& sieve_labels = sieved->clustering.labels;
  for (size_t i = 0; i < full_labels.size(); ++i) {
    if ((full_labels[i] >= 0) == (sieve_labels[i] >= 0)) ++agree;
  }
  std::printf(
      "\nsieve k=4: %zu clusters (full run: %zu); %.0f%% of segments agree "
      "on clustered-vs-noise\n",
      sieved->clustering.clusters.size(), result.clustering.clusters.size(),
      100.0 * static_cast<double>(agree) /
          static_cast<double>(full_labels.size()));

  // Visual inspection file, Fig. 18 style.
  const auto stats = db.Stats();
  traclus::traj::SvgWriter svg(stats.bounds);
  svg.AddDatabase(db, "#2e8b57", 0.5);
  for (const auto& rep : result.representatives) {
    svg.AddTrajectory(rep, "#cc0000", 3.0);
  }
  svg.AddLabel(Point(coast_lo, stats.bounds.hi(1) - 2), "coastline band");
  const auto status = svg.Save("hurricane_landfall.svg");
  std::printf("\n%s\n", status.ok()
                            ? "wrote hurricane_landfall.svg (thin green: "
                              "tracks, thick red: common sub-trajectories)"
                            : status.ToString().c_str());
  return 0;
}
