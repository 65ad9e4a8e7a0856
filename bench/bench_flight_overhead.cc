// Flight-recorder steady-state overhead: the same clean VGG-16
// synthetic run (no failures, no joins) timed in real wall-clock with
// the recorder enabled and disabled. Recording is a few relaxed atomics
// per event, so the enabled run must stay within 5% of the disabled
// one; the bench prints the measured overhead and fails (exit 1) past
// the budget.
//
// Every configuration is timed best-of-N to damp scheduler noise: the
// minimum over repetitions estimates the true cost floor of each mode,
// and the modes are interleaved so drift (thermal, cgroup) hits both.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/ulfm_elastic.h"
#include "obs/flight.h"

namespace {

using namespace rcc;

constexpr int kWorld = 8;
constexpr int kReps = 5;

double RunOnce(bool flight_on) {
  horovod::SyntheticPlan plan;
  plan.spec = dnn::Vgg16Spec();
  plan.initial_world = kWorld;
  plan.batch_per_worker = 32;
  plan.steps_per_epoch = 25;
  plan.epochs = 2;
  plan.max_physical_floats = 4096;

  obs::flight::SetEnabled(flight_on);
  const auto t0 = std::chrono::steady_clock::now();
  {
    sim::Cluster cluster;
    core::RunUlfmElastic(cluster, plan, nullptr);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  double best_on = 0.0, best_off = 0.0;
  std::vector<double> on, off;
  RunOnce(false);  // warm-up (allocators, lazy singletons) — untimed
  for (int r = 0; r < kReps; ++r) {
    off.push_back(RunOnce(false));
    on.push_back(RunOnce(true));
  }
  obs::flight::SetEnabled(true);
  best_off = *std::min_element(off.begin(), off.end());
  best_on = *std::min_element(on.begin(), on.end());
  const double overhead = best_off > 0.0 ? best_on / best_off - 1.0 : 0.0;

  std::printf("flight recorder overhead on VGG-16 synthetic (world=%d, "
              "%d steps):\n", kWorld, 2 * 25);
  std::printf("  off  best-of-%d  %.4fs\n", kReps, best_off);
  std::printf("  on   best-of-%d  %.4fs\n", kReps, best_on);
  std::printf("  overhead %.2f%% (budget 5%%)\n", overhead * 100.0);

  Table table({"mode", "best wall (s)", "overhead (%)"});
  table.AddRow({"off", FormatDouble(best_off, 4), "0"});
  table.AddRow({"on", FormatDouble(best_on, 4),
                FormatDouble(overhead * 100.0, 2)});
  bench::EmitTable(table, "flight recorder overhead",
                   "flight_overhead.csv");

  if (overhead > 0.05) {
    std::printf("FAIL: flight recorder overhead above 5%% budget\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
