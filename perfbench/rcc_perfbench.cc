// Benchmark child process: runs ONE repetition of a benchmark workload
// or one set of layer probes, then prints a single
// `RESULT {json}` line on stdout. perfbench/run.py starts one fresh
// process per repetition, so peak RSS (read by the parent from wait4),
// the process-global metrics registry, the flight rings and the engine
// singletons never carry over from one repetition to the next.
//
//   rcc_perfbench run   <workload> <seed> <out_dir> [--trace] [--no-flight]
//   rcc_perfbench probe <workload> <seed>
//
// Workloads:
//   upscale_1024        Scenario III (Up), node level, ULFM, 512 -> 1024
//                       GPUs, ResNet-50, clean + faulty pair.
//   recovery_matrix_96  {ULFM, Elastic Horovod} x {Down, Same, Up} x
//                       {process, node} at 96 GPUs (10 cells), ResNet-50.
//   serve_64            64-rank tensor-parallel serving, resilient mode,
//                       flat Poisson open-loop arrivals, one seeded kill.
//
// The fibers engine is pinned before any sim::Cluster exists, so every
// virtual-time output is a pure function of (workload, seed).
//
// Host spans (--trace) are taken only on the main thread around whole
// calls into a layer: under fibers a span opened inside a rank would also
// count every other fiber that runs while that rank is parked.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/resilient.h"
#include "dnn/zoo.h"
#include "mpi/comm.h"
#include "obs/flight.h"
#include "obs/metrics.h"
#include "serve/generator.h"
#include "serve/server.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "trace/trace.h"
#include "ulfm/ulfm.h"

namespace {

using namespace rcc;
using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------
// Small helpers.

// CLOCK_MONOTONIC seconds; the parent reads the same clock
// (time.monotonic), so it can subtract its spawn time from this.
double MonoNow() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

long MaxRssKb() {
  struct rusage ru;
  std::memset(&ru, 0, sizeof ru);
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;  // Linux: kilobytes
}

// Full-precision number for the JSON line.
std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

// Ordered JSON object builder (flat: numbers, strings, raw values).
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, double v) {
    return Raw(key, Num(v));
  }
  JsonObject& AddStr(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Raw(const std::string& key, const std::string& raw) {
    if (!body_.empty()) body_ += ",";
    body_ += Quote(key) + ":" + raw;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// Main-thread host spans, kept in memory and written at the end.
struct HostSpan {
  std::string layer;
  std::string name;
  double start = 0;  // monotonic seconds
  double end = 0;
};

class SpanLog {
 public:
  explicit SpanLog(bool on) : on_(on) {}
  // Runs `fn` inside a span named `layer`/`name`; returns host seconds.
  double Time(const std::string& layer, const std::string& name,
              const std::function<void()>& fn) {
    const double t0 = MonoNow();
    fn();
    const double t1 = MonoNow();
    if (on_) spans_.push_back({layer, name, t0, t1});
    return t1 - t0;
  }
  void WriteJson(const std::string& path) const {
    std::ofstream out(path, std::ios::trunc);
    out << "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const HostSpan& s = spans_[i];
      out << (i ? ",\n" : "\n")
          << JsonObject()
                 .AddStr("layer", s.layer)
                 .AddStr("name", s.name)
                 .Add("start", s.start)
                 .Add("host_s", s.end - s.start)
                 .str();
    }
    out << "\n]\n";
  }

 private:
  bool on_;
  std::vector<HostSpan> spans_;
};

// obs::DumpIfRequested rewrites the RCC_TRACE_JSON file on every call;
// keep each driver call's trace under its own name for the parent.
void KeepTrace(const std::string& out_dir, const std::string& name) {
  std::error_code ec;
  std::filesystem::rename(out_dir + "/trace.json",
                          out_dir + "/trace_" + name + ".json", ec);
}

uint64_t FlightEventsUpTo(int max_pid) {
  uint64_t total = 0;
  for (int p = 0; p <= max_pid; ++p) {
    total += obs::flight::ForRank(p)->recorded();
  }
  return total;
}

// ---------------------------------------------------------------------
// Workload shapes.

enum class Workload { kUpscale, kMatrix, kServe, kUnknown };

Workload ParseWorkload(const std::string& name) {
  if (name == "upscale_1024") return Workload::kUpscale;
  if (name == "recovery_matrix_96") return Workload::kMatrix;
  if (name == "serve_64") return Workload::kServe;
  return Workload::kUnknown;
}

struct Cell {
  bench::Stack stack;
  bench::Scenario scenario;
  horovod::DropPolicy level;
  int world;
};

std::string CellName(const Cell& c) {
  std::string s = c.stack == bench::Stack::kUlfm ? "ulfm" : "horovod";
  s += ".";
  s += c.scenario == bench::Scenario::kDown   ? "down"
       : c.scenario == bench::Scenario::kSame ? "same"
                                              : "up";
  s += c.level == horovod::DropPolicy::kNode ? ".node" : ".process";
  return s;
}

int ExpectedFinalWorld(const Cell& c) {
  const int gpus_per_node = sim::SimConfig{}.gpus_per_node;
  switch (c.scenario) {
    case bench::Scenario::kDown:
      return c.level == horovod::DropPolicy::kNode ? c.world - gpus_per_node
                                                   : c.world - 1;
    case bench::Scenario::kSame:
      return c.world;
    case bench::Scenario::kUp:
      return 2 * c.world;
  }
  return -1;
}

// The cells of a figure-path workload, in the paper figures' order. The
// order is fixed: flight rings persist across the cells of a process and
// every dump writes all of them, so the order moves host time.
std::vector<Cell> FigureCells(Workload w) {
  std::vector<Cell> cells;
  if (w == Workload::kUpscale) {
    cells.push_back({bench::Stack::kUlfm, bench::Scenario::kUp,
                     horovod::DropPolicy::kNode, 512});
    return cells;
  }
  for (auto scenario :
       {bench::Scenario::kDown, bench::Scenario::kSame, bench::Scenario::kUp}) {
    for (auto level :
         {horovod::DropPolicy::kProcess, horovod::DropPolicy::kNode}) {
      // Upscaling is level-independent (whole nodes join): one level,
      // as in the paper figures.
      if (scenario == bench::Scenario::kUp &&
          level == horovod::DropPolicy::kProcess) {
        continue;
      }
      for (auto stack : {bench::Stack::kElasticHorovod, bench::Stack::kUlfm}) {
        cells.push_back({stack, scenario, level, 96});
      }
    }
  }
  return cells;
}

// Serving shape: 64 TP ranks, flat Poisson arrivals below capacity, one
// kill mid-service. The traffic is bench_serving_slo's (400 requests at
// 60 req/s, prompts 8-32, decode 8-24, batches of 8, 5e8 flops/token);
// the hidden size is serving_smoke's 64, so each decode step allreduces
// 64 floats. The serve probe measures the clean-run capacity of this
// shape and the utilisation it implies. The seed picks the arrival
// stream, the kill time and the victim rank.
constexpr int kServeWorld = 64;
constexpr int kServeRequests = 400;
constexpr double kServeRps = 60.0;

struct ServeShape {
  serve::ServeOptions opts;
  int victim = 0;
  double kill_at = 0;
};

ServeShape MakeServeShape(uint64_t seed, double rps = kServeRps) {
  ServeShape shape;
  serve::ServeOptions& o = shape.opts;
  o.traffic.seed = seed;
  o.traffic.requests = kServeRequests;
  o.traffic.base_rps = rps;
  o.traffic.diurnal_amplitude = 0.0;
  o.traffic.min_prompt = 8;
  o.traffic.max_prompt = 32;
  o.traffic.min_decode = 8;
  o.traffic.max_decode = 24;
  o.max_batch = 8;
  o.hidden = 64;
  o.flops_per_token = 5e8;
  o.model_bytes = 64e6;
  o.mode = serve::RecoveryMode::kResilient;
  o.policy = horovod::DropPolicy::kProcess;
  o.autoscale.enabled = false;
  std::mt19937_64 rng(seed ^ 0x9e3779b97f4a7c15ull);
  shape.victim = 1 + static_cast<int>(rng() % (kServeWorld - 1));
  // Kill somewhere in the middle fifth of the arrival span.
  const double span = kServeRequests / kServeRps;
  const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
  shape.kill_at = span * (0.4 + 0.2 * u);
  return shape;
}

// ---------------------------------------------------------------------
// One repetition.

struct RunOptions {
  Workload workload = Workload::kUnknown;
  uint64_t seed = 0;
  std::string out_dir;
  bool trace = false;
  bool flight = true;
};

struct Outcome {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> errors;
  JsonObject virt;   // virtual-clock end-to-end results
  JsonObject layer;  // per-layer values the child can see directly
  double setup_end_mono = 0;
};

void Fail(Outcome* out, const std::string& what) {
  out->errors.push_back(what);
}

// Brings up a world the way each RunScenario run does before its first
// step: construct a cluster, spawn `world` ranks, build the world
// communicator and run its first collective (a barrier).
void StartWorld(int world) {
  std::vector<int> pids(static_cast<size_t>(world));
  std::iota(pids.begin(), pids.end(), 0);
  sim::Cluster cluster;
  cluster.Spawn(world, [&pids](sim::Endpoint& ep) {
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    (void)comm.Barrier();
  });
  cluster.Join();
}

void RunFigure(const RunOptions& ro, SpanLog* spans, Outcome* out) {
  const dnn::ModelSpec spec = dnn::ResNet50V2Spec();
  const std::vector<Cell> cells = FigureCells(ro.workload);
  // Set-up. RunScenario builds its plans, clusters and ranks internally
  // and exposes no hook between set-up and the first step, so the same
  // steps run here first, on the main thread: every cell's plan, then
  // one world of the workload's founding size up to its first
  // collective. A regression in plan building, cluster construction or
  // rank spawn at this P moves setup_s.
  for (const Cell& c : cells) {
    spans->Time("horovod", "plan." + CellName(c), [&] {
      (void)bench::MakeScenarioPlan(spec, c.scenario, c.level, c.world);
    });
  }
  spans->Time("sim", "start_world", [&] { StartWorld(cells.front().world); });
  out->setup_end_mono = MonoNow();
  // The per-layer counts cover the RunScenario calls only.
  obs::Registry::Global().ResetAll();
  obs::flight::ResetAll();

  double completion = 0, ulfm_recovery = 0, horovod_recovery = 0;
  double driver_host = 0, driver_host_max = 0;
  int max_world = 0;
  for (const Cell& c : cells) {
    bench::ScenarioCosts costs;
    const double host = spans->Time("core", "cell." + CellName(c), [&] {
      costs = bench::RunScenario(c.stack, spec, c.scenario, c.level, c.world);
    });
    driver_host += host;
    driver_host_max = std::max(driver_host_max, host);
    out->layer.Add("core.cell_host_s." + CellName(c), host);
    if (ro.trace) KeepTrace(ro.out_dir, CellName(c));
    ++out->attempted;
    const int want = ExpectedFinalWorld(c);
    bool ok = costs.final_world == want;
    if (!ok) {
      Fail(out, CellName(c) + ": final_world " +
                    std::to_string(costs.final_world) + " != " +
                    std::to_string(want));
    }
    if (!(costs.faulty_time > 0) || !(costs.clean_time > 0)) {
      ok = false;
      Fail(out, CellName(c) + ": non-positive completion time");
    }
    if (!ok) ++out->failed;
    max_world = std::max({max_world, c.world, costs.final_world});
    completion += costs.faulty_time;
    if (c.stack == bench::Stack::kUlfm) {
      ulfm_recovery += costs.total_overhead;
    } else {
      horovod_recovery += costs.total_overhead;
    }
    out->virt.Add("cell." + CellName(c) + ".overhead_s", costs.total_overhead);
  }
  out->virt.Add("virtual_completion_s", completion);
  out->virt.Add("ulfm_recovery_s", ulfm_recovery);
  if (ro.workload == Workload::kMatrix) {
    out->virt.Add("horovod_recovery_s", horovod_recovery);
  }
  out->layer.Add("core.driver_host_s", driver_host);
  out->layer.Add("core.driver_host_s.max", driver_host_max);
  // Pids restart at 0 in every fresh cluster; the largest world bounds
  // them (replacements land on fresh nodes just past the founders).
  const int gpn = sim::SimConfig{}.gpus_per_node;
  out->layer.Add("obs.flight_events",
                 static_cast<double>(FlightEventsUpTo(max_world + 2 * gpn)));
}

void RunServe(const RunOptions& ro, SpanLog* spans, Outcome* out) {
  ServeShape shape;
  std::vector<serve::Request> stream;
  spans->Time("serve", "generate_arrivals", [&] {
    shape = MakeServeShape(ro.seed);
    stream = serve::GenerateArrivals(shape.opts.traffic);
  });
  std::vector<int> pids(kServeWorld);
  std::iota(pids.begin(), pids.end(), 0);

  std::unique_ptr<sim::Cluster> cluster;
  trace::Recorder rec;
  trace::Recorder* recp = ro.trace ? &rec : nullptr;
  std::mutex mu;
  std::vector<serve::ServeReport> finished;
  int aborted = 0;
  spans->Time("sim", "cluster_construct",
              [&] { cluster = std::make_unique<sim::Cluster>(); });
  spans->Time("sim", "spawn", [&] {
    cluster->Spawn(kServeWorld, [&](sim::Endpoint& ep) {
      if (ep.pid() == shape.victim) ep.ArmKillAt(shape.kill_at);
      core::ResilientComm rc(ep, pids, shape.opts.policy, recp);
      serve::ServingDriver driver(&rc, shape.opts);
      serve::ServeReport r = driver.Run();
      if (r.aborted && ep.alive()) ep.fabric().Kill(ep.pid());
      std::lock_guard<std::mutex> lock(mu);
      if (r.aborted) {
        ++aborted;
      } else {
        finished.push_back(std::move(r));
      }
    });
  });
  out->setup_end_mono = MonoNow();
  const long rss_before_kb = MaxRssKb();

  const double join_host =
      spans->Time("serve", "serve_join", [&] { cluster->Join(); });
  if (ro.trace) {
    spans->Time("obs", "trace_dump", [&] { bench::DumpObservability(rec); });
    KeepTrace(ro.out_dir, "serve");
  }

  // Correctness: every admitted request completed exactly once (no
  // stray or duplicate ids), the replicated state agrees on every
  // survivor (the P8 property), and exactly the victim left the world.
  const int n = static_cast<int>(stream.size());
  out->attempted += n;
  if (finished.empty()) {
    Fail(out, "serve: no surviving rank");
    out->failed += n;
    return;
  }
  std::sort(finished.begin(), finished.end(),
            [](const serve::ServeReport& a, const serve::ServeReport& b) {
              return a.completions.size() > b.completions.size();
            });
  const serve::ServeReport& ref = finished.front();
  std::vector<int> seen(static_cast<size_t>(n), 0);
  long stray = 0;
  for (const serve::Completion& c : ref.completions) {
    if (c.id >= 0 && c.id < n) {
      ++seen[static_cast<size_t>(c.id)];
    } else {
      ++stray;
    }
  }
  long bad = std::count_if(seen.begin(), seen.end(),
                           [](int times) { return times != 1; });
  if (bad > 0) Fail(out, "serve: " + std::to_string(bad) +
                             " requests not completed exactly once");
  if (stray > 0 || static_cast<int>(ref.completions.size()) != n) {
    Fail(out, "serve: " + std::to_string(ref.completions.size()) +
                  " completions for " + std::to_string(n) + " requests (" +
                  std::to_string(stray) + " with unknown ids)");
    bad = std::max(bad, 1L);
  }
  for (const serve::ServeReport& r : finished) {
    if (r.digest != ref.digest || r.completed != ref.completed) {
      Fail(out, "serve: survivor state digests differ");
      bad = n;
      break;
    }
  }
  if (aborted != 1 || ref.final_world != kServeWorld - 1) {
    Fail(out, "serve: expected exactly one lost rank, got " +
                  std::to_string(aborted) + " (final world " +
                  std::to_string(ref.final_world) + ")");
  }
  out->failed += bad;

  std::vector<double> ttft;
  ttft.reserve(ref.completions.size());
  double completion = 0;
  for (const serve::Completion& c : ref.completions) {
    // Open loop: timed from the request's due arrival.
    ttft.push_back(c.first_token - c.arrival);
  }
  for (const serve::ServeReport& r : finished) {
    completion = std::max(completion, r.end_time);
  }
  obs::Registry& reg = obs::Registry::Global();
  const obs::Labels mode{{"mode", "resilient"}};
  const double rec_s = reg.CounterValue("rcc_serve_recovery_seconds_total", mode);
  const double rec_tok = reg.CounterValue("rcc_serve_recovery_tokens_total", mode);
  // ULFM recovery cost: virtual seconds one survivor spends in a repair
  // (every recovery phase, averaged over repairs). The decode step the
  // server flags as the recovery step does not always contain the GPU
  // rebuild, so rcc_serve_recovery_seconds_total depends on where the
  // kill lands; it stays visible as serve.recovery_vs.
  double phase_s = 0;
  for (const char* phase : {"revoke", "agree", "shrink", "rebuild", "replay"}) {
    phase_s += reg.HistogramSnapshot("rcc_recovery_phase_seconds",
                                     {{"phase", phase}})
                   .sum;
  }
  const double repairs = reg.CounterValue("rcc_recovery_repairs_total");
  out->virt.Add("virtual_completion_s", completion);
  out->virt.Add("ulfm_recovery_s", repairs > 0 ? phase_s / repairs : 0.0);
  out->virt.Add("ttft_p50_ms", Quantile(ttft, 0.5) * 1e3);
  out->virt.Add("ttft_p99_ms", Quantile(ttft, 0.99) * 1e3);
  out->virt.Add("ttft_samples", static_cast<double>(ttft.size()));
  out->virt.Add("recovery_goodput_tok_per_s", rec_s > 0 ? rec_tok / rec_s : 0.0);
  out->virt.Add("kill_at_s", shape.kill_at);
  out->virt.Add("victim", shape.victim);

  const double steps = static_cast<double>(ref.steps);
  out->virt.Add("decode_steps", steps);
  out->layer.Add("serve.decode_steps", steps);
  out->layer.Add("serve.host_us_per_step",
                 steps > 0 ? join_host * 1e6 / steps : 0.0);
  out->layer.Add("serve.rss_kb_per_step",
                 steps > 0 ? static_cast<double>(MaxRssKb() - rss_before_kb) /
                                 steps
                           : 0.0);
  out->layer.Add("core.driver_host_s", join_host);
  out->layer.Add("core.driver_host_s.max", join_host);
  out->layer.Add("obs.flight_events",
                 static_cast<double>(FlightEventsUpTo(kServeWorld - 1)));
}

int Run(const RunOptions& ro) {
  SpanLog spans(ro.trace);
  obs::Registry::Global().ResetAll();
  obs::flight::SetEnabled(ro.flight);
  Outcome out;
  if (ro.workload == Workload::kServe) {
    RunServe(ro, &spans, &out);
  } else {
    RunFigure(ro, &spans, &out);
  }
  if (ro.trace) {
    spans.WriteJson(ro.out_dir + "/spans.json");
    std::ofstream(ro.out_dir + "/registry.csv", std::ios::trunc)
        << obs::Registry::Global().CsvText();
  }
  std::string errors = "[";
  for (size_t i = 0; i < out.errors.size(); ++i) {
    errors += (i ? "," : "") + Quote(out.errors[i]);
  }
  errors += "]";
  const std::string line =
      JsonObject()
          .Add("setup_end_mono", out.setup_end_mono)
          .Add("attempted", static_cast<double>(out.attempted))
          .Add("failed", static_cast<double>(out.failed))
          .Raw("errors", errors)
          .Raw("virtual", out.virt.str())
          .Raw("layer", out.layer.str())
          .str();
  std::printf("RESULT %s\n", line.c_str());
  std::fflush(stdout);
  return 0;
}

// ---------------------------------------------------------------------
// Layer probes: each drives one layer at a time from the main thread's
// point of view, so its host time is that layer's self time.

// Host seconds of one whole cluster run of `n` ranks executing `fn`.
double TimeWorld(int n, const std::function<void(sim::Endpoint&)>& fn) {
  const auto t0 = Clock::now();
  {
    sim::Cluster cluster;
    cluster.Spawn(n, fn);
    cluster.Join();
  }
  return SecondsSince(t0);
}

double MedianOf(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// sim: P ranks pass a small message around a ring via Endpoint::Send /
// Recv. Per-message host cost = (run with K rounds - run with 0) / P*K.
void ProbeFabric(int p, JsonObject* out) {
  const int rounds = std::max(4, 200000 / p);
  constexpr uint64_t kChannel = 0x5e7d0001;
  auto ring = [p](int k) {
    return [p, k](sim::Endpoint& ep) {
      const int me = ep.pid();
      for (int r = 0; r < k; ++r) {
        std::vector<uint8_t> payload(8, static_cast<uint8_t>(r));
        if (!ep.Send((me + 1) % p, kChannel, r, std::move(payload)).ok()) return;
        sim::Message m;
        if (!ep.Recv((me + p - 1) % p, kChannel, r, &m).ok()) return;
      }
    };
  };
  std::vector<double> empty, full;
  for (int i = 0; i < 3; ++i) {
    empty.push_back(TimeWorld(p, ring(0)));
    full.push_back(TimeWorld(p, ring(rounds)));
  }
  const double setup = MedianOf(empty);
  out->Add("sim.cluster_setup_s", setup);
  out->Add("sim.fabric.send_recv_ns",
           std::max(0.0, MedianOf(full) - setup) * 1e9 /
               (static_cast<double>(p) * rounds));
}

// sim engine: two ranks hand a token back and forth through a WaitPoint
// (park, notify, wake). Per-handoff host cost.
void ProbeParkWake(JsonObject* out) {
  constexpr int kHandoffs = 100000;
  struct Shared {
    std::mutex mu;
    sim::WaitPoint wp;
    int turn = 0;
  };
  auto pingpong = [](int n, Shared* s) {
    return [n, s](sim::Endpoint& ep) {
      const int me = ep.pid();
      for (int i = 0; i < n; ++i) {
        std::unique_lock<std::mutex> lock(s->mu);
        while (s->turn != me) s->wp.Wait(lock);
        s->turn = 1 - me;
        s->wp.NotifyAll();
      }
    };
  };
  std::vector<double> empty, full;
  for (int i = 0; i < 3; ++i) {
    Shared a, b;
    empty.push_back(TimeWorld(2, pingpong(0, &a)));
    full.push_back(TimeWorld(2, pingpong(kHandoffs, &b)));
  }
  out->Add("sim.engine.park_wake_ns",
           std::max(0.0, MedianOf(full) - MedianOf(empty)) * 1e9 /
               (2.0 * kHandoffs));
}

// coll/mpi: P ranks run back-to-back allreduces of `count` floats on an
// mpi::Comm. Rank 0 stamps host time after each op; the gap between
// stamps is one whole collective's host cost (every rank's share of it
// runs while rank 0 is parked).
void ProbeAllreduce(int p, size_t count, int ops, JsonObject* out) {
  std::vector<int> pids(static_cast<size_t>(p));
  std::iota(pids.begin(), pids.end(), 0);
  std::vector<double> stamps;
  stamps.reserve(static_cast<size_t>(ops) + 1);
  TimeWorld(p, [&](sim::Endpoint& ep) {
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    std::vector<float> in(count, 1.0f), res(count, 0.0f);
    for (int i = 0; i <= ops; ++i) {
      if (!comm.Allreduce(in.data(), res.data(), count).ok()) return;
      if (comm.rank() == 0) stamps.push_back(MonoNow());
    }
  });
  std::vector<double> gaps_us;
  for (size_t i = 1; i < stamps.size(); ++i) {
    gaps_us.push_back((stamps[i] - stamps[i - 1]) * 1e6);
  }
  out->Add("coll.allreduce_host_us.p50", Quantile(gaps_us, 0.5));
  out->Add("coll.allreduce_host_us.p99", Quantile(gaps_us, 0.99));
  out->Add("coll.allreduce_probe_samples", static_cast<double>(gaps_us.size()));
}

// ulfm: P=96 ranks; the victim (one process, or its whole node) dies,
// the survivors revoke, agree and shrink, then check the new size. Host
// cost = that run minus the same run with nobody dying.
void ProbeRepair(JsonObject* out) {
  constexpr int kP = 96;
  const int gpn = sim::SimConfig{}.gpus_per_node;
  std::vector<int> pids(kP);
  std::iota(pids.begin(), pids.end(), 0);
  auto repair = [&pids](int first_victim, int victims, bool* ok) {
    return [&pids, first_victim, victims, ok](sim::Endpoint& ep) {
      mpi::Comm comm = mpi::Comm::World(ep, pids);
      const bool victim =
          comm.rank() >= first_victim && comm.rank() < first_victim + victims;
      if (victim) {
        ep.fabric().Kill(ep.pid());
        return;
      }
      if (victims == 0) {
        (void)comm.Barrier();
        return;
      }
      ulfm::Revoke(comm);
      auto agreed = ulfm::Agree(comm, 1);
      auto shrunk = ulfm::Shrink(comm);
      if (!agreed.ok() || !shrunk.ok() ||
          shrunk.value().size() != kP - victims) {
        *ok = false;
      }
    };
  };
  bool ok = true;
  std::vector<double> base, proc, node;
  for (int i = 0; i < 3; ++i) {
    base.push_back(TimeWorld(kP, repair(0, 0, &ok)));
    proc.push_back(TimeWorld(kP, repair(kP / 2, 1, &ok)));
    node.push_back(TimeWorld(kP, repair(kP / 2, gpn, &ok)));
  }
  const double b = MedianOf(base);
  out->Add("ulfm.repair_host_ms.process", std::max(0.0, MedianOf(proc) - b) * 1e3);
  out->Add("ulfm.repair_host_ms.node", std::max(0.0, MedianOf(node) - b) * 1e3);
  out->Add("ulfm.repair_probe_ok", ok ? 1.0 : 0.0);
}

// serve: capacity of the serving shape. The same 400 requests all queue
// at once on a clean 64-rank world (no kill); capacity is requests per
// virtual second of that run, and utilisation is the benchmark's offered
// rate over it.
void ProbeServeCapacity(JsonObject* out) {
  const ServeShape shape = MakeServeShape(1, 1e6);
  std::vector<int> pids(kServeWorld);
  std::iota(pids.begin(), pids.end(), 0);
  std::mutex mu;
  double end = 0;
  int64_t steps = 0;
  TimeWorld(kServeWorld, [&](sim::Endpoint& ep) {
    core::ResilientComm rc(ep, pids, shape.opts.policy, nullptr);
    serve::ServingDriver driver(&rc, shape.opts);
    const serve::ServeReport r = driver.Run();
    std::lock_guard<std::mutex> lock(mu);
    end = std::max(end, r.end_time);
    steps = std::max(steps, r.steps);
  });
  const double capacity = end > 0 ? kServeRequests / end : 0.0;
  out->Add("serve.capacity_rps", capacity);
  out->Add("serve.utilisation", capacity > 0 ? kServeRps / capacity : 0.0);
  out->Add("serve.capacity_decode_steps", static_cast<double>(steps));
}

int Probe(Workload w) {
  JsonObject out;
  const int p = w == Workload::kUpscale  ? 1024
                : w == Workload::kMatrix ? 96
                                         : kServeWorld;
  // Physical bucket size: the figure path caps buckets at 1024 floats;
  // serving allreduces `hidden` = 64 floats per decode step.
  const size_t count = w == Workload::kServe ? 64 : 1024;
  const int ops = w == Workload::kUpscale ? 60 : 1000;
  ProbeFabric(p, &out);
  ProbeParkWake(&out);
  ProbeAllreduce(p, count, ops, &out);
  ProbeRepair(&out);
  if (w == Workload::kServe) ProbeServeCapacity(&out);
  std::printf("RESULT %s\n", out.str().c_str());
  std::fflush(stdout);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: rcc_perfbench run <workload> <seed> <out_dir> "
               "[--trace] [--no-flight]\n"
               "       rcc_perfbench probe <workload> <seed>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 4) return Usage();
  // Pin the engine before any sim::Cluster exists: bench::RunScenario
  // builds its clusters with the default config, which resolves the
  // engine from the environment.
  setenv("RCC_SIM_ENGINE", "fibers", 1);

  const std::string mode = argv[1];
  const Workload w = ParseWorkload(argv[2]);
  if (w == Workload::kUnknown) return Usage();
  const uint64_t seed = std::strtoull(argv[3], nullptr, 10);
  if (mode == "probe") return Probe(w);
  if (mode != "run" || argc < 5) return Usage();
  RunOptions ro;
  ro.workload = w;
  ro.seed = seed;
  ro.out_dir = argv[4];
  for (int i = 5; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) ro.trace = true;
    if (std::strcmp(argv[i], "--no-flight") == 0) ro.flight = false;
  }
  return Run(ro);
}
