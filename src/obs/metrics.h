// Process-wide metrics registry: counters, gauges, and log-bucketed
// histograms, all with label support.
//
// Design goals, in order:
//   1. Lock-cheap hot paths. Recording into an instrument is a handful
//      of relaxed atomics (a CAS-add for the double counters, a
//      fetch_add for histogram buckets) - no mutex, no allocation.
//      Looking an instrument up builds its label string and takes a
//      shared lock on the registry map, so per-op call sites never do
//      it per op: they intern the pointer instead (instruments are never
//      deallocated while the registry lives). An unlabeled instrument
//      is a function-local static pointer; a family whose series differ
//      in one label's value (per algo, per kvstore op) goes through
//      LabeledHandles below, which resolves each value once.
//   2. One registry per process (Registry::Global()), matching how the
//      simulated cluster runs every rank as a thread of one process:
//      cross-rank aggregation is free, and benches snapshot/diff the
//      registry around a run to get per-run deltas.
//   3. Text exposition in Prometheus format plus CSV, so any bench or
//      example can drop a scrapeable snapshot via RCC_METRICS_OUT (see
//      obs/export.h).
//
// Histograms are log-bucketed (powers of two over a seconds-oriented
// range): recovery spans stretch from microseconds (revoke) to tens of
// seconds (cold-start rendezvous), which a fixed linear layout cannot
// cover; the exponential layout gives ~3 significant bits everywhere at
// 64 buckets.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace rcc::obs {

// Sorted (key, value) pairs identifying one instrument of a family.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {
// Lock-free add for std::atomic<double> (fetch_add on doubles is C++20
// but not universally lowered; the CAS loop is portable and the
// contention case - many ranks on one counter - stays short).
inline void AtomicAdd(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + v,
                                        std::memory_order_relaxed)) {
  }
}
inline void AtomicMax(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v > cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}
inline void AtomicMin(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v < cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}
}  // namespace detail

// Monotonically increasing value (events, bytes, accumulated seconds).
class Counter {
 public:
  void Add(double v) { detail::AtomicAdd(&value_, v); }
  void Increment() { Add(1.0); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Last-write-wins instantaneous value (world size, in-flight depth).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { detail::AtomicAdd(&value_, v); }
  double Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-bucketed histogram. Bucket i collects observations in
// (kFirstBound * 2^(i-1), kFirstBound * 2^i]; bucket 0 additionally
// takes everything <= kFirstBound, the last bucket everything above the
// range (+Inf bucket in the Prometheus exposition).
class Histogram {
 public:
  static constexpr int kBuckets = 64;
  static constexpr double kFirstBound = 1e-9;  // 1 ns in seconds-units

  void Observe(double v);

  struct Snapshot {
    uint64_t count = 0;
    double sum = 0.0;
    double min = 0.0;  // 0 when count == 0
    double max = 0.0;
    // Cumulative counts per upper bound, Prometheus-style; the final
    // entry's bound is +infinity.
    std::vector<std::pair<double, uint64_t>> cumulative;

    double Mean() const { return count == 0 ? 0.0 : sum / count; }
    // Quantile q in [0, 1] estimated from the bucket counts:
    // rank-interpolated within the containing bucket and clamped to the
    // observed [min, max], so the estimate's error is bounded by the
    // bucket width (~a factor of 2 worst case, exact at min/max).
    double Quantile(double q) const;
  };
  Snapshot TakeSnapshot() const;
  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }
  void Reset();

  static double BucketBound(int i);  // upper bound of bucket i
  static int BucketIndex(double v);

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};
  std::atomic<double> max_{0.0};
};

// Process-wide instrument registry. Get* registers on first use and
// returns a pointer that stays valid for the registry's lifetime, so
// hot paths can cache it. Metric names should already be
// Prometheus-shaped (snake_case, unit-suffixed); the exporters only
// escape label values.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(const std::string& name, const Labels& labels = {});
  Gauge* GetGauge(const std::string& name, const Labels& labels = {});
  Histogram* GetHistogram(const std::string& name, const Labels& labels = {});

  // Optional HELP text attached to a metric family.
  void SetHelp(const std::string& name, const std::string& help);

  // Point lookups for tests and benches (0 / empty when absent).
  double CounterValue(const std::string& name, const Labels& labels = {}) const;
  double GaugeValue(const std::string& name, const Labels& labels = {}) const;
  Histogram::Snapshot HistogramSnapshot(const std::string& name,
                                        const Labels& labels = {}) const;

  // Prometheus text exposition (families sorted by name, instruments by
  // label string; histogram as _bucket/_sum/_count series plus
  // summary-style {quantile="0.5|0.9|0.99|0.999"} estimates).
  std::string PrometheusText() const;
  // Flat CSV: metric,labels,type,value,count,sum,mean,min,max,
  // p50,p90,p99,p999 (quantile columns filled for histograms only).
  std::string CsvText() const;

  // Zeroes every instrument, keeping registrations (a fresh bench run).
  void ResetAll();

 private:
  struct Instrument {
    enum class Kind { kCounter, kGauge, kHistogram } kind;
    Labels labels;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    Instrument::Kind kind;
    std::string help;
    // label-key -> instrument; key is the serialized sorted label set.
    std::map<std::string, std::unique_ptr<Instrument>> instruments;
  };

  Instrument* GetOrCreate(const std::string& name, const Labels& labels,
                          Instrument::Kind kind);
  const Instrument* Find(const std::string& name, const Labels& labels) const;

  mutable std::shared_mutex mu_;
  std::map<std::string, Family> families_;
};

// Interned handles for the series of one registry family that differ
// only in the value of one label: {fixed..., key=value}. Get(value)
// resolves the instrument through Registry::Global() the first time
// `value` is seen and returns the cached pointer after that, so a
// per-op site pays a scan of the few values seen so far. A series is
// registered on its first Get, exactly when a direct registry lookup
// at the same site would register it. The scan is lock-free (entries
// are published once, never changed); a miss appends under a mutex.
// Past kCapacity distinct values, lookups go to the registry uncached.
template <typename T>
class LabeledHandles {
  static_assert(std::is_same_v<T, Counter> || std::is_same_v<T, Gauge> ||
                std::is_same_v<T, Histogram>);

 public:
  LabeledHandles(std::string name, std::string key, Labels fixed = {})
      : name_(std::move(name)),
        key_(std::move(key)),
        fixed_(std::move(fixed)) {}
  LabeledHandles(const LabeledHandles&) = delete;
  LabeledHandles& operator=(const LabeledHandles&) = delete;

  T* Get(std::string_view value) {
    const int n = size_.load(std::memory_order_acquire);
    for (int i = 0; i < n; ++i) {
      if (entries_[i].value == value) return entries_[i].instrument;
    }
    std::lock_guard<std::mutex> lock(mu_);
    const int m = size_.load(std::memory_order_relaxed);
    for (int i = n; i < m; ++i) {
      if (entries_[i].value == value) return entries_[i].instrument;
    }
    T* instrument = Resolve(value);
    if (m < kCapacity) {
      entries_[m] = {std::string(value), instrument};
      size_.store(m + 1, std::memory_order_release);
    }
    return instrument;
  }

 private:
  static constexpr int kCapacity = 16;
  struct Entry {
    std::string value;
    T* instrument = nullptr;
  };

  T* Resolve(std::string_view value) const {
    Labels labels = fixed_;
    labels.emplace_back(key_, std::string(value));
    Registry& reg = Registry::Global();
    if constexpr (std::is_same_v<T, Counter>) {
      return reg.GetCounter(name_, labels);
    } else if constexpr (std::is_same_v<T, Gauge>) {
      return reg.GetGauge(name_, labels);
    } else {
      return reg.GetHistogram(name_, labels);
    }
  }

  const std::string name_;
  const std::string key_;
  const Labels fixed_;
  std::array<Entry, kCapacity> entries_;
  std::atomic<int> size_{0};
  std::mutex mu_;
};

// Serializes labels canonically ("{a=\"x\",b=\"y\"}", empty string for
// no labels); shared by the registry key and the Prometheus exporter.
std::string LabelString(const Labels& labels);

}  // namespace rcc::obs
