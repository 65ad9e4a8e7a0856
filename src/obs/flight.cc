#include "obs/flight.h"

#include <sys/mman.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <thread>

#include "common/env.h"
#include "common/log.h"
#include "obs/metrics.h"
#include "sim/engine.h"

namespace rcc::obs::flight {
namespace {

const char* Env(const char* name) {
  const char* v = std::getenv(name);
  return (v != nullptr && *v != '\0') ? v : nullptr;
}

std::atomic<bool> g_enabled{[] {
  const char* v = std::getenv("RCC_FLIGHT");
  return !(v != nullptr && (v[0] == '0' || v[0] == 'f' || v[0] == 'F') );
}()};

uint64_t RingSlots() {
  static const uint64_t slots = [] {
    const int64_t n = common::EnvInt64("RCC_FLIGHT_RING", 4096);
    return static_cast<uint64_t>(n >= 16 ? n : 4096);
  }();
  return slots;
}

// Ring registry. Rings are created on first use and live for the whole
// process (call sites cache the pointer); ResetAll empties them in
// place instead of deallocating.
struct State {
  std::mutex mu;
  std::map<int, std::unique_ptr<Ring>> rings;
  // Failure observations (deduped by pid) for the MTBF estimator.
  std::set<int> failed_pids;
  double first_failure_t = 0.0;
  double last_failure_t = 0.0;
};

State& GlobalState() {
  static State* s = new State();
  return *s;
}

// Same text as printf("%.17g"): to_chars with an explicit precision
// follows printf's %g rules, without the locale and format parsing.
void AppendJsonDouble(std::string* out, double v) {
  // inf/nan are not JSON; clamp to null.
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  char buf[32];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v,
                                 std::chars_format::general, 17)
                       .ptr);
}

template <typename Int>
void AppendInt(std::string* out, Int v) {
  char buf[24];
  out->append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
}

}  // namespace

const char* EvName(Ev kind) {
  switch (kind) {
    case Ev::kCollPost: return "coll_post";
    case Ev::kCollComplete: return "coll_complete";
    case Ev::kCollSvc: return "coll_svc";
    case Ev::kCollReplay: return "coll_replay";
    case Ev::kRevoke: return "revoke";
    case Ev::kAgree: return "agree";
    case Ev::kShrink: return "shrink";
    case Ev::kExpand: return "expand";
    case Ev::kExpandBegin: return "expand_begin";
    case Ev::kExpandRound: return "expand_round";
    case Ev::kExpandSplice: return "expand_splice";
    case Ev::kExpandAbort: return "expand_abort";
    case Ev::kJoinAnnounce: return "join_announce";
    case Ev::kJoinStaged: return "join_staged";
    case Ev::kJoinWithdraw: return "join_withdraw";
    case Ev::kJoinSpliced: return "join_spliced";
    case Ev::kLeave: return "leave";
    case Ev::kRepairBegin: return "repair_begin";
    case Ev::kRepairDone: return "repair_done";
    case Ev::kRecoveryPhase: return "recovery_phase";
    case Ev::kFailureDetected: return "failure_detected";
    case Ev::kSelfAbort: return "self_abort";
    case Ev::kServeAdmit: return "serve_admit";
    case Ev::kServeComplete: return "serve_complete";
    case Ev::kKvWaitBegin: return "kv_wait_begin";
    case Ev::kKvWaitEnd: return "kv_wait_end";
    case Ev::kPolicyInputs: return "policy_inputs";
    case Ev::kPolicyDecision: return "policy_decision";
  }
  return "unknown";
}

const char* PhaseName(Phase p) {
  switch (p) {
    case Phase::kRevoke: return "revoke";
    case Phase::kAgree: return "agree";
    case Phase::kShrink: return "shrink";
    case Phase::kRebuild: return "rebuild";
    case Phase::kReplay: return "replay";
  }
  return "unknown";
}

namespace {

template <typename T>
std::atomic_ref<T> Ref(T& field) {
  static_assert(alignof(T) >= std::atomic_ref<T>::required_alignment);
  return std::atomic_ref<T>(field);
}

}  // namespace

Ring::Ring(int pid, uint64_t slots) : pid_(pid), slots_(slots) {
  // Fresh anonymous pages read as zero (every slot empty) and are only
  // committed when a record first lands in them.
  void* mem = mmap(nullptr, slots * sizeof(Slot), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  RCC_CHECK(mem != MAP_FAILED) << "flight ring mmap failed";
  ring_ = static_cast<Slot*>(mem);
}

Ring::~Ring() { munmap(ring_, slots_ * sizeof(Slot)); }

void Ring::Record(Ev kind, double t, int64_t a, int64_t b, double c) {
  const uint64_t i = head_.fetch_add(1, std::memory_order_relaxed);
  Slot& s = ring_[i % slots_];
  // Seqlock publication: odd while the fields are being replaced, then
  // 2*i+2 (even, index-stamped) once the event is whole. A reader that
  // sees any other value skips the slot.
  //
  // One writer per slot at a time: a writer that lapped the ring while
  // an older one is still filling this slot (odd sequence) waits for it,
  // and an older writer that finds a newer event already claimed drops
  // its own, which is outside the ring's window anyway. Two writers
  // filling one slot together could otherwise publish a mix of both.
  std::atomic_ref<uint64_t> seq = Ref(s.seq);
  uint64_t cur = seq.load(std::memory_order_relaxed);
  for (;;) {
    if (cur >= 2 * i + 1) return;
    if (cur % 2 == 1) {
      std::this_thread::yield();
      cur = seq.load(std::memory_order_relaxed);
    } else if (seq.compare_exchange_weak(cur, 2 * i + 1,
                                         std::memory_order_relaxed)) {
      break;
    }
  }
  // Release stores pair with the reader's acquire loads: a reader that
  // sees any of these values also sees the odd claim on its re-check.
  Ref(s.t).store(t, std::memory_order_release);
  Ref(s.kind).store(static_cast<uint16_t>(kind), std::memory_order_release);
  Ref(s.a).store(a, std::memory_order_release);
  Ref(s.b).store(b, std::memory_order_release);
  Ref(s.c).store(c, std::memory_order_release);
  seq.store(2 * i + 2, std::memory_order_release);
}

std::vector<Event> Ring::Snapshot() const {
  const uint64_t head = head_.load(std::memory_order_acquire);
  const uint64_t first = head > slots_ ? head - slots_ : 0;
  std::vector<Event> out;
  out.reserve(head - first);
  for (uint64_t i = first; i < head; ++i) {
    Slot& s = ring_[i % slots_];
    if (Ref(s.seq).load(std::memory_order_acquire) != 2 * i + 2) continue;
    Event e;
    e.index = i;
    e.t = Ref(s.t).load(std::memory_order_acquire);
    e.kind = static_cast<Ev>(Ref(s.kind).load(std::memory_order_acquire));
    e.a = Ref(s.a).load(std::memory_order_acquire);
    e.b = Ref(s.b).load(std::memory_order_acquire);
    e.c = Ref(s.c).load(std::memory_order_acquire);
    // Re-check: if a writer lapped us mid-copy the fields are torn.
    if (Ref(s.seq).load(std::memory_order_acquire) != 2 * i + 2) continue;
    out.push_back(e);
  }
  return out;
}

uint64_t Ring::dropped() const {
  const uint64_t head = head_.load(std::memory_order_relaxed);
  return head > slots_ ? head - slots_ : 0;
}

std::string Ring::ToJson(const std::string& reason) const {
  const std::vector<Event> events = Snapshot();
  std::string out;
  out.reserve(96 + events.size() * 80);
  out.append("{\"schema\":\"rcc-flight-v1\",\"pid\":");
  AppendInt(&out, pid_);
  out.append(",\"reason\":\"");
  for (char ch : reason) {
    if (ch == '"' || ch == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) out.push_back(ch);
  }
  out.append("\",\"ring\":");
  AppendInt(&out, slots_);
  out.append(",\"recorded\":");
  AppendInt(&out, recorded());
  out.append(",\"dropped\":");
  AppendInt(&out, dropped());
  out.append(",\"events\":[");
  for (size_t k = 0; k < events.size(); ++k) {
    const Event& e = events[k];
    if (k > 0) out.push_back(',');
    out.append("\n{\"i\":");
    AppendInt(&out, e.index);
    out.append(",\"t\":");
    AppendJsonDouble(&out, e.t);
    out.append(",\"ev\":\"");
    out.append(EvName(e.kind));
    out.append("\",\"a\":");
    AppendInt(&out, e.a);
    out.append(",\"b\":");
    AppendInt(&out, e.b);
    out.append(",\"c\":");
    AppendJsonDouble(&out, e.c);
    out.push_back('}');
  }
  out.append("\n]}\n");
  return out;
}

void Ring::Reset() {
  // Only safe between runs (no concurrent writers): unpublish every
  // written slot, then rewind the head. Slots at or past the head were
  // never written (or were unpublished by an earlier Reset) and are left
  // untouched, so their pages stay uncommitted.
  const uint64_t written = std::min(head_.load(std::memory_order_relaxed),
                                    slots_);
  for (uint64_t k = 0; k < written; ++k) {
    Ref(ring_[k].seq).store(0, std::memory_order_relaxed);
  }
  head_.store(0, std::memory_order_relaxed);
}

bool Enabled() { return g_enabled.load(std::memory_order_relaxed); }

void SetEnabled(bool on) {
  g_enabled.store(on, std::memory_order_relaxed);
}

Ring* ForRank(int pid) {
  InstallStallDump();
  State& st = GlobalState();
  std::lock_guard<std::mutex> lock(st.mu);
  auto it = st.rings.find(pid);
  if (it == st.rings.end()) {
    it = st.rings.emplace(pid, std::make_unique<Ring>(pid, RingSlots()))
             .first;
  }
  return it->second.get();
}

void ResetAll() {
  State& st = GlobalState();
  std::lock_guard<std::mutex> lock(st.mu);
  for (auto& [pid, ring] : st.rings) ring->Reset();
  st.failed_pids.clear();
  st.first_failure_t = 0.0;
  st.last_failure_t = 0.0;
}

std::string DumpDir(const std::string& dir_override) {
  if (!dir_override.empty()) return dir_override;
  if (const char* v = Env("RCC_FLIGHT_DIR")) return v;
  return ".";
}

std::vector<std::string> DumpAll(const std::string& reason,
                                 const std::string& dir_override,
                                 const std::string& prefix) {
  State& st = GlobalState();
  std::vector<Ring*> rings;
  {
    std::lock_guard<std::mutex> lock(st.mu);
    rings.reserve(st.rings.size());
    for (auto& [pid, ring] : st.rings) rings.push_back(ring.get());
  }
  // Serialize dumps: concurrent aborts (threads engine) must not write
  // the same files at once.
  static std::mutex dump_mu;
  std::lock_guard<std::mutex> dump_lock(dump_mu);
  const std::string dir = DumpDir(dir_override);
  std::vector<std::string> paths;
  for (Ring* ring : rings) {
    const std::string path = dir + "/" + prefix + "flight_rank" +
                             std::to_string(ring->pid()) + ".json";
    std::ofstream out(path, std::ios::trunc);
    if (!out) {
      RCC_LOG(kError) << "flight: cannot open " << path;
      continue;
    }
    out << ring->ToJson(reason);
    out.flush();
    if (!out) {
      RCC_LOG(kError) << "flight: short write on " << path;
      continue;
    }
    paths.push_back(path);
  }
  if (!paths.empty()) {
    RCC_LOG(kInfo) << "flight: dumped " << paths.size() << " ring(s) to "
                   << dir << " (reason: " << reason << ")";
  }
  return paths;
}

void DumpOnAbort() {
  if (!Enabled()) return;
  // Every abort re-dumps (overwriting the previous files): a later
  // abort has strictly more history in its rings, so the last dump is
  // the most complete picture.
  DumpAll("abort");
}

void InstallStallDump() {
  static const bool installed = [] {
    sim::SetStallObserver([](const std::string& report) {
      if (!Enabled()) return;
      DumpAll("stall: " + report);
    });
    return true;
  }();
  (void)installed;
}

void NoteFailureDetected(int failed_pid, double t) {
  State& st = GlobalState();
  std::lock_guard<std::mutex> lock(st.mu);
  if (!st.failed_pids.insert(failed_pid).second) return;
  const size_t n = st.failed_pids.size();
  if (n == 1) {
    st.first_failure_t = t;
    st.last_failure_t = t;
  } else {
    st.first_failure_t = std::min(st.first_failure_t, t);
    st.last_failure_t = std::max(st.last_failure_t, t);
  }
  static Counter* failures =
      Registry::Global().GetCounter("rcc_failures_observed_total");
  static Gauge* mtbf = Registry::Global().GetGauge("rcc_mtbf_seconds");
  failures->Increment();
  // MTBF estimate over the run so far: mean inter-failure virtual time,
  // or time-to-first-failure while only one failure has been seen.
  mtbf->Set(n >= 2 ? (st.last_failure_t - st.first_failure_t) /
                         static_cast<double>(n - 1)
                   : st.first_failure_t);
}

void RecordRecoveryPhase(Ring* ring, Phase phase, double t_end,
                         int64_t repair_ordinal, double duration) {
  if (ring != nullptr && Enabled()) {
    ring->Record(Ev::kRecoveryPhase, t_end, static_cast<int64_t>(phase),
                 repair_ordinal, duration);
  }
  static Histogram* hists[6] = {};
  const int idx = static_cast<int>(phase);
  if (idx < 1 || idx > 5) return;
  static std::once_flag once;
  std::call_once(once, [] {
    Registry& reg = Registry::Global();
    reg.SetHelp("rcc_recovery_phase_seconds",
                "Per-phase recovery duration (revoke/agree/shrink/"
                "rebuild/replay), one observation per repair per rank.");
    for (int p = 1; p <= 5; ++p) {
      hists[p] = reg.GetHistogram(
          "rcc_recovery_phase_seconds",
          {{"phase", PhaseName(static_cast<Phase>(p))}});
    }
  });
  hists[idx]->Observe(duration);
}

}  // namespace rcc::obs::flight
