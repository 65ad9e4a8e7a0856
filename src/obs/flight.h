// Always-on flight recorder: a per-rank, fixed-size ring buffer of
// structured binary events recorded from the hot paths of the resilient
// stack — collective post/complete/replay (op ids), every ULFM state
// transition (revoke/agree/shrink/expand/splice, with round numbers),
// admission-protocol rounds, serving batcher admits/completions, and
// kvstore waits.
//
// Recording costs a few atomics per event (one fetch_add to pick a slot,
// one compare-exchange claiming it, release field stores, one release
// store publishing the slot's sequence number), so it stays on by
// default even in chaos campaigns and scale smokes. Readers (DumpAll,
// postmortem tests) snapshot a ring seqlock-style: a slot whose sequence
// is odd or moved during the copy is being overwritten and is skipped.
//
// Dumps — one JSON file per rank, flight_rank<pid>.json — are triggered
// automatically on worker abort (DumpOnAbort), on a proven fiber-
// scheduler stall (sim stall observer, installed by InstallStallDump),
// on an oracle violation in the chaos runner, and on a serving SLO
// breach. tools/postmortem merges the per-rank dumps into one causal
// timeline and names the root-cause rank (see obs/postmortem.h).
//
// Knobs: RCC_FLIGHT (0 disables, default on), RCC_FLIGHT_RING (events
// per rank, default 4096), RCC_FLIGHT_DIR (dump directory, default ".").
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace rcc::obs::flight {

// Event kinds. The a/b/c payload fields are kind-specific:
//
//   kCollPost       a=op id          b=element count   c=declared bytes
//   kCollComplete   a=op id                            c=latency (s)
//   kCollSvc        a=op id          b=ok (0/1)        c=service time (s)
//   kCollReplay     a=op id          b=agreed MIN id
//   kRevoke         a=comm context id
//   kAgree          a=agree round    b=MIN value       c=duration (s)
//   kShrink         a=survivors      b=failed count    c=duration (s)
//   kExpand         a=new world      b=expected joiners c=duration (s)
//   kExpandBegin    a=expected joiners
//   kExpandRound    a=round number   b=verdict (0 pending/1 spliced/
//                                      2 aborted)
//   kExpandSplice   a=admitted count                   c=duration since
//                                                        window open (s)
//   kExpandAbort                                       c=duration since
//                                                        window open (s)
//   kJoinAnnounce / kJoinStaged / kJoinWithdraw         (joiner side)
//   kJoinSpliced    a=admitted count
//   kLeave                                              (voluntary)
//   kRepairBegin    a=repair ordinal
//   kRepairDone     a=repair ordinal                   c=duration (s)
//   kRecoveryPhase  a=Phase code     b=repair ordinal  c=duration (s)
//   kFailureDetected a=failed pid
//   kSelfAbort
//   kServeAdmit     a=newly scheduled b=waiting after  c=prompt tokens
//   kServeComplete  a=request id     b=tokens          c=done-admit (s)
//   kKvWaitBegin    a=FNV-1a key hash (low 53 bits: double-exact)
//   kKvWaitEnd      a=FNV-1a key hash                  c=wait time (s)
//   kPolicyInputs   a=world after     b=event kind     c=MTBF estimate
//                     the event         (policy::        (s, 0 unknown)
//                                        EventKind)
//   kPolicyDecision a=chosen strategy b=decision seq   c=chosen modeled
//                     (policy::                          cost (worker-s)
//                      Strategy)
//
// kPolicyInputs/kPolicyDecision are recorded back-to-back by the same
// rank for every policy decision; tools/postmortem pairs them by
// adjacency to print the POLICY attribution lines.
enum class Ev : uint16_t {
  kCollPost = 1,
  kCollComplete,
  kCollSvc,
  kCollReplay,
  kRevoke,
  kAgree,
  kShrink,
  kExpand,
  kExpandBegin,
  kExpandRound,
  kExpandSplice,
  kExpandAbort,
  kJoinAnnounce,
  kJoinStaged,
  kJoinWithdraw,
  kJoinSpliced,
  kLeave,
  kRepairBegin,
  kRepairDone,
  kRecoveryPhase,
  kFailureDetected,
  kSelfAbort,
  kServeAdmit,
  kServeComplete,
  kKvWaitBegin,
  kKvWaitEnd,
  kPolicyInputs,
  kPolicyDecision,
};

const char* EvName(Ev kind);

// Recovery critical-path phases (kRecoveryPhase's `a` field). The same
// durations are observed into the rcc_recovery_phase_seconds{phase=...}
// histograms at the recording site, so a postmortem's per-phase sums
// match the metric deltas exactly.
enum class Phase : int64_t {
  kRevoke = 1,
  kAgree = 2,
  kShrink = 3,
  kRebuild = 4,
  kReplay = 5,
};

const char* PhaseName(Phase p);

struct Event {
  uint64_t index = 0;  // global record index on this rank (monotonic)
  double t = 0.0;      // virtual time
  Ev kind = Ev::kCollPost;
  int64_t a = 0;
  int64_t b = 0;
  double c = 0.0;
};

// One rank's ring. Obtained once via ForRank and cached by call sites;
// never deallocated while the process lives.
class Ring {
 public:
  Ring(int pid, uint64_t slots);
  ~Ring();
  Ring(const Ring&) = delete;
  Ring& operator=(const Ring&) = delete;

  int pid() const { return pid_; }

  // Hot path: claims a slot and publishes the event. Safe from any
  // task/thread; a concurrent snapshot skips slots caught mid-write.
  void Record(Ev kind, double t, int64_t a = 0, int64_t b = 0,
              double c = 0.0);

  // Events still in the ring, oldest first. Lock-free readers: events
  // overwritten or in-flight during the copy are dropped.
  std::vector<Event> Snapshot() const;

  uint64_t recorded() const { return head_.load(std::memory_order_relaxed); }
  // Events pushed out of the ring by wraparound.
  uint64_t dropped() const;

  // JSON dump of this ring ({"schema":"rcc-flight-v1",...}).
  std::string ToJson(const std::string& reason) const;

  // Empties the ring in place. Only safe between runs (no concurrent
  // writers); cached Ring pointers stay valid. Used by ResetAll.
  void Reset();

 private:
  // Plain fields, every access through std::atomic_ref: the slot array
  // is anonymous zero-filled memory, committed page by page on first
  // write, so an idle ring costs no RSS.
  struct Slot {
    uint64_t seq;  // 0 empty, 2*index+1 while writing, 2*index+2 done
    double t;
    uint16_t kind;
    int64_t a;
    int64_t b;
    double c;
  };

  int pid_;
  uint64_t slots_;
  std::atomic<uint64_t> head_{0};
  Slot* ring_;  // slots_ entries, mmap'd
};

// Global on/off. Initialized from RCC_FLIGHT (default on); SetEnabled
// overrides at runtime (the overhead bench toggles it). Call sites
// guard Record with Enabled() — one relaxed atomic load.
bool Enabled();
void SetEnabled(bool on);

// The ring for `pid`, created on first use (RCC_FLIGHT_RING slots,
// default 4096). Never null, valid for the process lifetime.
Ring* ForRank(int pid);

// Empties every ring and clears the MTBF failure set, so rings hold one
// simulation at a time: pids restart at 0 in every cluster. Called on
// entry by the figure-path drivers (core::RunUlfmElastic,
// horovod::RunElasticHorovod) and per schedule by the chaos runner.
// Only safe while no simulation is running.
void ResetAll();

// Dump directory: `dir_override` if non-empty, else RCC_FLIGHT_DIR,
// else ".".
std::string DumpDir(const std::string& dir_override = "");

// Writes every rank's ring as <dir>/<prefix>flight_rank<pid>.json and
// returns the paths. `reason` is stamped into each file.
std::vector<std::string> DumpAll(const std::string& reason,
                                 const std::string& dir_override = "",
                                 const std::string& prefix = "");

// Worker-abort trigger: dumps all rings, overwriting any previous abort
// dump (a later abort has strictly more history, so the last dump is
// the most complete picture). Respects Enabled(). The dump covers the
// current simulation only when its driver called ResetAll at start;
// its cost is proportional to the events in the rings.
void DumpOnAbort();

// Installs a sim stall observer that dumps all rings (reason "stall")
// right before the stall handler / fatal abort fires. Idempotent.
void InstallStallDump();

// Failure observations feeding the Chameleon-facing live metrics:
// called once per failed pid per repair by the recovery path. The first
// observation of a pid updates rcc_failures_observed_total and the
// rcc_mtbf_seconds gauge (mean inter-failure virtual time across the
// run so far). Duplicate detections of the same pid (every survivor
// repairs the same failure) are ignored. ResetAll clears the set.
void NoteFailureDetected(int failed_pid, double t);

// Records one recovery phase: a kRecoveryPhase flight event on `ring`
// plus an observation into rcc_recovery_phase_seconds{phase=...} with
// the identical duration value.
void RecordRecoveryPhase(Ring* ring, Phase phase, double t_end,
                         int64_t repair_ordinal, double duration);

}  // namespace rcc::obs::flight
