// Rank-execution engine: the scheduler layer between simulated ranks and
// the OS. Every blocking point in the simulator (fabric receives, KV
// waits, ULFM agreement states, request chaining) parks on a WaitPoint
// instead of a raw std::condition_variable, which lets the same code run
// on either backend:
//
//  * kThreads — every task is a real OS thread and a WaitPoint is exactly
//    a condition variable. This is today's behavior, bit-for-bit: chaos
//    seeds recorded before the engine existed replay identically.
//  * kFibers — tasks are cooperative stackful fibers driven by a
//    discrete-event run queue ordered by (virtual time, pid, sequence).
//    No OS threads are created: the external caller's thread pumps the
//    scheduler inside blocking calls (Cluster::Join, TaskHandle::Join).
//    10k+ ranks fit in one process, and the whole simulation is
//    single-threaded, hence deterministic.
//
// Fiber switch. On x86-64 a switch is a register-only routine: it saves
// the callee-saved general registers (rbx, rbp, r12-r15), the stack
// pointer, the MXCSR and the x87 control word, so each fiber keeps its
// own floating-point rounding and exception masks. It does not save the
// signal mask: every fiber runs on the one thread that pumps the
// scheduler and none changes its mask, so the rt_sigprocmask syscall
// glibc's swapcontext makes on every switch buys nothing. Other
// architectures fall back to getcontext/makecontext/swapcontext, chosen
// at compile time from the target macro. TSan and ASan builds annotate
// every switch.
//
// Task retirement. A finished task leaves the engine's task table at
// once (its stack goes back to a pool; a TaskHandle or a stale WaitPoint
// entry may keep the small task struct alive), so quiescence expiry,
// WakeAllTimeoutParked and the stall report walk only live tasks, in
// task-id order. The stall report's tasks= and done= still count every
// task spawned and finished.
//
// Real-time waits (WaitFor) have no meaning under fibers; they map onto
// *quiescence*: when the run queue drains and nothing can make progress,
// timeout-parked fibers are woken with a timeout verdict. That is the
// fiber-mode equivalent of "the grace period passed and nobody spoke" —
// deterministic, and it fires exactly when the drain the grace period was
// waiting for has provably finished. Expiry respects the waits' relative
// time scales: at each quiescence the scheduler expires only the waiters
// parked with the smallest not-yet-expired timeout value (a 0s
// death-watch grace before a 200us protocol poll before a 2ms kv poll),
// and any progress restarts that ladder from the bottom. A drained queue
// with the ladder exhausted is a stall — the deterministic image of a
// deadlock that would hang the threads backend. (A receive enters that
// death-watch grace only after a watched death; it scans its watch only
// once the fabric has recorded a death, and again only after a further
// one — see sim/fabric.h.)
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "sim/params.h"

namespace rcc::sim {

class Engine;
class FiberEngine;
struct FiberTask;

// Resolves kAuto against the RCC_SIM_ENGINE environment variable
// ("threads" | "fibers"; default threads). Explicit kinds pass through.
EngineKind ResolveEngineKind(EngineKind requested);

std::unique_ptr<Engine> MakeEngine(EngineKind kind);

// Process-wide handler invoked when the fibers scheduler proves a stall
// (run queue drained, quiescence ladder exhausted, tasks still parked)
// right before the fatal check aborts. CLI smokes install one to exit
// with a distinct status code instead of a generic abort; pass nullptr
// to clear. Threads-backend deadlocks simply hang and cannot be proven
// here — callers pair the handler with a real-time watchdog.
void SetStallHandler(std::function<void(const std::string& report)> handler);

// Secondary stall hook invoked just before the stall handler (and before
// the fatal check when no handler is installed). Unlike SetStallHandler
// — which tools own to pick an exit path — the observer is for passive
// instrumentation: the obs flight recorder installs one that dumps every
// rank's event ring so a proven deadlock always leaves forensics behind,
// whatever the handler then does. Pass nullptr to clear.
void SetStallObserver(std::function<void(const std::string& report)> observer);

// True when the calling context is a fiber task (cooperative backend).
// Blocking code uses this to pick quiescence semantics over real-clock
// deadlines.
bool OnFiberTask();

// The pid (TaskOptions::pid) of the fiber task running on this thread,
// or -1 off a fiber task. A collective-op task carries its submitting
// rank's pid.
int CurrentTaskPid();

// Cooperative yield for busy-wait loops (spinning on a flag another rank
// sets). Under threads this is std::this_thread::yield(); under fibers
// the calling fiber re-queues itself *behind* every runnable peer at the
// same virtual time (deterministically: yields sort after normal entries,
// then by yield sequence) so the peer being spun on can actually run.
// Code that can park on a WaitPoint should do that instead.
void YieldTask();

struct TaskOptions {
  // Deterministic tie-break key for the run queue (the simulated rank's
  // pid; collective-op tasks use the submitting rank's pid).
  int pid = 0;
  // The task's virtual clock, read by the scheduler while the task is
  // runnable-but-not-running to order the run queue. May be null (treated
  // as virtual time 0).
  const Seconds* clock = nullptr;
};

// A joinable handle onto one engine task. Copyable (shared); Join is
// idempotent. Under fibers, Join pumps the scheduler when called from the
// external thread and parks when called from another fiber.
class TaskHandle {
 public:
  TaskHandle() = default;

  bool joinable() const { return impl_ != nullptr; }
  void Join();

 private:
  friend class ThreadsEngine;
  friend class FiberEngine;
  struct Impl {
    virtual ~Impl() = default;
    virtual void Join() = 0;
  };
  explicit TaskHandle(std::shared_ptr<Impl> impl) : impl_(std::move(impl)) {}
  std::shared_ptr<Impl> impl_;
};

class Engine {
 public:
  virtual ~Engine() = default;
  virtual EngineKind kind() const = 0;

  // Starts a task. Under threads this is std::thread; under fibers the
  // task is queued at *opts.clock and runs when the scheduler reaches it.
  virtual TaskHandle Spawn(TaskOptions opts, std::function<void()> fn) = 0;

  // Wakes every fiber parked with a timeout (WaitFor) so it re-checks its
  // predicate, exactly as a quiescence round would. Used by Fabric::Kill:
  // a death must interrupt real-time-style poll loops (KV waiters on a
  // key that will now never be written) even while other fibers still
  // have work. No-op under threads (real timeouts fire on their own).
  virtual void WakeAllTimeoutParked() = 0;
};

// A parkable wait primitive replacing raw condition_variable waits.
//
// Callers hold an external lock guarding their predicate and loop:
//
//   std::unique_lock<std::mutex> lock(mu);
//   while (!pred()) wp.Wait(lock);
//
// Semantics by calling context:
//  * pure threads (no live fiber engine in the process): Wait is exactly
//    cv.wait(lock), WaitFor exactly cv.wait_for(lock, dur) — preserving
//    the legacy backend bit-for-bit;
//  * a fiber task: the fiber parks on its engine, releasing the external
//    lock across the park; NotifyAll unparks it back onto the run queue
//    at its virtual clock;
//  * an external OS thread while a fiber engine is live: the thread pumps
//    the scheduler between predicate checks (fibers can only run on a
//    thread that lends them time).
//
// Spurious wakeups are allowed in every mode; callers must re-check their
// predicate (they all already do — that is the cv contract).
class WaitPoint {
 public:
  WaitPoint();
  ~WaitPoint();
  WaitPoint(const WaitPoint&) = delete;
  WaitPoint& operator=(const WaitPoint&) = delete;

  void Wait(std::unique_lock<std::mutex>& lock);

  // Returns false when the wait "timed out": a real-clock expiry under
  // threads, a quiescence wake under fibers (see file comment). Returns
  // true when notified (or on a spurious wake).
  bool WaitFor(std::unique_lock<std::mutex>& lock, double real_seconds);

  // Wakes every waiter (threads and fibers). Does not require any lock
  // to be held, but callers conventionally hold their predicate lock.
  void NotifyAll();

 private:
  struct FiberWaiter {
    std::shared_ptr<FiberTask> task;  // keeps stale entries safe to filter
    uint64_t park_epoch;
  };

  std::condition_variable cv_;       // thread-backed waiters
  std::mutex waiters_mu_;            // guards fiber_waiters_
  std::vector<FiberWaiter> fiber_waiters_;
};

}  // namespace rcc::sim
