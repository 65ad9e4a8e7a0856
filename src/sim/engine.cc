#include "sim/engine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <list>
#include <queue>
#include <string>
#include <thread>
#include <utility>

#include "common/env.h"
#include "common/log.h"

// Sanitizers must be told about stack switches: TSan or it reports false
// races between code that ran on different fibers of the same OS thread,
// ASan or it checks a fiber's frames against the wrong stack bounds.
#if defined(__SANITIZE_THREAD__)
#define RCC_TSAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define RCC_TSAN_FIBERS 1
#endif
#endif
#ifdef RCC_TSAN_FIBERS
#include <sanitizer/tsan_interface.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#define RCC_ASAN_FIBERS 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define RCC_ASAN_FIBERS 1
#endif
#endif
#ifdef RCC_ASAN_FIBERS
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif

#if defined(__x86_64__)
extern "C" {
// Register-only switch (System V x86-64). Pushes what the ABI makes
// callee-saved across a call -- rbx, rbp, r12-r15, the MXCSR and the x87
// control word -- onto the outgoing stack, stores the stack pointer in
// *from_sp, and pops the same frame off to_sp. Caller-saved registers
// are dead across the call. Unlike swapcontext it leaves the signal
// mask alone, so a switch makes no rt_sigprocmask syscall: every fiber
// runs on the thread that pumps the scheduler, and nothing in the
// simulator changes a mask per fiber.
void rcc_sim_fiber_switch(void** from_sp, void* to_sp);
// First frame of a new fiber: calls r13(r12) and never returns.
void rcc_sim_fiber_entry();
}

asm(R"(
  .text
  .globl rcc_sim_fiber_switch
  .hidden rcc_sim_fiber_switch
  .type rcc_sim_fiber_switch, @function
  .p2align 4
rcc_sim_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  subq $16, %rsp
  stmxcsr 8(%rsp)
  fnstcw 12(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr 8(%rsp)
  fldcw 12(%rsp)
  addq $16, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret
  .size rcc_sim_fiber_switch, .-rcc_sim_fiber_switch

  .globl rcc_sim_fiber_entry
  .hidden rcc_sim_fiber_entry
  .type rcc_sim_fiber_entry, @function
  .p2align 4
rcc_sim_fiber_entry:
  .cfi_startproc
  .cfi_undefined rip
  movq %r12, %rdi
  callq *%r13
  ud2
  .cfi_endproc
  .size rcc_sim_fiber_entry, .-rcc_sim_fiber_entry
)");
#else
#include <ucontext.h>
#endif

namespace rcc::sim {

namespace {

size_t PageSize() {
  static const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  return page;
}

// Fiber stack size: RCC_SIM_FIBER_STACK_KB (default 256). Stacks are
// mmap'd MAP_NORESERVE so 10k ranks only commit the pages they touch.
size_t FiberStackBytes() {
  static const size_t bytes = [] {
    double kb = common::EnvDouble("RCC_SIM_FIBER_STACK_KB", 256.0);
    if (kb <= 0) kb = 256.0;
    size_t b = static_cast<size_t>(kb * 1024.0);
    const size_t min_bytes = 64 * 1024;
    if (b < min_bytes) b = min_bytes;
    const size_t page = PageSize();
    return (b + page - 1) / page * page;
  }();
  return bytes;
}

// Stall handler storage: written by SetStallHandler before a run, read
// at the (single-threaded) point the scheduler proves a stall.
std::function<void(const std::string&)>& StallHandlerSlot() {
  static std::function<void(const std::string&)> handler;
  return handler;
}

// Observer storage, same discipline as the handler slot. Invoked before
// the handler so forensic dumps land even when the handler exits.
std::function<void(const std::string&)>& StallObserverSlot() {
  static std::function<void(const std::string&)> observer;
  return observer;
}

// ---------------------------------------------------------------------
// Fiber context switch.
// ---------------------------------------------------------------------

#if defined(__x86_64__)
// A suspended context is just its stack pointer: everything else it
// needs lives in the frame rcc_sim_fiber_switch pushed on its stack.
struct FiberContext {
  void* sp = nullptr;
};

void SwitchContext(FiberContext* from, FiberContext* to) {
  rcc_sim_fiber_switch(&from->sp, to->sp);
}

// Builds the frame rcc_sim_fiber_switch pops on its first switch into
// the stack [lo, lo + size): zeroed callee-saved registers except
// r12 = arg and r13 = entry, the creating thread's MXCSR and x87 control
// word, and rcc_sim_fiber_entry as the return address, placed so the
// entry's call sees a 16-byte-aligned stack.
void InitContext(FiberContext* ctx, void* lo, size_t size,
                 void (*entry)(void*), void* arg) {
  uint32_t mxcsr = 0;
  uint16_t fpu_cw = 0;
  asm volatile("stmxcsr %0" : "=m"(mxcsr));
  asm volatile("fnstcw %0" : "=m"(fpu_cw));
  const uintptr_t top =
      (reinterpret_cast<uintptr_t>(lo) + size) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<uint64_t*>(top - 88);
  std::memset(frame, 0, 88);
  frame[1] = mxcsr | (uint64_t{fpu_cw} << 32);
  frame[4] = reinterpret_cast<uint64_t>(entry);            // r13
  frame[5] = reinterpret_cast<uint64_t>(arg);              // r12
  frame[8] = reinterpret_cast<uint64_t>(&rcc_sim_fiber_entry);  // ret
  ctx->sp = frame;
}
#else
// Other architectures: glibc ucontext (saves the signal mask, so every
// switch costs an rt_sigprocmask syscall).
struct FiberContext {
  ucontext_t uc{};
};

void SwitchContext(FiberContext* from, FiberContext* to) {
  swapcontext(&from->uc, &to->uc);
}

void UcontextEntry(unsigned fn_hi, unsigned fn_lo, unsigned arg_hi,
                   unsigned arg_lo) {
  const auto join = [](unsigned hi, unsigned lo) {
    return static_cast<uintptr_t>((uint64_t{hi} << 32) | lo);
  };
  reinterpret_cast<void (*)(void*)>(join(fn_hi, fn_lo))(
      reinterpret_cast<void*>(join(arg_hi, arg_lo)));
}

void InitContext(FiberContext* ctx, void* lo, size_t size,
                 void (*entry)(void*), void* arg) {
  getcontext(&ctx->uc);
  ctx->uc.uc_stack.ss_sp = lo;
  ctx->uc.uc_stack.ss_size = size;
  ctx->uc.uc_link = nullptr;
  const uint64_t f = reinterpret_cast<uintptr_t>(entry);
  const uint64_t a = reinterpret_cast<uintptr_t>(arg);
  makecontext(&ctx->uc, reinterpret_cast<void (*)()>(&UcontextEntry), 4,
              static_cast<unsigned>(f >> 32), static_cast<unsigned>(f),
              static_cast<unsigned>(a >> 32), static_cast<unsigned>(a));
}
#endif

// ASan stack-switch annotations (no-ops in other builds). Start before
// leaving a stack: names the stack being entered and saves the leaving
// context's fake stack (nullptr when the context never resumes). Finish
// right after arriving: restores this context's fake stack and reports
// the bounds of the stack just left.
inline void AsanStartSwitch(void** fake_stack_save, const void* bottom,
                            size_t size) {
#ifdef RCC_ASAN_FIBERS
  __sanitizer_start_switch_fiber(fake_stack_save, bottom, size);
#else
  (void)fake_stack_save, (void)bottom, (void)size;
#endif
}

inline void AsanFinishSwitch(void* fake_stack_save, const void** bottom_old,
                             size_t* size_old) {
#ifdef RCC_ASAN_FIBERS
  __sanitizer_finish_switch_fiber(fake_stack_save, bottom_old, size_old);
#else
  (void)fake_stack_save, (void)bottom_old, (void)size_old;
#endif
}

}  // namespace

void SetStallHandler(std::function<void(const std::string&)> handler) {
  StallHandlerSlot() = std::move(handler);
}

void SetStallObserver(std::function<void(const std::string&)> observer) {
  StallObserverSlot() = std::move(observer);
}

struct FiberTask : std::enable_shared_from_this<FiberTask> {
  enum class St { kRunnable, kRunning, kParked, kDone };

  uint64_t id = 0;
  int pid = 0;
  const Seconds* clock = nullptr;
  std::function<void()> fn;

  FiberContext ctx;
  void* stack_base = nullptr;  // mmap base (guard page + usable stack)
#ifdef RCC_TSAN_FIBERS
  void* tsan_fiber = nullptr;
#endif
  void* asan_fake_stack = nullptr;  // saved while the fiber is switched out

  // All fields below are guarded by the engine mutex, except where a
  // field is only ever touched by the scheduler thread while the task is
  // not runnable.
  St state = St::kRunnable;
  uint64_t park_epoch = 0;   // bumped on every wake; stale waiter filter
  bool pending_park = false; // fiber announced a park; scheduler commits it
  bool pending_yield = false;  // fiber yielded; requeue behind same-time peers
  bool timeout_park = false; // parked via WaitFor (quiescence-wakeable)
  double park_timeout = 0.0;  // WaitFor's real-seconds value (ladder rung)
  bool wake_pending = false; // NotifyAll raced the park handshake
  bool woke_by_timeout = false;
  // Null once the task is retired (or its engine is gone): WaitPoint
  // entries that outlive the task then skip it.
  FiberEngine* engine = nullptr;
  // Position in the engine's live-task list, erased on retirement.
  std::list<std::shared_ptr<FiberTask>>::iterator live_pos;
};

namespace {
thread_local FiberTask* tls_current_task = nullptr;
std::mutex g_fiber_engines_mu;
std::vector<FiberEngine*>& GlobalFiberEngines() {
  static std::vector<FiberEngine*>* v = new std::vector<FiberEngine*>();
  return *v;
}
std::atomic<int> g_fiber_engine_count{0};
}  // namespace

bool OnFiberTask() { return tls_current_task != nullptr; }

int CurrentTaskPid() {
  return tls_current_task != nullptr ? tls_current_task->pid : -1;
}

// ---------------------------------------------------------------------
// Threads backend: a task is a real OS thread, a handle is the thread.
// ---------------------------------------------------------------------

class ThreadsEngine : public Engine {
 public:
  EngineKind kind() const override { return EngineKind::kThreads; }

  TaskHandle Spawn(TaskOptions, std::function<void()> fn) override {
    auto impl = std::make_shared<ThreadImpl>();
    impl->th = std::thread(std::move(fn));
    return TaskHandle(impl);
  }

  void WakeAllTimeoutParked() override {}

 private:
  struct ThreadImpl : TaskHandle::Impl {
    std::thread th;
    std::mutex mu;
    void Join() override {
      std::lock_guard<std::mutex> g(mu);
      if (th.joinable()) th.join();
    }
    ~ThreadImpl() override {
      if (th.joinable()) th.join();
    }
  };
};

// ---------------------------------------------------------------------
// Fibers backend: a discrete-event scheduler over stackful fibers.
// ---------------------------------------------------------------------

class FiberEngine : public Engine {
 public:
  FiberEngine() {
    std::lock_guard<std::mutex> g(g_fiber_engines_mu);
    GlobalFiberEngines().push_back(this);
    g_fiber_engine_count.store(static_cast<int>(GlobalFiberEngines().size()),
                               std::memory_order_release);
  }

  ~FiberEngine() override {
    {
      std::lock_guard<std::mutex> g(g_fiber_engines_mu);
      auto& v = GlobalFiberEngines();
      v.erase(std::remove(v.begin(), v.end(), this), v.end());
      g_fiber_engine_count.store(static_cast<int>(v.size()),
                                 std::memory_order_release);
    }
    // Detach surviving task structs (stale WaitPoint entries may still
    // hold shared_ptrs to them) and release every stack.
    std::lock_guard<std::mutex> g(mu_);
    for (auto& t : live_) {
#ifdef RCC_TSAN_FIBERS
      if (t->tsan_fiber != nullptr) {
        __tsan_destroy_fiber(t->tsan_fiber);
        t->tsan_fiber = nullptr;
      }
#endif
      t->engine = nullptr;
    }
    for (void* base : all_stacks_) {
      munmap(base, PageSize() + FiberStackBytes());
    }
  }

  EngineKind kind() const override { return EngineKind::kFibers; }

  TaskHandle Spawn(TaskOptions opts, std::function<void()> fn) override {
    auto t = std::make_shared<FiberTask>();
    t->engine = this;
    t->pid = opts.pid;
    t->clock = opts.clock;
    t->fn = std::move(fn);
    AllocStack(t.get());
    void* stack_lo = static_cast<char*>(t->stack_base) + PageSize();
#ifdef RCC_ASAN_FIBERS
    // A pooled stack still carries the poisoned redzones of the frames
    // its previous fiber left behind when it finished.
    ASAN_UNPOISON_MEMORY_REGION(stack_lo, FiberStackBytes());
#endif
    InitContext(&t->ctx, stack_lo, FiberStackBytes(), &FiberEngine::FiberMain,
                t.get());
#ifdef RCC_TSAN_FIBERS
    t->tsan_fiber = __tsan_create_fiber(0);
#endif
    {
      std::lock_guard<std::mutex> g(mu_);
      t->id = next_task_id_++;
      t->live_pos = live_.insert(live_.end(), t);
      t->state = FiberTask::St::kRunnable;
      PushLocked(t.get());
      ProgressLocked();
    }
    auto impl = std::make_shared<FiberImpl>();
    impl->engine = this;
    impl->task = t;
    return TaskHandle(impl);
  }

  void WakeAllTimeoutParked() override {
    std::lock_guard<std::mutex> g(mu_);
    // External stimulus (a death, typically): wake with a *notified*
    // verdict so waiters re-check their predicate — only the scheduler's
    // quiescence round may deliver the timeout verdict that grace-period
    // code reads as "nothing can ever progress".
    WakeTimeoutParkedLocked(/*timeout_verdict=*/false);
    ProgressLocked();  // re-arm quiescence detection
  }

  // Parks the current fiber (must be called from a fiber of this engine,
  // with no engine locks held). Returns true if woken by Unpark, false
  // on a quiescence wake.
  bool ParkCurrent(bool timeout_park, double timeout_seconds = 0.0) {
    FiberTask* t = tls_current_task;
    RCC_CHECK(t != nullptr && t->engine == this)
        << "ParkCurrent outside a fiber of this engine";
    {
      std::lock_guard<std::mutex> g(mu_);
      t->pending_park = true;
      t->timeout_park = timeout_park;
      t->park_timeout = timeout_seconds;
      t->woke_by_timeout = false;
    }
    SwitchToScheduler(t);
    bool notified;
    {
      std::lock_guard<std::mutex> g(mu_);
      ++t->park_epoch;  // invalidate stale WaitPoint entries
      notified = !t->woke_by_timeout;
      t->timeout_park = false;
    }
    return notified;
  }

  // Cooperative yield: re-queues the calling fiber behind every runnable
  // peer at the same virtual time and returns to the scheduler.
  void YieldCurrent() {
    FiberTask* t = tls_current_task;
    RCC_CHECK(t != nullptr && t->engine == this)
        << "YieldCurrent outside a fiber of this engine";
    {
      std::lock_guard<std::mutex> g(mu_);
      t->pending_yield = true;
    }
    SwitchToScheduler(t);
  }

  // Moves a parked task back onto the run queue if `park_epoch` still
  // matches (stale wait-list entries are filtered here).
  void Unpark(FiberTask* t, uint64_t park_epoch) {
    std::lock_guard<std::mutex> g(mu_);
    if (t->park_epoch != park_epoch || t->state == FiberTask::St::kDone) {
      return;
    }
    if (t->state == FiberTask::St::kParked) {
      t->state = FiberTask::St::kRunnable;
      t->woke_by_timeout = false;
      PushLocked(t);
      ProgressLocked();
      return;
    }
    if (t->state == FiberTask::St::kRunning) {
      // The waiter registered on the WaitPoint but has not finished the
      // park handshake; flag the wake so the scheduler requeues it.
      t->wake_pending = true;
      ProgressLocked();
      return;
    }
    if (t->state == FiberTask::St::kRunnable) {
      // Quiescence-woken but not yet run: upgrade the verdict to a real
      // notification.
      t->woke_by_timeout = false;
      ProgressLocked();
    }
  }

  uint64_t CurrentParkEpoch(FiberTask* t) {
    std::lock_guard<std::mutex> g(mu_);
    return t->park_epoch;
  }

  bool TaskDone(FiberTask* t) {
    std::lock_guard<std::mutex> g(mu_);
    return t->state == FiberTask::St::kDone;
  }

  void JoinTask(FiberTask* t) {
    if (OnFiberTask()) {
      // Another fiber waits for this task (request chaining, ~State):
      // park on the engine-wide completion WaitPoint and re-check.
      std::unique_lock<std::mutex> lock(join_mu_);
      while (!TaskDone(t)) done_wp_.Wait(lock);
      return;
    }
    for (;;) {
      if (TaskDone(t)) return;
      std::unique_lock<std::mutex> pl(pump_mu_, std::try_to_lock);
      if (pl.owns_lock()) {
        RunScheduler([this, t] { return TaskDone(t); });
        if (!TaskDone(t) && StallObserverSlot()) {
          StallObserverSlot()(StallReport("JoinTask"));
        }
        if (!TaskDone(t) && StallHandlerSlot()) {
          StallHandlerSlot()(StallReport("JoinTask"));
        }
        RCC_CHECK(TaskDone(t)) << StallReport("JoinTask");
        return;
      }
      // Someone else is pumping; their progress may complete our task.
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
  }

  // Pumps the scheduler from an external thread until nothing more can
  // run (used by WaitPoint waits on non-fiber threads). Returns true if
  // any progress happened (or another thread holds the pump).
  bool TryPump() {
    std::unique_lock<std::mutex> pl(pump_mu_, std::try_to_lock);
    if (!pl.owns_lock()) return true;
    uint64_t before;
    {
      std::lock_guard<std::mutex> g(mu_);
      before = progress_counter_;
    }
    RunScheduler(nullptr);
    std::lock_guard<std::mutex> g(mu_);
    return progress_counter_ != before;
  }

 private:
  friend class WaitPoint;

  struct FiberImpl : TaskHandle::Impl {
    FiberEngine* engine = nullptr;
    std::shared_ptr<FiberTask> task;
    void Join() override { engine->JoinTask(task.get()); }
  };

  struct RunEntry {
    Seconds t;
    int pid;
    uint64_t seq;
    FiberTask* task;
    bool operator>(const RunEntry& o) const {
      if (t != o.t) return t > o.t;
      if (pid != o.pid) return pid > o.pid;
      return seq > o.seq;
    }
  };

  void AllocStack(FiberTask* t) {
    const size_t page = PageSize();
    const size_t total = page + FiberStackBytes();
    void* base = nullptr;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (!stack_pool_.empty()) {
        base = stack_pool_.back();
        stack_pool_.pop_back();
      }
    }
    if (base == nullptr) {
      base = mmap(nullptr, total, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                  0);
      RCC_CHECK(base != MAP_FAILED) << "fiber stack mmap failed";
      // Guard page below the stack catches overflows as a fault instead
      // of silent corruption of a neighboring fiber.
      mprotect(base, page, PROT_NONE);
      std::lock_guard<std::mutex> g(mu_);
      all_stacks_.push_back(base);
    }
    t->stack_base = base;
  }

  // Requires mu_ held. Queue key is (virtual time, pid, sequence): the
  // documented deterministic tie-break order (seed format 2).
  void PushLocked(FiberTask* t) {
    const Seconds vt = t->clock != nullptr ? *t->clock : 0.0;
    queue_.push(RunEntry{vt, t->pid, next_seq_++, t});
  }

  // Requires mu_ held. A yielded fiber sorts after every normal entry at
  // its virtual time (pid key saturated), then by yield order — still
  // fully deterministic.
  void PushYieldedLocked(FiberTask* t) {
    const Seconds vt = t->clock != nullptr ? *t->clock : 0.0;
    queue_.push(RunEntry{vt, std::numeric_limits<int>::max(), next_seq_++, t});
  }

  // Requires mu_ held.
  void ProgressLocked() {
    ++progress_counter_;
    quiesce_armed_ = false;
  }

  // Requires mu_ held. Wakes every WaitFor-parked fiber in task-id order
  // (deterministic). `timeout_verdict` true marks the wake as a
  // quiescence expiry (WaitFor returns false); false re-checks only.
  bool WakeTimeoutParkedLocked(bool timeout_verdict) {
    bool any = false;
    for (auto& t : live_) {
      if (t->state == FiberTask::St::kParked && t->timeout_park) {
        t->woke_by_timeout = timeout_verdict;
        t->state = FiberTask::St::kRunnable;
        PushLocked(t.get());
        any = true;
      }
    }
    return any;
  }

  static void FiberMain(void* arg) {
    auto* t = static_cast<FiberTask*>(arg);
    FiberEngine* e = t->engine;
    AsanFinishSwitch(nullptr, &e->asan_sched_bottom_, &e->asan_sched_size_);
    t->fn();
    t->fn = nullptr;  // run closure destructors on the fiber, in order
    {
      std::lock_guard<std::mutex> g(e->mu_);
      t->state = FiberTask::St::kDone;
    }
    e->SwitchToScheduler(t, /*finished=*/true);
    RCC_CHECK(false) << "resumed a completed fiber";
  }

  void SwitchToScheduler(FiberTask* t, bool finished = false) {
#ifdef RCC_TSAN_FIBERS
    __tsan_switch_to_fiber(sched_tsan_fiber_, 0);
#endif
    AsanStartSwitch(finished ? nullptr : &t->asan_fake_stack,
                    asan_sched_bottom_, asan_sched_size_);
    SwitchContext(&t->ctx, &sched_ctx_);
    AsanFinishSwitch(t->asan_fake_stack, &asan_sched_bottom_,
                     &asan_sched_size_);
  }

  // Runs one fiber until it parks or completes. Requires pump_mu_ held,
  // mu_ not held, and `t` in state kRunnable.
  void RunTask(FiberTask* t) {
    {
      std::lock_guard<std::mutex> g(mu_);
      t->state = FiberTask::St::kRunning;
    }
    tls_current_task = t;
#ifdef RCC_TSAN_FIBERS
    __tsan_switch_to_fiber(t->tsan_fiber, 0);
#endif
    void* sched_fake_stack = nullptr;
    AsanStartSwitch(&sched_fake_stack,
                    static_cast<char*>(t->stack_base) + PageSize(),
                    FiberStackBytes());
    SwitchContext(&sched_ctx_, &t->ctx);
    AsanFinishSwitch(sched_fake_stack, nullptr, nullptr);
    tls_current_task = nullptr;
    bool done = false;
    {
      std::lock_guard<std::mutex> g(mu_);
      if (t->state == FiberTask::St::kDone) {
        done = true;
        if (t->stack_base != nullptr) {
          stack_pool_.push_back(t->stack_base);
          t->stack_base = nullptr;
        }
#ifdef RCC_TSAN_FIBERS
        if (t->tsan_fiber != nullptr) {
          __tsan_destroy_fiber(t->tsan_fiber);
          t->tsan_fiber = nullptr;
        }
#endif
        // Retire: the task leaves the live list (handles and stale
        // WaitPoint entries may keep the struct itself alive).
        t->engine = nullptr;
        live_.erase(t->live_pos);
        ++retired_;
        ProgressLocked();
      } else if (t->pending_yield) {
        t->pending_yield = false;
        t->state = FiberTask::St::kRunnable;
        PushYieldedLocked(t);
      } else if (t->pending_park) {
        t->pending_park = false;
        t->state = FiberTask::St::kParked;
        if (t->wake_pending) {
          t->wake_pending = false;
          t->state = FiberTask::St::kRunnable;
          t->woke_by_timeout = false;
          PushLocked(t);
        }
      } else {
        RCC_CHECK(false) << "fiber yielded without parking or completing";
      }
    }
    if (done) done_wp_.NotifyAll();  // never with mu_ held
  }

  // The scheduler loop. Requires pump_mu_ held and a non-fiber caller.
  // Returns when stop() holds, every task is done, or the engine is
  // stalled (a quiescence round produced no progress — the threads
  // backend would be hung at this point).
  void RunScheduler(const std::function<bool()>& stop) {
    RCC_CHECK(!OnFiberTask()) << "scheduler pumped from a fiber";
#ifdef RCC_TSAN_FIBERS
    sched_tsan_fiber_ = __tsan_get_current_fiber();
#endif
    for (;;) {
      if (stop && stop()) return;
      FiberTask* next = nullptr;
      {
        std::lock_guard<std::mutex> g(mu_);
        if (!queue_.empty()) {
          next = queue_.top().task;
          queue_.pop();
          // A task is pushed once per transition into kRunnable and leaves
          // that state only here, so no entry outlives its task (retired
          // tasks may already be freed).
          RCC_CHECK(next->state == FiberTask::St::kRunnable)
              << "stale run-queue entry for pid " << next->pid;
        }
        if (next == nullptr) {
          // Run queue drained: quiescence. Expire the WaitFor-parked
          // fibers with the *smallest* timeout not yet expired this
          // round — the fiber-mode analogue of "the shortest real-time
          // grace fires first" (a death-watch Recv at 0s expires before
          // a 200us protocol poll, which expires before a 2ms kv poll).
          // Any progress restarts the ladder from the bottom; a drained
          // queue with the ladder exhausted is a stall (the threads
          // backend would be hung here).
          if (!quiesce_armed_) {
            quiesce_armed_ = true;
            quiesce_level_ = -1.0;
          }
          double level = 0.0;
          bool found = false;
          for (const auto& t : live_) {
            if (t->state == FiberTask::St::kParked && t->timeout_park &&
                t->park_timeout > quiesce_level_ &&
                (!found || t->park_timeout < level)) {
              level = t->park_timeout;
              found = true;
            }
          }
          if (!found) return;  // all done, or stalled past every rung
          quiesce_level_ = level;
          for (auto& t : live_) {  // task-id order: deterministic
            if (t->state == FiberTask::St::kParked && t->timeout_park &&
                t->park_timeout == level) {
              RCC_LOG(kDebug) << "quiescence: expiring pid " << t->pid
                              << " (timeout " << level << "s) at t="
                              << (t->clock != nullptr ? *t->clock : 0.0);
              t->woke_by_timeout = true;
              t->state = FiberTask::St::kRunnable;
              PushLocked(t.get());
            }
          }
          continue;
        }
      }
      RunTask(next);
    }
  }

  std::string StallReport(const char* where) {
    std::lock_guard<std::mutex> g(mu_);
    int runnable = 0, parked = 0, timeout_parked = 0;
    for (const auto& t : live_) {
      if (t->state == FiberTask::St::kParked) {
        ++parked;
        if (t->timeout_park) ++timeout_parked;
      } else {
        ++runnable;
      }
    }
    std::string s = "fiber engine stalled in ";
    s += where;
    s += " (deadlock: the threads backend would hang here): tasks=";
    s += std::to_string(next_task_id_);
    s += " done=" + std::to_string(retired_);
    s += " parked=" + std::to_string(parked);
    s += " (timeout=" + std::to_string(timeout_parked) + ")";
    s += " runnable=" + std::to_string(runnable);
    return s;
  }

  std::mutex mu_;  // engine state (tasks, queue, pool)
  // Unfinished tasks in task-id order (spawn appends, retirement erases),
  // so quiescence expiry and stall reports walk only live tasks.
  std::list<std::shared_ptr<FiberTask>> live_;
  uint64_t retired_ = 0;  // finished tasks, already out of live_
  std::priority_queue<RunEntry, std::vector<RunEntry>, std::greater<RunEntry>>
      queue_;
  uint64_t next_seq_ = 0;
  uint64_t next_task_id_ = 0;
  uint64_t progress_counter_ = 0;
  bool quiesce_armed_ = false;
  double quiesce_level_ = -1.0;  // largest timeout rung expired this round
  std::vector<void*> stack_pool_;
  std::vector<void*> all_stacks_;

  std::mutex pump_mu_;  // one scheduler pumper at a time
  FiberContext sched_ctx_;
#ifdef RCC_TSAN_FIBERS
  void* sched_tsan_fiber_ = nullptr;
#endif
  // The pumping thread's stack as ASan last reported it on entry to a
  // fiber; the fiber switches back to it.
  const void* asan_sched_bottom_ = nullptr;
  size_t asan_sched_size_ = 0;

  std::mutex join_mu_;  // predicate lock for fiber-context JoinTask
  WaitPoint done_wp_;   // notified on every task completion
};

// ---------------------------------------------------------------------
// TaskHandle / WaitPoint
// ---------------------------------------------------------------------

void TaskHandle::Join() {
  if (impl_) impl_->Join();
}

void YieldTask() {
  FiberTask* t = tls_current_task;
  if (t != nullptr && t->engine != nullptr) {
    t->engine->YieldCurrent();
  } else {
    std::this_thread::yield();
  }
}

WaitPoint::WaitPoint() = default;
WaitPoint::~WaitPoint() = default;

namespace {

// Pumps every live fiber engine once from an external thread; returns
// true if any engine made progress (or is being pumped elsewhere).
bool PumpAllFiberEngines() {
  std::vector<FiberEngine*> engines;
  {
    std::lock_guard<std::mutex> g(g_fiber_engines_mu);
    engines = GlobalFiberEngines();
  }
  bool progressed = false;
  for (FiberEngine* e : engines) progressed = e->TryPump() || progressed;
  return progressed;
}

}  // namespace

void WaitPoint::Wait(std::unique_lock<std::mutex>& lock) {
  FiberTask* self = tls_current_task;
  if (self != nullptr) {
    {
      std::lock_guard<std::mutex> g(waiters_mu_);
      fiber_waiters_.push_back(
          {self->shared_from_this(), self->engine->CurrentParkEpoch(self)});
    }
    lock.unlock();
    self->engine->ParkCurrent(/*timeout_park=*/false);
    lock.lock();
    return;
  }
  if (g_fiber_engine_count.load(std::memory_order_acquire) == 0) {
    // Pure threads backend: exactly the legacy condition-variable wait.
    cv_.wait(lock);
    return;
  }
  // External thread while fibers are live: lend the scheduler our time
  // (fibers can only run on a thread that pumps them), then re-check.
  lock.unlock();
  const bool progressed = PumpAllFiberEngines();
  lock.lock();
  if (!progressed) cv_.wait_for(lock, std::chrono::milliseconds(1));
}

bool WaitPoint::WaitFor(std::unique_lock<std::mutex>& lock,
                        double real_seconds) {
  FiberTask* self = tls_current_task;
  if (self != nullptr) {
    // Real-time has no meaning on the event queue: the wait "times out"
    // at quiescence, when the drain it was waiting for provably ended.
    // The timeout value still matters as a *priority*: at quiescence the
    // scheduler expires the smallest-timeout waiters first, preserving
    // the relative ordering of the backend's real-time grace periods.
    {
      std::lock_guard<std::mutex> g(waiters_mu_);
      fiber_waiters_.push_back(
          {self->shared_from_this(), self->engine->CurrentParkEpoch(self)});
    }
    lock.unlock();
    const bool notified =
        self->engine->ParkCurrent(/*timeout_park=*/true, real_seconds);
    lock.lock();
    return notified;
  }
  if (g_fiber_engine_count.load(std::memory_order_acquire) == 0) {
    return cv_.wait_for(lock, std::chrono::duration<double>(real_seconds)) ==
           std::cv_status::no_timeout;
  }
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(real_seconds);
  lock.unlock();
  const bool progressed = PumpAllFiberEngines();
  lock.lock();
  if (!progressed) cv_.wait_for(lock, std::chrono::milliseconds(1));
  return std::chrono::steady_clock::now() < deadline;
}

void WaitPoint::NotifyAll() {
  cv_.notify_all();
  std::vector<FiberWaiter> waiters;
  {
    std::lock_guard<std::mutex> g(waiters_mu_);
    waiters.swap(fiber_waiters_);
  }
  for (const FiberWaiter& w : waiters) {
    FiberEngine* e = w.task->engine;
    if (e != nullptr) e->Unpark(w.task.get(), w.park_epoch);
  }
}

// ---------------------------------------------------------------------
// Factory / env resolution
// ---------------------------------------------------------------------

EngineKind ResolveEngineKind(EngineKind requested) {
  if (requested != EngineKind::kAuto) return requested;
  const char* e = std::getenv("RCC_SIM_ENGINE");
  if (e != nullptr && std::strcmp(e, "fibers") == 0) {
    return EngineKind::kFibers;
  }
  if (e != nullptr && e[0] != '\0' && std::strcmp(e, "threads") != 0) {
    RCC_LOG(kWarn) << "RCC_SIM_ENGINE=" << e
                   << " not recognized; using threads";
  }
  return EngineKind::kThreads;
}

std::unique_ptr<Engine> MakeEngine(EngineKind kind) {
  switch (ResolveEngineKind(kind)) {
    case EngineKind::kFibers:
      return std::make_unique<FiberEngine>();
    case EngineKind::kThreads:
    case EngineKind::kAuto:
      break;
  }
  return std::make_unique<ThreadsEngine>();
}

}  // namespace rcc::sim
