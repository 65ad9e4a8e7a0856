// Collective-granularity execution of the fixed-schedule kernels.
//
// Every kernel of coll/algorithms.h except AllgatherBlobs and the linear
// gather/scatter sends a message sequence that depends only on (rank,
// size, count, root). When nobody can die or revoke inside such a
// collective, its messages carry nothing the simulator cannot compute
// directly:
//
//  * Clocks. A member's completion clock follows from the start clocks,
//    the node placement and the cost scales by the max-plus recurrence
//    of the kernel's schedule. At a send the sender does
//      t += send_overhead; depart = t;
//    and at a receive the receiver does
//      t = max(t, depart + latency + cost_bytes / bandwidth)
//          + recv_overhead
//    with the link parameters of sim::ArrivalTime, the function
//    Fabric::Recv prices messages with. Schedule records a kernel's
//    per-rank send/receive sequence once per shape, by running the
//    message-level template against a recording Transport, and orders
//    it so one sweep evaluates it. The ring allreduce keeps a closed
//    form with O(P) memory (RingAllreduceClocks): its recorded schedule
//    has 4P(P-1) steps.
//  * Data. A fold per kernel, in the message path's exact order: copies
//    for allgather, bcast and barrier; for each allreduce and the
//    binomial reduce, the reductions each rank applies, in its order.
//
// Rendezvous (one table per mpi::CommGroup) runs a collective that way.
// The protocol, per op:
//
//  * Verdict. The first member to arrive creates the op's slot and
//    fixes its verdict: open (rendezvous) when the gate below holds,
//    else messages. Every later member follows the slot, so every member
//    takes one path by construction. A slot stays listed until every
//    member has arrived.
//  * Gate. The fabric declares its kill model (sim::Fabric::KillModel)
//    and runs fibers (RendezvousCandidate, checked before the table is
//    touched, from state all members share); under kSelfOnly every
//    member's op must be blocking, so its pid runs no other code while
//    it is parked; no member, and no pid of the op's death watch, is
//    dead; and the op's revoke token is not cancelled. Each arrival to
//    an undecided slot checks it; a failing later arrival flips the
//    slot to messages.
//  * Commit. Members deposit their op clock and buffers and park. The
//    last to arrive evaluates every member's completion clock; it
//    commits only if each lies below that member's armed self-kill
//    (Endpoint::kill_at), so the message path would not have fired it
//    inside the op. It then folds the data into every recvbuf, writes
//    every member's clock and wakes the others. Otherwise (fallback)
//    every member runs the message kernel from its deposited start
//    clock, its buffers untouched.
//  * Wake-ups. Fabric::Kill, KillNode and WakeAll (ulfm::Revoke) wake
//    the open slots. A woken member whose gate no longer holds flips the
//    uncommitted slot to messages, and every member falls back.
//
// A committed op sends no message; its clocks and buffers are
// bit-identical to the message path's (tests/coll_fastpath_test.cc).
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <vector>

#include "coll/algorithms.h"
#include "coll/tuning.h"
#include "common/status.h"
#include "sim/endpoint.h"
#include "sim/engine.h"

namespace rcc::coll {

// The fixed-schedule kernels.
enum class Kernel : uint8_t {
  kRingAllreduce,
  kRecursiveDoubling,
  kReduceBcast,
  kRabenseifner,
  kBinomialBcast,
  kBinomialReduce,
  kBruckAllgather,
  kRingAllgather,
  kBarrier,
};

// The kernel RunAllreduce runs for a resolved `algo`.
Kernel AllreduceKernel(AllreduceAlgo algo);

// True when a collective of `size` members over elements of
// `elem_bytes` on `fabric` goes to its group's Rendezvous table (which
// then fixes the verdict): the engine is fibers, the fabric has
// declared a kill model and the element width is one a Schedule
// records (1, 2, 4 or 8 bytes). Reads only state every member shares.
bool RendezvousCandidate(const sim::Fabric& fabric, int size,
                         size_t elem_bytes);

// ---------------------------------------------------------------------
// Clocks
// ---------------------------------------------------------------------

// One member of a modeled ring, in ring (rank) order.
struct RingMember {
  sim::Seconds start = 0.0;  // op clock when the member's kernel starts
  int node = 0;              // fabric node (picks the link parameters)
  double cost_scale = 1.0;   // modeled bytes per physical byte it sends
};

// Completion clock of every member of RingAllreduce over `count`
// elements of `elem_bytes` each, as the message path over FabricChannel
// computes it. Requires members.size() > 1 and count > 0 (otherwise the
// kernel sends nothing and the clocks do not move).
std::vector<sim::Seconds> RingAllreduceClocks(
    const sim::NetParams& net, size_t count, size_t elem_bytes,
    const std::vector<RingMember>& members);

// The message schedule of one kernel shape, recorded once and cached
// for the process: every rank's sends and receives, ordered so that each
// rank's steps keep program order and every receive follows the send it
// matches (fabric matching: the k-th receive of (src, dst, tag) takes the
// k-th send).
class Schedule {
 public:
  struct Step {
    int32_t rank;   // the rank that executes the step
    int32_t peer;   // send: destination rank; receive: source rank
    int32_t match;  // receive: index of its send step; send: -1
    double bytes;   // payload bytes handed to SendTo
  };

  // The schedule of `kernel` over `size` ranks, `count` elements of
  // `elem_bytes` (1, 2, 4 or 8) each, rooted at `root`. Not for
  // kRingAllreduce. Thread-safe.
  static const Schedule& For(Kernel kernel, int size, size_t count,
                             size_t elem_bytes, int root);

  // Max-plus sweep: t[r] enters as rank r's start clock and leaves as
  // its completion clock. `scale` and `node` are per rank; `depart` is
  // scratch.
  void Clocks(const sim::NetParams& net, const double* scale,
              const int* node, sim::Seconds* t,
              std::vector<sim::Seconds>* depart) const;

  const std::vector<Step>& steps() const { return steps_; }

 private:
  std::vector<Step> steps_;
  friend class ScheduleRecorder;
};

// ---------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------

// The ring allreduce result in the message path's order: chunk c starts
// as sendbufs[c]'s chunk and folds in v = Op::Apply(x[(c + j) % P], v)
// for j = 1 .. P-1, as the reduce-scatter pass does hop by hop.
template <typename T, typename Op = SumOp>
void RingAllreduceReduce(const void* const* sendbufs, int P, size_t count,
                         T* out) {
  for (int c = 0; c < P; ++c) {
    const size_t off = detail::ChunkOffset(count, P, c);
    const size_t n = detail::ChunkSize(count, P, c);
    if (n == 0) continue;  // count < P: most chunks are empty
    T* v = out + off;
    std::memcpy(v, static_cast<const T*>(sendbufs[c]) + off, n * sizeof(T));
    for (int j = 1; j < P; ++j) {
      const T* x = static_cast<const T*>(sendbufs[(c + j) % P]) + off;
      for (size_t i = 0; i < n; ++i) v[i] = Op::Apply(x[i], v[i]);
    }
  }
}

namespace detail {

// v[r] = Op::Apply(v[r], w[r]) elementwise: recvbuf op= received.
template <typename T, typename Op>
void FoldInto(T* v, const T* w, size_t n) {
  for (size_t i = 0; i < n; ++i) v[i] = Op::Apply(v[i], w[i]);
}

// Every rank's final buffer of RecursiveDoublingAllreduce; v holds P
// rows of `count` (the inputs on entry), w is P * count scratch.
template <typename T, typename Op>
void RecursiveDoublingFold(int P, size_t count, T* v, T* w) {
  auto row = [count](T* b, int r) { return b + static_cast<size_t>(r) * count; };
  const int pof2 = LargestPowerOfTwoAtMost(P);
  const int rem = P - pof2;
  for (int r = 1; r < 2 * rem; r += 2) {
    FoldInto<T, Op>(row(v, r), row(v, r - 1), count);
  }
  auto rank_of = [rem](int newrank) {
    return newrank < rem ? newrank * 2 + 1 : newrank + rem;
  };
  for (int mask = 1; mask < pof2; mask <<= 1) {
    std::memcpy(w, v, static_cast<size_t>(P) * count * sizeof(T));
    for (int nr = 0; nr < pof2; ++nr) {
      const int r = rank_of(nr);
      FoldInto<T, Op>(row(v, r), row(w, rank_of(nr ^ mask)), count);
    }
  }
  for (int r = 0; r < 2 * rem; r += 2) {
    std::memcpy(row(v, r), row(v, r + 1), count * sizeof(T));
  }
}

// Every rank's final buffer of RabenseifnerAllreduce on a power-of-two
// world with P <= count (v as above). A step only ever reads the part
// of the partner's buffer the partner does not write in that step.
template <typename T, typename Op>
void RabenseifnerFold(int P, size_t count, T* v) {
  auto row = [count](T* b, int r) { return b + static_cast<size_t>(r) * count; };
  // Partners share their segment bounds, so one (lo, hi) per rank.
  std::vector<size_t> lo(P, 0), hi(P, count);
  std::vector<std::vector<std::pair<size_t, size_t>>> stack(P);
  for (int mask = 1; mask < P; mask <<= 1) {
    for (int r = 0; r < P; ++r) {
      const int p = r ^ mask;
      const size_t mid = lo[r] + (hi[r] - lo[r]) / 2;
      stack[r].emplace_back(lo[r], hi[r]);
      if (r & mask) {
        for (size_t i = mid; i < hi[r]; ++i) {
          row(v, r)[i] = Op::Apply(row(v, r)[i], row(v, p)[i]);
        }
      } else {
        for (size_t i = lo[r]; i < mid; ++i) {
          row(v, r)[i] = Op::Apply(row(v, r)[i], row(v, p)[i]);
        }
      }
    }
    for (int r = 0; r < P; ++r) {
      const size_t mid = lo[r] + (hi[r] - lo[r]) / 2;
      if (r & mask) {
        lo[r] = mid;
      } else {
        hi[r] = mid;
      }
    }
  }
  for (int mask = P >> 1; mask > 0; mask >>= 1) {
    for (int r = 0; r < P; ++r) {
      const int p = r ^ mask;
      const auto [p_lo, p_hi] = stack[r].back();
      const size_t mid = p_lo + (p_hi - p_lo) / 2;
      const size_t a = (r & mask) ? p_lo : mid;
      const size_t b = (r & mask) ? mid : p_hi;
      std::memcpy(row(v, r) + a, row(v, p) + a, (b - a) * sizeof(T));
    }
    for (int r = 0; r < P; ++r) {
      lo[r] = stack[r].back().first;
      hi[r] = stack[r].back().second;
      stack[r].pop_back();
    }
  }
}

// Every rank's final recvbuf of BinomialReduce rooted at `root`: rank
// (relative x) holds its input folded with its children's subtree
// values, child x + 1 first. v holds the inputs by rank on entry.
template <typename T, typename Op>
void BinomialReduceFold(int P, size_t count, int root, T* v) {
  auto row = [&](int rel) {
    return v + static_cast<size_t>((rel + root) % P) * count;
  };
  for (int x = P - 1; x >= 0; --x) {
    for (int mask = 1; mask < P && !(x & mask); mask <<= 1) {
      if (x + mask < P) FoldInto<T, Op>(row(x), row(x + mask), count);
    }
  }
}

}  // namespace detail

// Writes every member's result of `kernel` into out[r], reading in[r]
// (the sendbuf; bcast: the buffer), both arrays of T, exactly as the
// message path leaves the buffers. All inputs are read into `scratch`
// before any output is written, so members may run in place.
template <typename T, typename Op = SumOp>
void FoldKernel(Kernel kernel, int P, size_t count, int root,
                const void* const* in, void* const* out,
                std::vector<unsigned char>* scratch) {
  const size_t row_bytes = count * sizeof(T);
  const size_t all = static_cast<size_t>(P) * count;
  // Reused raw storage; the T objects are created (not initialized) in
  // it before use.
  auto buffer = [scratch](size_t elems) {
    if (scratch->size() < elems * sizeof(T)) scratch->resize(elems * sizeof(T));
    T* v = reinterpret_cast<T*>(scratch->data());
    std::uninitialized_default_construct_n(v, elems);
    return v;
  };
  auto gather = [&](T* v) {
    for (int r = 0; r < P; ++r) {
      std::memcpy(v + static_cast<size_t>(r) * count, in[r], row_bytes);
    }
  };
  auto scatter_rows = [&](const T* v) {
    for (int r = 0; r < P; ++r) {
      std::memcpy(out[r], v + static_cast<size_t>(r) * count, row_bytes);
    }
  };
  auto broadcast = [&](const T* v, int skip) {
    for (int r = 0; r < P; ++r) {
      if (r != skip) std::memcpy(out[r], v, row_bytes);
    }
  };
  if (count == 0 || kernel == Kernel::kBarrier) return;
  switch (kernel) {
    case Kernel::kRingAllreduce: {
      T* sum = buffer(count);
      RingAllreduceReduce<T, Op>(in, P, count, sum);
      broadcast(sum, -1);
      return;
    }
    case Kernel::kRabenseifner:
      if ((P & (P - 1)) == 0 && static_cast<size_t>(P) <= count && P > 2) {
        T* v = buffer(all);
        gather(v);
        detail::RabenseifnerFold<T, Op>(P, count, v);
        scatter_rows(v);
        return;
      }
      [[fallthrough]];  // the kernel falls back to recursive doubling
    case Kernel::kRecursiveDoubling: {
      T* v = buffer(2 * all);
      gather(v);
      detail::RecursiveDoublingFold<T, Op>(P, count, v, v + all);
      scatter_rows(v);
      return;
    }
    case Kernel::kReduceBcast: {
      T* v = buffer(all);
      gather(v);
      detail::BinomialReduceFold<T, Op>(P, count, 0, v);
      broadcast(v, -1);
      return;
    }
    case Kernel::kBinomialReduce: {
      T* v = buffer(all);
      gather(v);
      detail::BinomialReduceFold<T, Op>(P, count, root, v);
      scatter_rows(v);
      return;
    }
    case Kernel::kBinomialBcast: {
      T* v = buffer(count);
      std::memcpy(v, in[root], row_bytes);
      broadcast(v, root);
      return;
    }
    case Kernel::kBruckAllgather:
    case Kernel::kRingAllgather: {
      T* v = buffer(all);
      gather(v);
      for (int r = 0; r < P; ++r) std::memcpy(out[r], v, all * sizeof(T));
      return;
    }
    case Kernel::kBarrier:
      return;
  }
}

// ---------------------------------------------------------------------
// The slot table
// ---------------------------------------------------------------------

class Rendezvous {
 public:
  // Slot keys carry the stack, so an mpi and an nccl communicator over
  // one group never share a slot even when their op sequences meet.
  enum class Stack : uint64_t { kMpi = 0, kNccl = 1 };
  static uint64_t Key(Stack stack, uint64_t op_seq) {
    return (op_seq << 1) | static_cast<uint64_t>(stack);
  }

  // One op as its member describes it; everything but `blocking` is the
  // same on every member.
  struct Op {
    Kernel kernel = Kernel::kBarrier;
    size_t count = 0;       // elements per member (allgather: per block)
    size_t elem_bytes = 1;  // 1, 2, 4 or 8
    int root = 0;
    // The caller waits for this op before anything else runs on its
    // pid: no op of any communicator of the pid is in flight, so while
    // the member is parked its pid runs no code. Under kSelfOnly one
    // member without it sends the whole op to messages.
    bool blocking = true;
    const sim::CancelToken* cancel = nullptr;  // revoke token, or null
    const std::vector<int>* watch = nullptr;   // extra death watch, or null
  };

  // What member `rank` deposits. `clock` is its op clock: the start on
  // entry, the completion after a commit.
  struct Member {
    sim::Endpoint* ep = nullptr;
    const void* sendbuf = nullptr;
    void* recvbuf = nullptr;
    double cost_scale = 1.0;
    sim::Seconds* clock = nullptr;
  };

  Rendezvous() = default;
  Rendezvous(const Rendezvous&) = delete;
  Rendezvous& operator=(const Rendezvous&) = delete;
  ~Rendezvous();

  // Member `rank` of the group `pids` takes part in op `key`. True: the
  // op completed here (recvbuf and *clock are final). False: run the
  // message kernel from *clock, which is unchanged.
  template <typename T, typename RedOp = SumOp>
  bool Run(uint64_t key, const Op& op, const std::vector<int>& pids,
           int rank, const Member& m) {
    std::unique_lock<std::mutex> lock(mu_);
    Slot* slot = nullptr;
    const Outcome outcome = Arrive(lock, key, op, pids, rank, m, &slot);
    if (outcome != Outcome::kLast) return outcome == Outcome::kCommitted;
    if (!EvaluateClocks(*slot)) {
      Close(*slot, State::kMessages);
      Leave(slot);
      return false;
    }
    const int P = static_cast<int>(slot->members.size());
    in_.resize(P);
    out_.resize(P);
    for (int r = 0; r < P; ++r) {
      in_[r] = slot->members[r].sendbuf;
      out_[r] = slot->members[r].recvbuf;
    }
    FoldKernel<T, RedOp>(op.kernel, P, op.count, op.root, in_.data(),
                         out_.data(), &scratch_);
    Publish(*slot);
    Leave(slot);
    return true;
  }

 private:
  enum class State { kOpen, kCommitted, kMessages };
  enum class Outcome { kCommitted, kMessages, kLast };
  struct Slot {
    uint64_t key = 0;
    State state = State::kOpen;
    int arrived = 0;
    int parked = 0;
    Op op;
    std::vector<Member> members;  // by rank
    sim::Fabric* fabric = nullptr;
    sim::WaitPoint wp;
  };

  // Deposits `m` and follows the slot's verdict: parks until the op is
  // decided, or returns kLast with *last set for the member that
  // completes an open slot.
  Outcome Arrive(std::unique_lock<std::mutex>& lock, uint64_t key,
                 const Op& op, const std::vector<int>& pids, int rank,
                 const Member& m, Slot** last);
  // True when the member may park at a slot: its op is blocking, or
  // nobody can die (kNone).
  static bool MayPark(const Op& op, const sim::Fabric& fabric) {
    return op.blocking ||
           fabric.kill_model() == sim::Fabric::KillModel::kNone;
  }
  // True while no member or watched pid is dead and the op's context is
  // not revoked.
  bool GateHolds(const Op& op, sim::Fabric& fabric,
                 const std::vector<int>& pids);
  // Every member's completion clock into done_; false when one reaches
  // that member's armed self-kill.
  bool EvaluateClocks(const Slot& slot);
  // Writes the clocks and commits.
  void Publish(Slot& slot);
  // Decides an open slot and wakes its parked members.
  void Close(Slot& slot, State state);
  // Recycles a decided slot once every member has arrived and left.
  void Leave(Slot* slot);

  std::mutex mu_;
  std::vector<Slot*> live_;  // listed slots (open, or awaiting members)
  std::vector<std::unique_ptr<Slot>> slots_;
  std::vector<Slot*> free_;
  // Liveness cache: every member was alive when the fabric had seen
  // clean_deaths_ deaths (deaths are permanent, so a dead member stays
  // dead). It saves a scan of the members per arrival once anyone died.
  int clean_deaths_ = 0;
  bool member_dead_ = false;
  std::vector<int> nodes_;  // fabric node per rank, filled on first use
  // Per-op scratch, reused.
  std::vector<sim::Seconds> done_;
  std::vector<sim::Seconds> depart_;
  std::vector<double> scale_;
  std::vector<const void*> in_;
  std::vector<void*> out_;
  std::vector<unsigned char> scratch_;
  std::vector<RingMember> ring_;
};

}  // namespace rcc::coll
