// Collective-granularity ring allreduce.
//
// On a fabric declared failure-free (sim::Fabric::DeclareFailureFree)
// and run by the fibers engine, no member can die and none revokes, so
// a ring allreduce's 2(P-1) messages per rank carry nothing the
// simulator cannot compute directly: the data is a fixed-order
// reduction of the members' inputs, and every member's completion clock
// follows from the start clocks, the placement and the cost scales by
// the max-plus recurrence of RingAllreduce's schedule:
//
//   t += send_overhead; depart = t;
//   t = max(t, depart_left + latency + cost_bytes / bandwidth)
//       + recv_overhead
//
// with the chunk sizes of detail::ChunkSize and the link parameters of
// sim::ArrivalTime, the same function Fabric::Recv prices messages with.
//
// RingRendezvous runs the collective that way. Every member's op task
// deposits its op clock and buffers in a per-op slot; the last to
// arrive reduces each chunk in the message path's exact order into a
// scratch buffer, writes every member's recvbuf and clock, and wakes
// the others. Clocks and buffers are bit-identical to the message path
// (tests/coll_fastpath_test.cc compares them).
//
// Whether an op takes this path must be decided identically on every
// member before any member parks: a member that took the message path
// would never arrive at the slot, and the others would park forever.
// UseRingRendezvous therefore looks only at what all members share (the
// kernel, the fabric's declaration, the engine kind), never at
// per-member state such as an armed self-kill.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "coll/algorithms.h"
#include "coll/tuning.h"
#include "common/status.h"
#include "sim/endpoint.h"
#include "sim/engine.h"

namespace rcc::coll {

// True when an allreduce with the resolved kernel `algo` on `fabric`
// completes at a RingRendezvous instead of over messages.
inline bool UseRingRendezvous(const sim::Fabric& fabric, AllreduceAlgo algo) {
  return algo == AllreduceAlgo::kRing && fabric.failure_free() &&
         fabric.config().engine == sim::EngineKind::kFibers;
}

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

// The allreduce result in the message path's order: chunk c starts as
// sendbufs[c]'s chunk and folds in v = Op::Apply(x[(c + j) % P], v) for
// j = 1 .. P-1, as the reduce-scatter pass does hop by hop.
template <typename T, typename Op = SumOp>
void RingAllreduceReduce(const std::vector<const T*>& sendbufs, size_t count,
                         T* out) {
  const int P = static_cast<int>(sendbufs.size());
  for (int c = 0; c < P; ++c) {
    const size_t off = detail::ChunkOffset(count, P, c);
    const size_t n = detail::ChunkSize(count, P, c);
    if (n == 0) continue;  // count < P: most chunks are empty
    T* v = out + off;
    std::memcpy(v, sendbufs[c] + off, n * sizeof(T));
    for (int j = 1; j < P; ++j) {
      const T* x = sendbufs[(c + j) % P] + off;
      for (size_t i = 0; i < n; ++i) v[i] = Op::Apply(x[i], v[i]);
    }
  }
}

// Per-communicator-group table of in-progress rendezvous ring
// allreduces (lives on mpi::CommGroup).
class RingRendezvous {
 public:
  // Slot keys carry the stack, so an mpi and an nccl communicator over
  // one group never share a slot even when their op sequences meet.
  enum class Stack : uint64_t { kMpi = 0, kNccl = 1 };
  static uint64_t Key(Stack stack, uint64_t op_seq) {
    return (op_seq << 1) | static_cast<uint64_t>(stack);
  }

  // The op body of member `rank` of a `size`-member ring allreduce
  // (every member passes the same key, size, count and T). `now` is the
  // op task's clock: the start on entry, the completion on return.
  template <typename T, typename Op = SumOp>
  Status Allreduce(uint64_t key, sim::Endpoint& ep, int size, int rank,
                   double cost_scale, const T* sendbuf, T* recvbuf,
                   size_t count, sim::Seconds* now) {
    if (size == 1 || count == 0) {
      if (count > 0 && recvbuf != sendbuf) {
        std::memcpy(recvbuf, sendbuf, count * sizeof(T));
      }
      return Status::Ok();
    }
    std::shared_ptr<Slot> slot =
        Arrive(key, size, rank, {&ep, sendbuf, recvbuf, cost_scale, now});
    if (slot == nullptr) return Status::Ok();  // the last arriver did it
    // Every input is read into the scratch sum before any recvbuf is
    // written, so in-place members (sendbuf == recvbuf) are safe.
    std::vector<const T*> in(size);
    for (int r = 0; r < size; ++r) {
      in[r] = static_cast<const T*>(slot->members[r].sendbuf);
    }
    std::vector<T> sum(count);
    RingAllreduceReduce<T, Op>(in, count, sum.data());
    for (const Member& m : slot->members) {
      std::memcpy(m.recvbuf, sum.data(), count * sizeof(T));
    }
    Complete(*slot, count, sizeof(T));
    return Status::Ok();
  }

 private:
  struct Member {
    sim::Endpoint* ep = nullptr;
    const void* sendbuf = nullptr;
    void* recvbuf = nullptr;
    double cost_scale = 1.0;
    sim::Seconds* clock = nullptr;
  };
  struct Slot {
    std::vector<Member> members;  // by rank
    int arrived = 0;
    bool done = false;  // guarded by RingRendezvous::mu_
    sim::WaitPoint wp;
  };

  // Deposits `m`. A member that is not the last parks until the op is
  // done and gets null; the last one gets the (now unlisted) slot.
  std::shared_ptr<Slot> Arrive(uint64_t key, int size, int rank,
                               const Member& m);
  // Writes every member's completion clock, then wakes the members.
  void Complete(Slot& slot, size_t count, size_t elem_bytes);

  std::mutex mu_;
  std::unordered_map<uint64_t, std::shared_ptr<Slot>> slots_;
};

}  // namespace rcc::coll
