// MPI-like communicator bound to one simulated rank.
//
// Semantics follow ULFM-era MPI: operations report failures
// *per-operation* through Status codes (kProcFailed with the observed
// failed pids, kRevoked once the communicator has been revoked) and the
// communicator stays usable for the survivor-side recovery operations in
// rcc::ulfm (failure_ack / agree / shrink).
//
// Allreduce and Bcast are request-based: IAllreduce/IBcast submit the op
// to a background worker (its own virtual clock over the fabric) and
// return a coll::Request; Wait merges the op's completion time into the
// rank's clock. The blocking calls are Start + Wait wrappers; on a fabric
// that declared its kill model (fibers engine), a blocking call whose
// rank has nothing in flight runs its body on the rank's own task
// instead (Request::RunInline), with the same virtual-time behaviour.
// Ops on one communicator execute in submission order (engine chaining).
// Fixed-schedule collectives on such a fabric go to the group's
// rendezvous table and may complete without messages
// (coll/rendezvous.h).
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "coll/algorithms.h"
#include "coll/request.h"
#include "coll/rendezvous.h"
#include "coll/transport.h"
#include "coll/tuning.h"
#include "common/status.h"
#include "mpi/group.h"
#include "sim/endpoint.h"

namespace rcc::mpi {

// Algorithm selection is shared across stacks; see coll/tuning.h.
using AllreduceAlgo = coll::AllreduceAlgo;
enum class AllgatherAlgo { kAuto, kRing, kBruck };

class Comm : public coll::Transport {
 public:
  Comm(sim::Endpoint* ep, std::shared_ptr<CommGroup> group);

  // Builds the initial world communicator over `pids` (every rank calls
  // this with the same pid list; instances share one group).
  static Comm World(sim::Endpoint& ep, const std::vector<int>& pids);

  // --- introspection ---
  int rank() const override { return rank_; }
  int size() const override { return static_cast<int>(group_->pids.size()); }
  uint64_t context_id() const { return group_->ctx_id; }
  const std::vector<int>& pids() const { return group_->pids; }
  int PidOfRank(int rank) const { return group_->pids[rank]; }
  sim::Endpoint& endpoint() const { return *ep_; }
  const std::shared_ptr<CommGroup>& group() const { return group_; }
  bool revoked() const { return group_->revoke.cancelled(); }

  // Failed pids this rank has locally observed on this communicator.
  const std::set<int>& locally_observed_failures() const { return observed_failed_; }
  void NoteFailedPids(const std::vector<int>& pids);

  // Cost scale: multiplies the modeled wire size of every message. Used
  // by benches to run full-size *virtual* tensors over reduced physical
  // buffers (see DESIGN.md "declared-size buckets").
  void set_cost_scale(double s) { cost_scale_ = s; }
  double cost_scale() const { return cost_scale_; }

  // Algorithm-selection table (bytes x ranks); overridable per comm and
  // via the RCC_ALLREDUCE_* environment knobs.
  void set_allreduce_tuning(coll::AllreduceTuning t) { tuning_ = std::move(t); }
  const coll::AllreduceTuning& allreduce_tuning() const { return tuning_; }

  // --- point-to-point (rank addressed, user tag space) ---
  Status Send(int dst_rank, int tag, const void* data, size_t bytes);
  Status Recv(int src_rank, int tag, void* data, size_t bytes);
  // Recv that additionally watches every member of the communicator:
  // returns kProcFailed as soon as ANY member dies, instead of blocking
  // forever on a sender that can no longer send (pipeline p2p needs
  // this — the peer that owes the activation may be three stages away
  // from the rank that died).
  Status RecvWatched(int src_rank, int tag, void* data, size_t bytes);
  Status RecvBlobFrom(int src_rank, int tag, std::vector<uint8_t>* out);

  // --- nonblocking collectives ---
  // The caller must keep sendbuf/recvbuf alive and untouched until the
  // request completes. Requests complete in submission order.
  template <typename T>
  coll::Request IAllreduce(const T* sendbuf, T* recvbuf, size_t count,
                           AllreduceAlgo algo = AllreduceAlgo::kAuto) {
    return SubmitAllreduce(sendbuf, recvbuf, count, algo, /*blocking=*/false);
  }

  template <typename T>
  coll::Request IBcast(T* buf, size_t count, int root) {
    return SubmitBcast(buf, count, root, /*blocking=*/false);
  }

  // Blocks until the request completes; merges its completion time into
  // this rank's clock and records any observed failures.
  Status Wait(coll::Request* req);
  // Nonblocking completion probe (completion effects still via Wait).
  bool Test(const coll::Request* req) const;
  // Waits for every request; returns the first error encountered.
  Status WaitAll(std::vector<coll::Request>* reqs);

  // --- blocking collectives ---
  template <typename T>
  Status Allreduce(const T* sendbuf, T* recvbuf, size_t count,
                   AllreduceAlgo algo = AllreduceAlgo::kAuto) {
    coll::Request req =
        SubmitAllreduce(sendbuf, recvbuf, count, algo, /*blocking=*/true);
    return Wait(&req);
  }

  template <typename T>
  Status Allgather(const T* sendbuf, T* recvbuf, size_t count,
                   AllgatherAlgo algo = AllgatherAlgo::kAuto) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    const bool bruck =
        algo == AllgatherAlgo::kBruck ||
        (algo == AllgatherAlgo::kAuto && count * sizeof(T) <= 4096);
    if (InlineRendezvous<T>(bruck ? coll::Kernel::kBruckAllgather
                                  : coll::Kernel::kRingAllgather,
                            sendbuf, recvbuf, count, 0)) {
      return FinishCollective(Status::Ok());
    }
    return FinishCollective(
        bruck ? coll::BruckAllgather<T>(*this, sendbuf, recvbuf, count)
              : coll::RingAllgather<T>(*this, sendbuf, recvbuf, count));
  }

  template <typename T>
  Status Bcast(T* buf, size_t count, int root) {
    coll::Request req = SubmitBcast(buf, count, root, /*blocking=*/true);
    return Wait(&req);
  }

  template <typename T>
  Status Reduce(const T* sendbuf, T* recvbuf, size_t count, int root) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    if (InlineRendezvous<T>(coll::Kernel::kBinomialReduce, sendbuf, recvbuf,
                            count, root)) {
      return FinishCollective(Status::Ok());
    }
    return FinishCollective(
        coll::BinomialReduce<T>(*this, sendbuf, recvbuf, count, root));
  }

  template <typename T>
  Status Gather(const T* sendbuf, T* recvbuf, size_t count, int root) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(
        coll::LinearGather<T>(*this, sendbuf, recvbuf, count, root));
  }

  template <typename T>
  Status Scatter(const T* sendbuf, T* recvbuf, size_t count, int root) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(
        coll::LinearScatter<T>(*this, sendbuf, recvbuf, count, root));
  }

  Status Barrier() {
    RCC_RETURN_IF_ERROR(BeginCollective());
    if (InlineRendezvous<uint8_t>(coll::Kernel::kBarrier, nullptr, nullptr, 0,
                                  0)) {
      return FinishCollective(Status::Ok());
    }
    return FinishCollective(coll::DisseminationBarrier(*this));
  }

  Status AllgatherBlobs(const std::vector<uint8_t>& mine,
                        std::vector<std::vector<uint8_t>>* all) {
    RCC_RETURN_IF_ERROR(BeginCollective());
    return FinishCollective(coll::AllgatherBlobs(*this, mine, all));
  }

  // Broadcast a variable-size blob from root (binomial tree). Non-root
  // callers receive into *blob.
  Status BcastBlob(std::vector<uint8_t>* blob, int root);

  // --- coll::Transport (used by the algorithm kernels) ---
  Status SendTo(int dst_rank, int tag, const void* data,
                size_t bytes) override;
  Status RecvFrom(int src_rank, int tag, void* data, size_t bytes) override;
  Status RecvBlob(int src_rank, int tag, std::vector<uint8_t>* out) override;

  // Used by ulfm::Agree to keep agreement instances aligned across ranks.
  uint64_t NextAgreeSeq() { return agree_seq_++; }

 private:
  Status BeginCollective();
  Status FinishCollective(Status s);

  // The request-based collectives. `blocking`: the caller Waits for the
  // request before anything else.
  template <typename T>
  coll::Request SubmitAllreduce(const T* sendbuf, T* recvbuf, size_t count,
                                AllreduceAlgo algo, bool blocking) {
    const double modeled_bytes =
        static_cast<double>(count * sizeof(T)) * cost_scale_;
    const AllreduceAlgo chosen =
        coll::ChooseAllreduce(tuning_, algo, modeled_bytes, size());
    coll::Request::Info info{0, coll::AllreduceAlgoName(chosen),
                             modeled_bytes};
    if (revoked()) {
      return coll::Request::Failed(info, ep_->now(),
                                   Status(Code::kRevoked, "communicator revoked"));
    }
    ++coll_seq_;
    info.op_id = coll_seq_;
    const uint64_t channel =
        sim::ChannelKey(group_->ctx_id, 1 + (coll_seq_ % 65534));
    const bool rendezvous =
        coll::RendezvousCandidate(ep_->fabric(), size(), sizeof(T));
    const coll::Rendezvous::Op op = RendezvousOp<T>(
        coll::AllreduceKernel(chosen), count, 0, blocking);
    const uint64_t key =
        coll::Rendezvous::Key(coll::Rendezvous::Stack::kMpi, coll_seq_);
    return coll::Request::Submit(
        info, *ep_, &engine_tail_, blocking && rendezvous,
        [group = group_, ep = ep_, rank = rank_, cs = cost_scale_,
         channel, chosen, rendezvous, op, key, sendbuf, recvbuf,
         count](sim::Seconds* now) -> Status {
          if (rendezvous &&
              group->rendezvous.Run<T>(
                  key, op, group->pids, rank,
                  {ep, sendbuf, recvbuf, cs, now})) {
            return Status::Ok();
          }
          coll::FabricChannel ch(*ep, group->pids, rank, channel,
                                 cs, now, &group->revoke,
                                 /*death_watch=*/nullptr);
          return coll::RunAllreduce<T>(chosen, ch, sendbuf, recvbuf,
                                       count);
        });
  }

  template <typename T>
  coll::Request SubmitBcast(T* buf, size_t count, int root, bool blocking) {
    coll::Request::Info info{
        0, "binomial_bcast", static_cast<double>(count * sizeof(T)) * cost_scale_};
    if (revoked()) {
      return coll::Request::Failed(info, ep_->now(),
                                   Status(Code::kRevoked, "communicator revoked"));
    }
    ++coll_seq_;
    info.op_id = coll_seq_;
    const uint64_t channel =
        sim::ChannelKey(group_->ctx_id, 1 + (coll_seq_ % 65534));
    const bool rendezvous =
        coll::RendezvousCandidate(ep_->fabric(), size(), sizeof(T));
    const coll::Rendezvous::Op op =
        RendezvousOp<T>(coll::Kernel::kBinomialBcast, count, root, blocking);
    const uint64_t key =
        coll::Rendezvous::Key(coll::Rendezvous::Stack::kMpi, coll_seq_);
    return coll::Request::Submit(
        info, *ep_, &engine_tail_, blocking && rendezvous,
        [group = group_, ep = ep_, rank = rank_, cs = cost_scale_,
         channel, rendezvous, op, key, buf, count,
         root](sim::Seconds* now) -> Status {
          if (rendezvous &&
              group->rendezvous.Run<T>(key, op, group->pids, rank,
                                       {ep, buf, buf, cs, now})) {
            return Status::Ok();
          }
          coll::FabricChannel ch(*ep, group->pids, rank, channel,
                                 cs, now, &group->revoke,
                                 /*death_watch=*/nullptr);
          return coll::BinomialBcast<T>(ch, buf, count, root);
        });
  }

  template <typename T>
  coll::Rendezvous::Op RendezvousOp(coll::Kernel kernel, size_t count,
                                    int root, bool blocking) const {
    return {kernel, count, sizeof(T), root, blocking, &group_->revoke,
            /*watch=*/nullptr};
  }

  // An inline (rank-clock) collective between BeginCollective and
  // FinishCollective at the group's rendezvous; true when it completed
  // there, false when the caller must run the message kernel.
  template <typename T>
  bool InlineRendezvous(coll::Kernel kernel, const T* sendbuf, T* recvbuf,
                        size_t count, int root) {
    if (!coll::RendezvousCandidate(ep_->fabric(), size(), sizeof(T))) {
      return false;
    }
    return group_->rendezvous.Run<T>(
        coll::Rendezvous::Key(coll::Rendezvous::Stack::kMpi, coll_seq_),
        RendezvousOp<T>(kernel, count, root,
                        engine_tail_.IdleBy(ep_->now())), group_->pids,
        rank_, {ep_, sendbuf, recvbuf, cost_scale_, ep_->mutable_clock()});
  }

  Status RawSend(int dst_rank, uint64_t channel, int tag, const void* data,
                 size_t bytes);
  Status RawRecv(int src_rank, uint64_t channel, int tag, sim::Message* out,
                 bool watch_members = false);

  sim::Endpoint* ep_;
  std::shared_ptr<CommGroup> group_;
  int rank_;
  double cost_scale_ = 1.0;
  coll::AllreduceTuning tuning_ = coll::MpiAllreduceTuning();
  uint64_t coll_seq_ = 0;     // per-rank collective sequence (SPMD-aligned)
  uint64_t current_phase_ = 0;  // channel phase of the running collective
  uint64_t agree_seq_ = 0;
  coll::Request engine_tail_;  // last submitted op (ordering chain)
  std::set<int> observed_failed_;
};

}  // namespace rcc::mpi
