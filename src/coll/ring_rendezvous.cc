#include "coll/ring_rendezvous.h"

#include <algorithm>

#include "common/log.h"

namespace rcc::coll {

std::vector<sim::Seconds> RingAllreduceClocks(
    const sim::NetParams& net, size_t count, size_t elem_bytes,
    const std::vector<RingMember>& members) {
  const int P = static_cast<int>(members.size());
  // Wire bytes of each chunk, as the kernel hands them to SendTo.
  std::vector<double> chunk_bytes(P);
  for (int c = 0; c < P; ++c) {
    chunk_bytes[c] =
        static_cast<double>(detail::ChunkSize(count, P, c) * elem_bytes);
  }
  std::vector<sim::Seconds> t(P);
  std::vector<double> left_scale(P);  // cost scale of rank r's left
  std::vector<char> same_node(P);     // rank r and its left on one node
  for (int r = 0; r < P; ++r) {
    const RingMember& left = members[(r - 1 + P) % P];
    t[r] = members[r].start;
    left_scale[r] = left.cost_scale;
    same_node[r] = left.node == members[r].node;
  }
  // Pass 0 is the reduce-scatter, pass 1 the allgather. At step s of
  // pass p every rank first sends (t += send_overhead; depart = t), then
  // receives from its left the chunk (r - 1 - s + p) mod P, which the
  // left rank sent at the same step. One sweep per step: `depart` rolls
  // the left rank's departure along, taken before its receive.
  for (int pass = 0; pass < 2; ++pass) {
    for (int s = 0; s < P - 1; ++s) {
      int chunk = (P - 1 - s + pass) % P;  // chunk received by rank 0
      sim::Seconds depart = t[P - 1] + net.send_overhead;
      for (int r = 0; r < P; ++r) {
        const sim::Seconds mine = t[r] + net.send_overhead;
        const sim::Seconds arrival =
            sim::ArrivalTime(net, depart, chunk_bytes[chunk] * left_scale[r],
                             same_node[r] != 0);
        t[r] = std::max(mine, arrival) + net.recv_overhead;
        depart = mine;
        if (++chunk == P) chunk = 0;
      }
    }
  }
  return t;
}

std::shared_ptr<RingRendezvous::Slot> RingRendezvous::Arrive(
    uint64_t key, int size, int rank, const Member& m) {
  std::unique_lock<std::mutex> lock(mu_);
  std::shared_ptr<Slot>& entry = slots_[key];
  if (entry == nullptr) {
    entry = std::make_shared<Slot>();
    entry->members.resize(size);
  }
  std::shared_ptr<Slot> slot = entry;
  RCC_CHECK(static_cast<int>(slot->members.size()) == size && rank >= 0 &&
            rank < size && slot->members[rank].ep == nullptr)
      << "ring rendezvous " << key << ": bad arrival of rank " << rank
      << " of " << size;
  slot->members[rank] = m;
  if (++slot->arrived < size) {
    while (!slot->done) slot->wp.Wait(lock);
    return nullptr;
  }
  slots_.erase(key);
  return slot;
}

void RingRendezvous::Complete(Slot& slot, size_t count, size_t elem_bytes) {
  sim::Fabric& fabric = slot.members[0].ep->fabric();
  std::vector<RingMember> ring(slot.members.size());
  for (size_t r = 0; r < ring.size(); ++r) {
    const Member& m = slot.members[r];
    ring[r] = {*m.clock, m.ep->node(), m.cost_scale};
  }
  const std::vector<sim::Seconds> done =
      RingAllreduceClocks(fabric.config().net, count, elem_bytes, ring);
  for (size_t r = 0; r < ring.size(); ++r) {
    const Member& m = slot.members[r];
    *m.clock = done[r];
    // An armed self-kill the message path would have fired inside the
    // op fires here too; the fabric being failure-free, Kill aborts.
    if (done[r] >= m.ep->kill_at()) fabric.Kill(m.ep->pid());
  }
  // Clocks first: a woken op task is queued at its clock.
  std::lock_guard<std::mutex> lock(mu_);
  slot.done = true;
  slot.wp.NotifyAll();
}

}  // namespace rcc::coll
