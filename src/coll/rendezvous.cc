#include "coll/rendezvous.h"

#include <algorithm>
#include <map>
#include <tuple>
#include <unordered_map>

#include "common/log.h"
#include "obs/metrics.h"

namespace rcc::coll {

Kernel AllreduceKernel(AllreduceAlgo algo) {
  switch (algo) {
    case AllreduceAlgo::kRecursiveDoubling:
      return Kernel::kRecursiveDoubling;
    case AllreduceAlgo::kReduceBcast:
      return Kernel::kReduceBcast;
    case AllreduceAlgo::kRabenseifner:
      return Kernel::kRabenseifner;
    case AllreduceAlgo::kRing:
    case AllreduceAlgo::kAuto:
      break;
  }
  return Kernel::kRingAllreduce;
}

bool RendezvousCandidate(const sim::Fabric& fabric, int size,
                         size_t elem_bytes) {
  return size > 1 && fabric.config().engine == sim::EngineKind::kFibers &&
         fabric.kill_model() != sim::Fabric::KillModel::kUndeclared &&
         (elem_bytes == 1 || elem_bytes == 2 || elem_bytes == 4 ||
          elem_bytes == 8);
}

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

// ---------------------------------------------------------------------
// Schedule recording
// ---------------------------------------------------------------------

namespace {

// Stand-in element of the recorded width: the kernels' control flow
// reads only sizes, never values.
template <size_t N>
struct Elem {
  unsigned char b[N];
};
struct KeepOp {
  template <typename T>
  static T Apply(T a, T) { return a; }
};

struct RawStep {
  bool send;
  int peer;
  int tag;
  size_t bytes;
};

// A Transport that logs one rank's sends and receives.
class RecordingTransport : public Transport {
 public:
  RecordingTransport(int rank, int size, std::vector<RawStep>* out)
      : rank_(rank), size_(size), out_(out) {}
  int rank() const override { return rank_; }
  int size() const override { return size_; }
  Status SendTo(int dst, int tag, const void*, size_t bytes) override {
    out_->push_back({true, dst, tag, bytes});
    return Status::Ok();
  }
  Status RecvFrom(int src, int tag, void* data, size_t bytes) override {
    out_->push_back({false, src, tag, bytes});
    if (bytes > 0) std::memset(data, 0, bytes);
    return Status::Ok();
  }
  Status RecvBlob(int, int, std::vector<uint8_t>*) override {
    return Status(Code::kInvalid, "fixed-schedule kernels send no blobs");
  }

 private:
  int rank_;
  int size_;
  std::vector<RawStep>* out_;
};

template <size_t N>
Status RunRecorded(Kernel kernel, Transport& t, size_t count, int root) {
  using E = Elem<N>;
  const size_t P = static_cast<size_t>(t.size());
  const bool gather = kernel == Kernel::kBruckAllgather ||
                      kernel == Kernel::kRingAllgather;
  std::vector<E> send(count), recv(gather ? P * count : count);
  switch (kernel) {
    case Kernel::kRecursiveDoubling:
      return RecursiveDoublingAllreduce<E, KeepOp>(t, send.data(),
                                                   recv.data(), count);
    case Kernel::kReduceBcast:
      return ReduceBcastAllreduce<E, KeepOp>(t, send.data(), recv.data(),
                                             count);
    case Kernel::kRabenseifner:
      return RabenseifnerAllreduce<E, KeepOp>(t, send.data(), recv.data(),
                                              count);
    case Kernel::kBinomialBcast:
      return BinomialBcast<E>(t, recv.data(), count, root);
    case Kernel::kBinomialReduce:
      return BinomialReduce<E, KeepOp>(t, send.data(), recv.data(), count,
                                       root);
    case Kernel::kBruckAllgather:
      return BruckAllgather<E>(t, send.data(), recv.data(), count);
    case Kernel::kRingAllgather:
      return RingAllgather<E>(t, send.data(), recv.data(), count);
    case Kernel::kBarrier:
      return DisseminationBarrier(t);
    case Kernel::kRingAllreduce:
      break;
  }
  return Status(Code::kInvalid, "the ring allreduce has a closed form");
}

}  // namespace

class ScheduleRecorder {
 public:
  static std::unique_ptr<Schedule> Record(Kernel kernel, int P, size_t count,
                                          size_t elem_bytes, int root) {
    std::vector<std::vector<RawStep>> raw(P);
    for (int r = 0; r < P; ++r) {
      RecordingTransport t(r, P, &raw[r]);
      Status s;
      switch (elem_bytes) {
        case 1: s = RunRecorded<1>(kernel, t, count, root); break;
        case 2: s = RunRecorded<2>(kernel, t, count, root); break;
        case 4: s = RunRecorded<4>(kernel, t, count, root); break;
        case 8: s = RunRecorded<8>(kernel, t, count, root); break;
        default: s = Status(Code::kInvalid, "unsupported element width");
      }
      RCC_CHECK(s.ok()) << "recording kernel " << static_cast<int>(kernel)
                        << ": " << s.ToString();
    }
    // Order the steps: advance every rank while its next step is a send
    // or a receive whose send is already placed, in rounds, until all
    // are placed. Sends awaiting their receive queue per (src, dst, tag).
    auto schedule = std::make_unique<Schedule>();
    std::vector<Schedule::Step>& out = schedule->steps_;
    std::map<std::tuple<int, int, int>, std::vector<int32_t>> pending;
    std::map<std::tuple<int, int, int>, size_t> taken;
    std::vector<size_t> cursor(P, 0);
    size_t placed = 0, total = 0;
    for (const auto& steps : raw) total += steps.size();
    out.reserve(total);
    while (placed < total) {
      const size_t before = placed;
      for (int r = 0; r < P; ++r) {
        for (; cursor[r] < raw[r].size(); ++cursor[r], ++placed) {
          const RawStep& s = raw[r][cursor[r]];
          if (s.send) {
            pending[{r, s.peer, s.tag}].push_back(
                static_cast<int32_t>(out.size()));
            out.push_back({r, s.peer, -1, static_cast<double>(s.bytes)});
            continue;
          }
          const auto key = std::make_tuple(s.peer, r, s.tag);
          const std::vector<int32_t>& sends = pending[key];
          size_t& next = taken[key];
          if (next == sends.size()) break;  // its send is not placed yet
          const int32_t match = sends[next++];
          RCC_CHECK(out[match].bytes == static_cast<double>(s.bytes))
              << "recorded send/receive size mismatch";
          out.push_back({r, s.peer, match, out[match].bytes});
        }
      }
      RCC_CHECK(placed > before)
          << "recorded schedule of kernel " << static_cast<int>(kernel)
          << " over " << P << " ranks deadlocks";
    }
    return schedule;
  }
};

const Schedule& Schedule::For(Kernel kernel, int size, size_t count,
                              size_t elem_bytes, int root) {
  using Key = std::tuple<int, int, size_t, size_t, int>;
  struct KeyHash {
    size_t operator()(const Key& k) const {
      size_t h = static_cast<size_t>(std::get<0>(k));
      for (size_t v : {static_cast<size_t>(std::get<1>(k)), std::get<2>(k),
                       std::get<3>(k), static_cast<size_t>(std::get<4>(k))}) {
        h = h * 1000003u ^ v;
      }
      return h;
    }
  };
  static std::mutex mu;
  static auto* cache =
      new std::unordered_map<Key, std::unique_ptr<Schedule>, KeyHash>();
  const Key key{static_cast<int>(kernel), size, count, elem_bytes, root};
  std::lock_guard<std::mutex> lock(mu);
  std::unique_ptr<Schedule>& entry = (*cache)[key];
  if (entry == nullptr) {
    entry = ScheduleRecorder::Record(kernel, size, count, elem_bytes, root);
  }
  return *entry;
}

void Schedule::Clocks(const sim::NetParams& net, const double* scale,
                      const int* node, sim::Seconds* t,
                      std::vector<sim::Seconds>* depart) const {
  if (depart->size() < steps_.size()) depart->resize(steps_.size());
  sim::Seconds* dep = depart->data();
  for (size_t i = 0; i < steps_.size(); ++i) {
    const Step& s = steps_[i];
    sim::Seconds& now = t[s.rank];
    if (s.match < 0) {
      now += net.send_overhead;
      dep[i] = now;
      continue;
    }
    const sim::Seconds arrival =
        sim::ArrivalTime(net, dep[s.match], s.bytes * scale[s.peer],
                         node[s.peer] == node[s.rank]);
    now = std::max(now, arrival) + net.recv_overhead;
  }
}

// ---------------------------------------------------------------------
// The slot table
// ---------------------------------------------------------------------

namespace {

void CountOutcome(bool committed) {
  static obs::LabeledHandles<obs::Counter> outcomes(
      "rcc_coll_rendezvous_total", "outcome");
  outcomes.Get(committed ? "commit" : "fallback")->Increment();
}

}  // namespace

Rendezvous::~Rendezvous() {
  for (Slot* slot : live_) {
    if (slot->state == State::kOpen) {
      slot->fabric->RemoveRendezvousWaiter(&slot->wp);
    }
  }
}

bool Rendezvous::GateHolds(const Op& op, sim::Fabric& fabric,
                           const std::vector<int>& pids) {
  if (op.cancel != nullptr && op.cancel->cancelled()) return false;
  if (member_dead_) return false;
  // Deaths so far. Rendezvous run only on fibers, one host thread, so
  // both counts are read between registrations.
  const int deaths = fabric.ProcessCount() - fabric.AliveCount();
  if (deaths == 0) return true;
  if (deaths != clean_deaths_) {
    if (fabric.AnyDead(pids)) {
      member_dead_ = true;
      return false;
    }
    clean_deaths_ = deaths;
  }
  return op.watch == nullptr || op.watch == &pids ||
         !fabric.AnyDead(*op.watch);
}

Rendezvous::Outcome Rendezvous::Arrive(std::unique_lock<std::mutex>& lock,
                                       uint64_t key, const Op& op,
                                       const std::vector<int>& pids,
                                       int rank, const Member& m,
                                       Slot** last) {
  sim::Fabric& fabric = m.ep->fabric();
  const int size = static_cast<int>(pids.size());
  Slot* slot = nullptr;
  for (Slot* s : live_) {
    if (s->key == key) {
      slot = s;
      break;
    }
  }
  if (slot == nullptr) {
    // First arriver: fix the verdict.
    if (free_.empty()) {
      slots_.push_back(std::make_unique<Slot>());
      free_.push_back(slots_.back().get());
    }
    slot = free_.back();
    free_.pop_back();
    live_.push_back(slot);
    slot->key = key;
    slot->op = op;
    slot->arrived = 0;
    slot->parked = 0;
    slot->fabric = &fabric;
    slot->members.assign(size, Member{});
    const bool open = MayPark(op, fabric) && GateHolds(op, fabric, pids);
    slot->state = open ? State::kOpen : State::kMessages;
    if (open) fabric.AddRendezvousWaiter(&slot->wp);
  } else if (slot->state == State::kOpen &&
             (!MayPark(op, fabric) || !GateHolds(op, fabric, pids))) {
    // A later member that may not park (its pid has an op in flight) or
    // finds the gate broken flips the still-undecided op to messages.
    Close(*slot, State::kMessages);
  }
  RCC_CHECK(rank >= 0 && rank < size &&
            static_cast<int>(slot->members.size()) == size &&
            slot->members[rank].ep == nullptr)
      << "rendezvous " << key << ": bad arrival of rank " << rank << " of "
      << size;
  slot->members[rank] = m;
  ++slot->arrived;
  if (slot->state == State::kOpen && slot->arrived == size) {
    *last = slot;
    return Outcome::kLast;
  }
  ++slot->parked;
  while (slot->state == State::kOpen) {
    slot->wp.Wait(lock);
    // A death or a revoke woke us: flip the undecided op to messages
    // once the gate no longer holds.
    if (slot->state == State::kOpen && !GateHolds(slot->op, fabric, pids)) {
      Close(*slot, State::kMessages);
    }
  }
  --slot->parked;
  const Outcome outcome = slot->state == State::kCommitted
                              ? Outcome::kCommitted
                              : Outcome::kMessages;
  Leave(slot);
  return outcome;
}

bool Rendezvous::EvaluateClocks(const Slot& slot) {
  const int P = static_cast<int>(slot.members.size());
  sim::Fabric& fabric = *slot.fabric;
  const sim::NetParams& net = fabric.config().net;
  if (nodes_.empty()) {
    nodes_.resize(P);
    for (int r = 0; r < P; ++r) nodes_[r] = slot.members[r].ep->node();
  }
  const Op& op = slot.op;
  if (op.kernel == Kernel::kRingAllreduce) {
    if (op.count == 0) {
      done_.resize(P);
      for (int r = 0; r < P; ++r) done_[r] = *slot.members[r].clock;
    } else {
      ring_.resize(P);
      for (int r = 0; r < P; ++r) {
        const Member& m = slot.members[r];
        ring_[r] = {*m.clock, nodes_[r], m.cost_scale};
      }
      done_ = RingAllreduceClocks(net, op.count, op.elem_bytes, ring_);
    }
  } else {
    done_.resize(P);
    scale_.resize(P);
    for (int r = 0; r < P; ++r) {
      done_[r] = *slot.members[r].clock;
      scale_[r] = slot.members[r].cost_scale;
    }
    Schedule::For(op.kernel, P, op.count, op.elem_bytes, op.root)
        .Clocks(net, scale_.data(), nodes_.data(), done_.data(), &depart_);
  }
  for (int r = 0; r < P; ++r) {
    if (done_[r] >= slot.members[r].ep->kill_at()) return false;
  }
  return true;
}

void Rendezvous::Publish(Slot& slot) {
  for (size_t r = 0; r < slot.members.size(); ++r) {
    *slot.members[r].clock = done_[r];
  }
  // Clocks first: a woken member is queued at its clock.
  Close(slot, State::kCommitted);
}

void Rendezvous::Close(Slot& slot, State state) {
  slot.state = state;
  slot.fabric->RemoveRendezvousWaiter(&slot.wp);
  CountOutcome(state == State::kCommitted);
  slot.wp.NotifyAll();
}

void Rendezvous::Leave(Slot* slot) {
  if (slot->state == State::kOpen || slot->parked > 0 ||
      slot->arrived < static_cast<int>(slot->members.size())) {
    return;
  }
  live_.erase(std::find(live_.begin(), live_.end(), slot));
  free_.push_back(slot);
}

}  // namespace rcc::coll
