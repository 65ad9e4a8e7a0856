// Collective-granularity execution (coll/rendezvous.h): for every
// fixed-schedule kernel the recorded schedule's max-plus sweep plus the
// kernel's fold must reproduce the message-level kernel over the fabric
// bit for bit, through the bare model and through the mpi and nccl entry
// points; a committed op sends no message; every failure case (a kill
// armed inside the op, a victim dying before it arrives, a revoke while
// members are parked) ends exactly as on the message path; windowed ops
// on a self-kill-only fabric and undeclared fabrics keep the messages;
// and the kill-model declaration that enables it all is enforced.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "coll/algorithms.h"
#include "coll/rendezvous.h"
#include "coll/request.h"
#include "common/rng.h"
#include "core/ulfm_elastic.h"
#include "dnn/zoo.h"
#include "mpi/comm.h"
#include "nccl/nccl.h"
#include "obs/metrics.h"
#include "sim/cluster.h"
#include "sim/engine.h"
#include "ulfm/ulfm.h"

namespace rcc::coll {
namespace {

using KillModel = sim::Fabric::KillModel;

sim::SimConfig FibersConfig(int gpus_per_node) {
  sim::SimConfig cfg;
  cfg.engine = sim::EngineKind::kFibers;
  cfg.gpus_per_node = gpus_per_node;
  return cfg;
}

// Inputs spanning many binades, so any change in summation order moves
// the result.
template <typename T = float>
std::vector<T> Input(int rank, size_t count) {
  Rng rng(7, static_cast<uint64_t>(rank));
  std::vector<T> v(count);
  for (T& x : v) {
    x = static_cast<T>(std::ldexp(rng.NextDouble() - 0.5,
                                  static_cast<int>(rng.NextBelow(40)) - 20));
  }
  return v;
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Ragged placement: the first half of the ranks packed `gpus_per_node`
// to a node, the rest from a fresh node on, so schedules mix intra- and
// inter-node hops and node sizes differ. Pids are 0..P-1 on a fresh
// cluster.
void SpawnRagged(sim::Cluster& cluster, int P, const sim::RankFn& fn) {
  cluster.Spawn((P + 1) / 2, fn);
  cluster.SpawnOnFreshNodes(P / 2, fn, 0.0);
}

// Staggered, distinct start clocks (several ranks share one).
sim::Seconds Start(int rank) { return 1e-6 * ((rank * 7) % 5) + 3e-7 * rank; }

// Per-rank cost scales.
double Scale(int rank) { return rank % 3 == 0 ? 1.0 : 37.5 + rank; }

double CounterValue(const char* outcome) {
  return obs::Registry::Global().CounterValue("rcc_coll_rendezvous_total",
                                              {{"outcome", outcome}});
}

// ---------------------------------------------------------------------
// The bare model against the message-level kernels.
// ---------------------------------------------------------------------

bool HasRoot(Kernel k) {
  return k == Kernel::kBinomialBcast || k == Kernel::kBinomialReduce;
}
bool IsGather(Kernel k) {
  return k == Kernel::kBruckAllgather || k == Kernel::kRingAllgather;
}
// Kernels whose output may be their input buffer.
bool InPlaceOk(Kernel k) {
  return k == Kernel::kRingAllreduce || k == Kernel::kRecursiveDoubling ||
         k == Kernel::kReduceBcast || k == Kernel::kRabenseifner ||
         k == Kernel::kBinomialReduce;
}

template <typename T>
Status RunKernel(Kernel k, Transport& t, const T* send, T* recv,
                 size_t count, int root) {
  switch (k) {
    case Kernel::kRingAllreduce:
      return RingAllreduce<T>(t, send, recv, count);
    case Kernel::kRecursiveDoubling:
      return RecursiveDoublingAllreduce<T>(t, send, recv, count);
    case Kernel::kReduceBcast:
      return ReduceBcastAllreduce<T>(t, send, recv, count);
    case Kernel::kRabenseifner:
      return RabenseifnerAllreduce<T>(t, send, recv, count);
    case Kernel::kBinomialBcast:
      return BinomialBcast<T>(t, recv, count, root);
    case Kernel::kBinomialReduce:
      return BinomialReduce<T>(t, send, recv, count, root);
    case Kernel::kBruckAllgather:
      return BruckAllgather<T>(t, send, recv, count);
    case Kernel::kRingAllgather:
      return RingAllgather<T>(t, send, recv, count);
    case Kernel::kBarrier:
      return DisseminationBarrier(t);
  }
  return Status(Code::kInvalid, "kernel");
}

// Messages one message-path run of `k` sends: 2(P-1) per rank for the
// ring (empty chunks included), the recorded sends for any other kernel.
uint64_t KernelMessages(Kernel k, int P, size_t count, size_t elem_bytes,
                        int root) {
  if (k == Kernel::kRingAllreduce) return uint64_t(2) * (P - 1) * P;
  return Schedule::For(k, P, count, elem_bytes, root).steps().size() / 2;
}

struct ModelCase {
  Kernel kernel;
  int P;
  size_t count;
};

const char* KernelName(Kernel k) {
  switch (k) {
    case Kernel::kRingAllreduce: return "ring";
    case Kernel::kRecursiveDoubling: return "rd";
    case Kernel::kReduceBcast: return "reduce_bcast";
    case Kernel::kRabenseifner: return "rabenseifner";
    case Kernel::kBinomialBcast: return "bcast";
    case Kernel::kBinomialReduce: return "reduce";
    case Kernel::kBruckAllgather: return "bruck";
    case Kernel::kRingAllgather: return "ring_allgather";
    case Kernel::kBarrier: return "barrier";
  }
  return "?";
}

std::string CaseName(const ::testing::TestParamInfo<ModelCase>& info) {
  return std::string(KernelName(info.param.kernel)) + "_P" +
         std::to_string(info.param.P) + "_n" +
         std::to_string(info.param.count);
}

// One kernel run both ways from the same staggered starts, per-rank cost
// scales and ragged placement; clocks and every rank's buffer compared.
template <typename T>
void CheckModel(Kernel k, int P, size_t count, int root, bool in_place) {
  SCOPED_TRACE(std::string("root ") + std::to_string(root) +
               (in_place ? " in place" : ""));
  const size_t out_n = IsGather(k) ? static_cast<size_t>(P) * count : count;
  std::vector<std::vector<T>> send(P), recv(P), init(P);
  std::vector<sim::Seconds> clock(P);
  for (int r = 0; r < P; ++r) {
    send[r] = Input<T>(r, count);
    recv[r] = k == Kernel::kBinomialBcast ? Input<T>(r + 1000, count)
                                          : std::vector<T>(out_n, T(-1));
    init[r] = recv[r];
    clock[r] = Start(r);
  }
  sim::Cluster cluster(FibersConfig(4));
  std::vector<int> pids(P);
  std::iota(pids.begin(), pids.end(), 0);
  SpawnRagged(cluster, P, [&](sim::Endpoint& ep) {
    const int r = ep.pid();
    FabricChannel ch(ep, pids, r, sim::ChannelKey(99, 1), Scale(r), &clock[r],
                     nullptr, nullptr);
    T* out = in_place ? send[r].data() : recv[r].data();
    ASSERT_TRUE(RunKernel<T>(k, ch, send[r].data(), out, count, root).ok());
  });
  cluster.Join();
  EXPECT_EQ(cluster.fabric().MessagesSent(),
            KernelMessages(k, P, count, sizeof(T), root));

  std::vector<sim::Seconds> model(P);
  std::vector<double> scale(P);
  std::vector<int> node(P);
  for (int r = 0; r < P; ++r) {
    model[r] = Start(r);
    scale[r] = Scale(r);
    node[r] = cluster.fabric().NodeOf(pids[r]);
  }
  if (k == Kernel::kRingAllreduce) {
    std::vector<RingMember> ring(P);
    for (int r = 0; r < P; ++r) ring[r] = {Start(r), node[r], scale[r]};
    model = RingAllreduceClocks(cluster.config().net, count, sizeof(T), ring);
  } else {
    std::vector<sim::Seconds> depart;
    Schedule::For(k, P, count, sizeof(T), root)
        .Clocks(cluster.config().net, scale.data(), node.data(), model.data(),
                &depart);
  }
  std::vector<std::vector<T>> in(P), folded(P);
  std::vector<const void*> in_ptr(P);
  std::vector<void*> out_ptr(P);
  for (int r = 0; r < P; ++r) {
    in[r] = k == Kernel::kBinomialBcast ? init[r] : Input<T>(r, count);
    folded[r] = in_place ? in[r] : init[r];
    in_ptr[r] = in[r].data();
    out_ptr[r] = in_place || k == Kernel::kBinomialBcast ? in[r].data()
                                                         : folded[r].data();
  }
  std::vector<unsigned char> scratch;
  FoldKernel<T>(k, P, count, root, in_ptr.data(), out_ptr.data(), &scratch);
  for (int r = 0; r < P; ++r) {
    EXPECT_TRUE(BitEqual(model[r], clock[r]))
        << "rank " << r << ": model " << model[r] << " messages " << clock[r];
    const std::vector<T>& want = in_place ? send[r] : recv[r];
    const void* got = out_ptr[r];
    EXPECT_TRUE(want.empty() ||
                std::memcmp(want.data(), got, want.size() * sizeof(T)) == 0)
        << "rank " << r;
  }
}

class KernelModelTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(KernelModelTest, MatchesMessagePathBitForBit) {
  const auto [k, P, count] = GetParam();
  const std::vector<int> roots = [&] {
    std::vector<int> all(HasRoot(k) ? P : 1);
    std::iota(all.begin(), all.end(), 0);
    return all;
  }();
  for (int root : roots) {
    for (bool in_place : {false, true}) {
      if (in_place && !InPlaceOk(k)) continue;
      switch (k) {
        case Kernel::kBarrier:
          CheckModel<uint8_t>(k, P, count, root, in_place);
          break;
        case Kernel::kBinomialBcast:
        case Kernel::kBruckAllgather:
        case Kernel::kRingAllgather:
          CheckModel<double>(k, P, count, root, in_place);
          break;
        default:
          CheckModel<float>(k, P, count, root, in_place);
      }
    }
  }
}

std::vector<ModelCase> ModelCases() {
  std::vector<ModelCase> cases;
  for (Kernel k :
       {Kernel::kRingAllreduce, Kernel::kRecursiveDoubling,
        Kernel::kReduceBcast, Kernel::kRabenseifner, Kernel::kBinomialBcast,
        Kernel::kBinomialReduce, Kernel::kBruckAllgather,
        Kernel::kRingAllgather, Kernel::kBarrier}) {
    for (int P : {2, 3, 5, 8, 64, 96}) {
      std::vector<size_t> counts = {size_t{1}, size_t(P) + 3};
      if (k == Kernel::kBarrier) counts = {0};
      // The ring model needs count > 0; every other kernel also runs
      // (or skips) a zero-element op.
      if (k != Kernel::kRingAllreduce && k != Kernel::kBarrier) {
        counts.push_back(0);
      }
      if (P <= 8 && k != Kernel::kBarrier) counts.push_back(1024);
      for (size_t count : counts) cases.push_back({k, P, count});
    }
  }
  // The ring's closed form also over odd sizes, counts just below, at and
  // above P (empty and single-element chunks), and 1024 elements at 96.
  for (int P : {2, 3, 5, 6, 7, 12, 96}) {
    for (size_t count : {size_t{1}, size_t(P - 1), size_t(P), size_t{1024}}) {
      if (count == 0) continue;
      bool dup = false;
      for (const ModelCase& c : cases) {
        dup |= c.kernel == Kernel::kRingAllreduce && c.P == P &&
               c.count == count;
      }
      if (!dup) cases.push_back({Kernel::kRingAllreduce, P, count});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Kernels, KernelModelTest,
                         ::testing::ValuesIn(ModelCases()), CaseName);

// ---------------------------------------------------------------------
// Entry points: one program per rank on a declared and an undeclared
// fabric, compared op by op.
// ---------------------------------------------------------------------

// What one rank saw: per op the status code, the rank clock after it and
// the bytes of its result buffer.
struct Trace {
  std::vector<int> codes;
  std::vector<sim::Seconds> clocks;
  std::vector<uint8_t> bytes;
  template <typename T>
  void Note(const Status& s, const sim::Endpoint& ep, const T* buf,
            size_t n) {
    codes.push_back(static_cast<int>(s.code()));
    clocks.push_back(ep.now());
    const auto* p = reinterpret_cast<const uint8_t*>(buf);
    if (n > 0) bytes.insert(bytes.end(), p, p + n * sizeof(T));
  }
};

struct ProgramRun {
  std::vector<Trace> traces;  // by pid
  uint64_t messages = 0;
  double commits = 0.0;    // rcc_coll_rendezvous_total deltas
  double fallbacks = 0.0;
};

using Program =
    std::function<void(sim::Endpoint&, const std::vector<int>&, Trace*)>;

ProgramRun RunProgram(int P, KillModel model, const Program& program) {
  ProgramRun run;
  run.traces.resize(P);
  const double commits0 = CounterValue("commit");
  const double fallbacks0 = CounterValue("fallback");
  sim::Cluster cluster(FibersConfig(4));
  if (model != KillModel::kUndeclared) {
    cluster.fabric().DeclareKillModel(model);
  }
  std::vector<int> pids(P);
  std::iota(pids.begin(), pids.end(), 0);
  SpawnRagged(cluster, P, [&](sim::Endpoint& ep) {
    program(ep, pids, &run.traces[ep.pid()]);
  });
  cluster.Join();
  run.messages = cluster.fabric().MessagesSent();
  run.commits = CounterValue("commit") - commits0;
  run.fallbacks = CounterValue("fallback") - fallbacks0;
  return run;
}

void ExpectSameRun(const ProgramRun& fast, const ProgramRun& slow) {
  ASSERT_EQ(fast.traces.size(), slow.traces.size());
  for (size_t r = 0; r < fast.traces.size(); ++r) {
    const Trace& a = fast.traces[r];
    const Trace& b = slow.traces[r];
    EXPECT_EQ(a.codes, b.codes) << "rank " << r;
    ASSERT_EQ(a.clocks.size(), b.clocks.size()) << "rank " << r;
    for (size_t i = 0; i < a.clocks.size(); ++i) {
      EXPECT_TRUE(BitEqual(a.clocks[i], b.clocks[i]))
          << "rank " << r << " op " << i << ": " << a.clocks[i] << " vs "
          << b.clocks[i];
    }
    EXPECT_EQ(a.bytes, b.bytes) << "rank " << r;
  }
}

// Every mpi collective of the fixed-schedule set, blocking, from
// staggered clocks with a cost scale; `windowed` adds two pipelined
// IAllreduces and an IBcast.
Program MpiProgram(size_t count, bool windowed) {
  return [count, windowed](sim::Endpoint& ep, const std::vector<int>& pids,
                           Trace* t) {
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    const int r = comm.rank();
    const int P = comm.size();
    comm.set_cost_scale(3.0);
    std::vector<float> in = Input(r, count), out(count, -1.0f);
    int k = 0;
    auto pause = [&] { ep.Busy(Start(r + k++)); };
    for (AllreduceAlgo algo :
         {AllreduceAlgo::kRing, AllreduceAlgo::kRecursiveDoubling,
          AllreduceAlgo::kReduceBcast, AllreduceAlgo::kRabenseifner}) {
      pause();
      t->Note(comm.Allreduce(in.data(), out.data(), count, algo), ep,
              out.data(), count);
    }
    pause();  // in place
    std::vector<float> io = Input(r + 50, count);
    t->Note(comm.Allreduce(io.data(), io.data(), count), ep, io.data(),
            count);
    pause();
    std::vector<double> b = Input<double>(r + 100, count);
    t->Note(comm.Bcast(b.data(), count, P - 1), ep, b.data(), count);
    std::vector<double> all(static_cast<size_t>(P) * count);
    for (mpi::AllgatherAlgo algo :
         {mpi::AllgatherAlgo::kBruck, mpi::AllgatherAlgo::kRing}) {
      pause();
      t->Note(comm.Allgather(b.data(), all.data(), count, algo), ep,
              all.data(), all.size());
    }
    pause();
    t->Note(comm.Reduce(in.data(), out.data(), count, P / 2), ep, out.data(),
            count);
    pause();
    t->Note(comm.Barrier(), ep, out.data(), 0);
    if (windowed) {
      std::vector<float> w1 = Input(r + 7, count), w2(count), w3(count);
      std::vector<double> wb = Input<double>(r + 9, count);
      std::vector<Request> reqs;
      pause();
      reqs.push_back(comm.IAllreduce(w1.data(), w2.data(), count));
      pause();
      reqs.push_back(comm.IAllreduce(w1.data(), w3.data(), count,
                                     AllreduceAlgo::kRing));
      reqs.push_back(comm.IBcast(wb.data(), count, 1));
      for (Request& q : reqs) t->Note(comm.Wait(&q), ep, w1.data(), 0);
      t->Note(Status::Ok(), ep, w2.data(), count);
      t->Note(Status::Ok(), ep, w3.data(), count);
      t->Note(Status::Ok(), ep, wb.data(), count);
    }
  };
}

// The nccl counterpart: init (a barrier), small and large allreduces,
// broadcast, allgather, barrier; `windowed` adds pipelined ops.
Program NcclProgram(size_t count, bool windowed) {
  return [count, windowed](sim::Endpoint& ep, const std::vector<int>& pids,
                           Trace* t) {
    auto comm = nccl::Comm::InitRank(ep, pids, "fastpath");
    ASSERT_NE(comm, nullptr);
    const int r = comm->rank();
    const int P = static_cast<int>(pids.size());
    std::vector<float> in = Input(r, count), out(count, -1.0f);
    int k = 0;
    auto pause = [&] { ep.Busy(Start(r + k++)); };
    for (double scale : {1.0, 64.0}) {  // reduce+bcast, then the ring
      comm->set_cost_scale(scale);
      pause();
      t->Note(comm->Allreduce(in.data(), out.data(), count), ep, out.data(),
              count);
      pause();
      t->Note(comm->Allreduce(out.data(), out.data(), count), ep,
              out.data(), count);
    }
    comm->set_cost_scale(2.0);
    pause();
    std::vector<double> b = Input<double>(r + 100, count);
    t->Note(comm->Broadcast(b.data(), count, 1 % P), ep, b.data(), count);
    std::vector<double> all(static_cast<size_t>(P) * count);
    pause();
    t->Note(comm->Allgather(b.data(), all.data(), count), ep, all.data(),
            all.size());
    pause();
    t->Note(comm->Barrier(), ep, out.data(), 0);
    if (windowed) {
      std::vector<float> w1 = Input(r + 7, count), w2(count), w3(count);
      std::vector<Request> reqs;
      pause();
      reqs.push_back(comm->IAllreduce(w1.data(), w2.data(), count));
      pause();
      reqs.push_back(comm->IAllreduce(w2.data(), w3.data(), count));
      reqs.push_back(comm->IBroadcast(w1.data(), count, 0));
      for (Request& q : reqs) t->Note(comm->Wait(&q), ep, w1.data(), 0);
      t->Note(Status::Ok(), ep, w2.data(), count);
      t->Note(Status::Ok(), ep, w3.data(), count);
      t->Note(Status::Ok(), ep, w1.data(), count);
    }
  };
}

// What MpiProgram sends over the fabric when every op runs the message
// kernel: each op's kernel messages, the kernel chosen as mpi::Comm
// chooses it (cost scale 3).
uint64_t MpiProgramMessages(int P, size_t count, bool windowed) {
  auto allreduce = [&](AllreduceAlgo algo) {
    const AllreduceAlgo chosen = ChooseAllreduce(
        MpiAllreduceTuning(), algo,
        static_cast<double>(count * sizeof(float)) * 3.0, P);
    return KernelMessages(AllreduceKernel(chosen), P, count, sizeof(float),
                          0);
  };
  uint64_t n = 0;
  for (AllreduceAlgo algo :
       {AllreduceAlgo::kRing, AllreduceAlgo::kRecursiveDoubling,
        AllreduceAlgo::kReduceBcast, AllreduceAlgo::kRabenseifner,
        AllreduceAlgo::kAuto}) {
    n += allreduce(algo);
  }
  n += KernelMessages(Kernel::kBinomialBcast, P, count, sizeof(double),
                      P - 1);
  n += KernelMessages(Kernel::kBruckAllgather, P, count, sizeof(double), 0);
  n += KernelMessages(Kernel::kRingAllgather, P, count, sizeof(double), 0);
  n += KernelMessages(Kernel::kBinomialReduce, P, count, sizeof(float),
                      P / 2);
  n += KernelMessages(Kernel::kBarrier, P, 0, 1, 0);
  if (windowed) {
    n += allreduce(AllreduceAlgo::kAuto) + allreduce(AllreduceAlgo::kRing) +
         KernelMessages(Kernel::kBinomialBcast, P, count, sizeof(double), 1);
  }
  return n;
}

// The same for NcclProgram: the init barrier, then each op's kernel as
// nccl::Comm chooses it from the modeled bytes.
uint64_t NcclProgramMessages(int P, size_t count, bool windowed) {
  auto allreduce = [&](double cost_scale) {
    const AllreduceAlgo chosen = ChooseAllreduce(
        NcclAllreduceTuning(), AllreduceAlgo::kAuto,
        static_cast<double>(count * sizeof(float)) * cost_scale, P);
    return KernelMessages(AllreduceKernel(chosen), P, count, sizeof(float),
                          0);
  };
  const uint64_t barrier = KernelMessages(Kernel::kBarrier, P, 0, 1, 0);
  uint64_t n = barrier + 2 * allreduce(1.0) + 2 * allreduce(64.0);
  n += KernelMessages(Kernel::kBinomialBcast, P, count, sizeof(double),
                      1 % P);
  n += KernelMessages(Kernel::kRingAllgather, P, count, sizeof(double), 0);
  n += barrier;
  if (windowed) {
    n += 2 * allreduce(2.0) +
         KernelMessages(Kernel::kBinomialBcast, P, count, sizeof(float), 0);
  }
  return n;
}

TEST(Rendezvous, MpiCollectivesMatchMessagePath) {
  for (int P : {2, 5, 8, 12}) {
    for (size_t count : {size_t{1}, size_t{37}}) {
      SCOPED_TRACE("P=" + std::to_string(P) + " count=" +
                   std::to_string(count));
      const Program prog = MpiProgram(count, /*windowed=*/true);
      const ProgramRun slow = RunProgram(P, KillModel::kUndeclared, prog);
      const ProgramRun none = RunProgram(P, KillModel::kNone, prog);
      ExpectSameRun(none, slow);
      EXPECT_EQ(slow.messages, MpiProgramMessages(P, count, true));
      // World comms exchange nothing else: every op committed.
      EXPECT_EQ(none.messages, 0u);
      EXPECT_EQ(none.fallbacks, 0.0);
      EXPECT_EQ(none.commits, 13.0);
      // Self-kill-only: the blocking ops commit as well.
      const Program blocking = MpiProgram(count, /*windowed=*/false);
      const ProgramRun self = RunProgram(P, KillModel::kSelfOnly, blocking);
      const ProgramRun blocking_slow =
          RunProgram(P, KillModel::kUndeclared, blocking);
      ExpectSameRun(self, blocking_slow);
      EXPECT_EQ(blocking_slow.messages, MpiProgramMessages(P, count, false));
      EXPECT_EQ(self.messages, 0u);
      EXPECT_EQ(self.commits, 10.0);
    }
  }
}

TEST(Rendezvous, NcclCollectivesMatchMessagePath) {
  for (int P : {3, 6, 13}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const Program prog = NcclProgram(1027, /*windowed=*/true);
    const ProgramRun slow = RunProgram(P, KillModel::kUndeclared, prog);
    const ProgramRun none = RunProgram(P, KillModel::kNone, prog);
    ExpectSameRun(none, slow);
    EXPECT_EQ(slow.messages, NcclProgramMessages(P, 1027, true));
    EXPECT_EQ(none.messages, 0u);  // the init barrier included
    const Program blocking = NcclProgram(1027, /*windowed=*/false);
    const ProgramRun self = RunProgram(P, KillModel::kSelfOnly, blocking);
    const ProgramRun blocking_slow =
        RunProgram(P, KillModel::kUndeclared, blocking);
    ExpectSameRun(self, blocking_slow);
    EXPECT_EQ(blocking_slow.messages, NcclProgramMessages(P, 1027, false));
    EXPECT_EQ(self.messages, 0u);
    EXPECT_EQ(self.fallbacks, 0.0);
  }
}

// Windowed ops on a self-kill-only fabric keep the message path (a pid
// whose op task is parked at a slot could still kill itself in its own
// code); the blocking ops around them still commit.
TEST(Rendezvous, WindowedOpsOnSelfOnlyFabricStayOnMessages) {
  constexpr int P = 6;
  for (bool nccl : {false, true}) {
    SCOPED_TRACE(nccl ? "nccl" : "mpi");
    const Program with = nccl ? NcclProgram(33, true) : MpiProgram(33, true);
    const Program without =
        nccl ? NcclProgram(33, false) : MpiProgram(33, false);
    const ProgramRun self = RunProgram(P, KillModel::kSelfOnly, with);
    ExpectSameRun(self, RunProgram(P, KillModel::kUndeclared, with));
    const uint64_t windowed_only =
        RunProgram(P, KillModel::kUndeclared, with).messages -
        RunProgram(P, KillModel::kUndeclared, without).messages;
    EXPECT_GT(windowed_only, 0u);
    // The nccl init barrier runs before any declaration matters here:
    // the fabric is declared before spawn, so it commits too.
    EXPECT_EQ(self.messages, windowed_only);
  }
}

// An undeclared fabric sends every message, as the parent design did.
TEST(Rendezvous, UndeclaredFabricKeepsMessages) {
  constexpr int P = 8;
  const ProgramRun run =
      RunProgram(P, KillModel::kUndeclared,
                 [](sim::Endpoint& ep, const std::vector<int>& pids, Trace*) {
                   mpi::Comm comm = mpi::Comm::World(ep, pids);
                   ASSERT_TRUE(comm.Barrier().ok());
                 });
  EXPECT_EQ(run.messages, uint64_t(P) * 3);  // log2(8) rounds
  EXPECT_EQ(run.commits, 0.0);
}

// ---------------------------------------------------------------------
// Failures on a self-kill-only fabric, against the message path.
// ---------------------------------------------------------------------

constexpr int kVictim = 3;

// Three resilient-style steps over an nccl communicator (blocking
// allreduce + barrier); `victim_pause` is the victim's compute before
// step 2 and `kill_at` its armed self-kill. Before that compute the
// victim yields 1 ms ahead of the others, so they reach step 2 first.
Program NcclSteps(sim::Seconds victim_pause, sim::Seconds kill_at) {
  return [victim_pause, kill_at](sim::Endpoint& ep,
                                 const std::vector<int>& pids, Trace* t) {
    const int r = ep.pid();
    if (r == kVictim) ep.ArmKillAt(kill_at);
    auto comm = nccl::Comm::InitRank(ep, pids, "steps");
    if (comm == nullptr) return;
    std::vector<float> in = Input(r, 16), out(16, -1.0f);
    for (int step = 0; step < 3; ++step) {
      if (step == 1 && r == kVictim) {
        ep.Busy(1e-3);
        sim::YieldTask();
      }
      ep.Busy(step == 1 && r == kVictim ? victim_pause : Start(r));
      Status s = comm->Allreduce(in.data(), out.data(), 16);
      t->Note(s, ep, out.data(), 16);
      if (!s.ok()) return;
      s = comm->Barrier();
      t->Note(s, ep, out.data(), 0);
      if (!s.ok()) return;
    }
  };
}

// The victim's clock at the start and end of step 2's allreduce on a
// clean run.
std::pair<sim::Seconds, sim::Seconds> VictimStep2Window(int P) {
  const ProgramRun clean = RunProgram(
      P, KillModel::kUndeclared,
      NcclSteps(Start(kVictim), std::numeric_limits<double>::infinity()));
  const Trace& v = clean.traces[kVictim];
  return {v.clocks[1] + 1e-3 + Start(kVictim), v.clocks[2]};
}

TEST(RendezvousFailure, KillArmedInsideTheOpFallsBackToMessages) {
  for (int P : {5, 8, 12}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const auto [begin, end] = VictimStep2Window(P);
    ASSERT_LT(begin, end);
    const Program prog = NcclSteps(Start(kVictim), (begin + end) / 2);
    const ProgramRun fast = RunProgram(P, KillModel::kSelfOnly, prog);
    const ProgramRun slow = RunProgram(P, KillModel::kUndeclared, prog);
    ExpectSameRun(fast, slow);
    EXPECT_EQ(fast.traces[kVictim].codes.back(),
              static_cast<int>(Code::kAborted));
    EXPECT_GE(fast.commits, 3.0);  // init barrier, step 1
    // Step 2's allreduce; a member past it in its messages may have
    // opened step 2's barrier before the victim's kill fired, and that
    // one falls back too.
    EXPECT_GE(fast.fallbacks, 1.0);
    EXPECT_LT(fast.messages, slow.messages);
  }
}

// The victim dies in its compute before it reaches step 2, while the
// others already wait at step 2's slot: the death wakes them, they fall
// back, and the run ends as on the message path. A rendezvous that
// decided per member would park the others forever (a stall report
// with parked=P-1).
TEST(RendezvousFailure, VictimDyingBeforeArrivingDoesNotStall) {
  for (int P : {5, 8, 12}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const auto [begin, end] = VictimStep2Window(P);
    const sim::Seconds pause = 5e-3;
    const Program prog =
        NcclSteps(pause, begin - Start(kVictim) + pause / 2);
    const ProgramRun fast = RunProgram(P, KillModel::kSelfOnly, prog);
    const ProgramRun slow = RunProgram(P, KillModel::kUndeclared, prog);
    ExpectSameRun(fast, slow);
    EXPECT_EQ(fast.traces[kVictim].codes.back(),
              static_cast<int>(Code::kAborted));
    EXPECT_EQ(fast.fallbacks, 1.0);  // the parked members flipped it
    for (int r = 0; r < P; ++r) {
      if (r == kVictim) continue;
      EXPECT_EQ(fast.traces[r].codes.back(),
                static_cast<int>(Code::kProcFailed))
          << "rank " << r;
    }
  }
}

// Rank 0 revokes the communicator while every other rank waits at a
// broadcast from it: they fall back and observe the revoke as the
// message path does. (A broadcast's non-roots receive before they send,
// so on the message path they make no progress before the revoke
// either. In a kernel that sends first, how far the message path gets
// before a revoke depends on host order; see DESIGN.md section 13.)
TEST(RendezvousFailure, RevokeWhileMembersAreParked) {
  constexpr int P = 6;
  const Program prog = [](sim::Endpoint& ep, const std::vector<int>& pids,
                          Trace* t) {
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    const int r = comm.rank();
    std::vector<double> b = Input<double>(r, 8);
    ep.Busy(Start(r));
    t->Note(comm.Barrier(), ep, b.data(), 0);
    if (r == 0) {
      ep.Busy(2e-3);
      ulfm::Revoke(comm);
    } else {
      ep.Busy(Start(r));
    }
    t->Note(comm.Bcast(b.data(), 8, 0), ep, b.data(), 8);
    t->Note(comm.Barrier(), ep, b.data(), 0);
  };
  const ProgramRun fast = RunProgram(P, KillModel::kSelfOnly, prog);
  const ProgramRun slow = RunProgram(P, KillModel::kUndeclared, prog);
  ExpectSameRun(fast, slow);
  EXPECT_EQ(fast.commits, 1.0);
  EXPECT_EQ(fast.fallbacks, 1.0);
  for (int r = 0; r < P; ++r) {
    EXPECT_EQ(fast.traces[r].codes[1], static_cast<int>(Code::kRevoked))
        << "rank " << r;
  }
}

// ---------------------------------------------------------------------
// The table and the gate.
// ---------------------------------------------------------------------

// One table, the same op sequence number from an "mpi" and an "nccl"
// collective over the same ranks: the stack in the key keeps the two
// slots apart, so each completes with its own data.
TEST(Rendezvous, StacksNeverShareASlot) {
  constexpr int P = 5;
  constexpr size_t kCount = 9;
  Rendezvous table;
  sim::Cluster cluster(FibersConfig(6));
  cluster.fabric().DeclareKillModel(KillModel::kNone);
  std::vector<std::vector<float>> in(2 * P), out(2 * P);
  for (int i = 0; i < 2 * P; ++i) {
    in[i] = Input(i, kCount);
    out[i].assign(kCount, 0.0f);
  }
  std::vector<sim::Seconds> clock(2 * P, 0.0);
  std::vector<int> members(P);
  std::iota(members.begin(), members.end(), 0);
  // Even pids are the mpi members, odd pids the nccl members (rank
  // pid / 2), so arrivals at the two slots alternate.
  cluster.Spawn(2 * P, [&](sim::Endpoint& ep) {
    const int i = ep.pid();
    const auto stack = i % 2 == 0 ? Rendezvous::Stack::kMpi
                                  : Rendezvous::Stack::kNccl;
    Rendezvous::Op op;
    op.kernel = Kernel::kRingAllreduce;
    op.count = kCount;
    op.elem_bytes = sizeof(float);
    ASSERT_TRUE(table.Run<float>(Rendezvous::Key(stack, 1), op, members,
                                 i / 2,
                                 {&ep, in[i].data(), out[i].data(), 1.0,
                                  &clock[i]}));
  });
  cluster.Join();
  for (int stack = 0; stack < 2; ++stack) {
    std::vector<const void*> ptrs;
    for (int r = 0; r < P; ++r) ptrs.push_back(in[2 * r + stack].data());
    std::vector<float> sum(kCount);
    RingAllreduceReduce<float>(ptrs.data(), P, kCount, sum.data());
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(0, std::memcmp(sum.data(), out[2 * r + stack].data(),
                               kCount * sizeof(float)));
    }
  }
  EXPECT_NE(Rendezvous::Key(Rendezvous::Stack::kMpi, 1),
            Rendezvous::Key(Rendezvous::Stack::kNccl, 1));
}

// Under kSelfOnly a member whose pid has an op in flight may not park.
// Arriving after the others opened the slot, it flips the slot to
// messages, and every member runs the message kernel with the clocks
// and results of a committed op.
TEST(Rendezvous, LateNonBlockingMemberFlipsSelfOnlySlotToMessages) {
  constexpr int P = 5;
  constexpr size_t kCount = 9;
  std::vector<std::vector<float>> committed_out;
  std::vector<sim::Seconds> committed_clock;
  for (bool last_blocking : {true, false}) {
    SCOPED_TRACE(last_blocking ? "every member blocking"
                               : "last member non-blocking");
    Rendezvous table;
    sim::Cluster cluster(FibersConfig(2));
    cluster.fabric().DeclareKillModel(KillModel::kSelfOnly);
    std::vector<int> pids(P);
    std::iota(pids.begin(), pids.end(), 0);
    std::vector<std::vector<float>> in(P), out(P);
    std::vector<sim::Seconds> clock(P);
    std::vector<int> completed(P, -1);
    const double fallbacks0 = CounterValue("fallback");
    cluster.Spawn(P, [&](sim::Endpoint& ep) {
      const int r = ep.pid();
      in[r] = Input(r, kCount);
      out[r].assign(kCount, -1.0f);
      clock[r] = Start(r);
      Rendezvous::Op op;
      op.kernel = Kernel::kRecursiveDoubling;
      op.count = kCount;
      op.elem_bytes = sizeof(float);
      op.blocking = last_blocking || r != P - 1;
      if (r == P - 1) sim::YieldTask();  // arrive last
      completed[r] = table.Run<float>(
          Rendezvous::Key(Rendezvous::Stack::kMpi, 1), op, pids, r,
          {&ep, in[r].data(), out[r].data(), 1.0, &clock[r]});
      if (!completed[r]) {
        FabricChannel ch(ep, pids, r, sim::ChannelKey(99, 1), 1.0, &clock[r],
                         nullptr, nullptr);
        ASSERT_TRUE(RecursiveDoublingAllreduce<float>(ch, in[r].data(),
                                                      out[r].data(), kCount)
                        .ok());
      }
    });
    cluster.Join();
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(completed[r], last_blocking ? 1 : 0) << "rank " << r;
    }
    EXPECT_EQ(cluster.fabric().MessagesSent(),
              last_blocking ? 0u
                            : KernelMessages(Kernel::kRecursiveDoubling, P,
                                             kCount, sizeof(float), 0));
    // The flip closes an open slot: one fallback. (A non-blocking first
    // arriver would open it at messages and count none.)
    EXPECT_EQ(CounterValue("fallback") - fallbacks0, last_blocking ? 0 : 1);
    if (last_blocking) {
      committed_out = out;
      committed_clock = clock;
      continue;
    }
    for (int r = 0; r < P; ++r) {
      EXPECT_TRUE(BitEqual(clock[r], committed_clock[r])) << "rank " << r;
      EXPECT_EQ(out[r], committed_out[r]) << "rank " << r;
    }
  }
}

// Threads runs, undeclared fabrics, single-member groups and element
// widths a schedule does not record never go to the table.
TEST(Rendezvous, CandidateNeedsFibersAndADeclaration) {
  sim::SimConfig cfg;
  cfg.engine = sim::EngineKind::kThreads;
  sim::Fabric threads(cfg);
  threads.DeclareKillModel(KillModel::kNone);
  EXPECT_FALSE(RendezvousCandidate(threads, 4, 4));
  sim::Fabric fibers(FibersConfig(6));
  EXPECT_FALSE(RendezvousCandidate(fibers, 4, 4));
  fibers.DeclareKillModel(KillModel::kSelfOnly);
  EXPECT_TRUE(RendezvousCandidate(fibers, 4, 4));
  EXPECT_FALSE(RendezvousCandidate(fibers, 1, 4));
  EXPECT_FALSE(RendezvousCandidate(fibers, 4, 12));  // no recorded width
  fibers.DeclareKillModel(KillModel::kSelfOnly);  // repeating is fine
  EXPECT_EQ(fibers.kill_model(), KillModel::kSelfOnly);
}

// ---------------------------------------------------------------------
// The kill-model declaration.
// ---------------------------------------------------------------------

TEST(KillModelDeathTest, KillOnFailureFreeFabricNamesThePid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Fabric fabric(FibersConfig(6));
        for (int i = 0; i < 4; ++i) fabric.RegisterProcess(0);
        fabric.DeclareKillModel(KillModel::kNone);
        fabric.Kill(3);
      },
      "Kill\\(pid 3\\) on fabric [0-9]+, which was declared failure-free");
}

TEST(KillModelDeathTest, KillNodeOnFailureFreeFabricNamesThePid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Fabric fabric(FibersConfig(2));
        for (int i = 0; i < 4; ++i) fabric.RegisterProcess(i / 2);
        fabric.DeclareKillModel(KillModel::kNone);
        fabric.KillNode(1);
      },
      "KillNode\\(1\\) would kill pid 2 on fabric [0-9]+, which was "
      "declared failure-free");
}

void KillAnotherPid(bool node) {
  sim::Cluster cluster(FibersConfig(2));
  cluster.fabric().DeclareKillModel(KillModel::kSelfOnly);
  cluster.Spawn(4, [node](sim::Endpoint& ep) {
    if (ep.pid() != 0) return;
    if (node) {
      ep.fabric().KillNode(ep.node());  // takes pid 1 along
    } else {
      ep.fabric().Kill(2);
    }
  });
  cluster.Join();
}

TEST(KillModelDeathTest, SelfOnlyFabricRejectsKillingAnotherPid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(KillAnotherPid(false),
               "Kill\\(pid 2\\) from pid 0 on fabric [0-9]+, which was "
               "declared self-kill-only");
  EXPECT_DEATH(KillAnotherPid(true),
               "KillNode\\(0\\) would kill pid 1 on fabric [0-9]+, which "
               "was declared self-kill-only");
}

TEST(KillModelDeathTest, ConflictingDeclarationsAbort) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Fabric fabric(FibersConfig(6));
        fabric.DeclareKillModel(KillModel::kNone);
        fabric.DeclareKillModel(KillModel::kSelfOnly);
      },
      "conflicting kill-model declarations");
}

// A self-kill armed inside a rendezvous op's virtual window fires as it
// would on the message path (the op falls back), and so aborts on a
// failure-free fabric.
void ArmedKillInsideRendezvousOp() {
  sim::Cluster cluster(FibersConfig(6));
  cluster.fabric().DeclareKillModel(KillModel::kNone);
  const std::vector<int> pids = {0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    if (ep.pid() == 1) ep.ArmKillAt(1e-9);
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    std::vector<float> in(16, 1.0f), out(16);
    comm.Allreduce(in.data(), out.data(), 16, AllreduceAlgo::kRing).ok();
  });
  cluster.Join();
}

TEST(KillModelDeathTest, ArmedKillInsideRendezvousOpAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ArmedKillInsideRendezvousOp(),
               "Kill\\(pid 1\\) on fabric [0-9]+, which was declared "
               "failure-free");
}

// The declaration is per fabric: a second cluster alive in the same
// process keeps the message path and may kill.
TEST(KillModel, DeclarationIsPerFabric) {
  sim::Cluster declared(FibersConfig(6));
  declared.fabric().DeclareKillModel(KillModel::kNone);
  sim::Cluster other(FibersConfig(6));
  EXPECT_EQ(declared.fabric().kill_model(), KillModel::kNone);
  EXPECT_EQ(other.fabric().kill_model(), KillModel::kUndeclared);

  constexpr int P = 4;
  std::vector<int> pids(P);
  std::iota(pids.begin(), pids.end(), 0);
  other.Spawn(P, [&](sim::Endpoint& ep) {
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    std::vector<float> in = Input(comm.rank(), 64), out(64);
    ASSERT_TRUE(comm.Allreduce(in.data(), out.data(), 64,
                               AllreduceAlgo::kRing)
                    .ok());
    if (comm.rank() == P - 1) ep.fabric().Kill(ep.pid());
  });
  other.Join();
  EXPECT_EQ(other.fabric().MessagesSent(), uint64_t(2) * (P - 1) * P);
  EXPECT_FALSE(other.fabric().IsAlive(P - 1));
  EXPECT_EQ(declared.fabric().MessagesSent(), 0u);
}

// ---------------------------------------------------------------------
// End to end: the ULFM driver on a failure-free plan.
// ---------------------------------------------------------------------

// Scenario III (Up) at 48 GPUs, node level, ResNet-50: no scripted
// failure, so the driver declares the fabric failure-free and its
// collectives complete at rendezvous. The stats are pinned to the
// message path's, printed with %.17g.
constexpr double kPinnedCompletion = 101.0076169858156;

TEST(KillModel, UlfmUpscaleRunStatsMatchMessagePath) {
  const horovod::SyntheticPlan plan = bench::MakeScenarioPlan(
      dnn::ResNet50V2Spec(), bench::Scenario::kUp, horovod::DropPolicy::kNode,
      48);
  ASSERT_TRUE(plan.failures.empty());
  sim::Cluster cluster(FibersConfig(6));
  trace::Recorder rec;
  const double commits0 = CounterValue("commit");
  const horovod::RunStats stats = core::RunUlfmElastic(cluster, plan, &rec);
  EXPECT_EQ(cluster.fabric().kill_model(), KillModel::kNone);
  std::printf("completion_time=%.17g steps=%d resets=%d final_world=%d\n",
              stats.completion_time, stats.steps_executed, stats.resets,
              stats.final_world);
  EXPECT_TRUE(BitEqual(stats.completion_time, kPinnedCompletion))
      << stats.completion_time;
  EXPECT_EQ(stats.steps_executed, 4);
  EXPECT_EQ(stats.resets, 48);  // one expand, counted by every founder
  EXPECT_EQ(stats.final_world, 96);
  EXPECT_GT(CounterValue("commit"), commits0);
}

}  // namespace
}  // namespace rcc::coll
