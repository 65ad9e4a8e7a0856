// Collective-granularity ring allreduce (coll/ring_rendezvous.h): the
// max-plus clock recurrence plus the ordered reduction must reproduce
// the message-level RingAllreduce over the fabric bit for bit, through
// the bare model and through both the mpi and nccl entry points; the
// failure-free declaration that enables it is enforced and per fabric.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "coll/algorithms.h"
#include "coll/request.h"
#include "coll/ring_rendezvous.h"
#include "common/rng.h"
#include "core/ulfm_elastic.h"
#include "dnn/zoo.h"
#include "mpi/comm.h"
#include "nccl/nccl.h"
#include "sim/cluster.h"

namespace rcc::coll {
namespace {

sim::SimConfig FibersConfig(int gpus_per_node) {
  sim::SimConfig cfg;
  cfg.engine = sim::EngineKind::kFibers;
  cfg.gpus_per_node = gpus_per_node;
  return cfg;
}

// Inputs spanning many binades, so any change in summation order moves
// the float result.
std::vector<float> Input(int rank, size_t count) {
  Rng rng(7, static_cast<uint64_t>(rank));
  std::vector<float> v(count);
  for (float& x : v) {
    x = static_cast<float>(std::ldexp(rng.NextDouble() - 0.5,
                                      static_cast<int>(rng.NextBelow(40)) - 20));
  }
  return v;
}

bool BitEqual(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// Ragged placement: the first half of the ranks packed `gpus_per_node`
// to a node, the rest from a fresh node on, so the ring mixes intra- and
// inter-node hops and node sizes differ.
// Pids are 0..P-1 on a fresh cluster.
void SpawnRagged(sim::Cluster& cluster, int P, const sim::RankFn& fn) {
  cluster.Spawn((P + 1) / 2, fn);
  cluster.SpawnOnFreshNodes(P / 2, fn, 0.0);
}

// Staggered, distinct start clocks (several ranks share one).
sim::Seconds Start(int rank) { return 1e-6 * ((rank * 7) % 5) + 3e-7 * rank; }

struct ModelCase {
  int P;
  size_t count;
};

std::string CaseName(const ::testing::TestParamInfo<ModelCase>& info) {
  return "P" + std::to_string(info.param.P) + "_n" +
         std::to_string(info.param.count);
}

class RingModelTest : public ::testing::TestWithParam<ModelCase> {};

// Message path: RingAllreduce over a FabricChannel, each rank from its
// own start clock, with per-rank cost scales; against the pure model.
TEST_P(RingModelTest, MatchesMessagePathBitForBit) {
  const auto [P, count] = GetParam();
  for (bool in_place : {false, true}) {
    SCOPED_TRACE(in_place ? "in place" : "out of place");
    std::vector<std::vector<float>> send(P), recv(P);
    std::vector<sim::Seconds> clock(P);
    std::vector<double> scale(P);
    for (int r = 0; r < P; ++r) {
      send[r] = Input(r, count);
      recv[r].assign(count, -1.0f);
      clock[r] = Start(r);
      scale[r] = r % 3 == 0 ? 1.0 : 37.5 + r;
    }
    sim::Cluster cluster(FibersConfig(4));
    std::vector<int> pids(P);
    std::iota(pids.begin(), pids.end(), 0);
    SpawnRagged(cluster, P, [&](sim::Endpoint& ep) {
      const int r = ep.pid();
      FabricChannel ch(ep, pids, r, sim::ChannelKey(99, 1), scale[r],
                       &clock[r], nullptr, nullptr);
      float* out = in_place ? send[r].data() : recv[r].data();
      ASSERT_TRUE(RingAllreduce<float>(ch, send[r].data(), out, count).ok());
    });
    cluster.Join();

    std::vector<RingMember> members(P);
    std::vector<std::vector<float>> in(P);
    std::vector<const float*> ptrs(P);
    for (int r = 0; r < P; ++r) {
      members[r] = {Start(r), cluster.fabric().NodeOf(pids[r]), scale[r]};
      in[r] = Input(r, count);
      ptrs[r] = in[r].data();
    }
    const std::vector<sim::Seconds> model = RingAllreduceClocks(
        cluster.config().net, count, sizeof(float), members);
    std::vector<float> sum(count);
    RingAllreduceReduce<float>(ptrs, count, sum.data());
    for (int r = 0; r < P; ++r) {
      EXPECT_TRUE(BitEqual(model[r], clock[r]))
          << "rank " << r << ": model " << model[r] << " messages "
          << clock[r];
      const std::vector<float>& got = in_place ? send[r] : recv[r];
      EXPECT_EQ(0, std::memcmp(sum.data(), got.data(), count * sizeof(float)))
          << "rank " << r;
    }
  }
}

std::vector<ModelCase> ModelCases() {
  std::vector<ModelCase> cases;
  for (int P : {2, 3, 5, 6, 7, 12, 96}) {
    for (size_t count : {size_t{1}, size_t(P - 1), size_t(P), size_t{1024}}) {
      if (count == 0) continue;
      bool dup = false;
      for (const ModelCase& c : cases) dup |= c.P == P && c.count == count;
      if (!dup) cases.push_back({P, count});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sizes, RingModelTest,
                         ::testing::ValuesIn(ModelCases()), CaseName);

// ---------------------------------------------------------------------
// Entry points: the same ops on a declared and an undeclared fabric.
// ---------------------------------------------------------------------

enum class Entry { kMpi, kNccl };

struct EntryRun {
  std::vector<std::vector<float>> out;        // per rank, per op
  std::vector<std::vector<sim::Seconds>> at;  // per rank, per op
  std::vector<sim::Seconds> end;              // rank clock at exit
  uint64_t messages = 0;
};

constexpr int kOps = 3;

// P ranks submit kOps pipelined ring allreduces (staggered, one in
// place, cost scale 64, so the auto chooser picks the ring), then wait.
// With `ops` false the ranks only build the communicator.
EntryRun RunEntry(Entry entry, int P, size_t count, bool declared,
                  bool ops = true) {
  EntryRun run;
  run.out.assign(P, std::vector<float>(kOps * count));
  run.at.assign(P, std::vector<sim::Seconds>(kOps));
  run.end.assign(P, 0.0);
  sim::Cluster cluster(FibersConfig(4));
  if (declared) cluster.fabric().DeclareFailureFree();
  std::vector<int> pids(P);
  std::iota(pids.begin(), pids.end(), 0);
  SpawnRagged(cluster, P, [&](sim::Endpoint& ep) {
    const int r = ep.pid();
    std::vector<std::vector<float>> in(kOps);
    for (int k = 0; k < kOps; ++k) in[k] = Input(r * kOps + k, count);
    float* out = run.out[r].data();
    std::vector<Request> reqs;
    auto submit = [&](auto& comm) {
      for (int k = 0; k < kOps; ++k) {
        ep.Busy(Start(r + k));
        // Op 1 runs in place: its input buffer is its output.
        float* dst = k == 1 ? in[k].data() : out + k * count;
        reqs.push_back(comm.IAllreduce(in[k].data(), dst, count));
        ASSERT_STREQ(reqs.back().info().algo, "ring");
      }
      for (int k = 0; k < kOps; ++k) {
        ASSERT_TRUE(comm.Wait(&reqs[k]).ok());
        run.at[r][k] = reqs[k].complete_time();
      }
      std::memcpy(out + count, in[1].data(), count * sizeof(float));
    };
    if (entry == Entry::kMpi) {
      mpi::Comm comm = mpi::Comm::World(ep, pids);
      comm.set_cost_scale(64.0);
      if (ops) submit(comm);
    } else {
      auto comm = nccl::Comm::InitRank(ep, pids, "fastpath", 64.0);
      ASSERT_NE(comm, nullptr);
      if (ops) submit(*comm);
    }
    run.end[r] = ep.now();
  });
  cluster.Join();
  run.messages = cluster.fabric().MessagesSent();
  return run;
}

void ExpectSameRun(const EntryRun& fast, const EntryRun& slow) {
  const size_t P = fast.end.size();
  for (size_t r = 0; r < P; ++r) {
    EXPECT_TRUE(BitEqual(fast.end[r], slow.end[r])) << "rank " << r;
    for (int k = 0; k < kOps; ++k) {
      EXPECT_TRUE(BitEqual(fast.at[r][k], slow.at[r][k]))
          << "rank " << r << " op " << k;
    }
    EXPECT_EQ(0, std::memcmp(fast.out[r].data(), slow.out[r].data(),
                             fast.out[r].size() * sizeof(float)))
        << "rank " << r;
  }
}

TEST(RingRendezvous, MpiIAllreduceMatchesMessagePath) {
  for (int P : {2, 7, 12}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const EntryRun fast = RunEntry(Entry::kMpi, P, 1027, /*declared=*/true);
    const EntryRun slow = RunEntry(Entry::kMpi, P, 1027, /*declared=*/false);
    ExpectSameRun(fast, slow);
    EXPECT_EQ(fast.messages, 0u);  // World comms exchange nothing else
    EXPECT_EQ(slow.messages, uint64_t(kOps) * 2 * (P - 1) * P);
  }
}

TEST(RingRendezvous, NcclIAllreduceMatchesMessagePath) {
  for (int P : {3, 6, 13}) {
    SCOPED_TRACE("P=" + std::to_string(P));
    const EntryRun fast = RunEntry(Entry::kNccl, P, 1027, /*declared=*/true);
    const EntryRun slow = RunEntry(Entry::kNccl, P, 1027, /*declared=*/false);
    ExpectSameRun(fast, slow);
    // Only the bootstrap barrier talks over the fabric.
    const EntryRun init =
        RunEntry(Entry::kNccl, P, 1027, /*declared=*/true, /*ops=*/false);
    EXPECT_EQ(fast.messages, init.messages);
    EXPECT_EQ(slow.messages,
              init.messages + uint64_t(kOps) * 2 * (P - 1) * P);
  }
}

// Threads runs keep the message path even on a declared fabric.
TEST(RingRendezvous, ThreadsEngineKeepsMessagePath) {
  sim::SimConfig cfg;
  cfg.engine = sim::EngineKind::kThreads;
  sim::Fabric fabric(cfg);
  fabric.DeclareFailureFree();
  EXPECT_FALSE(UseRingRendezvous(fabric, AllreduceAlgo::kRing));
  sim::Fabric fibers(FibersConfig(6));
  fibers.DeclareFailureFree();
  EXPECT_TRUE(UseRingRendezvous(fibers, AllreduceAlgo::kRing));
  for (AllreduceAlgo other :
       {AllreduceAlgo::kRecursiveDoubling, AllreduceAlgo::kReduceBcast,
        AllreduceAlgo::kRabenseifner}) {
    EXPECT_FALSE(UseRingRendezvous(fibers, other));
  }
}

// One table, the same op sequence number from an "mpi" and an "nccl"
// collective over the same ranks: the stack in the key keeps the two
// slots apart, so each completes with its own data.
TEST(RingRendezvous, StacksNeverShareASlot) {
  constexpr int P = 5;
  constexpr size_t kCount = 9;
  RingRendezvous table;
  sim::Cluster cluster(FibersConfig(6));
  std::vector<std::vector<float>> in(2 * P), out(2 * P);
  for (int i = 0; i < 2 * P; ++i) {
    in[i] = Input(i, kCount);
    out[i].assign(kCount, 0.0f);
  }
  std::vector<sim::Seconds> clock(2 * P, 0.0);
  // Even pids are the mpi members, odd pids the nccl members (rank
  // pid / 2), so arrivals at the two slots alternate.
  cluster.Spawn(2 * P, [&](sim::Endpoint& ep) {
    const int i = ep.pid();
    const auto stack = i % 2 == 0 ? RingRendezvous::Stack::kMpi
                                  : RingRendezvous::Stack::kNccl;
    ASSERT_TRUE(table
                    .Allreduce<float>(RingRendezvous::Key(stack, 1), ep, P,
                                      i / 2, 1.0, in[i].data(), out[i].data(),
                                      kCount, &clock[i])
                    .ok());
  });
  cluster.Join();
  for (int stack = 0; stack < 2; ++stack) {
    std::vector<const float*> ptrs;
    for (int r = 0; r < P; ++r) ptrs.push_back(in[2 * r + stack].data());
    std::vector<float> sum(kCount);
    RingAllreduceReduce<float>(ptrs, kCount, sum.data());
    for (int r = 0; r < P; ++r) {
      EXPECT_EQ(0, std::memcmp(sum.data(), out[2 * r + stack].data(),
                               kCount * sizeof(float)));
    }
  }
  EXPECT_NE(RingRendezvous::Key(RingRendezvous::Stack::kMpi, 1),
            RingRendezvous::Key(RingRendezvous::Stack::kNccl, 1));
}

// ---------------------------------------------------------------------
// The failure-free declaration.
// ---------------------------------------------------------------------

TEST(FailureFreeDeathTest, KillNamesThePid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Fabric fabric(FibersConfig(6));
        for (int i = 0; i < 4; ++i) fabric.RegisterProcess(0);
        fabric.DeclareFailureFree();
        fabric.Kill(3);
      },
      "Kill\\(pid 3\\) on fabric [0-9]+, which was declared failure-free");
}

TEST(FailureFreeDeathTest, KillNodeNamesThePid) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        sim::Fabric fabric(FibersConfig(2));
        for (int i = 0; i < 4; ++i) fabric.RegisterProcess(i / 2);
        fabric.DeclareFailureFree();
        fabric.KillNode(1);
      },
      "KillNode\\(1\\) would kill pid 2 on fabric [0-9]+, which was "
      "declared failure-free");
}

// A self-kill armed inside a rendezvous op's virtual window fires as it
// would on the message path, and so aborts on the declared fabric.
void ArmedKillInsideRendezvousOp() {
  sim::Cluster cluster(FibersConfig(6));
  cluster.fabric().DeclareFailureFree();
  const std::vector<int> pids = {0, 1, 2};
  cluster.Spawn(3, [&](sim::Endpoint& ep) {
    if (ep.pid() == 1) ep.ArmKillAt(1e-9);
    mpi::Comm comm = mpi::Comm::World(ep, pids);
    std::vector<float> in(16, 1.0f), out(16);
    comm.Allreduce(in.data(), out.data(), 16, AllreduceAlgo::kRing).ok();
  });
  cluster.Join();
}

TEST(FailureFreeDeathTest, ArmedKillInsideRendezvousOpAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(ArmedKillInsideRendezvousOp(),
               "Kill\\(pid 1\\) on fabric [0-9]+, which was declared "
               "failure-free");
}

// The declaration is per fabric: a second cluster alive in the same
// process keeps the message path and may kill.
TEST(FailureFree, DeclarationIsPerFabric) {
  sim::Cluster declared(FibersConfig(6));
  declared.fabric().DeclareFailureFree();
  sim::Cluster other(FibersConfig(6));
  EXPECT_TRUE(declared.fabric().failure_free());
  EXPECT_FALSE(other.fabric().failure_free());

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
// failure, so the driver declares the fabric failure-free and its ring
// allreduces complete at rendezvous. The stats are pinned to the
// message path's, printed with %.17g.
constexpr double kPinnedCompletion = 101.0076169858156;

TEST(FailureFree, UlfmUpscaleRunStatsMatchMessagePath) {
  const horovod::SyntheticPlan plan = bench::MakeScenarioPlan(
      dnn::ResNet50V2Spec(), bench::Scenario::kUp, horovod::DropPolicy::kNode,
      48);
  ASSERT_TRUE(plan.failures.empty());
  sim::Cluster cluster(FibersConfig(6));
  trace::Recorder rec;
  const horovod::RunStats stats = core::RunUlfmElastic(cluster, plan, &rec);
  EXPECT_TRUE(cluster.fabric().failure_free());
  std::printf("completion_time=%.17g steps=%d resets=%d final_world=%d\n",
              stats.completion_time, stats.steps_executed, stats.resets,
              stats.final_world);
  EXPECT_TRUE(BitEqual(stats.completion_time, kPinnedCompletion))
      << stats.completion_time;
  EXPECT_EQ(stats.steps_executed, 4);
  EXPECT_EQ(stats.resets, 48);  // one expand, counted by every founder
  EXPECT_EQ(stats.final_world, 96);
}

}  // namespace
}  // namespace rcc::coll
