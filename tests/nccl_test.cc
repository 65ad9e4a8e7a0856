// NCCL-like layer: init cost model, hierarchical-bandwidth rings, and
// abort-on-failure semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "nccl/nccl.h"
#include "obs/metrics.h"
#include "sim/cluster.h"

namespace rcc::nccl {
namespace {

std::vector<int> Iota(int n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

TEST(Init, ChargesBasePlusPerRankCost) {
  sim::Cluster cluster;
  const auto pids = Iota(12);
  std::atomic<double> t{0};
  cluster.Spawn(12, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(12), "u0");
    ASSERT_NE(comm, nullptr);
    if (comm->rank() == 0) t = ep.now();
  });
  cluster.Join();
  const double expected = Comm::InitCost(sim::SimConfig{}, 12);
  EXPECT_GE(t.load(), expected);
  EXPECT_LT(t.load(), expected * 1.2);
}

TEST(Init, CostScalesWithRanks) {
  sim::SimConfig cfg;
  EXPECT_GT(Comm::InitCost(cfg, 192), Comm::InitCost(cfg, 12));
  EXPECT_NEAR(Comm::InitCost(cfg, 192) - Comm::InitCost(cfg, 12),
              180 * cfg.costs.nccl_init_per_rank, 1e-9);
}

TEST(Allreduce, SumsAcrossRanks) {
  sim::Cluster cluster;
  cluster.Spawn(6, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(6), "u0");
    ASSERT_NE(comm, nullptr);
    std::vector<float> in(50000, static_cast<float>(comm->rank())),
        out(50000);
    ASSERT_TRUE(comm->Allreduce<float>(in.data(), out.data(), in.size())
                    .ok());
    for (float v : out) ASSERT_EQ(v, 15.0f);  // 0+..+5
  });
  cluster.Join();
}

TEST(Allreduce, SmallMessageUsesLatencyPath) {
  sim::Cluster cluster;
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(4), "u0");
    ASSERT_NE(comm, nullptr);
    float mine = 1.0f, out = 0.0f;
    ASSERT_TRUE(comm->Allreduce<float>(&mine, &out, 1).ok());
    EXPECT_EQ(out, 4.0f);
  });
  cluster.Join();
}

TEST(Allreduce, IntraNodeRingFasterThanCrossNode) {
  // 6 ranks on one node vs 6 ranks spread over 6 nodes: the NVLink-class
  // links must make the packed ring faster for the same payload.
  auto run = [](bool packed) {
    sim::SimConfig cfg;
    cfg.gpus_per_node = packed ? 6 : 1;
    sim::Cluster cluster(cfg);
    std::atomic<double> t{0};
    cluster.Spawn(6, [&](sim::Endpoint& ep) {
      auto comm = Comm::InitRank(ep, Iota(6), "u0");
      ASSERT_NE(comm, nullptr);
      std::vector<float> in(1 << 20, 1.0f), out(1 << 20);
      ASSERT_TRUE(comm->Allreduce<float>(in.data(), out.data(), in.size())
                      .ok());
      double cur = t.load();
      while (ep.now() > cur && !t.compare_exchange_weak(cur, ep.now())) {
      }
    });
    cluster.Join();
    return t.load();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Hierarchical, MatchesFlatAllreduce) {
  // 12 ranks on 2 nodes: the two-level algorithm must produce the same
  // sums as the flat ring.
  sim::Cluster cluster;
  cluster.Spawn(12, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(12), "u0");
    ASSERT_NE(comm, nullptr);
    std::vector<float> in(20000, static_cast<float>(comm->rank() + 1));
    std::vector<float> flat(in.size()), hier(in.size());
    ASSERT_TRUE(comm->Allreduce<float>(in.data(), flat.data(), in.size())
                    .ok());
    ASSERT_TRUE(
        comm->HierarchicalAllreduce<float>(in.data(), hier.data(), in.size())
            .ok());
    for (size_t i = 0; i < in.size(); ++i) {
      ASSERT_NEAR(hier[i], flat[i], 1e-2) << i;
    }
  });
  cluster.Join();
}

TEST(Hierarchical, SingleNodeFallsBackToFlat) {
  sim::SimConfig cfg;
  cfg.gpus_per_node = 8;
  sim::Cluster cluster(cfg);
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(4), "u0");
    ASSERT_NE(comm, nullptr);
    std::vector<float> in(512, 1.0f), out(512);
    ASSERT_TRUE(
        comm->HierarchicalAllreduce<float>(in.data(), out.data(), in.size())
            .ok());
    for (float v : out) ASSERT_EQ(v, 4.0f);
  });
  cluster.Join();
}

TEST(Hierarchical, CutsInterNodeTrafficForLargePayloads) {
  // Two-level vs flat ring on 4 nodes x 6 GPUs with a bandwidth-bound
  // payload: the hierarchical variant must be faster in modeled time
  // (inter-node bytes cut by the node size).
  auto run = [](bool hierarchical) {
    sim::Cluster cluster;
    std::atomic<double> t{0};
    cluster.Spawn(24, [&](sim::Endpoint& ep) {
      auto comm = Comm::InitRank(ep, Iota(24), "u0");
      ASSERT_NE(comm, nullptr);
      std::vector<float> in(1 << 20, 1.0f), out(1 << 20);
      const double before = ep.now();
      if (hierarchical) {
        ASSERT_TRUE(comm->HierarchicalAllreduce<float>(in.data(), out.data(),
                                                       in.size())
                        .ok());
      } else {
        ASSERT_TRUE(
            comm->Allreduce<float>(in.data(), out.data(), in.size()).ok());
      }
      double cur = t.load();
      double d = ep.now() - before;
      while (d > cur && !t.compare_exchange_weak(cur, d)) {
      }
    });
    cluster.Join();
    return t.load();
  };
  EXPECT_LT(run(true), run(false));
}

TEST(Failure, MemberDeathBreaksCommunicator) {
  sim::Cluster cluster;
  std::atomic<int> broken{0};
  cluster.Spawn(4, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(4), "u0");
    ASSERT_NE(comm, nullptr);
    if (comm->rank() == 2) {
      ep.fabric().Kill(ep.pid());
      return;
    }
    std::vector<float> in(100000, 1.0f), out(100000);
    Status st = comm->Allreduce<float>(in.data(), out.data(), in.size());
    if (st.code() == Code::kProcFailed) {
      broken++;
      EXPECT_TRUE(comm->broken());
      // No recovery path: further ops refuse to run.
      EXPECT_EQ(comm->Allreduce<float>(in.data(), out.data(), 1).code(),
                Code::kIoError);
    }
  });
  cluster.Join();
  EXPECT_EQ(broken.load(), 3);  // every survivor is poisoned
}

TEST(Failure, AbortIsLocalAndFinal) {
  sim::Cluster cluster;
  cluster.Spawn(2, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(2), "u0");
    ASSERT_NE(comm, nullptr);
    comm->Abort();
    float a = 1, b = 0;
    EXPECT_EQ(comm->Allreduce<float>(&a, &b, 1).code(), Code::kIoError);
  });
  cluster.Join();
}

TEST(Broadcast, DeliversFromRoot) {
  sim::Cluster cluster;
  cluster.Spawn(5, [&](sim::Endpoint& ep) {
    auto comm = Comm::InitRank(ep, Iota(5), "u0");
    ASSERT_NE(comm, nullptr);
    std::vector<float> buf(128, comm->rank() == 4 ? 7.5f : 0.0f);
    ASSERT_TRUE(comm->Broadcast<float>(buf.data(), buf.size(), 4).ok());
    for (float v : buf) ASSERT_EQ(v, 7.5f);
  });
  cluster.Join();
}

// The per-op series move by exactly one observation per rank and op:
// the request pipeline's (queue wait, service, ok/failed) and the nccl
// stack's (latency, bytes, ops, successful ops only). kOps successful
// two-rank broadcasts, then one whose root died. The failed-op series
// registers only at the first failure.
TEST(Metrics, PerOpMetricsCountEveryOp) {
  constexpr int kOps = 3;
  constexpr size_t kCount = 16;
  auto& reg = obs::Registry::Global();
  const obs::Labels algo{{"algo", "binomial_bcast"}};
  const obs::Labels nccl_algo{{"algo", "binomial_bcast"}, {"stack", "nccl"}};
  auto ops = [&] { return reg.CounterValue("rcc_coll_ops_total", algo); };
  auto failed = [&] {
    return reg.CounterValue("rcc_coll_ops_failed_total", algo);
  };
  auto coll_ops = [&] {
    return reg.CounterValue("rcc_collective_ops_total", nccl_algo);
  };
  auto coll_bytes = [&] {
    return reg.CounterValue("rcc_collective_bytes_total", nccl_algo);
  };
  auto count = [&](const char* name, const obs::Labels& labels) {
    return reg.HistogramSnapshot(name, labels).count;
  };
  const double ops0 = ops(), failed0 = failed(), coll_ops0 = coll_ops(),
               coll_bytes0 = coll_bytes();
  const uint64_t wait0 = count("rcc_coll_queue_wait_seconds", algo);
  const uint64_t svc0 = count("rcc_coll_service_seconds", algo);
  const uint64_t lat0 = count("rcc_collective_latency_seconds", nccl_algo);

  {
    sim::Cluster cluster;
    cluster.Spawn(2, [&](sim::Endpoint& ep) {
      auto comm = Comm::InitRank(ep, Iota(2), "u0");
      ASSERT_NE(comm, nullptr);
      std::vector<float> buf(kCount, 1.0f);
      for (int i = 0; i < kOps; ++i) {
        ASSERT_TRUE(comm->Broadcast<float>(buf.data(), kCount, 0).ok());
      }
    });
    cluster.Join();
  }
  EXPECT_EQ(ops() - ops0, 2 * kOps);
  EXPECT_EQ(coll_ops() - coll_ops0, 2 * kOps);
  EXPECT_EQ(coll_bytes() - coll_bytes0, 2.0 * kOps * kCount * sizeof(float));
  EXPECT_EQ(reg.PrometheusText().find(
                "rcc_coll_ops_failed_total{algo=\"binomial_bcast\"}"),
            std::string::npos);

  {
    sim::Cluster cluster;
    std::atomic<int> failures{0};
    cluster.Spawn(2, [&](sim::Endpoint& ep) {
      auto comm = Comm::InitRank(ep, Iota(2), "u0");
      ASSERT_NE(comm, nullptr);
      if (comm->rank() == 1) {
        ep.fabric().Kill(ep.pid());
        return;
      }
      std::vector<float> buf(kCount, 0.0f);
      if (comm->Broadcast<float>(buf.data(), kCount, /*root=*/1).code() ==
          Code::kProcFailed) {
        failures++;
      }
    });
    cluster.Join();
    ASSERT_EQ(failures.load(), 1);
  }
  EXPECT_EQ(ops() - ops0, 2 * kOps);
  EXPECT_EQ(failed() - failed0, 1);
  EXPECT_EQ(coll_ops() - coll_ops0, 2 * kOps);
  EXPECT_EQ(coll_bytes() - coll_bytes0, 2.0 * kOps * kCount * sizeof(float));
  EXPECT_EQ(count("rcc_coll_queue_wait_seconds", algo) - wait0, 2 * kOps + 1);
  EXPECT_EQ(count("rcc_coll_service_seconds", algo) - svc0, 2 * kOps + 1);
  EXPECT_EQ(count("rcc_collective_latency_seconds", nccl_algo) - lat0,
            2 * kOps);
  EXPECT_EQ(reg.GaugeValue("rcc_coll_inflight"), 0.0);
}

}  // namespace
}  // namespace rcc::nccl
