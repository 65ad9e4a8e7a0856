#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "kvstore/kvstore.h"
#include "obs/metrics.h"
#include "sim/fabric.h"

namespace rcc::kv {
namespace {

TEST(KvStore, SetGetRoundTrip) {
  Store store;
  ASSERT_TRUE(store.SetString(nullptr, "k", "value").ok());
  auto r = store.GetString(nullptr, "k");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), "value");
}

TEST(KvStore, GetMissingIsNotFound) {
  Store store;
  EXPECT_EQ(store.Get(nullptr, "missing").status().code(), Code::kNotFound);
}

TEST(KvStore, OverwriteBumpsVersion) {
  Store store;
  store.SetString(nullptr, "k", "a");
  store.SetString(nullptr, "k", "b");
  auto v = store.VersionOf(nullptr, "k");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v.value(), 2u);
  EXPECT_EQ(store.GetString(nullptr, "k").value(), "b");
}

TEST(KvStore, DeleteRemoves) {
  Store store;
  store.SetString(nullptr, "k", "a");
  store.Delete(nullptr, "k");
  EXPECT_EQ(store.Get(nullptr, "k").status().code(), Code::kNotFound);
}

TEST(KvStore, AddAndGetAllocatesSlots) {
  Store store;
  EXPECT_EQ(store.AddAndGet(nullptr, "c", 1).value(), 1);
  EXPECT_EQ(store.AddAndGet(nullptr, "c", 1).value(), 2);
  EXPECT_EQ(store.AddAndGet(nullptr, "c", 5).value(), 7);
  EXPECT_EQ(store.AddAndGet(nullptr, "c", -7).value(), 0);
}

TEST(KvStore, CompareAndSwapFirstWriterWins) {
  Store store;
  EXPECT_TRUE(store.CompareAndSwap(nullptr, "k", 0, {1}).value());
  EXPECT_FALSE(store.CompareAndSwap(nullptr, "k", 0, {2}).value());
  EXPECT_TRUE(store.CompareAndSwap(nullptr, "k", 1, {3}).value());
  EXPECT_EQ(store.Get(nullptr, "k").value(), std::vector<uint8_t>{3});
}

TEST(KvStore, ListPrefixSorted) {
  Store store;
  store.SetString(nullptr, "a/2", "x");
  store.SetString(nullptr, "a/1", "x");
  store.SetString(nullptr, "b/1", "x");
  auto keys = store.ListPrefix(nullptr, "a/");
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a/1");
  EXPECT_EQ(keys[1], "a/2");
}

TEST(KvStore, WaitBlocksUntilSet) {
  Store store;
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    store.SetString(nullptr, "late", "v");
  });
  auto r = store.Wait(nullptr, "late");
  setter.join();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(std::string(r.value().begin(), r.value().end()), "v");
}

TEST(KvStore, WaitEntryDeliversVersionAndVisibility) {
  sim::Fabric fabric{sim::SimConfig{}};
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  sim::Endpoint writer(&fabric, 0), reader(&fabric, 1);
  Store store(1e-3);
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    writer.Busy(3.0);
    store.SetString(&writer, "staged", "v1");
  });
  auto r = store.WaitEntry(&reader, "staged");
  setter.join();
  ASSERT_TRUE(r.ok());
  const Entry& e = r.value();
  EXPECT_EQ(std::string(e.value.begin(), e.value.end()), "v1");
  EXPECT_GE(e.visible_at, 3.0);  // carries the writer's virtual time
  EXPECT_EQ(e.version, 1u);
  EXPECT_GE(reader.now(), e.visible_at);  // causally after the write
  // An overwrite is visible to a later WaitEntry with a bumped version.
  store.SetString(&writer, "staged", "v2");
  auto r2 = store.WaitEntry(&reader, "staged");
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(std::string(r2.value().value.begin(), r2.value().value.end()),
            "v2");
  EXPECT_EQ(r2.value().version, 2u);
}

TEST(KvStore, WaitEntryVersionedVisibilityUnderRacingWriters) {
  // The race the async admission depends on: writers re-publish one key
  // (CAS-guarded, so version k always carries the value "v<k>") while
  // readers snapshot it through WaitEntry. Every observed Entry must be
  // internally consistent — the value exactly the one its version
  // published, never a torn (version, value) pair — and the versions a
  // single reader observes must never move backwards. Run under TSan
  // this also audits the store's locking around the entry copy-out.
  Store store;
  constexpr uint64_t kFinalVersion = 300;
  constexpr int kWriters = 4;
  constexpr int kReaders = 3;

  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&store] {
      for (;;) {
        auto v = store.VersionOf(nullptr, "hot");
        const uint64_t cur = v.ok() ? v.value() : 0;
        if (cur >= kFinalVersion) return;
        const std::string val = "v" + std::to_string(cur + 1);
        store.CompareAndSwap(nullptr, "hot", cur,
                             std::vector<uint8_t>(val.begin(), val.end()));
      }
    });
  }

  std::atomic<bool> consistent{true};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&store, &consistent] {
      uint64_t last = 0;
      for (;;) {
        auto e = store.WaitEntry(nullptr, "hot");
        if (!e.ok()) {
          consistent = false;
          return;
        }
        const Entry& en = e.value();
        const std::string want = "v" + std::to_string(en.version);
        if (std::string(en.value.begin(), en.value.end()) != want ||
            en.version < last) {
          consistent = false;
          return;
        }
        last = en.version;
        if (en.version >= kFinalVersion) return;
        std::this_thread::yield();
      }
    });
  }
  for (auto& t : writers) t.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(consistent.load());
  auto fin = store.WaitEntry(nullptr, "hot");
  ASSERT_TRUE(fin.ok());
  EXPECT_EQ(fin.value().version, kFinalVersion);
  EXPECT_EQ(std::string(fin.value().value.begin(), fin.value().value.end()),
            "v" + std::to_string(kFinalVersion));
}

TEST(KvStore, WaitAbortsWhenCallerDies) {
  sim::Fabric fabric{sim::SimConfig{}};
  fabric.RegisterProcess(0);
  sim::Endpoint ep(&fabric, 0);
  Store store;
  std::thread killer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    fabric.Kill(0);
  });
  auto r = store.Wait(&ep, "never");
  killer.join();
  EXPECT_EQ(r.status().code(), Code::kAborted);
}

TEST(KvStore, OperationsChargeRoundTrip) {
  sim::Fabric fabric{sim::SimConfig{}};
  fabric.RegisterProcess(0);
  sim::Endpoint ep(&fabric, 0);
  Store store(/*roundtrip=*/1e-3);
  store.SetString(&ep, "k", "v");
  EXPECT_NEAR(ep.now(), 1e-3, 1e-9);
  store.GetString(&ep, "k");
  EXPECT_NEAR(ep.now(), 2e-3, 1e-9);
}

TEST(KvStore, ReaderObservesWriterVirtualTime) {
  sim::Fabric fabric{sim::SimConfig{}};
  fabric.RegisterProcess(0);
  fabric.RegisterProcess(0);
  sim::Endpoint writer(&fabric, 0), reader(&fabric, 1);
  writer.Busy(5.0);
  Store store(1e-3);
  store.SetString(&writer, "k", "v");
  auto r = store.GetString(&reader, "k");
  ASSERT_TRUE(r.ok());
  EXPECT_GE(reader.now(), 5.0);  // causally after the write
}

TEST(KvStore, ClearEmptiesStore) {
  Store store;
  store.SetString(nullptr, "a", "1");
  store.SetString(nullptr, "b", "2");
  EXPECT_EQ(store.size(), 2u);
  store.Clear();
  EXPECT_EQ(store.size(), 0u);
}

// Every store call counts exactly one rcc_kv_ops_total{op} increment
// (helpers such as GetString count as the call they wrap), and the key
// gauge follows the store size.
TEST(KvStore, EveryCallCountsOneOp) {
  auto& reg = obs::Registry::Global();
  const std::map<std::string, int> want{
      {"set", 2},          {"get", 2},
      {"wait", 1},         {"wait_entry", 1},
      {"delete", 1},       {"add_and_get", 2},
      {"compare_and_swap", 1},
      {"list_prefix", 1},  {"version_of", 1},
  };
  auto value = [&](const std::string& op) {
    return reg.CounterValue("rcc_kv_ops_total", {{"op", op}});
  };
  std::map<std::string, double> before;
  for (const auto& [op, n] : want) before[op] = value(op);

  Store store;
  ASSERT_TRUE(store.Set(nullptr, "k", {1}).ok());
  ASSERT_TRUE(store.SetString(nullptr, "gone", "x").ok());
  ASSERT_TRUE(store.Get(nullptr, "k").ok());
  ASSERT_TRUE(store.GetString(nullptr, "k").ok());
  ASSERT_TRUE(store.Wait(nullptr, "k").ok());
  ASSERT_TRUE(store.WaitEntry(nullptr, "k").ok());
  ASSERT_TRUE(store.Delete(nullptr, "gone").ok());
  ASSERT_TRUE(store.AddAndGet(nullptr, "c", 1).ok());
  ASSERT_TRUE(store.AddAndGet(nullptr, "c", 2).ok());
  EXPECT_EQ(reg.GaugeValue("rcc_kv_keys"), 2.0);  // "k" and "c"
  ASSERT_TRUE(store.CompareAndSwap(nullptr, "cas", 0, {1}).ok());
  EXPECT_EQ(store.ListPrefix(nullptr, "").size(), 3u);
  ASSERT_TRUE(store.VersionOf(nullptr, "k").ok());

  for (const auto& [op, n] : want) {
    EXPECT_EQ(value(op) - before[op], n) << op;
  }
}

}  // namespace
}  // namespace rcc::kv
