// Unit tests for the rack-level remote-memory protocol: buffer DB, global
// controller (GS_* calls), secondary controller mirroring/failover, and the
// remote-memory manager / extent.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rdma/fabric.h"
#include "src/rdma/verbs.h"
#include "src/remotemem/buffer_db.h"
#include "src/remotemem/global_controller.h"
#include "src/remotemem/memory_manager.h"
#include "src/remotemem/secondary_controller.h"
#include "src/remotemem/types.h"

namespace zombie::remotemem {
namespace {

constexpr Bytes kTestBuff = 1 * kMiB;

BufferRecord MakeRecord(BufferId id, ServerId host, BufferType type,
                        ServerId user = kNilServer) {
  BufferRecord rec;
  rec.id = id;
  rec.size = kTestBuff;
  rec.type = type;
  rec.host = host;
  rec.user = user;
  rec.rkey = id * 100;
  return rec;
}

// ---------------------------------------------------------------------------
// BufferDb.
// ---------------------------------------------------------------------------

TEST(BufferDb, InsertFindErase) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).ok());
  EXPECT_EQ(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).code(), ErrorCode::kConflict);
  EXPECT_FALSE(db.Insert(MakeRecord(kInvalidBuffer, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Find(1).has_value());
  EXPECT_EQ(db.Find(1)->host, 10u);
  EXPECT_TRUE(db.Erase(1).ok());
  EXPECT_FALSE(db.Find(1).has_value());
  EXPECT_EQ(db.Erase(1).code(), ErrorCode::kNotFound);
}

TEST(BufferDb, AssignRelease) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).ok());
  EXPECT_TRUE(db.Assign(1, 20).ok());
  EXPECT_EQ(db.Assign(1, 21).code(), ErrorCode::kConflict);  // double alloc
  EXPECT_EQ(db.Find(1)->user, 20u);
  EXPECT_TRUE(db.Release(1).ok());
  EXPECT_EQ(db.Find(1)->user, kNilServer);
}

TEST(BufferDb, FreeBuffersFiltersByType) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 11, BufferType::kActive)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(3, 10, BufferType::kZombie, /*user=*/20)).ok());
  EXPECT_EQ(db.FreeBuffers().size(), 2u);
  EXPECT_EQ(db.FreeBuffers(BufferType::kZombie).size(), 1u);
  EXPECT_EQ(db.FreeBuffers(BufferType::kZombie)[0].id, 1u);
  EXPECT_EQ(db.free_count(), 2u);
  EXPECT_EQ(db.FreeBytes(), 2 * kTestBuff);
  EXPECT_EQ(db.TotalBytes(), 3 * kTestBuff);
}

TEST(BufferDb, ReclaimOrderFreeFirst) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie, /*user=*/20)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(3, 10, BufferType::kZombie, /*user=*/21)).ok());
  const auto order = db.ReclaimOrderForHost(10);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0].id, 2u);  // the free one first
  EXPECT_EQ(order[1].id, 1u);
  EXPECT_EQ(order[2].id, 3u);
}

TEST(BufferDb, RetypeHostFlipsType) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kActive)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 11, BufferType::kActive)).ok());
  db.RetypeHost(10, BufferType::kZombie);
  EXPECT_EQ(db.Find(1)->type, BufferType::kZombie);
  EXPECT_EQ(db.Find(2)->type, BufferType::kActive);  // other host untouched
}

TEST(BufferDb, AllocatedCountPerHost) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie, 20)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 10, BufferType::kZombie)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(3, 11, BufferType::kZombie, 20)).ok());
  EXPECT_EQ(db.AllocatedCountOfHost(10), 1u);
  EXPECT_EQ(db.AllocatedCountOfHost(11), 1u);
  EXPECT_EQ(db.AllocatedCountOfHost(12), 0u);
}

TEST(BufferDb, SnapshotLoadRoundTrip) {
  BufferDb db;
  ASSERT_TRUE(db.Insert(MakeRecord(1, 10, BufferType::kZombie, 20)).ok());
  ASSERT_TRUE(db.Insert(MakeRecord(2, 11, BufferType::kActive)).ok());
  BufferDb copy;
  copy.Load(db.Snapshot());
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(copy.Find(1)->user, 20u);
  EXPECT_EQ(copy.Find(2)->type, BufferType::kActive);
}

// ---------------------------------------------------------------------------
// GlobalMemoryController.
// ---------------------------------------------------------------------------

std::vector<BufferGrant> MakeGrants(std::size_t n, ServerId host, Bytes size = kTestBuff) {
  std::vector<BufferGrant> grants;
  for (std::size_t i = 0; i < n; ++i) {
    grants.push_back({kInvalidBuffer, /*rkey=*/1000 + i, size, host, BufferType::kZombie});
  }
  return grants;
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest() : ctr_(ControllerConfig{kTestBuff, true}) {
    for (ServerId s : {kHostA, kHostB, kUserC, kUserD}) {
      ctr_.RegisterServer(s);
    }
  }

  static constexpr ServerId kHostA = 1;
  static constexpr ServerId kHostB = 2;
  static constexpr ServerId kUserC = 3;
  static constexpr ServerId kUserD = 4;
  GlobalMemoryController ctr_;
};

TEST_F(ControllerTest, GotoZombieRegistersBuffers) {
  auto ids = ctr_.GsGotoZombie(kHostA, MakeGrants(4, kHostA));
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids.value().size(), 4u);
  EXPECT_TRUE(ctr_.IsZombie(kHostA));
  EXPECT_EQ(ctr_.ZombieList(), std::vector<ServerId>{kHostA});
  EXPECT_EQ(ctr_.FreeRemoteBytes(), 4 * kTestBuff);
}

TEST_F(ControllerTest, RejectsNonUniformBuffSize) {
  auto grants = MakeGrants(1, kHostA, kTestBuff * 2);
  EXPECT_FALSE(ctr_.GsGotoZombie(kHostA, grants).ok());
}

TEST_F(ControllerTest, RejectsUnregisteredHost) {
  EXPECT_EQ(ctr_.GsGotoZombie(99, MakeGrants(1, 99)).code(), ErrorCode::kNotFound);
}

TEST_F(ControllerTest, AllocExtTakesZombieFirst) {
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(2, kHostA)).ok());
  ASSERT_TRUE(ctr_.DelegateActiveBuffers(kHostB, MakeGrants(2, kHostB)).ok());
  auto grants = ctr_.GsAllocExt(kUserC, 3 * kTestBuff);
  ASSERT_TRUE(grants.ok());
  ASSERT_EQ(grants.value().size(), 3u);
  // Zombie buffers (host A) have strict priority; active fills the rest.
  EXPECT_EQ(grants.value()[0].type, BufferType::kZombie);
  EXPECT_EQ(grants.value()[1].type, BufferType::kZombie);
  EXPECT_EQ(grants.value()[2].type, BufferType::kActive);
}

TEST_F(ControllerTest, AllocExtRoundsUpAndFailsWhenShort) {
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(2, kHostA)).ok());
  // 1.5 buffs worth must round up to 2 buffers.
  auto grants = ctr_.GsAllocExt(kUserC, kTestBuff + kTestBuff / 2);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants.value().size(), 2u);
  // Nothing left: a guaranteed allocation must fail (and roll back cleanly).
  auto fail = ctr_.GsAllocExt(kUserD, kTestBuff);
  EXPECT_EQ(fail.code(), ErrorCode::kOutOfMemory);
  EXPECT_EQ(ctr_.FreeRemoteBytes(), 0u);
}

TEST_F(ControllerTest, AllocSwapIsBestEffort) {
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(2, kHostA)).ok());
  auto grants = ctr_.GsAllocSwap(kUserC, 5 * kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants.value().size(), 2u);  // less than asked, no error
  // And swap never takes partial buffers: 0.5 buff request yields nothing.
  auto none = ctr_.GsAllocSwap(kUserD, kTestBuff / 2);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().empty());
}

TEST_F(ControllerTest, ReleaseReturnsToPool) {
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(1, kHostA)).ok());
  auto grants = ctr_.GsAllocExt(kUserC, kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(ctr_.FreeRemoteBytes(), 0u);
  ASSERT_TRUE(ctr_.GsRelease(kUserC, {grants.value()[0].id}).ok());
  EXPECT_EQ(ctr_.FreeRemoteBytes(), kTestBuff);
}

TEST_F(ControllerTest, ReleaseByWrongUserRejected) {
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(1, kHostA)).ok());
  auto grants = ctr_.GsAllocExt(kUserC, kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_FALSE(ctr_.GsRelease(kUserD, {grants.value()[0].id}).ok());
}

// Records US_reclaim notifications.
class RecordingAgents : public AgentDirectory {
 public:
  Status ReclaimFromUser(ServerId user, const std::vector<BufferId>& buffers) override {
    reclaims[user].insert(reclaims[user].end(), buffers.begin(), buffers.end());
    return Status::Ok();
  }
  Bytes RequestActiveDelegation(ServerId, Bytes) override { return 0; }

  std::map<ServerId, std::vector<BufferId>> reclaims;
};

TEST_F(ControllerTest, ReclaimPrefersFreeThenNotifiesUsers) {
  RecordingAgents agents;
  ctr_.set_agents(&agents);
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(3, kHostA)).ok());
  auto grants = ctr_.GsAllocExt(kUserC, kTestBuff);  // takes buffer #1
  ASSERT_TRUE(grants.ok());

  // Reclaim 2: the free pair goes first, no user notification needed.
  auto reclaimed = ctr_.GsReclaim(kHostA, 2);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_TRUE(agents.reclaims.empty());
  EXPECT_FALSE(ctr_.IsZombie(kHostA));  // reclaiming host is waking

  // Reclaim the last (allocated) one: the user must be told.
  auto last = ctr_.GsReclaim(kHostA, 1);
  ASSERT_TRUE(last.ok());
  ASSERT_EQ(agents.reclaims[kUserC].size(), 1u);
  EXPECT_EQ(agents.reclaims[kUserC][0], grants.value()[0].id);
  EXPECT_EQ(ctr_.FreeRemoteBytes(), 0u);
}

TEST_F(ControllerTest, ReclaimMoreThanDelegatedRejected) {
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(1, kHostA)).ok());
  EXPECT_FALSE(ctr_.GsReclaim(kHostA, 2).ok());
}

TEST_F(ControllerTest, LruZombiePrefersLeastAllocated) {
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(2, kHostA)).ok());
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostB, MakeGrants(2, kHostB)).ok());
  // Three buffers round-robin as A, B, A: host A ends up with 2 allocated,
  // host B with 1 — so B is the cheapest zombie to wake.
  ASSERT_TRUE(ctr_.GsAllocExt(kUserC, 3 * kTestBuff).ok());
  auto lru = ctr_.GsGetLruZombie();
  ASSERT_TRUE(lru.ok());
  EXPECT_EQ(lru.value(), kHostB);
}

TEST_F(ControllerTest, AllocationsSpreadAcrossHosts) {
  // "the memSize allocation is backed by memory from multiple remote
  // servers" — round-robin across zombie hosts.
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostA, MakeGrants(3, kHostA)).ok());
  ASSERT_TRUE(ctr_.GsGotoZombie(kHostB, MakeGrants(3, kHostB)).ok());
  auto grants = ctr_.GsAllocExt(kUserC, 4 * kTestBuff);
  ASSERT_TRUE(grants.ok());
  std::size_t from_a = 0;
  for (const auto& g : grants.value()) {
    from_a += g.host == kHostA ? 1 : 0;
  }
  EXPECT_EQ(from_a, 2u);  // exactly half from each host
}

TEST_F(ControllerTest, LruZombieWithNoZombies) {
  EXPECT_EQ(ctr_.GsGetLruZombie().code(), ErrorCode::kNotFound);
}

TEST_F(ControllerTest, ActiveEscalationViaAgents) {
  // An AgentDirectory that delegates active buffers when asked.
  class LendingAgents : public AgentDirectory {
   public:
    explicit LendingAgents(GlobalMemoryController* c) : ctr(c) {}
    Status ReclaimFromUser(ServerId, const std::vector<BufferId>&) override {
      return Status::Ok();
    }
    Bytes RequestActiveDelegation(ServerId host, Bytes wanted) override {
      const std::size_t n = static_cast<std::size_t>(wanted / kTestBuff);
      (void)ctr->DelegateActiveBuffers(host, MakeGrants(n, host));
      return n * kTestBuff;
    }
    GlobalMemoryController* ctr;
  };
  LendingAgents agents(&ctr_);
  ctr_.set_agents(&agents);

  // Pool empty; GsAllocExt escalates to active servers and succeeds.
  auto grants = ctr_.GsAllocExt(kUserC, 2 * kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_EQ(grants.value().size(), 2u);
  EXPECT_EQ(grants.value()[0].type, BufferType::kActive);
}

// ---------------------------------------------------------------------------
// SecondaryController: mirroring and failover.
// ---------------------------------------------------------------------------

TEST(Secondary, MirrorsAllOperations) {
  SecondaryController secondary;
  GlobalMemoryController primary(ControllerConfig{kTestBuff, true});
  primary.set_mirror(&secondary);
  primary.RegisterServer(1);
  primary.RegisterServer(2);

  ASSERT_TRUE(primary.GsGotoZombie(1, MakeGrants(2, 1)).ok());
  auto grants = primary.GsAllocExt(2, kTestBuff);
  ASSERT_TRUE(grants.ok());
  EXPECT_GT(secondary.mirrored_ops(), 0u);
  EXPECT_EQ(secondary.replica().size(), 2u);
  EXPECT_EQ(secondary.replica().Find(grants.value()[0].id)->user, 2u);
  EXPECT_TRUE(secondary.IsZombieReplica(1));
}

TEST(Secondary, HeartbeatMissesTriggerFailover) {
  SecondaryController secondary(SecondaryConfig{100 * kMillisecond, 3});
  secondary.ObserveHeartbeat(1);
  EXPECT_FALSE(secondary.MonitorTick());  // saw beat 1
  EXPECT_EQ(secondary.consecutive_misses(), 0);
  // Three silent ticks in a row -> failover.
  EXPECT_FALSE(secondary.MonitorTick());
  EXPECT_FALSE(secondary.MonitorTick());
  EXPECT_TRUE(secondary.MonitorTick());
  EXPECT_TRUE(secondary.failed_over());
}

TEST(Secondary, HeartbeatRecoveryResetsMisses) {
  SecondaryController secondary;
  secondary.ObserveHeartbeat(1);
  secondary.MonitorTick();
  secondary.MonitorTick();  // miss 1
  EXPECT_EQ(secondary.consecutive_misses(), 1);
  secondary.ObserveHeartbeat(2);
  secondary.MonitorTick();
  EXPECT_EQ(secondary.consecutive_misses(), 0);
}

TEST(Secondary, PromoteCarriesFullState) {
  SecondaryController secondary;
  GlobalMemoryController primary(ControllerConfig{kTestBuff, true});
  primary.set_mirror(&secondary);
  primary.RegisterServer(1);
  primary.RegisterServer(2);
  ASSERT_TRUE(primary.GsGotoZombie(1, MakeGrants(2, 1)).ok());
  auto grants = primary.GsAllocExt(2, kTestBuff);
  ASSERT_TRUE(grants.ok());

  auto promoted = secondary.Promote(ControllerConfig{kTestBuff, true});
  EXPECT_TRUE(promoted->IsZombie(1));
  EXPECT_EQ(promoted->FreeRemoteBytes(), kTestBuff);
  // The promoted controller keeps operating: allocate the remaining buffer.
  auto more = promoted->GsAllocExt(2, kTestBuff);
  ASSERT_TRUE(more.ok());
  // Fresh ids must not collide with replicated ones.
  EXPECT_NE(more.value()[0].id, grants.value()[0].id);
}

// ---------------------------------------------------------------------------
// Grant order: TakeFreeOfType against the sort-everything algorithm.
// ---------------------------------------------------------------------------

// The grant order TakeFreeOfType has always produced, computed the way it
// first did: every free record of the type (id order), stable-sorted by
// host, then taken round-robin across hosts, hosts ascending.
std::vector<BufferId> SortAllGrantOrder(const std::vector<BufferRecord>& records,
                                        std::size_t want, BufferType type) {
  std::vector<BufferRecord> free;
  for (const BufferRecord& rec : records) {
    if (rec.user == kNilServer && rec.type == type) {
      free.push_back(rec);
    }
  }
  std::stable_sort(free.begin(), free.end(),
                   [](const BufferRecord& a, const BufferRecord& b) { return a.host < b.host; });
  std::vector<std::vector<BufferId>> by_host;
  for (std::size_t i = 0; i < free.size(); ++i) {
    if (i == 0 || free[i].host != free[i - 1].host) {
      by_host.emplace_back();
    }
    by_host.back().push_back(free[i].id);
  }
  std::vector<BufferId> order;
  for (std::size_t round = 0; order.size() < want; ++round) {
    bool took = false;
    for (const auto& ids : by_host) {
      if (round < ids.size() && order.size() < want) {
        order.push_back(ids[round]);
        took = true;
      }
    }
    if (!took) {
      break;
    }
  }
  return order;
}

TEST(GrantOrder, TakeFreeOfTypeMatchesSortAllAlgorithm) {
  constexpr ServerId kUser = 1000;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    // Sparse host ids, records in id order with gaps, both types, some
    // already in use.
    const std::uint64_t hosts = 1 + rng.NextBelow(12);
    std::vector<BufferRecord> records;
    BufferId id = 1;
    const std::uint64_t n = rng.NextBelow(400);
    for (std::uint64_t i = 0; i < n; ++i) {
      id += 1 + rng.NextBelow(3);
      const auto host = static_cast<ServerId>(1 + 3 * rng.NextBelow(hosts));
      const BufferType type = rng.NextBool(0.6) ? BufferType::kZombie : BufferType::kActive;
      records.push_back(MakeRecord(id, host, type, rng.NextBool(0.3) ? 999 : kNilServer));
    }
    ServerStateView states;
    states.Register(kUser);
    GlobalMemoryController ctr(ControllerConfig{kTestBuff, true});
    ctr.Restore(records, states);
    for (int take = 0; take < 10; ++take) {
      const std::size_t want = rng.NextBelow(60);
      const BufferType type = rng.NextBool(0.5) ? BufferType::kZombie : BufferType::kActive;
      const std::vector<BufferId> expected = SortAllGrantOrder(records, want, type);
      const std::vector<BufferGrant> grants = ctr.TakeFreeOfType(kUser, want, type);
      ASSERT_EQ(grants.size(), expected.size());
      for (std::size_t i = 0; i < grants.size(); ++i) {
        EXPECT_EQ(grants[i].id, expected[i]);
        auto rec = std::find_if(records.begin(), records.end(),
                                [&](const BufferRecord& r) { return r.id == grants[i].id; });
        ASSERT_NE(rec, records.end());
        EXPECT_EQ(grants[i].host, rec->host);
        EXPECT_EQ(grants[i].rkey, rec->rkey);
        EXPECT_EQ(grants[i].type, type);
        rec->user = kUser;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// RemoteMemoryManager + RemoteExtent (over a live fabric).
// ---------------------------------------------------------------------------

class ManagerTest : public ::testing::Test {
 protected:
  ManagerTest() : verbs_(&fabric_), ctr_(ControllerConfig{kTestBuff, true}) {
    user_node_ = AttachNode(&user_up_, &user_mem_, "user");
    host_node_ = AttachNode(&host_up_, &host_mem_, "host");
    ctr_.RegisterServer(kUser);
    ctr_.RegisterServer(kHost);
    user_mgr_ = std::make_unique<RemoteMemoryManager>(kUser, &verbs_, user_node_, &ctr_);
    host_mgr_ = std::make_unique<RemoteMemoryManager>(kHost, &verbs_, host_node_, &ctr_);
  }

  rdma::NodeId AttachNode(bool* cpu, bool* mem, std::string name) {
    rdma::NodePort port;
    port.name = std::move(name);
    port.can_initiate = [cpu] { return *cpu; };
    port.memory_accessible = [mem] { return *mem; };
    return fabric_.Attach(std::move(port));
  }

  static constexpr ServerId kUser = 1;
  static constexpr ServerId kHost = 2;
  rdma::Fabric fabric_;
  rdma::Verbs verbs_;
  GlobalMemoryController ctr_;
  bool user_up_ = true, user_mem_ = true, host_up_ = true, host_mem_ = true;
  rdma::NodeId user_node_ = rdma::kInvalidNode;
  rdma::NodeId host_node_ = rdma::kInvalidNode;
  std::unique_ptr<RemoteMemoryManager> user_mgr_;
  std::unique_ptr<RemoteMemoryManager> host_mgr_;
};

TEST_F(ManagerTest, DelegationRegistersBuffersWithController) {
  auto n = host_mgr_->DelegateOnZombie(4 * kTestBuff);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);
  EXPECT_EQ(ctr_.FreeRemoteBytes(), 4 * kTestBuff);
  EXPECT_EQ(host_mgr_->delegated().size(), 4u);
  EXPECT_TRUE(ctr_.IsZombie(kHost));
}

TEST_F(ManagerTest, DelegationBelowBuffSizeRejected) {
  EXPECT_FALSE(host_mgr_->DelegateOnZombie(kTestBuff / 2).ok());
}

TEST_F(ManagerTest, ExtentReadsBackWrittenPage) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  host_up_ = false;  // host is now a zombie: CPU off, memory alive
  auto extent = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent.ok()) << extent.status().ToString();

  std::vector<std::byte> page(kPageSize, std::byte{0x5A});
  ASSERT_TRUE(extent.value()->WritePage(7, page).ok());
  std::vector<std::byte> readback(kPageSize);
  ASSERT_TRUE(extent.value()->ReadPage(7, readback).ok());
  EXPECT_EQ(readback[100], std::byte{0x5A});
  EXPECT_EQ(extent.value()->remote_writes(), 1u);
  EXPECT_EQ(extent.value()->remote_reads(), 1u);
}

TEST_F(ManagerTest, ExtentBoundsChecked) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(kTestBuff).ok());
  auto extent = user_mgr_->AllocExtension(kTestBuff);
  ASSERT_TRUE(extent.ok());
  const std::uint64_t beyond = extent.value()->capacity_pages();
  EXPECT_FALSE(extent.value()->WritePage(beyond, {}).ok());
  EXPECT_FALSE(extent.value()->ReadPage(beyond, {}).ok());
}

TEST_F(ManagerTest, ReclaimFallsBackToLocalMirror) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent_result = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent_result.ok());
  RemoteExtent* extent = extent_result.value();

  std::vector<std::byte> page(kPageSize, std::byte{0x11});
  ASSERT_TRUE(extent->WritePage(3, page).ok());

  // The host wakes and reclaims everything; the controller notifies us via
  // the agent directory — here we deliver the notice directly.
  extent->OnBuffersReclaimed(extent->buffer_ids());

  // The page is still readable, but from the (slower) local mirror.
  std::vector<std::byte> readback(kPageSize);
  auto cost = extent->ReadPage(3, readback);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(extent->mirror_reads(), 1u);
  EXPECT_GE(cost.value(), 50 * kMicrosecond);  // storage-class latency

  // A page never written before the reclaim is genuinely lost.
  EXPECT_EQ(extent->ReadPage(9, readback).code(), ErrorCode::kNotFound);
}

TEST_F(ManagerTest, RehomeAfterReplacementGrants) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent_result = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent_result.ok());
  RemoteExtent* extent = extent_result.value();
  ASSERT_TRUE(extent->WritePage(2, {}).ok());

  // Nothing to re-home while the buffers are live.
  EXPECT_EQ(extent->RehomeMirroredPages(), 0u);

  // Reclaim pushes the page into the mirror; with the slot still dead,
  // re-homing cannot happen yet.
  extent->OnBuffersReclaimed(extent->buffer_ids());
  EXPECT_EQ(extent->RehomeMirroredPages(), 0u);
  std::vector<std::byte> buf(kPageSize);
  ASSERT_TRUE(extent->ReadPage(2, buf).ok());
  EXPECT_EQ(extent->mirror_reads(), 1u);
}

// ---------------------------------------------------------------------------
// RemoteExtent against a set-based model of its page state.
// ---------------------------------------------------------------------------

// The extent's mirror bookkeeping kept as two ordered sets: pages written at
// least once, and pages whose remote home was reclaimed.  Same routing and
// verbs calls as RemoteExtent; only the page-state storage differs.
class SetModelExtent {
 public:
  SetModelExtent(rdma::Verbs* verbs, rdma::NodeId node, Bytes buff_size, LocalStoreParams store)
      : verbs_(verbs), node_(node), pages_per_buffer_(PagesOf(buff_size)), store_(store) {}

  void AddGrants(const std::vector<BufferGrant>& grants) {
    for (const BufferGrant& g : grants) {
      slots_.push_back({g, false});
    }
  }

  Result<Duration> WritePage(std::uint64_t page) {
    if (page >= slots_.size() * pages_per_buffer_) {
      return Status(ErrorCode::kInvalidArgument, "beyond capacity");
    }
    Slot& slot = slots_[page / pages_per_buffer_];
    mirrored_.insert(page);
    if (slot.reclaimed) {
      mirror_only_.insert(page);
      return store_.write_latency;
    }
    auto cost = verbs_->Write(node_, slot.grant.rkey, Offset(page), {});
    if (!cost.ok()) {
      return cost;
    }
    ++remote_writes_;
    mirror_only_.erase(page);
    return cost;
  }

  Result<Duration> ReadPage(std::uint64_t page) {
    if (page >= slots_.size() * pages_per_buffer_) {
      return Status(ErrorCode::kInvalidArgument, "beyond capacity");
    }
    const Slot& slot = slots_[page / pages_per_buffer_];
    if (slot.reclaimed || mirror_only_.contains(page)) {
      if (!mirrored_.contains(page)) {
        return Status(ErrorCode::kNotFound, "lost");
      }
      ++mirror_reads_;
      return store_.read_latency;
    }
    auto cost = verbs_->Read(node_, slot.grant.rkey, Offset(page), {});
    if (!cost.ok()) {
      return cost;
    }
    ++remote_reads_;
    return cost;
  }

  std::size_t OnBuffersReclaimed(const std::vector<BufferId>& reclaimed) {
    std::size_t affected = 0;
    for (std::size_t s = 0; s < slots_.size(); ++s) {
      if (std::find(reclaimed.begin(), reclaimed.end(), slots_[s].grant.id) == reclaimed.end()) {
        continue;
      }
      slots_[s].reclaimed = true;
      for (std::uint64_t p = s * pages_per_buffer_; p < (s + 1) * pages_per_buffer_; ++p) {
        if (mirrored_.contains(p)) {
          mirror_only_.insert(p);
          ++affected;
        }
      }
    }
    return affected;
  }

  std::size_t RehomeMirroredPages() {
    std::size_t moved = 0;
    for (auto it = mirror_only_.begin(); it != mirror_only_.end();) {
      if (!slots_[*it / pages_per_buffer_].reclaimed) {
        it = mirror_only_.erase(it);
        ++moved;
      } else {
        ++it;
      }
    }
    return moved;
  }

  std::uint64_t remote_reads_ = 0;
  std::uint64_t remote_writes_ = 0;
  std::uint64_t mirror_reads_ = 0;

 private:
  struct Slot {
    BufferGrant grant;
    bool reclaimed;
  };
  Bytes Offset(std::uint64_t page) const { return PagesToBytes(page % pages_per_buffer_); }

  rdma::Verbs* verbs_;
  rdma::NodeId node_;
  std::uint64_t pages_per_buffer_;
  LocalStoreParams store_;
  std::vector<Slot> slots_;
  std::set<std::uint64_t> mirrored_;
  std::set<std::uint64_t> mirror_only_;
};

// One fabric with a user and a lending host, accounting-only regions.
struct ExtentWorld {
  ExtentWorld() : verbs(&fabric) {
    user = Attach("user", &user_up);
    host = Attach("host", &host_up);
  }
  rdma::NodeId Attach(std::string name, bool* alive) {
    rdma::NodePort port;
    port.name = std::move(name);
    port.can_initiate = [alive] { return *alive; };
    port.memory_accessible = [alive] { return *alive; };
    return fabric.Attach(std::move(port));
  }
  // Registers `n` regions on the host (up for the registration, then back
  // to its previous state) and grants them.
  std::vector<BufferGrant> Grants(std::size_t n, Bytes buff_size) {
    const bool was_up = host_up;
    host_up = true;
    std::vector<BufferGrant> grants;
    for (std::size_t i = 0; i < n; ++i) {
      rdma::MrAccess access;
      access.materialize = false;
      auto rkey = verbs.RegisterRegion(host, buff_size, access);
      EXPECT_TRUE(rkey.ok());
      grants.push_back({next_id++, rkey.value(), buff_size, 2, BufferType::kZombie});
    }
    host_up = was_up;
    return grants;
  }

  rdma::Fabric fabric;
  rdma::Verbs verbs;
  bool user_up = true;
  bool host_up = true;
  rdma::NodeId user = rdma::kInvalidNode;
  rdma::NodeId host = rdma::kInvalidNode;
  BufferId next_id = 1;
};

// Expects the same status and cost; returns the model's status code.
ErrorCode ExpectSameResult(const Result<Duration>& got, const Result<Duration>& want) {
  EXPECT_EQ(got.code(), want.code());
  if (got.ok() && want.ok()) {
    EXPECT_EQ(got.value(), want.value());
  }
  return want.code();
}

// Seeded AddGrants / WritePage / ReadPage / OnBuffersReclaimed /
// RehomeMirroredPages sequences, with the lending host going dark now and
// then so verbs fail, over extents that span several state chunks.
TEST(RemoteExtentProperty, RandomOpsMatchSetModel) {
  constexpr Bytes kBuff = 1 * kMiB;  // 256 pages a buffer
  const LocalStoreParams store;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    ExtentWorld real_world;
    ExtentWorld model_world;
    RemoteExtent extent(&real_world.verbs, real_world.user, kBuff, store);
    SetModelExtent model(&model_world.verbs, model_world.user, kBuff, store);
    extent.AddGrants(real_world.Grants(4, kBuff));
    model.AddGrants(model_world.Grants(4, kBuff));
    std::vector<std::uint64_t> written;
    std::map<ErrorCode, int> codes;
    std::size_t reclaimed_pages = 0;
    Rng rng(seed);
    for (int step = 0; step < 6000; ++step) {
      const std::uint64_t capacity = extent.capacity_pages();
      // Any page of the extent, now and then one just beyond it.
      const auto any_page = [&] {
        return rng.NextBool(0.03) ? capacity + rng.NextBelow(3) : rng.NextBelow(capacity);
      };
      const std::uint64_t roll = rng.NextBelow(100);
      if (roll < 2) {
        const std::size_t n = 1 + rng.NextBelow(6);
        extent.AddGrants(real_world.Grants(n, kBuff));
        model.AddGrants(model_world.Grants(n, kBuff));
      } else if (roll < 45) {
        // Mostly fresh pages anywhere, some rewrites.
        const std::uint64_t page = written.empty() || rng.NextBool(0.7)
                                       ? any_page()
                                       : written[rng.NextBelow(written.size())];
        written.push_back(page);
        ++codes[ExpectSameResult(extent.WritePage(page, {}), model.WritePage(page))];
      } else if (roll < 90) {
        const std::uint64_t page = written.empty() || rng.NextBool(0.2)
                                       ? any_page()
                                       : written[rng.NextBelow(written.size())];
        ++codes[ExpectSameResult(extent.ReadPage(page, {}), model.ReadPage(page))];
      } else if (roll < 94) {
        // Reclaim a random handful of ids, some of them not in the extent.
        std::vector<BufferId> ids;
        const std::size_t n = 1 + rng.NextBelow(3);
        for (std::size_t i = 0; i < n; ++i) {
          ids.push_back(1 + rng.NextBelow(real_world.next_id + 2));
        }
        const std::size_t affected = model.OnBuffersReclaimed(ids);
        EXPECT_EQ(extent.OnBuffersReclaimed(ids), affected);
        reclaimed_pages += affected;
      } else if (roll < 97) {
        EXPECT_EQ(extent.RehomeMirroredPages(), model.RehomeMirroredPages());
      } else {
        real_world.host_up = model_world.host_up = !real_world.host_up;
      }
      ASSERT_EQ(extent.remote_reads(), model.remote_reads_) << "step " << step;
      ASSERT_EQ(extent.remote_writes(), model.remote_writes_) << "step " << step;
      ASSERT_EQ(extent.mirror_reads(), model.mirror_reads_) << "step " << step;
    }
    // Every path was taken: remote and mirror reads, lost pages, writes
    // beyond capacity, failed verbs, reclaims that hit written pages.
    EXPECT_GT(codes[ErrorCode::kOk], 0);
    EXPECT_GT(codes[ErrorCode::kNotFound], 0);
    EXPECT_GT(codes[ErrorCode::kInvalidArgument], 0);
    EXPECT_GT(codes.size(), 3u);
    EXPECT_GT(reclaimed_pages, 0u);
    EXPECT_GT(extent.capacity_pages(), 2 * 4096u);
    EXPECT_GT(extent.mirror_reads(), 0u);
    EXPECT_GT(extent.remote_reads(), 0u);
  }
}

TEST_F(ManagerTest, GrowSwapExtentAddsCapacity) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(4 * kTestBuff).ok());
  auto extent = user_mgr_->AllocSwap(kTestBuff);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value()->capacity(), kTestBuff);
  auto grown = user_mgr_->GrowSwapExtent(extent.value(), 2 * kTestBuff);
  ASSERT_TRUE(grown.ok());
  EXPECT_EQ(grown.value(), 2 * kTestBuff);
  EXPECT_EQ(extent.value()->capacity(), 3 * kTestBuff);
  // A foreign extent pointer is rejected.
  RemoteExtent foreign(&verbs_, user_node_, kTestBuff);
  EXPECT_EQ(user_mgr_->GrowSwapExtent(&foreign, kTestBuff).code(), ErrorCode::kNotFound);
}

TEST_F(ManagerTest, ReclaimOnWakeReleasesRegions) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(3 * kTestBuff).ok());
  auto reclaimed = host_mgr_->ReclaimOnWake(2 * kTestBuff);
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), 2u);
  EXPECT_EQ(host_mgr_->delegated().size(), 1u);
  EXPECT_EQ(ctr_.FreeRemoteBytes(), kTestBuff);
}

TEST_F(ManagerTest, AllocSwapBestEffortSmaller) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(kTestBuff).ok());
  auto extent = user_mgr_->AllocSwap(10 * kTestBuff);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(extent.value()->buffer_count(), 1u);
}

TEST_F(ManagerTest, ReleaseExtentReturnsBuffers) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent.ok());
  EXPECT_EQ(ctr_.FreeRemoteBytes(), 0u);
  ASSERT_TRUE(user_mgr_->ReleaseExtent(extent.value()).ok());
  EXPECT_EQ(ctr_.FreeRemoteBytes(), 2 * kTestBuff);
  EXPECT_EQ(user_mgr_->extent_count(), 0u);
}

TEST_F(ManagerTest, StripingSpreadsPagesAcrossBuffers) {
  ASSERT_TRUE(host_mgr_->DelegateOnZombie(2 * kTestBuff).ok());
  auto extent = user_mgr_->AllocExtension(2 * kTestBuff);
  ASSERT_TRUE(extent.ok());
  const std::uint64_t pages_per_buffer = PagesOf(kTestBuff);
  // Writing one page in each half must succeed and stay independent.
  std::vector<std::byte> a(kPageSize, std::byte{0xAA});
  std::vector<std::byte> b(kPageSize, std::byte{0xBB});
  ASSERT_TRUE(extent.value()->WritePage(0, a).ok());
  ASSERT_TRUE(extent.value()->WritePage(pages_per_buffer, b).ok());
  std::vector<std::byte> read(kPageSize);
  ASSERT_TRUE(extent.value()->ReadPage(pages_per_buffer, read).ok());
  EXPECT_EQ(read[0], std::byte{0xBB});
}

}  // namespace
}  // namespace zombie::remotemem
