// Unit tests for the RDMA fabric simulator: fabric pricing, verbs semantics
// (including the zombie one-sided-access property), RPC over RDMA.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/rng.h"
#include "src/rdma/fabric.h"
#include "src/rdma/rpc.h"
#include "src/rdma/verbs.h"

namespace zombie::rdma {
namespace {

// A controllable fake node.
struct FakeNode {
  bool cpu_on = true;
  bool memory_on = true;
};

class RdmaTest : public ::testing::Test {
 protected:
  RdmaTest() : verbs_(&fabric_) {
    user_id_ = Attach(&user_, "user");
    zombie_id_ = Attach(&zombie_, "zombie");
  }

  static NodeId AttachTo(Fabric& fabric, FakeNode* node, std::string name) {
    NodePort port;
    port.name = std::move(name);
    port.can_initiate = [node] { return node->cpu_on; };
    port.memory_accessible = [node] { return node->memory_on; };
    return fabric.Attach(std::move(port));
  }
  NodeId Attach(FakeNode* node, std::string name) {
    return AttachTo(fabric_, node, std::move(name));
  }

  Fabric fabric_;
  Verbs verbs_;
  FakeNode user_;
  FakeNode zombie_;
  NodeId user_id_ = kInvalidNode;
  NodeId zombie_id_ = kInvalidNode;
};

// ---------------------------------------------------------------------------
// Fabric pricing.
// ---------------------------------------------------------------------------

TEST_F(RdmaTest, OneSidedCostGrowsWithSize) {
  auto small = fabric_.PriceOneSided(user_id_, zombie_id_, 64);
  auto page = fabric_.PriceOneSided(user_id_, zombie_id_, 4096);
  ASSERT_TRUE(small.ok());
  ASSERT_TRUE(page.ok());
  EXPECT_GT(page.value(), small.value());
  // A 4 KiB one-sided op lands in the low microseconds (FDR-class fabric).
  EXPECT_GT(page.value(), 1 * kMicrosecond);
  EXPECT_LT(page.value(), 10 * kMicrosecond);
}

TEST_F(RdmaTest, ZombieTargetServesOneSided) {
  zombie_.cpu_on = false;  // CPU dead, memory alive: the Sz condition
  auto cost = fabric_.PriceOneSided(user_id_, zombie_id_, 4096);
  EXPECT_TRUE(cost.ok());
}

TEST_F(RdmaTest, ZombieCannotInitiate) {
  zombie_.cpu_on = false;
  auto cost = fabric_.PriceOneSided(zombie_id_, user_id_, 4096);
  EXPECT_FALSE(cost.ok());
  EXPECT_EQ(cost.code(), ErrorCode::kFailedPrecondition);
}

TEST_F(RdmaTest, UnpoweredMemoryUnavailable) {
  zombie_.cpu_on = false;
  zombie_.memory_on = false;  // S3, not Sz
  auto cost = fabric_.PriceOneSided(user_id_, zombie_id_, 4096);
  EXPECT_FALSE(cost.ok());
  EXPECT_EQ(cost.code(), ErrorCode::kUnavailable);
}

TEST_F(RdmaTest, TwoSidedNeedsBothCpus) {
  zombie_.cpu_on = false;
  EXPECT_FALSE(fabric_.PriceTwoSided(user_id_, zombie_id_, 128).ok());
  zombie_.cpu_on = true;
  EXPECT_TRUE(fabric_.PriceTwoSided(user_id_, zombie_id_, 128).ok());
}

TEST_F(RdmaTest, DetachedNodeNotFound) {
  fabric_.Detach(zombie_id_);
  EXPECT_EQ(fabric_.PriceOneSided(user_id_, zombie_id_, 64).code(), ErrorCode::kNotFound);
}

// ---------------------------------------------------------------------------
// Verbs: registration + one-sided data movement.
// ---------------------------------------------------------------------------

TEST_F(RdmaTest, WriteThenReadMovesRealBytes) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 64 * 1024);
  ASSERT_TRUE(rkey.ok());

  std::vector<std::byte> out(4096);
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::byte>(i & 0xff);
  }
  ASSERT_TRUE(verbs_.Write(user_id_, rkey.value(), 8192, out).ok());

  std::vector<std::byte> in(4096);
  ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), 8192, in).ok());
  EXPECT_EQ(std::memcmp(in.data(), out.data(), out.size()), 0);
}

TEST_F(RdmaTest, WriteToZombieNodeSucceedsWithCpuOff) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 16 * 1024);
  ASSERT_TRUE(rkey.ok());
  zombie_.cpu_on = false;  // push the host into Sz after registration
  std::vector<std::byte> page(4096, std::byte{0xAB});
  EXPECT_TRUE(verbs_.Write(user_id_, rkey.value(), 0, page).ok());
  std::vector<std::byte> readback(4096);
  EXPECT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, readback).ok());
  EXPECT_EQ(readback[123], std::byte{0xAB});
}

TEST_F(RdmaTest, OutOfBoundsRejected) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 4096);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(4096);
  EXPECT_EQ(verbs_.Read(user_id_, rkey.value(), 1, buf).code(), ErrorCode::kInvalidArgument);
}

TEST_F(RdmaTest, UnknownRkeyRejected) {
  std::vector<std::byte> buf(64);
  EXPECT_EQ(verbs_.Read(user_id_, 999, 0, buf).code(), ErrorCode::kNotFound);
}

TEST_F(RdmaTest, AccessFlagsEnforced) {
  MrAccess read_only;
  read_only.remote_write = false;
  auto rkey = verbs_.RegisterRegion(zombie_id_, 4096, read_only);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(64);
  EXPECT_EQ(verbs_.Write(user_id_, rkey.value(), 0, buf).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, buf).ok());
}

TEST_F(RdmaTest, UnmaterializedRegionPricesWithoutData) {
  MrAccess acc;
  acc.materialize = false;
  auto rkey = verbs_.RegisterRegion(zombie_id_, 1ULL << 34 /* 16 GiB, no alloc */, acc);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(4096);
  auto cost = verbs_.Write(user_id_, rkey.value(), 1ULL << 33, buf);
  EXPECT_TRUE(cost.ok());
  EXPECT_GT(cost.value(), 0);
}

TEST_F(RdmaTest, DeregisterInvalidatesRkey) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 4096);
  ASSERT_TRUE(rkey.ok());
  EXPECT_TRUE(verbs_.DeregisterRegion(rkey.value()).ok());
  std::vector<std::byte> buf(64);
  EXPECT_EQ(verbs_.Read(user_id_, rkey.value(), 0, buf).code(), ErrorCode::kNotFound);
  EXPECT_FALSE(verbs_.DeregisterRegion(rkey.value()).ok());
}

TEST_F(RdmaTest, CompletionQueueRecordsOps) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 8192);
  ASSERT_TRUE(rkey.ok());
  CompletionQueue cq;
  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(verbs_.Write(user_id_, rkey.value(), 0, buf, &cq, /*wr_id=*/77).ok());
  ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, buf, &cq, /*wr_id=*/78).ok());
  Completion entries[4];
  ASSERT_EQ(cq.Poll(entries), 2u);
  EXPECT_EQ(entries[0].op, Completion::Op::kWrite);
  EXPECT_EQ(entries[0].wr_id, 77u);
  EXPECT_EQ(entries[1].op, Completion::Op::kRead);
  EXPECT_EQ(entries[1].bytes, 4096u);
}

TEST_F(RdmaTest, SendRecvDeliversPayload) {
  std::vector<std::byte> msg{std::byte{1}, std::byte{2}, std::byte{3}};
  ASSERT_TRUE(verbs_.Send(user_id_, zombie_id_, msg).ok());
  EXPECT_TRUE(verbs_.HasPending(zombie_id_));
  auto got = verbs_.Recv(zombie_id_);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value(), msg);
  EXPECT_FALSE(verbs_.HasPending(zombie_id_));
  EXPECT_EQ(verbs_.Recv(zombie_id_).code(), ErrorCode::kNotFound);
}

TEST_F(RdmaTest, FabricCountsTraffic) {
  fabric_.ResetCounters();
  auto rkey = verbs_.RegisterRegion(zombie_id_, 8192);
  std::vector<std::byte> buf(4096);
  ASSERT_TRUE(verbs_.Write(user_id_, rkey.value(), 0, buf).ok());
  ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, buf).ok());
  EXPECT_EQ(fabric_.total_operations(), 2u);
  EXPECT_EQ(fabric_.total_bytes(), 8192u);
}

// ---------------------------------------------------------------------------
// Materialized region backing: reserved on registration, backed on first
// touch, zero where untouched.
// ---------------------------------------------------------------------------

// Resident set size of this process, from /proc/self/statm; 0 if unreadable.
Bytes ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) {
    return 0;
  }
  unsigned long long total_pages = 0;
  unsigned long long resident_pages = 0;
  const int got = std::fscanf(f, "%llu %llu", &total_pages, &resident_pages);
  std::fclose(f);
  return got == 2 ? resident_pages * static_cast<Bytes>(sysconf(_SC_PAGESIZE)) : 0;
}

bool AllZero(std::span<const std::byte> bytes) {
  for (std::byte b : bytes) {
    if (b != std::byte{0}) {
      return false;
    }
  }
  return true;
}

TEST_F(RdmaTest, EmptySpansOnMaterializedRegion) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 8192);
  ASSERT_TRUE(rkey.ok());
  fabric_.ResetCounters();
  for (Bytes offset : {Bytes{0}, Bytes{8192}}) {
    EXPECT_TRUE(verbs_.Write(user_id_, rkey.value(), offset, std::span<const std::byte>{}).ok());
    EXPECT_TRUE(verbs_.Read(user_id_, rkey.value(), offset, std::span<std::byte>{}).ok());
  }
  EXPECT_EQ(fabric_.total_operations(), 4u);
  EXPECT_EQ(fabric_.total_bytes(), 0u);
}

TEST_F(RdmaTest, SixteenGiBRegionCostsOnlyTouchedPages) {
  constexpr Bytes kSize = 16 * kGiB;
  const Bytes rss_before = ResidentBytes();
  auto rkey = verbs_.RegisterRegion(zombie_id_, kSize);
  ASSERT_TRUE(rkey.ok());

  std::vector<std::byte> page(4096);
  for (std::size_t i = 0; i < page.size(); ++i) {
    page[i] = static_cast<std::byte>((i * 7 + 3) & 0xff);
  }
  ASSERT_TRUE(verbs_.Write(user_id_, rkey.value(), kSize - page.size(), page).ok());
  std::vector<std::byte> back(page.size());
  ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), kSize - back.size(), back).ok());
  EXPECT_EQ(back, page);

  std::vector<std::byte> untouched(64 * 1024, std::byte{0xEE});
  for (Bytes offset : {Bytes{0}, 8 * kGiB + 12345, kSize - page.size() - untouched.size()}) {
    ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), offset, untouched).ok());
    EXPECT_TRUE(AllZero(untouched)) << "offset " << offset;
  }
  // Registering and touching a few pages must not have committed the region.
  EXPECT_LT(ResidentBytes(), rss_before + 512 * kMiB);
  EXPECT_TRUE(verbs_.DeregisterRegion(rkey.value()).ok());
}

// A dense byte vector is the reference for a materialized region; an
// accounting-only twin on its own fabric is the reference for costs and
// counters.  Offsets cluster around 4 KiB and 2 MiB boundaries, and some ops
// run past the end.
TEST_F(RdmaTest, MaterializedRegionMatchesDenseReference) {
  constexpr Bytes kSize = 5 * kMiB + 1234;  // not a multiple of 4096
  Fabric twin_fabric;
  Verbs twin_verbs(&twin_fabric);
  const NodeId twin_user = AttachTo(twin_fabric, &user_, "user");
  const NodeId twin_zombie = AttachTo(twin_fabric, &zombie_, "zombie");
  ASSERT_EQ(twin_user, user_id_);
  ASSERT_EQ(twin_zombie, zombie_id_);

  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    fabric_.ResetCounters();
    twin_fabric.ResetCounters();
    auto rkey = verbs_.RegisterRegion(zombie_id_, kSize);
    MrAccess accounting_only;
    accounting_only.materialize = false;
    auto twin_rkey = twin_verbs.RegisterRegion(twin_zombie, kSize, accounting_only);
    ASSERT_TRUE(rkey.ok());
    ASSERT_TRUE(twin_rkey.ok());
    std::vector<std::byte> reference(kSize, std::byte{0});
    Rng rng(seed);
    for (int step = 0; step < 600; ++step) {
      const Bytes boundary = rng.NextBool(0.5) ? 4096 : 2 * kMiB;
      const Bytes near = boundary * rng.NextBelow(kSize / boundary + 1);
      const Bytes offset = near - std::min(near, rng.NextBelow(5000));
      const Bytes len = rng.NextBool(0.1) ? rng.NextBelow(3 * kMiB) : rng.NextBelow(3 * 4096);
      const bool in_bounds = offset + len <= kSize;
      std::vector<std::byte> buf(len);
      Result<Duration> cost = Duration{0};
      Result<Duration> twin_cost = Duration{0};
      if (rng.NextBool(0.5)) {
        for (std::byte& b : buf) {
          b = static_cast<std::byte>(rng.NextBelow(256));
        }
        cost = verbs_.Write(user_id_, rkey.value(), offset, buf);
        twin_cost = twin_verbs.Write(twin_user, twin_rkey.value(), offset, buf);
        if (in_bounds) {
          std::copy(buf.begin(), buf.end(), reference.begin() + static_cast<std::ptrdiff_t>(offset));
        }
      } else {
        cost = verbs_.Read(user_id_, rkey.value(), offset, buf);
        twin_cost = twin_verbs.Read(twin_user, twin_rkey.value(), offset, buf);
        if (in_bounds) {
          ASSERT_TRUE(std::equal(buf.begin(), buf.end(),
                                 reference.begin() + static_cast<std::ptrdiff_t>(offset)))
              << "read [" << offset << ", +" << len << ")";
        }
      }
      ASSERT_EQ(cost.ok(), in_bounds) << "op [" << offset << ", +" << len << ")";
      ASSERT_EQ(cost.code(), twin_cost.code());
      if (in_bounds) {
        ASSERT_EQ(cost.value(), twin_cost.value());
      }
      ASSERT_EQ(fabric_.total_operations(), twin_fabric.total_operations());
      ASSERT_EQ(fabric_.total_bytes(), twin_fabric.total_bytes());
    }
    std::vector<std::byte> all(kSize);
    ASSERT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, all).ok());
    EXPECT_EQ(all, reference);
    EXPECT_TRUE(verbs_.DeregisterRegion(rkey.value()).ok());
    EXPECT_TRUE(twin_verbs.DeregisterRegion(twin_rkey.value()).ok());
  }
}

TEST_F(RdmaTest, ReregisteredRegionReadsZeros) {
  constexpr Bytes kSize = 4 * kMiB;
  auto first = verbs_.RegisterRegion(zombie_id_, kSize);
  ASSERT_TRUE(first.ok());
  const std::vector<std::byte> fill(kSize, std::byte{0x5A});
  ASSERT_TRUE(verbs_.Write(user_id_, first.value(), 0, fill).ok());
  ASSERT_TRUE(verbs_.DeregisterRegion(first.value()).ok());

  auto second = verbs_.RegisterRegion(zombie_id_, kSize);
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), first.value());
  std::vector<std::byte> back(kSize, std::byte{0xFF});
  ASSERT_TRUE(verbs_.Read(user_id_, second.value(), 0, back).ok());
  EXPECT_TRUE(AllZero(back));
}

TEST_F(RdmaTest, WrappingOffsetRejected) {
  auto rkey = verbs_.RegisterRegion(zombie_id_, 8192);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(4096);
  const Bytes wrapping = ~Bytes{0} - 100;  // offset + len wraps past 2^64
  EXPECT_EQ(verbs_.Read(user_id_, rkey.value(), wrapping, buf).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(verbs_.Write(user_id_, rkey.value(), wrapping, buf).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(RdmaTest, UnmappableRegionIsAStatus) {
  for (Bytes size : {Bytes{1} << 62, ~Bytes{0}}) {
    auto rkey = verbs_.RegisterRegion(zombie_id_, size);
    EXPECT_FALSE(rkey.ok()) << "size " << size;
    EXPECT_EQ(rkey.code(), ErrorCode::kOutOfMemory);
  }
  // A failed registration leaves the device usable.
  auto rkey = verbs_.RegisterRegion(zombie_id_, 4096);
  ASSERT_TRUE(rkey.ok());
  std::vector<std::byte> buf(4096);
  EXPECT_TRUE(verbs_.Read(user_id_, rkey.value(), 0, buf).ok());
}

// ---------------------------------------------------------------------------
// RPC over RDMA.
// ---------------------------------------------------------------------------

TEST_F(RdmaTest, RpcRoundTrip) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("echo", [](const Payload& req, PayloadWriter& out) -> Status {
    out.PutRaw(req);
    return Status::Ok();
  });
  RpcRouter router(&verbs_);
  router.AddServer(&server);

  PayloadWriter w;
  w.PutU64(0xdeadbeef);
  w.PutString("hello");
  const Payload request = w.Take();

  RpcCost cost;
  auto response = router.Call(user_id_, zombie_id_, "echo", request, &cost);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response.value(), request);
  EXPECT_GT(cost.client, 0);
  EXPECT_EQ(server.dispatched(), 1u);
}

TEST_F(RdmaTest, RpcToSuspendedServerFails) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("noop", [](const Payload&, PayloadWriter&) { return Status::Ok(); });
  RpcRouter router(&verbs_);
  router.AddServer(&server);
  zombie_.cpu_on = false;  // the RPC daemon needs a CPU; one-sided does not
  auto response = router.Call(user_id_, zombie_id_, "noop", {});
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(response.code(), ErrorCode::kUnavailable);
}

TEST_F(RdmaTest, RpcUnknownMethod) {
  RpcServer server(&verbs_, zombie_id_);
  RpcRouter router(&verbs_);
  router.AddServer(&server);
  EXPECT_EQ(router.Call(user_id_, zombie_id_, "nope", {}).code(), ErrorCode::kNotFound);
}

TEST_F(RdmaTest, RpcNoServer) {
  RpcRouter router(&verbs_);
  EXPECT_EQ(router.Call(user_id_, zombie_id_, "x", {}).code(), ErrorCode::kUnavailable);
}

TEST_F(RdmaTest, RpcCallIntoReusesResponseBuffer) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("echo", [](const Payload& req, PayloadWriter& out) -> Status {
    out.PutRaw(req);
    return Status::Ok();
  });
  RpcRouter router(&verbs_);
  router.AddServer(&server);

  Payload request;
  PayloadWriter w(&request);
  w.PutU64(7);
  Payload response;
  ASSERT_TRUE(router.CallInto(user_id_, zombie_id_, "echo", request, response).ok());
  EXPECT_EQ(response, request);
  const auto capacity = response.capacity();
  // A second same-sized call must not grow the client's poll slot: the
  // response bytes land in the existing storage (steady-state reuse).
  ASSERT_TRUE(router.CallInto(user_id_, zombie_id_, "echo", request, response).ok());
  EXPECT_EQ(response, request);
  EXPECT_EQ(response.capacity(), capacity);
  EXPECT_EQ(server.dispatched(), 2u);
}

TEST_F(RdmaTest, RpcResponseRingSlotsStayValidAcrossDispatches) {
  RpcServer server(&verbs_, zombie_id_);
  server.RegisterMethod("echo", [](const Payload& req, PayloadWriter& out) -> Status {
    out.PutRaw(req);
    return Status::Ok();
  });
  Payload first_request;
  PayloadWriter w(&first_request);
  w.PutU32(11);
  auto first = server.Dispatch("echo", first_request);
  ASSERT_TRUE(first.ok());
  const Payload* first_slot = first.value();
  // The next kRingSlots - 1 dispatches recycle *other* slots, so the first
  // response stays readable (the daemon's in-flight window).
  for (std::size_t i = 0; i + 1 < RpcServer::kRingSlots; ++i) {
    Payload request;
    PayloadWriter wr(&request);
    wr.PutU32(static_cast<std::uint32_t>(i));
    ASSERT_TRUE(server.Dispatch("echo", request).ok());
  }
  EXPECT_EQ(*first_slot, first_request);
}

TEST(PayloadCodec, RoundTripsAllTypes) {
  PayloadWriter w;
  w.PutU64(~0ULL);
  w.PutU32(12345);
  w.PutString("zombieland");
  w.PutU64(0);
  const Payload p = w.Take();

  PayloadReader r(p);
  EXPECT_EQ(r.GetU64().value(), ~0ULL);
  EXPECT_EQ(r.GetU32().value(), 12345u);
  EXPECT_EQ(r.GetString().value(), "zombieland");
  EXPECT_EQ(r.GetU64().value(), 0u);
  EXPECT_TRUE(r.AtEnd());
}

TEST(PayloadCodec, UnderrunDetected) {
  PayloadWriter w;
  w.PutU32(7);
  const Payload p = w.Take();
  PayloadReader r(p);
  EXPECT_FALSE(r.GetU64().ok());
  PayloadReader r2(p);
  // A string header larger than the remaining bytes must fail cleanly.
  EXPECT_FALSE(r2.GetString().ok());
}

}  // namespace
}  // namespace zombie::rdma
