// Component micro-benchmarks (google-benchmark): the host-side overhead of
// the simulated RDMA verbs, RPC layer and remote extent — i.e. how cheap the
// simulator itself is, and the simulated costs it reports.
#include <benchmark/benchmark.h>

#include <vector>

#include "src/rdma/fabric.h"
#include "src/rdma/rpc.h"
#include "src/rdma/verbs.h"

namespace {

using zombie::rdma::Fabric;
using zombie::rdma::MrAccess;
using zombie::rdma::NodeId;
using zombie::rdma::NodePort;
using zombie::rdma::Payload;
using zombie::rdma::PayloadWriter;
using zombie::rdma::RpcRouter;
using zombie::rdma::RpcServer;
using zombie::rdma::Verbs;

struct Harness {
  Harness() : verbs(&fabric) {
    NodePort port_a;
    port_a.name = "a";
    port_a.can_initiate = [] { return true; };
    port_a.memory_accessible = [] { return true; };
    a = fabric.Attach(std::move(port_a));
    NodePort port_b;
    port_b.name = "b";
    port_b.can_initiate = [] { return false; };  // zombie target
    port_b.memory_accessible = [] { return true; };
    b = fabric.Attach(std::move(port_b));
  }

  Fabric fabric;
  Verbs verbs;
  NodeId a = 0;
  NodeId b = 0;
};

void BM_OneSidedRead4K(benchmark::State& state) {
  Harness h;
  auto rkey = h.verbs.RegisterRegion(h.b, 1 << 20);
  std::vector<std::byte> buf(4096);
  // Read a written page: an untouched one is the OS zero page, not lent RAM.
  if (!h.verbs.Write(h.a, rkey.value(), 0, buf).ok()) {
    state.SkipWithError("write failed");
  }
  for (auto _ : state) {
    auto cost = h.verbs.Read(h.a, rkey.value(), 0, buf);
    benchmark::DoNotOptimize(cost);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_OneSidedRead4K);

void BM_OneSidedWrite4K(benchmark::State& state) {
  Harness h;
  auto rkey = h.verbs.RegisterRegion(h.b, 1 << 20);
  std::vector<std::byte> buf(4096);
  for (auto _ : state) {
    auto cost = h.verbs.Write(h.a, rkey.value(), 0, buf);
    benchmark::DoNotOptimize(cost);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_OneSidedWrite4K);

void BM_OneSidedReadUnmaterialized(benchmark::State& state) {
  Harness h;
  MrAccess acc;
  acc.materialize = false;
  auto rkey = h.verbs.RegisterRegion(h.b, 1ULL << 34, acc);
  std::vector<std::byte> buf(4096);
  for (auto _ : state) {
    auto cost = h.verbs.Read(h.a, rkey.value(), 1ULL << 30, buf);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_OneSidedReadUnmaterialized);

// Registration cost of one materialized 16 MiB region (the buffer size the
// smoke quickstart lends), including its deregistration.
void BM_RegisterMaterialized16MiB(benchmark::State& state) {
  Harness h;
  for (auto _ : state) {
    auto rkey = h.verbs.RegisterRegion(h.b, 16 << 20);
    benchmark::DoNotOptimize(rkey);
    if (!rkey.ok() || !h.verbs.DeregisterRegion(rkey.value()).ok()) {
      state.SkipWithError("register/deregister failed");
      break;
    }
  }
}
BENCHMARK(BM_RegisterMaterialized16MiB);

void BM_FabricPricingOnly(benchmark::State& state) {
  Harness h;
  for (auto _ : state) {
    auto cost = h.fabric.PriceOneSided(h.a, h.b, 4096);
    benchmark::DoNotOptimize(cost);
  }
}
BENCHMARK(BM_FabricPricingOnly);

void BM_RpcEcho(benchmark::State& state) {
  Harness h;
  // RPC daemons need a CPU: re-attach b as an active node.
  NodePort port;
  port.name = "c";
  port.can_initiate = [] { return true; };
  port.memory_accessible = [] { return true; };
  const NodeId c = h.fabric.Attach(std::move(port));
  RpcServer server(&h.verbs, c);
  server.RegisterMethod("echo", [](const Payload& req, PayloadWriter& out) {
    out.PutRaw(req);
    return zombie::Status::Ok();
  });
  RpcRouter router(&h.verbs);
  router.AddServer(&server);
  Payload request(64);
  for (auto _ : state) {
    auto response = router.Call(h.a, c, "echo", request);
    benchmark::DoNotOptimize(response);
  }
}
BENCHMARK(BM_RpcEcho);

}  // namespace
