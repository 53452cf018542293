// sharded_paging: the per-vCPU data plane.  A ShardedPager with 8 shards
// and remote faults batched 8 to a round trip runs the tiered pattern at
// 50% local memory, FIFO, Clock and Mixed in equal thirds.  The benchmark
// drives the lanes itself through AccessShard / DrainShard, each of T
// threads claiming the next unstarted lane, so it can time each lane.  This is the only workload where the
// fault batcher, the client ring, lane parallelism and Clock's victim scan
// dominate.
//
// Entry-point call: one AccessShard of up to kChunk accesses.
// Operation: one page access.
#include <algorithm>
#include <array>
#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "src/hv/sharded_pager.h"
#include "src/workloads/access_pattern.h"
#include "src/workloads/sharded_hotloop.h"

namespace perfbench {
namespace {

using zombie::hv::PolicyKind;
using zombie::hv::ShardedPager;
using zombie::workloads::AccessPattern;
using zombie::workloads::PageAccess;

constexpr std::uint32_t kShards = 8;
constexpr std::uint32_t kBatchPages = 8;
constexpr std::uint64_t kFootprintPages = 4096;
constexpr std::uint64_t kLocalFrames = kFootprintPages / 2;
constexpr std::uint64_t kAccessesPerPolicy = 4'000'000;
constexpr std::size_t kChunk = 1024;  // RunShardedHotLoop's default chunk
constexpr std::array<PolicyKind, 3> kPolicies = {PolicyKind::kFifo, PolicyKind::kClock,
                                                 PolicyKind::kMixed};
constexpr std::array<const char*, 3> kPolicySpans = {"policy.fifo", "policy.clock",
                                                     "policy.mixed"};
// Set-ups per policy third; the pass keeps the last (one takes well under a
// millisecond, and setup_s reports the median).
constexpr int kSetupRepeats = 5;

zombie::workloads::ShardedHotLoopOptions LoopOptions(PolicyKind policy, std::uint64_t seed) {
  zombie::workloads::ShardedHotLoopOptions options;
  options.footprint_pages = kFootprintPages;
  options.local_frames = kLocalFrames;
  options.policy = policy;
  options.pattern = zombie::workloads::HotloopPattern("tiered");
  options.accesses = kAccessesPerPolicy;
  options.seed = seed;
  options.shards = kShards;
  options.threads = 1;
  options.fault_batch.batch_pages = kBatchPages;
  options.chunk = kChunk;
  return options;
}

std::unique_ptr<ShardedPager> MakePager(const zombie::workloads::ShardedHotLoopOptions& o) {
  zombie::hv::ShardedPagerConfig config;
  config.shards = o.shards;
  config.seed = o.seed;
  config.fault_batch = o.fault_batch;
  return std::make_unique<ShardedPager>(o.footprint_pages, o.local_frames, o.policy,
                                        o.backend_latency, config);
}

// RunShardedHotLoop's split of the access budget: proportional to the pages
// each lane owns, the remainder to the lowest-index non-empty lanes.
std::vector<std::uint64_t> LaneBudgets(const ShardedPager& pager, std::uint64_t accesses) {
  const std::uint32_t shards = pager.shards();
  std::vector<std::uint64_t> budget(shards, 0);
  std::uint64_t assigned = 0;
  for (std::uint32_t s = 0; s < shards; ++s) {
    budget[s] = accesses * pager.shard_pages(s) / std::max<std::uint64_t>(pager.guest_pages(), 1);
    assigned += budget[s];
  }
  for (std::uint32_t s = 0; assigned < accesses; s = (s + 1) % shards) {
    if (pager.shard_pages(s) != 0) {
      ++budget[s];
      ++assigned;
    }
  }
  return budget;
}

// What one lane thread measured.
struct ThreadLog {
  std::vector<double> call_ns;  // untraced passes
  LayerTimer fill;
  LayerTimer access;
  LayerTimer drain;
  std::int64_t wall_ns = 0;
};

class ShardedPaging final : public Workload {
 public:
  explicit ShardedPaging(const RunOptions& options)
      : seed_(options.seed), threads_(std::max(options.lane_threads, 1)) {
    for (PolicyKind policy : kPolicies) {
      references_.push_back(zombie::workloads::RunShardedHotLoop(LoopOptions(policy, seed_)));
    }
    // The partition and the lane streams depend on the seed and shard count
    // only, so one pager gives every policy's inputs.
    const auto pager = MakePager(LoopOptions(PolicyKind::kFifo, seed_));
    budgets_ = LaneBudgets(*pager, kAccessesPerPolicy);
    const auto pattern = zombie::workloads::HotloopPattern("tiered");
    for (std::uint32_t s = 0; s < pager->shards(); ++s) {
      pristine_.emplace_back(std::max<std::uint64_t>(pager->shard_pages(s), 1), pattern,
                             pager->shard_seed(s));
    }
  }

  PassStats RunPass(Measurement& m, SpanLog* spans) override {
    const bool traced = spans != nullptr;
    ScopedSpan pass_span(spans, "sharded_paging.pass", 0);
    PassStats stats;
    zombie::hv::PagerStats total;
    std::uint64_t round_trips = 0;
    std::uint64_t riders = 0;
    std::uint64_t acquisitions = 0;
    for (std::size_t p = 0; p < kPolicies.size(); ++p) {
      const auto options = LoopOptions(kPolicies[p], seed_);
      std::unique_ptr<ShardedPager> pager;
      for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
        ScopedSpan span(spans, "setup", pass_span.id());
        pager.reset();
        const std::int64_t t0 = NowNs();
        pager = MakePager(options);
        m.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      }
      std::vector<AccessPattern> patterns = pristine_;

      ScopedSpan policy_span(spans, kPolicySpans[p], pass_span.id());
      std::vector<ThreadLog> logs(static_cast<std::size_t>(threads_));
      std::atomic<std::uint32_t> next_lane{0};
      const std::int64_t start = NowNs();
      {
        std::vector<std::jthread> workers;
        for (int t = 0; t < threads_; ++t) {
          workers.emplace_back([&, t] {
            RunLanes(*pager, patterns, next_lane, traced, spans, policy_span.id(),
                     logs[static_cast<std::size_t>(t)]);
          });
        }
      }  // joins every lane thread
      stats.timed_s += static_cast<double>(NowNs() - start) / 1e9;

      for (ThreadLog& log : logs) {
        if (traced) {
          fill_.Merge(log.fill);
          access_.Merge(log.access);
          drain_.Merge(log.drain);
          lane_wall_ns_ += log.wall_ns;
        } else {
          for (double ns : log.call_ns) {
            m.call_ns.Add(ns);
          }
        }
      }

      // Check: the merged result is RunShardedHotLoop's at one thread.
      const auto& ref = references_[p];
      const zombie::hv::PagerStats merged = pager->MergedStats();
      m.attempted += kAccessesPerPolicy;
      if (!SameStats(merged, ref.stats) || pager->round_trips() != ref.round_trips ||
          pager->rider_pages() != ref.rider_pages ||
          pager->ring().acquisitions() != ref.ring_acquisitions) {
        m.failed += kAccessesPerPolicy;
        m.errors.push_back("sharded_paging: " +
                           std::string(zombie::hv::PolicyKindName(kPolicies[p])) +
                           " differs from RunShardedHotLoop at one thread");
      }
      stats.ops += merged.accesses;
      if (traced) {
        accesses_ += merged.accesses;
      }
      AddStats(total, merged);
      round_trips += pager->round_trips();
      riders += pager->rider_pages();
      acquisitions += pager->ring().acquisitions();
    }
    const auto ratio = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    stats.counts = PagerCounts(total);
    stats.counts.insert({
        {"hv.fault_batch.round_trips", static_cast<double>(round_trips)},
        {"hv.fault_batch.rider_ratio", ratio(static_cast<double>(riders),
                                             static_cast<double>(round_trips + riders))},
        {"rdma.ring.acquisitions_per_round_trip",
         ratio(static_cast<double>(acquisitions), static_cast<double>(round_trips))},
    });
    return stats;
  }

  void ReportLayers(Measurement& m) const override {
    const auto per = [](double a, double b) { return b == 0.0 ? 0.0 : a / b; };
    const auto accesses = static_cast<double>(accesses_);
    m.layers["workloads.fill_ns_per_access"] = per(static_cast<double>(fill_.ns), accesses);
    m.layers["hv.sharded.lane_ns_per_access"] = per(static_cast<double>(access_.ns), accesses);
    m.layers["hv.sharded.drain_us"] =
        per(static_cast<double>(drain_.ns) / 1e3, static_cast<double>(drain_.calls));
    m.layers["hv.sharded.lane_wait_frac"] =
        per(static_cast<double>(lane_wall_ns_ - access_.ns), static_cast<double>(lane_wall_ns_));
  }

 private:
  // One lane thread: runs lanes, each claimed from `next_lane`, until none
  // is left.  Lanes are independent, so the claim order changes no result.
  void RunLanes(ShardedPager& pager, std::vector<AccessPattern>& patterns,
                std::atomic<std::uint32_t>& next_lane, bool traced, SpanLog* spans,
                SpanLog::Id parent, ThreadLog& log) const {
    const std::int64_t thread_start = NowNs();
    std::vector<PageAccess> buffer(kChunk);
    for (std::uint32_t s = next_lane.fetch_add(1); s < pager.shards(); s = next_lane.fetch_add(1)) {
      if (pager.shard_pages(s) == 0 || budgets_[s] == 0) {
        continue;
      }
      ScopedSpan lane_span(spans, "lane", parent, s + 1);
      std::uint64_t remaining = budgets_[s];
      while (remaining > 0) {
        const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kChunk, remaining));
        const std::span<PageAccess> slice(buffer.data(), n);
        if (traced) {
          const std::int64_t f0 = NowNs();
          patterns[s].FillBatch(slice);
          log.fill.Add(NowNs() - f0);
        } else {
          patterns[s].FillBatch(slice);
        }
        const std::int64_t c0 = NowNs();
        pager.AccessShard(s, slice);
        const std::int64_t elapsed = NowNs() - c0;
        if (traced) {
          log.access.Add(elapsed);
        } else {
          log.call_ns.push_back(static_cast<double>(elapsed));
        }
        remaining -= n;
      }
      const std::int64_t d0 = NowNs();
      pager.DrainShard(s);
      if (traced) {
        log.drain.Add(NowNs() - d0);
      }
    }
    log.wall_ns = NowNs() - thread_start;
  }

  std::uint64_t seed_;
  int threads_;
  std::vector<zombie::workloads::ShardedHotLoopResult> references_;
  std::vector<std::uint64_t> budgets_;
  std::vector<AccessPattern> pristine_;  // lane s's stream before its first draw
  // Traced-pass accumulators.
  LayerTimer fill_;
  LayerTimer access_;
  LayerTimer drain_;
  std::int64_t lane_wall_ns_ = 0;
  std::uint64_t accesses_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeShardedPaging(const RunOptions& options) {
  return std::make_unique<ShardedPaging>(options);
}

}  // namespace perfbench
