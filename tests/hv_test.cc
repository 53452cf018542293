// Unit tests for the hypervisor layer: page table, FIFO/Clock/Mixed
// replacement policies, the host pager (RAM Ext path), backends, and the
// guest pager (Explicit SD path).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/hv/backend.h"
#include "src/hv/guest_pager.h"
#include "src/hv/page_table.h"
#include "src/hv/pager.h"
#include "src/hv/params.h"
#include "src/hv/replacement.h"

namespace zombie::hv {
namespace {

// ---------------------------------------------------------------------------
// Page table.
// ---------------------------------------------------------------------------

TEST(GuestPageTable, ClearAccessedBits) {
  GuestPageTable table(8);
  table.SetAccessed(2);
  table.SetAccessed(5);
  table.ClearAccessedBits();
  for (PageIndex p = 0; p < table.size(); ++p) {
    EXPECT_FALSE(table.Accessed(p));
  }
}

TEST(GuestPageTable, CountPresent) {
  GuestPageTable table(8);
  table.at(1).present = true;
  table.at(3).present = true;
  EXPECT_EQ(table.CountPresent(), 2u);
}

// ---------------------------------------------------------------------------
// Replacement policies.
// ---------------------------------------------------------------------------

TEST(Policies, FifoEvictsOldestFault) {
  PagingParams params;
  FifoPolicy fifo(params);
  GuestPageTable table(10);
  for (PageIndex p : {3u, 1u, 7u}) {
    table.at(p).present = true;
    fifo.OnPageIn(p);
  }
  // Even if the oldest page was just accessed, FIFO takes it.
  table.SetAccessed(3);
  const auto victim = fifo.PickVictim(table);
  EXPECT_EQ(victim.page, 3u);
  EXPECT_EQ(fifo.tracked(), 2u);
}

TEST(Policies, ClockSkipsAccessedPages) {
  PagingParams params;
  ClockPolicy clock(params);
  GuestPageTable table(10);
  for (PageIndex p : {3u, 1u, 7u}) {
    table.at(p).present = true;
    clock.OnPageIn(p);
  }
  table.SetAccessed(3);  // the head is protected by its A-bit
  const auto victim = clock.PickVictim(table);
  EXPECT_EQ(victim.page, 1u);
  // The scan only *checks* bits; clearing is the periodic scan's job
  // ("The 'accessed' bit of all pages is periodically cleared").
  EXPECT_TRUE(table.Accessed(3));
}

TEST(Policies, ClockWrapsWhenAllAccessed) {
  PagingParams params;
  ClockPolicy clock(params);
  GuestPageTable table(10);
  for (PageIndex p : {3u, 1u, 7u}) {
    table.at(p).present = true;
    table.SetAccessed(p);
    clock.OnPageIn(p);
  }
  const auto victim = clock.PickVictim(table);
  EXPECT_EQ(victim.page, 3u);  // full scan, then the head falls
}

TEST(Policies, ClockCostGrowsWithScanLength) {
  PagingParams params;
  ClockPolicy clock(params);
  GuestPageTable table(100);
  for (PageIndex p = 0; p < 50; ++p) {
    table.at(p).present = true;
    table.SetAccessed(p);  // force a long scan
    clock.OnPageIn(p);
  }
  const auto long_scan = clock.PickVictim(table);

  ClockPolicy clock2(params);
  GuestPageTable table2(100);
  for (PageIndex p = 0; p < 50; ++p) {
    table2.at(p).present = true;  // A-bits clear: first node wins
    clock2.OnPageIn(p);
  }
  const auto short_scan = clock2.PickVictim(table2);
  EXPECT_GT(long_scan.cycles, 10 * short_scan.cycles);
}

TEST(Policies, MixedBoundsScanDepth) {
  PagingParams params;
  MixedPolicy mixed(params, /*depth=*/5);
  GuestPageTable table(100);
  for (PageIndex p = 0; p < 50; ++p) {
    table.at(p).present = true;
    table.SetAccessed(p);
    mixed.OnPageIn(p);
  }
  const auto victim = mixed.PickVictim(table);
  // Scanned only 5 entries then fell back to FIFO: bounded cost.
  const Cycles bound = params.policy_fixed_cycles +
                       5 * (params.list_node_cycles + params.accessed_check_cycles) +
                       params.fifo_pop_cycles;
  EXPECT_LE(victim.cycles, bound);
  // The FIFO fallback takes the element right after the scanned prefix.
  EXPECT_EQ(victim.page, 5u);
}

TEST(Policies, MixedPicksUnaccessedWithinDepth) {
  PagingParams params;
  MixedPolicy mixed(params, 5);
  GuestPageTable table(10);
  for (PageIndex p : {0u, 1u, 2u}) {
    table.at(p).present = true;
    table.SetAccessed(p);
    mixed.OnPageIn(p);
  }
  table.ClearAccessed(1);
  const auto victim = mixed.PickVictim(table);
  EXPECT_EQ(victim.page, 1u);
}

TEST(Policies, OnPageGoneRemovesFromList) {
  PagingParams params;
  FifoPolicy fifo(params);
  GuestPageTable table(10);
  for (PageIndex p : {0u, 1u, 2u}) {
    table.at(p).present = true;
    fifo.OnPageIn(p);
  }
  fifo.OnPageGone(0);
  EXPECT_EQ(fifo.tracked(), 2u);
  EXPECT_EQ(fifo.PickVictim(table).page, 1u);
}

TEST(Policies, FactoryProducesAllKinds) {
  PagingParams params;
  EXPECT_EQ(MakePolicy(PolicyKind::kFifo, params)->kind(), PolicyKind::kFifo);
  EXPECT_EQ(MakePolicy(PolicyKind::kClock, params)->kind(), PolicyKind::kClock);
  EXPECT_EQ(MakePolicy(PolicyKind::kMixed, params)->kind(), PolicyKind::kMixed);
  EXPECT_EQ(PolicyKindName(PolicyKind::kMixed), "Mixed");
}

// ---------------------------------------------------------------------------
// HostPager (RAM Ext fault handler).
// ---------------------------------------------------------------------------

class PagerTest : public ::testing::Test {
 protected:
  PagerTest() : backend_("test-dev", DeviceLatency{10 * kMicrosecond, 8 * kMicrosecond}) {}

  std::unique_ptr<HostPager> MakePager(std::uint64_t pages, std::uint64_t frames,
                                       PolicyKind kind = PolicyKind::kMixed) {
    PagingParams params;
    return std::make_unique<HostPager>(pages, frames, MakePolicy(kind, params), &backend_,
                                       params);
  }

  DeviceBackend backend_;
};

TEST_F(PagerTest, FirstTouchIsMinorFault) {
  auto pager = MakePager(10, 10);
  auto cost = pager->Access(0, false);
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(pager->stats().faults, 1u);
  EXPECT_EQ(pager->stats().major_faults, 0u);  // zero-fill, no backend read
  // Second access: resident, cheap.
  auto hit = pager->Access(0, false);
  ASSERT_TRUE(hit.ok());
  EXPECT_LT(hit.value(), cost.value());
  EXPECT_EQ(pager->stats().faults, 1u);
}

TEST_F(PagerTest, EvictionKicksInWhenFramesExhausted) {
  auto pager = MakePager(4, 2);
  ASSERT_TRUE(pager->Access(0, true).ok());
  ASSERT_TRUE(pager->Access(1, true).ok());
  EXPECT_EQ(pager->free_frames(), 0u);
  ASSERT_TRUE(pager->Access(2, true).ok());  // forces an eviction
  EXPECT_EQ(pager->stats().evictions, 1u);
  EXPECT_EQ(pager->table().CountPresent(), 2u);
}

TEST_F(PagerTest, DirtyEvictionWritesBackCleanDoesNot) {
  auto pager = MakePager(4, 1);
  ASSERT_TRUE(pager->Access(0, true).ok());   // dirty
  ASSERT_TRUE(pager->Access(1, false).ok());  // evicts 0 -> writeback
  EXPECT_EQ(pager->stats().writebacks, 1u);
  ASSERT_TRUE(pager->Access(2, false).ok());  // evicts 1 (clean) -> no writeback
  EXPECT_EQ(pager->stats().writebacks, 1u);
}

TEST_F(PagerTest, SwappedPageReloadsAsMajorFault) {
  auto pager = MakePager(4, 1);
  ASSERT_TRUE(pager->Access(0, true).ok());
  ASSERT_TRUE(pager->Access(1, false).ok());  // 0 swapped out
  EXPECT_TRUE(pager->table().at(0).swapped);
  auto cost = pager->Access(0, false);  // reload
  ASSERT_TRUE(cost.ok());
  EXPECT_EQ(pager->stats().major_faults, 1u);
  // Reload pays the backend read latency.
  EXPECT_GE(cost.value(), 10 * kMicrosecond);
}

TEST_F(PagerTest, OutOfRangeRejected) {
  auto pager = MakePager(4, 2);
  EXPECT_FALSE(pager->Access(4, false).ok());
}

TEST_F(PagerTest, HotPagesStayResidentUnderMixed) {
  // A hot page accessed between faults should survive eviction pressure.
  auto pager = MakePager(64, 8, PolicyKind::kMixed);
  for (int round = 0; round < 30; ++round) {
    ASSERT_TRUE(pager->Access(0, false).ok());  // the hot page
    ASSERT_TRUE(pager->Access(8 + (round % 32), false).ok());
  }
  // Page 0 never got evicted: exactly one fault for it.
  std::uint64_t major = pager->stats().major_faults;
  ASSERT_TRUE(pager->Access(0, false).ok());
  EXPECT_EQ(pager->stats().major_faults, major);  // still resident
}

TEST_F(PagerTest, StatsAccumulateCost) {
  auto pager = MakePager(8, 8);
  Duration sum = 0;
  for (PageIndex p = 0; p < 8; ++p) {
    auto cost = pager->Access(p, false);
    ASSERT_TRUE(cost.ok());
    sum += cost.value();
  }
  EXPECT_EQ(pager->stats().total_cost, sum);
  EXPECT_EQ(pager->stats().accesses, 8u);
  pager->ResetStats();
  EXPECT_EQ(pager->stats().accesses, 0u);
}

// ---------------------------------------------------------------------------
// Backends.
// ---------------------------------------------------------------------------

TEST(Backends, DeviceLatenciesOrdered) {
  auto ssd = MakeLocalSsdBackend();
  auto hdd = MakeLocalHddBackend();
  EXPECT_LT(ssd->LoadPage(0).value(), hdd->LoadPage(0).value());
  EXPECT_LT(ssd->StorePage(0).value(), hdd->StorePage(0).value());
  EXPECT_EQ(ssd->name(), "local-ssd");
  EXPECT_EQ(hdd->capacity_pages(), PageBackend::kNoLimit);
}

// ---------------------------------------------------------------------------
// GuestPager (Explicit SD).
// ---------------------------------------------------------------------------

TEST(GuestPagerTest, ReserveShrinksUsableFrames) {
  DeviceBackend dev("dev", {10 * kMicrosecond, 8 * kMicrosecond});
  GuestSwapConfig config;
  config.ram_reserve_fraction = 0.25;
  GuestPager pager(100, 40, &dev, config);
  EXPECT_EQ(pager.usable_frames(), 30u);  // 40 * (1 - 0.25)
}

TEST(GuestPagerTest, AmplificationProducesExtraWritebacks) {
  DeviceBackend dev("dev", {10 * kMicrosecond, 8 * kMicrosecond});
  GuestSwapConfig amplified;
  amplified.traffic_amplification = 3.0;
  amplified.ram_reserve_fraction = 0.0;
  GuestSwapConfig plain;
  plain.traffic_amplification = 1.0;
  plain.ram_reserve_fraction = 0.0;

  auto run = [&](GuestSwapConfig config) {
    GuestPager pager(32, 4, &dev, config);
    for (int round = 0; round < 10; ++round) {
      for (PageIndex p = 0; p < 32; ++p) {
        EXPECT_TRUE(pager.Access(p, true).ok());
      }
    }
    return pager.stats().writebacks;
  };
  const auto amplified_wb = run(amplified);
  const auto plain_wb = run(plain);
  EXPECT_GT(amplified_wb, 2 * plain_wb);
}

TEST(GuestPagerTest, SplitDriverOverheadCharged) {
  // Same device, with and without the virtio crossing: the ESD access that
  // faults must cost at least the split-driver overhead more.
  DeviceBackend dev("dev", {10 * kMicrosecond, 8 * kMicrosecond});
  GuestSwapConfig config;
  config.ram_reserve_fraction = 0.0;
  config.traffic_amplification = 1.0;
  GuestPager pager(4, 1, &dev, config);
  ASSERT_TRUE(pager.Access(0, true).ok());
  ASSERT_TRUE(pager.Access(1, false).ok());
  auto reload = pager.Access(0, false);  // major fault through virtio
  ASSERT_TRUE(reload.ok());
  EXPECT_GE(reload.value(),
            10 * kMicrosecond + config.split_driver.request_overhead);
}

TEST(GuestPagerTest, OutOfRangeRejected) {
  DeviceBackend dev("dev", {});
  GuestPager pager(4, 4, &dev, {});
  EXPECT_FALSE(pager.Access(99, false).ok());
}

// ---------------------------------------------------------------------------
// Resumable Clock against the walk from the head.
// ---------------------------------------------------------------------------

// Clock as Section 6.2 states it, redone in full on every fault: walk the
// FIFO order from the head to the first page whose A-bit is clear, charging
// every node walked; if every page is accessed, the head falls.  ClockPolicy
// resumes this walk within an A-bit generation and must agree with it on
// every victim and every cycle.
class ReferenceClock {
 public:
  explicit ReferenceClock(const PagingParams& params) : params_(params) {}

  void OnPageIn(PageIndex page) { order_.push_back(page); }
  void OnPageGone(PageIndex page) { std::erase(order_, page); }
  std::size_t tracked() const { return order_.size(); }
  bool fell_back() const { return fell_back_; }

  VictimChoice PickVictim(const GuestPageTable& table) {
    const Cycles step = params_.list_node_cycles + params_.accessed_check_cycles;
    Cycles cycles = params_.policy_fixed_cycles;
    fell_back_ = false;
    for (auto it = order_.begin(); it != order_.end(); ++it) {
      cycles += step;
      if (!table.Accessed(*it)) {
        const PageIndex victim = *it;
        order_.erase(it);
        return {victim, cycles};
      }
    }
    fell_back_ = true;
    const PageIndex victim = order_.front();
    order_.erase(order_.begin());
    return {victim, cycles + params_.fifo_pop_cycles};
  }

 private:
  PagingParams params_;
  std::vector<PageIndex> order_;
  bool fell_back_ = false;
};

// One seeded mix: per-step operation weights out of 100.  The remainder
// after page_in + pick + gone + set + clear_one goes to ClearAccessedBits.
struct ClockMix {
  std::uint64_t pages;
  std::uint64_t steps;
  std::uint32_t page_in;
  std::uint32_t pick;
  std::uint32_t gone;
  std::uint32_t set;
  std::uint32_t clear_one;
};

struct ClockMixCounts {
  std::uint64_t picks = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t pushes_after_fallback = 0;  // a page-in right after a fallback
  std::uint64_t clears_all = 0;
};

// Drives ClockPolicy and ReferenceClock over the same table with the same
// operations, asserting the same victim and cycles at every pick.
void DriveClockMix(const ClockMix& mix, std::uint64_t seed, ClockMixCounts* counts) {
  PagingParams params;
  ClockPolicy clock(params);
  ReferenceClock reference(params);
  GuestPageTable table(mix.pages);
  std::vector<bool> tracked(mix.pages, false);
  bool after_fallback = false;
  Rng rng(seed);
  for (std::uint64_t step = 0; step < mix.steps; ++step) {
    const PageIndex page = rng.NextBelow(mix.pages);
    std::uint64_t roll = rng.NextBelow(100);
    if (roll < mix.page_in) {
      if (!tracked[page]) {
        tracked[page] = true;
        clock.OnPageIn(page);
        reference.OnPageIn(page);
        counts->pushes_after_fallback += after_fallback ? 1 : 0;
        after_fallback = false;
      }
      continue;
    }
    roll -= mix.page_in;
    if (roll < mix.pick) {
      if (reference.tracked() == 0) {
        continue;
      }
      const VictimChoice want = reference.PickVictim(table);
      const VictimChoice got = clock.PickVictim(table);
      ASSERT_EQ(got.page, want.page) << "seed " << seed << " step " << step;
      ASSERT_EQ(got.cycles, want.cycles) << "seed " << seed << " step " << step;
      tracked[got.page] = false;
      ++counts->picks;
      counts->fallbacks += reference.fell_back() ? 1 : 0;
      after_fallback = reference.fell_back();
      continue;
    }
    roll -= mix.pick;
    if (roll < mix.gone) {
      tracked[page] = false;
      clock.OnPageGone(page);
      reference.OnPageGone(page);
    } else if ((roll -= mix.gone) < mix.set) {
      table.SetAccessed(page);
    } else if ((roll -= mix.set) < mix.clear_one) {
      table.ClearAccessed(page);
    } else {
      table.ClearAccessedBits();
      ++counts->clears_all;
    }
    ASSERT_EQ(clock.tracked(), reference.tracked());
  }
}

TEST(ClockResume, SinglePageListMatchesWalkFromHead) {
  ClockMixCounts counts;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    DriveClockMix({1, 20'000, 30, 30, 5, 25, 5}, seed, &counts);
  }
  EXPECT_GT(counts.picks, 1000u);
  EXPECT_GT(counts.fallbacks, 100u);
}

TEST(ClockResume, FallbackThenPushBackResumesAtTheNewPage) {
  PagingParams params;
  ClockPolicy clock(params);
  GuestPageTable table(10);
  for (PageIndex p : {3u, 1u, 7u}) {
    table.SetAccessed(p);
    clock.OnPageIn(p);
  }
  const Cycles step = params.list_node_cycles + params.accessed_check_cycles;
  // Every page accessed: a full walk, then the head falls.
  VictimChoice victim = clock.PickVictim(table);
  EXPECT_EQ(victim.page, 3u);
  EXPECT_EQ(victim.cycles, params.policy_fixed_cycles + 3 * step + params.fifo_pop_cycles);
  // A fresh (unaccessed) page lands behind the still-accessed rest.
  clock.OnPageIn(5);
  victim = clock.PickVictim(table);
  EXPECT_EQ(victim.page, 5u);
  EXPECT_EQ(victim.cycles, params.policy_fixed_cycles + 3 * step);
  // Nothing was cleared: the next walk again finds 1 and 7 accessed.
  clock.OnPageIn(3);
  table.SetAccessed(3);
  victim = clock.PickVictim(table);
  EXPECT_EQ(victim.page, 1u);
  EXPECT_EQ(victim.cycles, params.policy_fixed_cycles + 3 * step + params.fifo_pop_cycles);
}

TEST(ClockResume, FallbacksAndPushBacksMatchWalkFromHead) {
  // Few clears and many A-bit sets: the whole list is often accessed.
  ClockMixCounts counts;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    DriveClockMix({24, 20'000, 30, 25, 2, 41, 1}, seed, &counts);
  }
  EXPECT_GT(counts.fallbacks, 1000u);
  EXPECT_GT(counts.pushes_after_fallback, 100u);
}

TEST(ClockResume, SeededMixesMatchWalkFromHead) {
  ClockMixCounts counts;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    DriveClockMix({96, 20'000, 35, 25, 3, 33, 2}, seed, &counts);
  }
  EXPECT_GT(counts.picks, 50'000u);
  EXPECT_GT(counts.fallbacks, 0u);
}

TEST(ClockResume, MatchesAcrossTheEpochWrap) {
  // The A-bit epoch is 16 bits; more than 65,536 clears wrap it.
  ClockMixCounts counts;
  DriveClockMix({32, 200'000, 20, 20, 2, 20, 2}, 7, &counts);
  EXPECT_GE(counts.clears_all, 65'536u);
  EXPECT_GT(counts.picks, 10'000u);
}

}  // namespace
}  // namespace zombie::hv
