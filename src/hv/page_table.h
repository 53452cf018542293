// Guest pseudo-physical page table, as the modified KVM sees it.
//
// "VMs are given pseudo-physical frames and the hypervisor manages their
// association with host-physical (machine) frames" (Section 4.5).  Each
// entry tracks presence, the accessed/dirty bits the replacement policies
// consume, and — when swapped out — whether the page lives remotely.
#ifndef ZOMBIELAND_SRC_HV_PAGE_TABLE_H_
#define ZOMBIELAND_SRC_HV_PAGE_TABLE_H_

#include <cstdint>
#include <vector>

#include "src/common/units.h"

namespace zombie::hv {

using PageIndex = std::uint64_t;
// Synthetic machine-frame ids.  32 bits spans 16 TiB of 4 KiB frames — far
// beyond any simulated host — and keeps PageTableEntry at 8 bytes.
using FrameIndex = std::uint32_t;
inline constexpr FrameIndex kNoFrame = 0xffffffffu;

// One guest access, as produced by the workload generators and consumed by
// the pagers' batched access API (lives here so hv does not depend on the
// workloads layer).
struct PageAccess {
  PageIndex page = 0;
  bool is_write = false;
};

// Seeded home-shard assignment for the per-vCPU data plane: which lane owns
// `page`.  A splitmix64 finaliser over (page, seed) spreads pages evenly and
// makes the partition a pure function of the seed, so sharded results are
// reproducible run over run.  shards == 1 maps everything to lane 0.
inline std::uint32_t HomeShard(PageIndex page, std::uint64_t seed, std::uint32_t shards) {
  if (shards <= 1) {
    return 0;
  }
  std::uint64_t z = page + 0x9e3779b97f4a7c15ULL * (seed + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<std::uint32_t>(z % shards);
}

// 8 bytes per page — half a cache line holds eight entries, so the tables
// of the scaled-down experiment VMs stay L1-resident under the access hot
// loop (a 4096-page table is 32 KiB).
struct PageTableEntry {
  bool present : 1 = false;  // mapped to a machine frame
  bool dirty : 1 = false;    // hardware D-bit (needs writeback on eviction)
  bool swapped : 1 = false;  // content lives in the backend (remote / device)
  bool touched : 1 = false;  // ever faulted in (first touch is a zero-fill)
  // The hardware A-bit, epoch-encoded: the bit is set iff this equals the
  // table's current epoch (see GuestPageTable::Accessed).  0 means cleared.
  std::uint16_t accessed_epoch = 0;
  FrameIndex frame = kNoFrame;
};
static_assert(sizeof(PageTableEntry) == 8, "keep the page-table entry one half cache line");

class GuestPageTable {
 public:
  explicit GuestPageTable(std::uint64_t pages) : entries_(pages) {}

  std::uint64_t size() const { return entries_.size(); }

  PageTableEntry& at(PageIndex p) { return entries_[p]; }
  const PageTableEntry& at(PageIndex p) const { return entries_[p]; }

  // ---- A-bit operations ----------------------------------------------------
  // The accessed bit is epoch-encoded so the periodic clear-all is O(1): a
  // page is "accessed" iff its entry carries the current epoch.  This scan
  // used to sweep the whole table every accessed_clear_period accesses —
  // measurably the single largest cost of the resident-access fast path.
  bool Accessed(const PageTableEntry& e) const { return e.accessed_epoch == epoch_; }
  bool Accessed(PageIndex p) const { return Accessed(entries_[p]); }
  void SetAccessed(PageTableEntry& e) { e.accessed_epoch = epoch_; }
  void SetAccessed(PageIndex p) { SetAccessed(entries_[p]); }
  void ClearAccessed(PageTableEntry& e) {
    e.accessed_epoch = 0;
    ++clear_generation_;
  }
  void ClearAccessed(PageIndex p) { ClearAccessed(entries_[p]); }

  // Clears every accessed bit (the periodic scan): bump the epoch.  On the
  // 16-bit wrap (once per ~65k clears) physically reset the entries so a
  // stale epoch can never read as freshly accessed.
  void ClearAccessedBits() {
    ++clear_generation_;
    if (++epoch_ == 0) {
      for (auto& e : entries_) {
        e.accessed_epoch = 0;
      }
      epoch_ = 1;
    }
  }

  // Counts the operations that can clear an A-bit (both clears above).
  // Between two bumps bits are only ever set, so a page seen accessed stays
  // accessed until the generation moves — ClockPolicy resumes its scan on
  // that guarantee.  64 bits: it never wraps.
  std::uint64_t clear_generation() const { return clear_generation_; }

  std::uint64_t CountPresent() const {
    std::uint64_t n = 0;
    for (const auto& e : entries_) {
      n += e.present ? 1 : 0;
    }
    return n;
  }

 private:
  std::vector<PageTableEntry> entries_;
  std::uint16_t epoch_ = 1;
  std::uint64_t clear_generation_ = 0;
};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_PAGE_TABLE_H_
