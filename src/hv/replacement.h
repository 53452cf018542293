// Page replacement policies for hypervisor paging (Section 6.2).
//
// Three policies, exactly as the paper describes them:
//  * FIFO  — victims are picked in page-fault order (oldest fault first).
//  * Clock — walk the FIFO list, pick the first page with A-bit == 0;
//            the A-bits age through the pager's periodic clear.
//  * Mixed — apply Clock to the first x elements of the FIFO list; if every
//            one of them was recently accessed, fall back to FIFO on the
//            rest.  Bounds the scan cost while keeping scan resistance.
//
// Each victim selection reports the CPU cycles it consumed, which is what
// the Fig. 8 (bottom) series measures.
//
// The FIFO order is kept in an intrusive doubly-linked list: one PageNode
// (prev/next/tracked) per page, stored in a flat array indexed by PageIndex.
// Insert, erase and move-to-tail are O(1) pointer swaps with zero heap
// traffic, and a policy scan walks a contiguous array instead of chasing
// std::list nodes — this is the hottest data structure in the tree (every
// page fault of every experiment goes through it).  Victim order is
// bit-identical to the previous std::list implementation (locked by
// tests/golden_replacement_test.cc).
#ifndef ZOMBIELAND_SRC_HV_REPLACEMENT_H_
#define ZOMBIELAND_SRC_HV_REPLACEMENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/units.h"
#include "src/hv/page_table.h"
#include "src/hv/params.h"

namespace zombie::hv {

enum class PolicyKind : std::uint8_t { kFifo = 0, kClock = 1, kMixed = 2 };

// Every kind, in enum order — the canonical iteration order for sweep axes
// and bench rows (per-shard lanes instantiate one policy per kind x lane).
inline constexpr PolicyKind kAllPolicyKinds[] = {PolicyKind::kFifo, PolicyKind::kClock,
                                                 PolicyKind::kMixed};

std::string_view PolicyKindName(PolicyKind k);
// Reverse of PolicyKindName(); nullopt for an unknown name.
std::optional<PolicyKind> ParsePolicyKind(std::string_view name);

struct VictimChoice {
  PageIndex page = 0;
  Cycles cycles = 0;  // time spent inside the policy for this fault
};

class ReplacementPolicy {
 public:
  virtual ~ReplacementPolicy() = default;

  virtual PolicyKind kind() const = 0;

  // A page just faulted in: append it to the policy's bookkeeping.
  virtual void OnPageIn(PageIndex page) = 0;
  // A resident page was evicted/freed outside the policy's own choice.
  virtual void OnPageGone(PageIndex page) = 0;

  // Chooses a victim among resident pages.  `table` provides A-bits.
  // Precondition: at least one page is resident (tracked).
  virtual VictimChoice PickVictim(GuestPageTable& table) = 0;

  virtual std::size_t tracked() const = 0;

  // Pre-sizes internal per-page state for a VM of `pages` pages so the hot
  // loop never grows it.  Optional; policies grow on demand otherwise.
  virtual void Reserve(std::uint64_t pages) { (void)pages; }
};

// Factory.  `mixed_depth` is the paper's x (default 5).
std::unique_ptr<ReplacementPolicy> MakePolicy(PolicyKind kind, const PagingParams& params,
                                              std::size_t mixed_depth = 5);

// ---------------------------------------------------------------------------
// Implementations (exposed for unit tests).
// ---------------------------------------------------------------------------

// Shared FIFO-list plumbing: an intrusive list in fault order, O(1)
// insert/erase/requeue, no allocation past the per-page node array.
class FifoListBase : public ReplacementPolicy {
 public:
  explicit FifoListBase(const PagingParams& params) : params_(params) {}

  void OnPageIn(PageIndex page) override {
    EnsureNode(page);
    PushBack(page);
  }
  void OnPageGone(PageIndex page) override {
    if (page < nodes_.size() && nodes_[page].tracked) {
      Unlink(page);
    }
  }
  std::size_t tracked() const override { return size_; }
  void Reserve(std::uint64_t pages) override {
    if (pages > nodes_.size()) {
      nodes_.resize(pages);
    }
  }

 protected:
  // Node links are 32-bit page indices (a tracked set never exceeds the
  // local frame count; 2^32 pages = 16 TiB of guest memory), keeping a node
  // at 12 bytes so policy scans touch half the cache lines.
  using NodeIndex = std::uint32_t;
  static constexpr NodeIndex kNilPage = 0xffffffffu;

  struct PageNode {
    NodeIndex prev = kNilPage;
    NodeIndex next = kNilPage;
    bool tracked = false;
  };

  void EnsureNode(PageIndex page) {
    if (page >= nodes_.size()) {
      nodes_.resize(page + 1);
    }
  }

  // Appends an untracked page at the tail (newest fault).
  void PushBack(PageIndex page) {
    const auto idx = static_cast<NodeIndex>(page);
    PageNode& node = nodes_[idx];
    node.prev = tail_;
    node.next = kNilPage;
    node.tracked = true;
    if (tail_ != kNilPage) {
      nodes_[tail_].next = idx;
    } else {
      head_ = idx;
    }
    tail_ = idx;
    ++size_;
  }

  // Removes a tracked page from the list.
  void Unlink(PageIndex page) {
    PageNode& node = nodes_[static_cast<NodeIndex>(page)];
    if (node.prev != kNilPage) {
      nodes_[node.prev].next = node.next;
    } else {
      head_ = node.next;
    }
    if (node.next != kNilPage) {
      nodes_[node.next].prev = node.prev;
    } else {
      tail_ = node.prev;
    }
    node.tracked = false;
    --size_;
  }

  // Second chance: re-queues a tracked page at the tail.
  void MoveToTail(PageIndex page) {
    if (tail_ == static_cast<NodeIndex>(page)) {
      return;
    }
    Unlink(page);
    PushBack(page);
  }

  // Splices the run [first..last] (consecutive list nodes, in order) to the
  // tail in O(1).  Precondition: last is not the tail.  Equivalent to
  // MoveToTail(first), MoveToTail(next)... applied node by node.
  void MoveRunToTail(NodeIndex first, NodeIndex last) {
    const NodeIndex after = nodes_[last].next;
    const NodeIndex before = nodes_[first].prev;
    if (before != kNilPage) {
      nodes_[before].next = after;
    } else {
      head_ = after;
    }
    nodes_[after].prev = before;
    nodes_[first].prev = tail_;
    nodes_[tail_].next = first;
    nodes_[last].next = kNilPage;
    tail_ = last;
  }

  PagingParams params_;
  std::vector<PageNode> nodes_;
  NodeIndex head_ = kNilPage;
  NodeIndex tail_ = kNilPage;
  std::size_t size_ = 0;
};

class FifoPolicy final : public FifoListBase {
 public:
  using FifoListBase::FifoListBase;
  PolicyKind kind() const override { return PolicyKind::kFifo; }
  VictimChoice PickVictim(GuestPageTable& table) override;
};

// Clock, exactly as Section 6.2 describes it: "The hypervisor iterates
// through the FIFO list and chooses the first page whose 'accessed' bit is
// zero.  The 'accessed' bit of all pages is periodically cleared."
//
// Charged cost: every fault pays a walk from the list head — one list step
// per node up to and including the victim — and only *checks* bits (aging
// comes from the periodic clear), so the charge grows with the run of
// recently-used pages that accumulates at the head: the Fig. 8 (bottom)
// effect.  If the whole list is referenced, the head falls (FIFO fallback).
//
// Host work: the walk is resumed, not repeated.  Between two A-bit clears
// (GuestPageTable::clear_generation) bits are only set and Clock never
// re-queues a page, so the accessed prefix the last scan found is still
// accessed; the next scan starts after it and charges its length without
// walking it.  Between two clears the host visits each list node at most
// once in all (not once per fault), and victims and cycles are identical
// to the walk from the head.
class ClockPolicy final : public FifoListBase {
 public:
  using FifoListBase::FifoListBase;
  PolicyKind kind() const override { return PolicyKind::kClock; }
  void OnPageGone(PageIndex page) override {
    FifoListBase::OnPageGone(page);
    DropPrefix();
  }
  VictimChoice PickVictim(GuestPageTable& table) override;

 private:
  void DropPrefix() {
    prefix_last_ = kNilPage;
    prefix_len_ = 0;
  }

  // The accessed run [head_ .. prefix_last_] (prefix_len_ nodes) found by
  // the last scan, valid while the table's clear generation is
  // `prefix_generation_`.
  std::uint64_t prefix_generation_ = 0;
  NodeIndex prefix_last_ = kNilPage;
  std::size_t prefix_len_ = 0;
};

class MixedPolicy final : public FifoListBase {
 public:
  MixedPolicy(const PagingParams& params, std::size_t depth)
      : FifoListBase(params), depth_(depth) {}
  PolicyKind kind() const override { return PolicyKind::kMixed; }
  VictimChoice PickVictim(GuestPageTable& table) override;
  std::size_t depth() const { return depth_; }

 private:
  std::size_t depth_;
};

}  // namespace zombie::hv

#endif  // ZOMBIELAND_SRC_HV_REPLACEMENT_H_
