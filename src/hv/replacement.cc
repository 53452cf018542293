#include "src/hv/replacement.h"

#include <cassert>

namespace zombie::hv {

std::string_view PolicyKindName(PolicyKind k) {
  switch (k) {
    case PolicyKind::kFifo:
      return "FIFO";
    case PolicyKind::kClock:
      return "Clock";
    case PolicyKind::kMixed:
      return "Mixed";
  }
  return "?";
}

std::optional<PolicyKind> ParsePolicyKind(std::string_view name) {
  for (PolicyKind kind : kAllPolicyKinds) {
    if (PolicyKindName(kind) == name) {
      return kind;
    }
  }
  return std::nullopt;
}

VictimChoice FifoPolicy::PickVictim(GuestPageTable& table) {
  (void)table;
  assert(size_ > 0);
  // The page which generated the oldest page fault.
  const PageIndex victim = head_;
  Unlink(victim);
  return {victim, params_.policy_fixed_cycles + params_.fifo_pop_cycles};
}

VictimChoice ClockPolicy::PickVictim(GuestPageTable& table) {
  assert(size_ > 0);
  if (table.clear_generation() != prefix_generation_) {
    // An A-bit may have been cleared since the last scan: walk from the head.
    prefix_generation_ = table.clear_generation();
    DropPrefix();
  }
  // First page (from the head) whose A-bit is zero.  Bits are only checked;
  // clearing happens in the pager's periodic scan.  The saved prefix is
  // known accessed, so the walk resumes after it; the charge still covers
  // every node from the head.
  const Cycles step_cycles = params_.list_node_cycles + params_.accessed_check_cycles;
  NodeIndex p = prefix_last_ == kNilPage ? head_ : nodes_[prefix_last_].next;
  for (; p != kNilPage; p = nodes_[p].next) {
    if (!table.Accessed(p)) {
      Unlink(p);
      return {p, params_.policy_fixed_cycles +
                     static_cast<Cycles>(prefix_len_ + 1) * step_cycles};
    }
    prefix_last_ = p;
    ++prefix_len_;
  }
  // Everything referenced since the last periodic clear: FIFO fallback.  The
  // head leaves the prefix; the rest of the list stays accessed.
  const PageIndex victim = head_;
  const Cycles cycles = params_.policy_fixed_cycles +
                        static_cast<Cycles>(prefix_len_) * step_cycles +
                        params_.fifo_pop_cycles;
  Unlink(victim);
  if (--prefix_len_ == 0) {
    prefix_last_ = kNilPage;
  }
  return {victim, cycles};
}

VictimChoice MixedPolicy::PickVictim(GuestPageTable& table) {
  assert(size_ > 0);
  Cycles cycles = params_.policy_fixed_cycles;
  const Cycles step_cycles = params_.list_node_cycles + params_.accessed_check_cycles;
  // Clock (second chance) applied to at most the first `depth_` elements:
  // a referenced head page is cleared and re-enqueued at the tail; the
  // first unreferenced head is evicted.
  if (depth_ > 0 && size_ > depth_) {
    // Deep-list fast path (the steady state): the scan can never wrap onto a
    // page it already granted a second chance to, so the walked prefix can
    // be spliced to the tail as one run instead of node by node.  Final list
    // order, A-bit effects and cycle accounting are identical to the loop
    // below.
    NodeIndex p = head_;
    NodeIndex prefix_last = kNilPage;
    for (std::size_t scanned = 0; scanned < depth_; ++scanned) {
      cycles += step_cycles;
      PageTableEntry& entry = table.at(p);
      if (!table.Accessed(entry)) {
        if (prefix_last != kNilPage) {
          MoveRunToTail(head_, prefix_last);
        }
        Unlink(p);
        return {p, cycles};
      }
      table.ClearAccessed(entry);
      prefix_last = p;
      p = nodes_[p].next;
    }
    // Budget exhausted: the prefix got its second chance, FIFO on the rest.
    MoveRunToTail(head_, prefix_last);
    cycles += params_.fifo_pop_cycles;
    Unlink(p);
    return {p, cycles};
  }
  for (std::size_t scanned = 0; scanned < depth_ && size_ > 1; ++scanned) {
    cycles += step_cycles;
    const PageIndex head = head_;
    PageTableEntry& entry = table.at(head);
    if (!table.Accessed(entry)) {
      Unlink(head);
      return {head, cycles};
    }
    table.ClearAccessed(entry);
    MoveToTail(head);  // second chance: move to tail
  }
  // Budget exhausted (or single page): FIFO on the rest of the list.
  const PageIndex victim = head_;
  cycles += params_.fifo_pop_cycles;
  Unlink(victim);
  return {victim, cycles};
}

std::unique_ptr<ReplacementPolicy> MakePolicy(PolicyKind kind, const PagingParams& params,
                                              std::size_t mixed_depth) {
  switch (kind) {
    case PolicyKind::kFifo:
      return std::make_unique<FifoPolicy>(params);
    case PolicyKind::kClock:
      return std::make_unique<ClockPolicy>(params);
    case PolicyKind::kMixed:
      return std::make_unique<MixedPolicy>(params, mixed_depth);
  }
  return nullptr;
}

}  // namespace zombie::hv
