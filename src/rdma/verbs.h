// RDMA verbs over the simulated fabric: memory regions, queue pairs and
// completion queues.
//
// Data really moves: a materialized MemoryRegion owns bytes, and READ/WRITE
// copy between local and remote regions, so higher layers (hypervisor paging,
// swap devices) can verify page contents end-to-end.  The bytes are one
// untouched anonymous mapping, so registering a region costs no memory until
// its pages are written: the OS backs a page on first touch and untouched
// pages read as zeros.  Every verb returns the simulated cost so callers
// charge their CostAccumulator.
#ifndef ZOMBIELAND_SRC_RDMA_VERBS_H_
#define ZOMBIELAND_SRC_RDMA_VERBS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/result.h"
#include "src/common/units.h"
#include "src/rdma/fabric.h"

namespace zombie::rdma {

using RKey = std::uint64_t;
inline constexpr RKey kInvalidRKey = 0;

// Access flags for a registered region.
struct MrAccess {
  bool remote_read = true;
  bool remote_write = true;
  // When true the region carries real bytes that READ/WRITE move.  They are
  // reserved, not allocated: memory is spent only on pages that get written,
  // so lending a 16 GiB zombie pool costs nothing until it is used.  When
  // false the region carries no bytes at all: operations are priced and
  // counted but no data moves (and registration makes no syscall).
  bool materialize = true;
};

// Unmaps a materialized region's bytes.
struct RegionUnmapper {
  Bytes size = 0;
  void operator()(std::byte* bytes) const;
};
using RegionBytes = std::unique_ptr<std::byte, RegionUnmapper>;

// A registered memory region: an rkey plus (optionally) owned bytes.
class MemoryRegion {
 public:
  // `bytes` is null for an accounting-only region.
  MemoryRegion(RKey rkey, NodeId owner, Bytes size, MrAccess access, RegionBytes bytes)
      : rkey_(rkey), owner_(owner), access_(access), size_(size), bytes_(std::move(bytes)) {}

  RKey rkey() const { return rkey_; }
  NodeId owner() const { return owner_; }
  Bytes size() const { return size_; }
  const MrAccess& access() const { return access_; }
  bool materialized() const { return bytes_ != nullptr; }

  // The region's bytes; null for an accounting-only region.
  std::byte* data() { return bytes_.get(); }
  const std::byte* data() const { return bytes_.get(); }

 private:
  RKey rkey_;
  NodeId owner_;
  MrAccess access_;
  Bytes size_;
  RegionBytes bytes_;
};

// Completion entry.
struct Completion {
  enum class Op { kRead, kWrite, kSend, kRecv } op;
  std::uint64_t wr_id = 0;
  Bytes bytes = 0;
  Duration cost = 0;
  bool success = true;
};

class CompletionQueue {
 public:
  void Push(Completion c) { entries_.push_back(c); }
  // Polls up to `max` completions into `out`; returns how many were drained.
  std::size_t Poll(std::span<Completion> out);
  std::size_t depth() const { return entries_.size(); }

 private:
  std::deque<Completion> entries_;
};

// The verbs "device": registers MRs and executes one-sided operations.  One
// instance per fabric; nodes share it (like a subnet-wide address space of
// rkeys, which is how the rack protocol hands out buffer identities).
class Verbs {
 public:
  explicit Verbs(Fabric* fabric) : fabric_(fabric) {}
  ~Verbs();  // unmaps the regions still registered

  Fabric& fabric() { return *fabric_; }

  // Registers `size` bytes on `owner`.  Returns the region's rkey, or
  // kOutOfMemory when a materialized region's bytes cannot be mapped.
  [[nodiscard]] Result<RKey> RegisterRegion(NodeId owner, Bytes size, MrAccess access = {});
  [[nodiscard]] Status DeregisterRegion(RKey rkey);

  MemoryRegion* FindRegion(RKey rkey);
  const MemoryRegion* FindRegion(RKey rkey) const;

  // One-sided READ: copies [remote_offset, +len) of the remote region into
  // `dst`.  `initiator` must have a live CPU; the region's owner only needs
  // powered memory (the zombie property).  Returns the simulated cost.
  [[nodiscard]] Result<Duration> Read(NodeId initiator, RKey rkey, Bytes remote_offset,
                        std::span<std::byte> dst, CompletionQueue* cq = nullptr,
                        std::uint64_t wr_id = 0);

  // One-sided WRITE: copies `src` into the remote region at remote_offset.
  [[nodiscard]] Result<Duration> Write(NodeId initiator, RKey rkey, Bytes remote_offset,
                         std::span<const std::byte> src, CompletionQueue* cq = nullptr,
                         std::uint64_t wr_id = 0);

  // Two-sided SEND: delivers `payload` to the target's receive queue.
  [[nodiscard]] Result<Duration> Send(NodeId initiator, NodeId target, std::vector<std::byte> payload,
                        CompletionQueue* cq = nullptr, std::uint64_t wr_id = 0);
  // Receives the oldest pending message for `node`, if any.
  [[nodiscard]] Result<std::vector<std::byte>> Recv(NodeId node);
  bool HasPending(NodeId node) const;

 private:
  [[nodiscard]] Result<Duration> CheckOneSided(NodeId initiator, const MemoryRegion& mr, Bytes offset,
                                 Bytes len, bool is_write) const;

  Fabric* fabric_;
  std::unordered_map<RKey, std::unique_ptr<MemoryRegion>> regions_;
  std::unordered_map<NodeId, std::deque<std::vector<std::byte>>> rx_queues_;
  RKey next_rkey_ = 1;
};

}  // namespace zombie::rdma

#endif  // ZOMBIELAND_SRC_RDMA_VERBS_H_
