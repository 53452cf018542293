#include "src/rdma/verbs.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

namespace zombie::rdma {
namespace {

// Reserves `size` zero bytes for a materialized region; null when the address
// space cannot hold them.
RegionBytes MapZeroed(Bytes size) {
  // MAP_NORESERVE: the reservation is address space, not commit charge; a
  // page is backed (and zero-filled by the OS) on its first touch.
  void* p = mmap(nullptr, size, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (p == MAP_FAILED) {
    return nullptr;
  }
#ifdef MADV_HUGEPAGE
  // Huge pages take the first-touch faults of a lent buffer 512 at a time
  // and cut TLB misses on the copy path.  Best effort: a refusal leaves
  // ordinary pages, which behave the same.
  (void)madvise(p, size, MADV_HUGEPAGE);
#endif
  return RegionBytes(static_cast<std::byte*>(p), RegionUnmapper{size});
}

}  // namespace

void RegionUnmapper::operator()(std::byte* bytes) const { munmap(bytes, size); }

std::size_t CompletionQueue::Poll(std::span<Completion> out) {
  std::size_t n = 0;
  while (n < out.size() && !entries_.empty()) {
    out[n++] = entries_.front();
    entries_.pop_front();
  }
  return n;
}

Verbs::~Verbs() = default;

Result<RKey> Verbs::RegisterRegion(NodeId owner, Bytes size, MrAccess access) {
  if (size == 0) {
    return Status(ErrorCode::kInvalidArgument, "cannot register empty region");
  }
  if (!fabric_->NodeMemoryAccessible(owner)) {
    return Status(ErrorCode::kUnavailable, "owner memory not accessible for registration");
  }
  RegionBytes bytes;
  if (access.materialize) {
    bytes = MapZeroed(size);
    if (bytes == nullptr) {
      return Status(ErrorCode::kOutOfMemory, "cannot map region bytes");
    }
  }
  const RKey rkey = next_rkey_++;
  regions_.emplace(rkey,
                   std::make_unique<MemoryRegion>(rkey, owner, size, access, std::move(bytes)));
  return rkey;
}

Status Verbs::DeregisterRegion(RKey rkey) {
  return regions_.erase(rkey) > 0
             ? Status::Ok()
             : Status(ErrorCode::kNotFound, "unknown rkey");
}

MemoryRegion* Verbs::FindRegion(RKey rkey) {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

const MemoryRegion* Verbs::FindRegion(RKey rkey) const {
  auto it = regions_.find(rkey);
  return it == regions_.end() ? nullptr : it->second.get();
}

Result<Duration> Verbs::CheckOneSided(NodeId initiator, const MemoryRegion& mr, Bytes offset,
                                      Bytes len, bool is_write) const {
  if (offset > mr.size() || len > mr.size() - offset) {
    return Status(ErrorCode::kInvalidArgument, "one-sided op out of region bounds");
  }
  if (is_write && !mr.access().remote_write) {
    return Status(ErrorCode::kFailedPrecondition, "region not remote-writable");
  }
  if (!is_write && !mr.access().remote_read) {
    return Status(ErrorCode::kFailedPrecondition, "region not remote-readable");
  }
  return fabric_->PriceOneSided(initiator, mr.owner(), len);
}

Result<Duration> Verbs::Read(NodeId initiator, RKey rkey, Bytes remote_offset,
                             std::span<std::byte> dst, CompletionQueue* cq,
                             std::uint64_t wr_id) {
  MemoryRegion* mr = FindRegion(rkey);
  if (mr == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown rkey");
  }
  auto cost = CheckOneSided(initiator, *mr, remote_offset, dst.size(), /*is_write=*/false);
  if (!cost.ok()) {
    return cost;
  }
  if (mr->materialized() && !dst.empty()) {
    std::memcpy(dst.data(), mr->data() + remote_offset, dst.size());
  }
  fabric_->NoteTransfer(dst.size());
  if (cq != nullptr) {
    cq->Push({Completion::Op::kRead, wr_id, dst.size(), cost.value(), true});
  }
  return cost;
}

Result<Duration> Verbs::Write(NodeId initiator, RKey rkey, Bytes remote_offset,
                              std::span<const std::byte> src, CompletionQueue* cq,
                              std::uint64_t wr_id) {
  MemoryRegion* mr = FindRegion(rkey);
  if (mr == nullptr) {
    return Status(ErrorCode::kNotFound, "unknown rkey");
  }
  auto cost = CheckOneSided(initiator, *mr, remote_offset, src.size(), /*is_write=*/true);
  if (!cost.ok()) {
    return cost;
  }
  if (mr->materialized() && !src.empty()) {
    std::memcpy(mr->data() + remote_offset, src.data(), src.size());
  }
  fabric_->NoteTransfer(src.size());
  if (cq != nullptr) {
    cq->Push({Completion::Op::kWrite, wr_id, src.size(), cost.value(), true});
  }
  return cost;
}

Result<Duration> Verbs::Send(NodeId initiator, NodeId target, std::vector<std::byte> payload,
                             CompletionQueue* cq, std::uint64_t wr_id) {
  auto cost = fabric_->PriceTwoSided(initiator, target, payload.size());
  if (!cost.ok()) {
    return cost;
  }
  const Bytes size = payload.size();
  rx_queues_[target].push_back(std::move(payload));
  fabric_->NoteTransfer(size);
  if (cq != nullptr) {
    cq->Push({Completion::Op::kSend, wr_id, size, cost.value(), true});
  }
  return cost;
}

Result<std::vector<std::byte>> Verbs::Recv(NodeId node) {
  auto it = rx_queues_.find(node);
  if (it == rx_queues_.end() || it->second.empty()) {
    return Status(ErrorCode::kNotFound, "no pending message");
  }
  std::vector<std::byte> payload = std::move(it->second.front());
  it->second.pop_front();
  return payload;
}

bool Verbs::HasPending(NodeId node) const {
  auto it = rx_queues_.find(node);
  return it != rx_queues_.end() && !it->second.empty();
}

}  // namespace zombie::rdma
