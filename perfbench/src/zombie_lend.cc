// zombie_lend: a materialized rack in which one zombie lends ~0.9 GiB of
// real memory.  The timed phase runs seeded random 4 KiB writes and reads
// (half writes) against a 768 MiB RAM-Extension extent, every read verified
// against the page model; then wakes the zombie; then reads back every page
// written, verified.  This is the only workload that moves real bytes
// through rdma::Verbs and pays for eager region materialization (set-up).
//
// Known defect, counted rather than skipped: after WakeServer the extent
// serves reclaimed pages from its local mirror path, which returns OK but
// leaves the read buffer untouched, so every post-wake read is stale.  Those
// reads count as failed operations; any other failure makes the run
// incorrect.
//
// Entry-point call and operation: one verified 4 KiB page write or read.
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "page_model.h"
#include "src/workloads/access_pattern.h"

namespace perfbench {
namespace {

using zombie::kMiB;
using zombie::remotemem::RemoteExtent;
using zombie::workloads::PageAccess;

constexpr zombie::Bytes kServerMemory = 1 * zombie::kGiB;
constexpr zombie::Bytes kBuffSize = 16 * kMiB;
constexpr zombie::Bytes kExtentBytes = 768 * kMiB;
constexpr std::uint64_t kExtentPages = kExtentBytes / kPageBytes;
constexpr std::size_t kOps = 1'000'000;
constexpr double kWriteShare = 0.5;

// Times the extent calls of a traced pass, one sample per call, net of the
// clock reading inside each.
class TimedExtent {
 public:
  TimedExtent(RemoteExtent* extent, std::vector<double>* writes, std::vector<double>* reads)
      : extent_(extent), writes_(writes), reads_(reads) {}

  zombie::Result<zombie::Duration> WritePage(std::uint64_t page, std::span<const std::byte> data) {
    const std::int64_t t0 = NowNs();
    auto cost = extent_->WritePage(page, data);
    writes_->push_back(static_cast<double>(NowNs() - t0) - ClockReadNs());
    return cost;
  }
  zombie::Result<zombie::Duration> ReadPage(std::uint64_t page, std::span<std::byte> out) {
    const std::int64_t t0 = NowNs();
    auto cost = extent_->ReadPage(page, out);
    reads_->push_back(static_cast<double>(NowNs() - t0) - ClockReadNs());
    return cost;
  }

 private:
  RemoteExtent* extent_;
  std::vector<double>* writes_;
  std::vector<double>* reads_;
};

class ZombieLend final : public Workload {
 public:
  explicit ZombieLend(const RunOptions& options) : seed_(options.seed), ops_(kOps) {
    zombie::workloads::PatternParams uniform;  // no tiers, no zipf: uniform pages
    uniform.write_ratio = kWriteShare;
    zombie::workloads::AccessPattern(kExtentPages, uniform, seed_).FillBatch(ops_);
  }

  PassStats RunPass(Measurement& m, SpanLog* spans) override {
    const bool traced = spans != nullptr;
    ScopedSpan pass_span(spans, "zombie_lend.pass", 0);
    PassStats stats;

    // Set-up: assemble the rack, push the zombie (registering and zeroing
    // its lent regions), allocate the extent.
    Testbed bed;
    RemoteExtent* extent = nullptr;
    {
      ScopedSpan span(spans, "setup", pass_span.id());
      const std::int64_t t0 = NowNs();
      bed = AssembleTestbed(kBuffSize, kServerMemory, /*materialize=*/true);
      const std::int64_t t1 = NowNs();
      if (bed.rack != nullptr) {
        auto alloc = bed.rack->manager(bed.user).AllocExtension(kExtentBytes);
        extent = alloc.ok() ? alloc.value() : nullptr;
      }
      const std::int64_t t2 = NowNs();
      m.setup_s.push_back(static_cast<double>(t2 - t0) / 1e9);
      if (traced) {
        assemble_ms_.push_back(Ms(bed.assemble_ns));
        push_ms_.push_back(Ms(bed.push_ns));
        alloc_ms_.push_back(Ms(t2 - t1));
      }
    }
    if (extent == nullptr) {
      m.errors.push_back("zombie_lend: rack set-up failed");
      return stats;
    }

    PageModel model(seed_, kExtentPages);
    std::vector<std::byte> buf(kPageBytes);
    OpLedger ledger;
    std::uint64_t unexpected = 0;
    std::uint64_t stale = 0;
    const std::int64_t start = NowNs();
    {
      ScopedSpan span(spans, "page_ops", pass_span.id());
      TimedExtent timed(extent, &write_ns_, &read_ns_);
      for (const PageAccess& op : ops_) {
        const std::int64_t c0 = NowNs();
        bool ok = false;
        if (traced) {
          ok = op.is_write ? WriteNextVersion(timed, model, op.page, buf)
                           : ReadAndVerify(timed, model, op.page, buf) == ReadCheck::kOk;
        } else {
          ok = op.is_write ? WriteNextVersion(*extent, model, op.page, buf)
                           : ReadAndVerify(*extent, model, op.page, buf) == ReadCheck::kOk;
          m.call_ns.Add(static_cast<double>(NowNs() - c0));
        }
        ledger.Record(ok);
        unexpected += ok ? 0 : 1;
      }
    }
    {
      ScopedSpan span(spans, "wake", pass_span.id());
      const std::int64_t w0 = NowNs();
      const bool woke = bed.rack->WakeServer(bed.zombie).ok();
      if (traced) {
        wake_ms_.push_back(Ms(NowNs() - w0));
      }
      if (!woke) {
        m.errors.push_back("zombie_lend: WakeServer failed");
      }
    }
    {
      ScopedSpan span(spans, "read_back", pass_span.id());
      TimedExtent timed(extent, &write_ns_, &mirror_read_ns_);
      for (std::uint64_t page = 0; page < kExtentPages; ++page) {
        if (model.version(page) == 0) {
          continue;
        }
        const std::int64_t c0 = NowNs();
        const ReadCheck check = traced ? ReadAndVerify(timed, model, page, buf)
                                       : ReadAndVerify(*extent, model, page, buf);
        if (!traced) {
          m.call_ns.Add(static_cast<double>(NowNs() - c0));
        }
        ledger.Record(check == ReadCheck::kOk);
        stale += check == ReadCheck::kStale ? 1 : 0;
        unexpected += check == ReadCheck::kWrong || check == ReadCheck::kError ? 1 : 0;
      }
    }
    stats.timed_s = static_cast<double>(NowNs() - start) / 1e9;
    stats.ops = ledger.attempted;

    m.attempted += ledger.attempted;
    m.failed += ledger.failed;
    if (unexpected != 0) {
      m.errors.push_back("zombie_lend: " + std::to_string(unexpected) +
                         " page ops failed outside the known post-wake defect");
    }
    if (stale != 0 && m.notes.empty()) {
      m.notes.push_back(
          "known defect: " + std::to_string(stale) +
          " post-wake reads per pass returned OK with the buffer untouched "
          "(RemoteExtent::ReadPage mirror path); counted as failed ops");
    }

    stats.counts = {
        {"remotemem.remote_reads", static_cast<double>(extent->remote_reads())},
        {"remotemem.remote_writes", static_cast<double>(extent->remote_writes())},
        {"remotemem.mirror_reads", static_cast<double>(extent->mirror_reads())},
        {"rdma.fabric.ops", static_cast<double>(bed.rack->fabric().total_operations())},
        {"rdma.fabric.bytes", static_cast<double>(bed.rack->fabric().total_bytes())},
    };
    return stats;
  }

  void ReportLayers(Measurement& m) const override {
    m.layers["remotemem.extent.write_ns_p50"] = Median(write_ns_);
    m.layers["remotemem.extent.read_ns_p50"] = Median(read_ns_);
    m.layers["remotemem.extent.mirror_read_ns_p50"] = Median(mirror_read_ns_);
    m.layers["cloud.rack.assemble_ms"] = Median(assemble_ms_);
    m.layers["cloud.rack.push_to_zombie_ms"] = Median(push_ms_);
    m.layers["remotemem.alloc_extension_ms"] = Median(alloc_ms_);
    m.layers["cloud.rack.wake_ms"] = Median(wake_ms_);
  }

 private:
  std::uint64_t seed_;
  std::vector<PageAccess> ops_;
  // Traced-pass samples.
  std::vector<double> write_ns_;
  std::vector<double> read_ns_;
  std::vector<double> mirror_read_ns_;
  std::vector<double> assemble_ms_;
  std::vector<double> push_ms_;
  std::vector<double> alloc_ms_;
  std::vector<double> wake_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakeZombieLend(const RunOptions& options) {
  return std::make_unique<ZombieLend>(options);
}

}  // namespace perfbench
