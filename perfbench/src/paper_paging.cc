// paper_paging: the Table 1 / Table 2 traffic.  The four calibrated
// application profiles run under RAM-Ext (HostPager, Mixed) and Explicit-SD
// (GuestPager), each over its own RemoteBackend extent on an accounting-only
// testbed rack, at the paper's local-memory fractions.  This exercises the
// remote fault path (hv -> RemoteExtent -> rdma pricing) and never touches
// the fault batcher or the client ring.
//
// Entry-point call: one row, the WorkloadRunner-equivalent replay of the
// profile's accesses.  (Per-AccessBatch latencies mix 40 very different
// rows, and their median sat at the edge of one cluster, moving 19% between
// runs.)
// Operation: one page access.
#include <algorithm>
#include <array>
#include <cmath>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench.h"
#include "src/hv/backend.h"
#include "src/hv/guest_pager.h"
#include "src/hv/pager.h"
#include "src/workloads/access_pattern.h"
#include "src/workloads/app_models.h"
#include "src/workloads/runner.h"

namespace perfbench {
namespace {

using zombie::Duration;
using zombie::hv::PagerStats;
using zombie::remotemem::RemoteExtent;
using zombie::workloads::AccessPattern;
using zombie::workloads::App;
using zombie::workloads::AppProfile;
using zombie::workloads::PageAccess;

// WorkloadRunner's generator batch, so each call matches the runner's.
constexpr std::size_t kBatch = 1024;
// The accounting-only testbed of the paper's scenarios.
constexpr zombie::Bytes kBuffSize = 4 * zombie::kMiB;
constexpr zombie::Bytes kServerMemory = 16 * zombie::kGiB;
// The local fractions of Tables 1 and 2.
constexpr std::array<double, 5> kFractions = {0.2, 0.4, 0.5, 0.6, 0.8};
// Set-ups per pass; the pass keeps the last.  Several, because one set-up
// takes milliseconds and setup_s reports their median.
constexpr int kSetupRepeats = 5;

enum class Mode { kRamExt, kExplicitSd };

struct Row {
  AppProfile profile;
  double fraction = 0.0;
  Mode mode = Mode::kRamExt;
  AccessPattern pristine;  // the row's generator before its first draw
  zombie::workloads::RunResult reference;
};

// WorkloadRunner's frame count for a local fraction.
std::uint64_t LocalFrames(const AppProfile& profile, double fraction) {
  const auto frames = static_cast<std::uint64_t>(std::floor(
      fraction * static_cast<double>(zombie::PagesOf(profile.reserved_memory))));
  return std::max<std::uint64_t>(frames, 1);
}

// Backend calls seen by a TimedBackend, and the timed sample of them.
struct BackendTally {
  std::uint64_t calls = 0;
  LayerTimer sampled;

  // Mean host time of one call, net of the clock reading inside each sample.
  double NsPerCall() const {
    return sampled.calls == 0 ? 0.0
                              : static_cast<double>(sampled.ns) /
                                        static_cast<double>(sampled.calls) -
                                    ClockReadNs();
  }
  double EstimatedNs() const { return NsPerCall() * static_cast<double>(calls); }
};

// Forwards every page store/load to the real backend (the remotemem layer as
// the pagers see it) and times one call in kSampleEvery.  Timing every call
// would add two clock reads, about 40 ns each on a 4-vCPU Xeon VM, to each of ~27 M
// backend calls a pass.
class TimedBackend final : public zombie::hv::PageBackend {
 public:
  static constexpr std::uint64_t kSampleEvery = 16;

  TimedBackend(zombie::hv::PageBackend* inner, BackendTally* tally)
      : inner_(inner), tally_(tally) {}

  zombie::Result<Duration> StorePage(zombie::hv::PageIndex page) override {
    return Forward([&] { return inner_->StorePage(page); });
  }
  zombie::Result<Duration> LoadPage(zombie::hv::PageIndex page) override {
    return Forward([&] { return inner_->LoadPage(page); });
  }
  std::string name() const override { return inner_->name(); }
  std::uint64_t capacity_pages() const override { return inner_->capacity_pages(); }

 private:
  template <class Call>
  zombie::Result<Duration> Forward(Call call) {
    if (++tally_->calls % kSampleEvery != 0) {
      return call();
    }
    const std::int64_t t0 = NowNs();
    auto cost = call();
    tally_->sampled.Add(NowNs() - t0);
    return cost;
  }

  zombie::hv::PageBackend* inner_;
  BackendTally* tally_;
};

class PaperPaging final : public Workload {
 public:
  explicit PaperPaging(const RunOptions& options) : seed_(options.seed) {
    for (App app : zombie::workloads::AllApps()) {
      const AppProfile profile = zombie::workloads::ProfileFor(app);
      const AccessPattern pristine(profile.footprint_pages(), profile.pattern, seed_);
      for (double fraction : kFractions) {
        for (Mode mode : {Mode::kRamExt, Mode::kExplicitSd}) {
          rows_.push_back({profile, fraction, mode, pristine, {}});
        }
      }
    }
    ComputeReferences();
  }

  PassStats RunPass(Measurement& m, SpanLog* spans) override {
    const bool traced = spans != nullptr;
    ScopedSpan pass_span(spans, "paper_paging.pass", 0);

    // Set-up: rack assembly, zombie push, one extent per row, the pagers.
    Testbed bed;  // declared first: the pagers below borrow its extents
    std::vector<RowState> state;
    for (int repeat = 0; repeat < kSetupRepeats; ++repeat) {
      ScopedSpan span(spans, "setup", pass_span.id());
      state.clear();
      bed = Testbed{};
      const std::int64_t t0 = NowNs();
      bed = AssembleTestbed(kBuffSize, kServerMemory, /*materialize=*/false);
      std::int64_t alloc_ns = 0;
      if (bed.rack != nullptr) {
        state.resize(rows_.size());
        for (std::size_t r = 0; r < rows_.size() && bed.rack != nullptr; ++r) {
          if (!BuildRow(bed, rows_[r], state[r], traced, &alloc_ns)) {
            bed.rack.reset();
          }
        }
      }
      m.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
      if (traced) {
        assemble_ms_.push_back(Ms(bed.assemble_ns));
        push_ms_.push_back(Ms(bed.push_ns));
        alloc_ms_.push_back(Ms(alloc_ns));
      }
    }
    PassStats stats;
    if (bed.rack == nullptr) {
      m.errors.push_back("paper_paging: testbed set-up failed");
      return stats;
    }

    // Inputs: a fresh copy of each row's generator (copied, not rebuilt, so
    // generator construction stays out of every timing).
    std::vector<AccessPattern> patterns;
    patterns.reserve(rows_.size());
    for (const Row& row : rows_) {
      patterns.push_back(row.pristine);
    }

    std::vector<PageAccess> buffer(kBatch);
    std::vector<Duration> sim_time(rows_.size(), 0);
    const std::int64_t start = NowNs();
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      ScopedSpan span(spans, rows_[r].mode == Mode::kRamExt ? "row.ram_ext" : "row.explicit_sd",
                      pass_span.id());
      const Row& row = rows_[r];
      RowState& rs = state[r];
      LayerTimer& access = row.mode == Mode::kRamExt ? host_access_ : guest_access_;
      const std::int64_t row_start = NowNs();
      std::uint64_t remaining = row.profile.accesses;
      while (remaining > 0) {
        const auto n = static_cast<std::size_t>(std::min<std::uint64_t>(kBatch, remaining));
        const std::span<PageAccess> chunk(buffer.data(), n);
        if (traced) {
          const std::int64_t f0 = NowNs();
          patterns[r].FillBatch(chunk);
          fill_.Add(NowNs() - f0);
        } else {
          patterns[r].FillBatch(chunk);
        }
        Duration cost = 0;
        if (traced) {
          const std::int64_t c0 = NowNs();
          cost = rs.host != nullptr ? rs.host->AccessBatch(chunk) : rs.guest->AccessBatch(chunk);
          access.Add(NowNs() - c0);
        } else {
          cost = rs.host != nullptr ? rs.host->AccessBatch(chunk) : rs.guest->AccessBatch(chunk);
        }
        sim_time[r] += cost + static_cast<Duration>(n) * row.profile.compute_per_access;
        remaining -= n;
      }
      if (!traced) {
        m.call_ns.Add(static_cast<double>(NowNs() - row_start));
      }
    }
    stats.timed_s = static_cast<double>(NowNs() - start) / 1e9;

    // Checks: every row reproduces WorkloadRunner bit for bit.
    PagerStats total;
    std::uint64_t remote_reads = 0;
    std::uint64_t remote_writes = 0;
    std::uint64_t mirror_reads = 0;
    for (std::size_t r = 0; r < rows_.size(); ++r) {
      const Row& row = rows_[r];
      const PagerStats& got = state[r].host != nullptr ? state[r].host->stats()
                                                       : state[r].guest->stats();
      m.attempted += row.profile.accesses;
      if (!SameStats(got, row.reference.pager) || sim_time[r] != row.reference.sim_time) {
        m.failed += row.profile.accesses;
        m.errors.push_back("paper_paging: " + std::string(zombie::workloads::AppName(
                                                  row.profile.app)) +
                           " row differs from WorkloadRunner");
      }
      stats.ops += got.accesses;
      AddStats(total, got);
      remote_reads += state[r].extent->remote_reads();
      remote_writes += state[r].extent->remote_writes();
      mirror_reads += state[r].extent->mirror_reads();
    }
    if (traced) {
      for (const RowState& rs : state) {
        BackendTally& tally = rs.host != nullptr ? host_backend_ : guest_backend_;
        tally.calls += rs.backend.calls;
        tally.sampled.Merge(rs.backend.sampled);
      }
      filled_ += total.accesses;
      for (std::size_t r = 0; r < rows_.size(); ++r) {
        (rows_[r].mode == Mode::kRamExt ? host_accesses_ : guest_accesses_) +=
            rows_[r].profile.accesses;
      }
    }
    stats.counts = PagerCounts(total);
    stats.counts.insert({
        {"remotemem.remote_reads", static_cast<double>(remote_reads)},
        {"remotemem.remote_writes", static_cast<double>(remote_writes)},
        {"remotemem.mirror_reads", static_cast<double>(mirror_reads)},
        {"rdma.fabric.ops", static_cast<double>(bed.rack->fabric().total_operations())},
        {"rdma.fabric.bytes", static_cast<double>(bed.rack->fabric().total_bytes())},
    });
    return stats;
  }

  void ReportLayers(Measurement& m) const override {
    const auto per = [](double ns, std::uint64_t n) {
      return n == 0 ? 0.0 : ns / static_cast<double>(n);
    };
    m.layers["workloads.fill_ns_per_access"] = per(static_cast<double>(fill_.ns), filled_);
    m.layers["hv.host_pager.self_ns_per_access"] =
        per(static_cast<double>(host_access_.ns) - host_backend_.EstimatedNs(), host_accesses_);
    m.layers["hv.guest_pager.self_ns_per_access"] =
        per(static_cast<double>(guest_access_.ns) - guest_backend_.EstimatedNs(),
            guest_accesses_);
    BackendTally both = host_backend_;
    both.calls += guest_backend_.calls;
    both.sampled.Merge(guest_backend_.sampled);
    m.layers["remotemem.extent.ns_per_call"] = both.NsPerCall();
    m.layers["cloud.rack.assemble_ms"] = Median(assemble_ms_);
    m.layers["cloud.rack.push_to_zombie_ms"] = Median(push_ms_);
    m.layers["remotemem.alloc_extension_ms"] = Median(alloc_ms_);
  }

 private:
  struct RowState {
    RemoteExtent* extent = nullptr;
    std::unique_ptr<zombie::hv::RemoteBackend> remote;
    std::unique_ptr<TimedBackend> timed;
    BackendTally backend;
    std::unique_ptr<zombie::hv::HostPager> host;
    std::unique_ptr<zombie::hv::GuestPager> guest;
  };

  // Allocates the row's extent and builds its pager the way WorkloadRunner
  // does; the pager talks to a TimedBackend on traced passes.
  bool BuildRow(Testbed& bed, const Row& row, RowState& rs, bool traced,
                std::int64_t* alloc_ns) {
    const std::int64_t t0 = NowNs();
    auto extent = bed.rack->manager(bed.user).AllocExtension(row.profile.reserved_memory);
    *alloc_ns += NowNs() - t0;
    if (!extent.ok()) {
      return false;
    }
    rs.extent = extent.value();
    rs.remote = std::make_unique<zombie::hv::RemoteBackend>(rs.extent);
    zombie::hv::PageBackend* backend = rs.remote.get();
    if (traced) {
      rs.timed = std::make_unique<TimedBackend>(rs.remote.get(), &rs.backend);
      backend = rs.timed.get();
    }
    const zombie::workloads::RunnerOptions defaults;
    const std::uint64_t frames = LocalFrames(row.profile, row.fraction);
    if (row.mode == Mode::kRamExt) {
      rs.host = std::make_unique<zombie::hv::HostPager>(
          row.profile.footprint_pages(), frames,
          zombie::hv::MakePolicy(defaults.policy, defaults.paging, defaults.mixed_depth),
          backend, defaults.paging);
    } else {
      zombie::hv::GuestSwapConfig config = defaults.guest_swap;
      config.paging = defaults.paging;
      rs.guest = std::make_unique<zombie::hv::GuestPager>(row.profile.footprint_pages(),
                                                          frames, backend, config);
    }
    return true;
  }

  // The program's own runner on the same profiles, seed and fractions, each
  // row over a fresh extent: what every pass must reproduce exactly.
  void ComputeReferences() {
    Testbed bed = AssembleTestbed(kBuffSize, kServerMemory, /*materialize=*/false);
    zombie::workloads::RunnerOptions options;
    options.seed = seed_;
    zombie::workloads::WorkloadRunner runner(options);
    for (Row& row : rows_) {
      if (bed.rack == nullptr) {
        break;
      }
      auto extent = bed.rack->manager(bed.user).AllocExtension(row.profile.reserved_memory);
      if (!extent.ok()) {
        break;
      }
      zombie::hv::RemoteBackend backend(extent.value());
      row.reference = row.mode == Mode::kRamExt
                          ? runner.RunRamExt(row.profile, row.fraction, &backend)
                          : runner.RunExplicitSd(row.profile, row.fraction, &backend);
    }
  }

  std::uint64_t seed_;
  std::vector<Row> rows_;
  // Traced-pass accumulators.
  LayerTimer fill_;
  LayerTimer host_access_;
  LayerTimer guest_access_;
  BackendTally host_backend_;
  BackendTally guest_backend_;
  std::uint64_t filled_ = 0;
  std::uint64_t host_accesses_ = 0;
  std::uint64_t guest_accesses_ = 0;
  std::vector<double> assemble_ms_;
  std::vector<double> push_ms_;
  std::vector<double> alloc_ms_;
};

}  // namespace

std::unique_ptr<Workload> MakePaperPaging(const RunOptions& options) {
  return std::make_unique<PaperPaging>(options);
}

}  // namespace perfbench
