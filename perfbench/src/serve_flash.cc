// serve_flash: the online serving daemon over a larger rack (16 awake hosts,
// 32 zombies, 4 controller shards).  Each episode replays a flash-crowd
// timeline: the base rate places nearly everything, and a x5 burst forces
// admission queueing, zombie wakes and sheds.  This is the only workload
// that exercises admission, placement, leases and the control plane.
//
// A pass is kEpisodes episodes with timelines seeded from the run seed.  One
// episode's host cost swings with its seed (the longest VM lifetime sets how
// many lease ticks the drain runs), so a pass averages over many.
//
// Known defect, counted rather than designed around: while the gate is
// backlogged, a departure that arrives before its VM's admission verdict
// finds the VM neither placed nor queued and is dropped; the VM is then
// placed and never torn down.  Each VM still live after the drain is one
// failed operation (its lost departure); any other failed check makes the
// run incorrect.
//
// Entry-point call: one ServeDaemon::Run (a whole episode).
// Operation: one timeline request (arrival, departure or resize).
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "src/serve/daemon.h"
#include "src/serve/stream.h"

namespace perfbench {
namespace {

using zombie::kGiB;
using zombie::kMillisecond;
using zombie::kSecond;
using zombie::serve::ShedReason;

zombie::serve::ServeConfig DaemonConfig() {
  zombie::serve::ServeConfig config;
  config.hosts = 16;
  config.zombies = 32;
  config.controller_shards = 4;
  config.host_capacity = {8, 16 * kGiB};
  config.buff_size = 64 * zombie::kMiB;
  // No per-tenant quota and no throttle: every gate shed is the rack budget.
  config.tenant_memory_quota = 0;
  config.throttle.rate_per_s = 0.0;
  // A verdict every 10 ms: the serial gate saturates near 100 requests/s,
  // so the burst queues at admission as well as at placement.
  config.admission_service = 10 * kMillisecond;
  return config;
}

zombie::serve::StreamConfig EpisodeStream(std::uint64_t seed) {
  zombie::serve::StreamConfig stream;
  stream.seed = seed;
  stream.process = zombie::serve::ArrivalProcess::kFlashCrowd;
  stream.rate_per_s = 40.0;
  stream.horizon = 10 * kSecond;
  stream.tenants = 4;
  stream.mean_lifetime = 2 * kSecond;
  stream.vcpus = 1;
  stream.min_memory = 2 * kGiB;
  stream.max_memory = 6 * kGiB;
  stream.memory_step = 1 * kGiB;
  stream.burst_start = 4 * kSecond;
  stream.burst_duration = 2 * kSecond;
  stream.burst_multiplier = 5.0;
  return stream;
}

constexpr std::uint64_t kEpisodes = 64;

class ServeFlash final : public Workload {
 public:
  explicit ServeFlash(const RunOptions& options) {
    for (std::uint64_t k = 0; k < kEpisodes; ++k) {
      streams_.push_back(EpisodeStream(options.seed + k * 0x9e3779b97f4a7c15ULL));
    }
  }

  PassStats RunPass(Measurement& m, SpanLog* spans) override {
    ScopedSpan pass_span(spans, "serve_flash.pass", 0);
    Totals totals;
    for (const zombie::serve::StreamConfig& stream : streams_) {
      RunEpisode(m, spans, pass_span.id(), stream, totals);
    }
    if (totals.leaked != 0 && m.notes.empty()) {
      m.notes.push_back("known defect: " + std::to_string(totals.leaked) + " of " +
                        std::to_string(totals.arrivals) +
                        " VMs per pass left live after the drain (departure dropped while "
                        "the VM awaited its admission verdict); counted as failed ops");
    }
    PassStats pass;
    pass.timed_s = totals.timed_s;
    pass.ops = totals.requests;
    const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
    pass.counts = {
        {"serve.arrivals", count(totals.arrivals)},
        {"serve.placed", count(totals.placed)},
        {"serve.shed_rate", totals.arrivals == 0 ? 0.0 : count(totals.shed) / count(totals.arrivals)},
        {"serve.zombie_wakes", count(totals.zombie_wakes)},
        {"serve.slo_violations", count(totals.slo_violations)},
        {"serve.sim_place_p99_ms", Median(totals.place_p99_ms)},
    };
    return pass;
  }

  void ReportLayers(Measurement& m) const override {
    const double episodes = static_cast<double>(run_.calls);
    if (episodes == 0.0) {
      return;
    }
    m.layers["serve.stream.generate_ms"] = Ms(generate_.ns) / episodes;
    m.layers["serve.daemon.us_per_request"] =
        requests_ == 0 ? 0.0 : static_cast<double>(run_.ns) / 1e3 / static_cast<double>(requests_);
    m.layers["serve.daemon.check_health_ms"] = Ms(check_health_.ns) / episodes;
  }

 private:
  // A pass's episodes, summed.
  struct Totals {
    double timed_s = 0.0;
    std::uint64_t requests = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t placed = 0;
    std::uint64_t shed = 0;
    std::uint64_t zombie_wakes = 0;
    std::uint64_t slo_violations = 0;
    std::uint64_t leaked = 0;
    std::vector<double> place_p99_ms;  // simulated, one per episode
  };

  void RunEpisode(Measurement& m, SpanLog* spans, SpanLog::Id parent,
                  const zombie::serve::StreamConfig& stream, Totals& totals) {
    const bool traced = spans != nullptr;
    ScopedSpan episode_span(spans, "episode", parent);
    std::unique_ptr<zombie::serve::ServeDaemon> daemon;
    {
      ScopedSpan span(spans, "setup", episode_span.id());
      const std::int64_t t0 = NowNs();
      daemon = std::make_unique<zombie::serve::ServeDaemon>(DaemonConfig());
      m.setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }

    const std::int64_t start = NowNs();
    std::vector<zombie::serve::Request> timeline;
    {
      ScopedSpan span(spans, "stream.generate", episode_span.id());
      const std::int64_t g0 = NowNs();
      timeline = zombie::serve::RequestStream(stream).Generate();
      if (traced) {
        generate_.Add(NowNs() - g0);
      }
    }
    zombie::Status ran;
    {
      ScopedSpan span(spans, "daemon.run", episode_span.id());
      const std::int64_t r0 = NowNs();
      ran = daemon->Run(timeline);
      const std::int64_t elapsed = NowNs() - r0;
      if (traced) {
        run_.Add(elapsed);
      } else {
        m.call_ns.Add(static_cast<double>(elapsed));
      }
    }
    zombie::Status health;
    {
      ScopedSpan span(spans, "daemon.check_health", episode_span.id());
      const std::int64_t h0 = NowNs();
      health = daemon->CheckHealth();
      if (traced) {
        check_health_.Add(NowNs() - h0);
      }
    }
    totals.timed_s += static_cast<double>(NowNs() - start) / 1e9;
    totals.requests += timeline.size();
    if (traced) {
      requests_ += timeline.size();
    }

    // Checks: the run and the rack are healthy, every arrival got exactly one
    // admission verdict, and the drained rack holds nothing.
    zombie::serve::ServeMetrics& metrics = daemon->metrics();
    const auto shed = [&](ShedReason reason) {
      return metrics.shed[static_cast<std::size_t>(reason)];
    };
    const std::uint64_t gate_sheds = shed(ShedReason::kThrottled) +
                                     shed(ShedReason::kTenantQuota) +
                                     shed(ShedReason::kRackBudget);
    // The known defect's signature: VMs left live (never queued) after the
    // drain, still holding admitted memory.
    const std::size_t leaked = daemon->live_vms();
    std::string problem;
    if (!ran.ok()) {
      problem = "Run failed: " + ran.ToString();
    } else if (!health.ok()) {
      problem = "CheckHealth failed: " + health.ToString();
    } else if (metrics.arrivals != metrics.admitted + gate_sheds) {
      problem = "arrivals != admitted + gate sheds";
    } else if (daemon->queued() != 0) {
      problem = "VMs left queued after the drain";
    } else if ((daemon->admission().admitted_memory() != 0) != (leaked != 0)) {
      problem = "admitted memory after the drain does not match the VMs left live";
    }
    m.attempted += timeline.size();
    if (!problem.empty()) {
      m.failed += timeline.size();
      m.errors.push_back("serve_flash: " + problem);
    } else {
      m.failed += leaked;
      totals.leaked += leaked;
    }

    totals.arrivals += metrics.arrivals;
    totals.placed += metrics.placed;
    totals.shed += metrics.TotalShed();
    totals.zombie_wakes += metrics.zombie_wakes;
    totals.slo_violations += metrics.slo_violations;
    totals.place_p99_ms.push_back(metrics.placement_ms.Summary().p99);
  }

  std::vector<zombie::serve::StreamConfig> streams_;
  // Traced-pass accumulators.
  LayerTimer generate_;
  LayerTimer run_;
  LayerTimer check_health_;
  std::uint64_t requests_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeFlash(const RunOptions& options) {
  return std::make_unique<ServeFlash>(options);
}

}  // namespace perfbench
