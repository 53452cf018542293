#include "bench.h"

#include <algorithm>
#include <array>
#include <cstdio>
#include <filesystem>

namespace perfbench {

double Median(std::vector<double> samples) {
  if (samples.empty()) {
    return 0.0;
  }
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + mid, samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) {
    return upper;
  }
  const double lower = *std::max_element(samples.begin(), samples.begin() + mid);
  return (lower + upper) / 2.0;
}

Tail SelectTail(std::vector<double> samples) {
  Tail tail;
  tail.samples = samples.size();
  std::sort(samples.begin(), samples.end());
  // Highest first; integer arithmetic so a rank never drifts across a
  // boundary through rounding.
  constexpr std::array<std::size_t, 3> kPercentiles = {99, 90, 50};
  const std::size_t n = samples.size();
  for (std::size_t q : kPercentiles) {
    const std::size_t rank = (q * n + 99) / 100;  // nearest rank, 1-based
    if (rank == 0 || n - rank < Tail::kMinBeyond) {
      continue;
    }
    tail.percentile = static_cast<double>(q);
    tail.value = samples[rank - 1];
    tail.beyond = n - rank;
    return tail;
  }
  return tail;
}

double ClockReadNs() {
  static const double cost = [] {
    std::vector<double> pairs(1001);
    for (double& d : pairs) {
      const std::int64_t t0 = NowNs();
      d = static_cast<double>(NowNs() - t0);
    }
    return Median(pairs);
  }();
  return cost;
}

SpanLog::Id SpanLog::Open(const char* name, Id parent, std::uint32_t lane) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, lane, now, now});
  return static_cast<Id>(spans_.size());
}

void SpanLog::Close(Id id) {
  const std::int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

std::size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::WriteChromeTrace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::error_code ec;
  const std::filesystem::path target(path);
  if (target.has_parent_path()) {
    std::filesystem::create_directories(target.parent_path(), ec);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  const std::int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%u}}",
                 i == 0 ? "" : ",", s.name, s.lane,
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i + 1, s.parent);
  }
  std::fputs("\n]}\n", out);
  return std::fclose(out) == 0;
}

Measurement Drive(Workload& workload, const RunOptions& options, SpanLog& spans) {
  Measurement m;
  for (std::uint64_t pass = 0;; ++pass) {
    const bool traced = options.trace && pass % 2 == 1;
    const std::uint64_t attempted_before = m.attempted;
    const std::uint64_t failed_before = m.failed;
    const PassStats stats = workload.RunPass(m, traced ? &spans : nullptr);
    if (traced) {
      m.traced_s += stats.timed_s;
      m.traced_ops += stats.ops;
    } else {
      m.untraced_s += stats.timed_s;
      m.untraced_ops += stats.ops;
    }
    if (pass == 0) {
      m.counts = stats.counts;
    } else {
      if (stats.counts != m.counts) {
        m.errors.push_back("pass " + std::to_string(pass) +
                           ": simulated counts differ from pass 0");
      }
      // Every pass replays the same seeded operations, so attempted and
      // failed describe one pass; a pass that fails differently is an error.
      if (m.attempted - attempted_before != attempted_before ||
          m.failed - failed_before != failed_before) {
        m.errors.push_back("pass " + std::to_string(pass) +
                           ": attempted or failed operations differ from pass 0");
      }
      m.attempted = attempted_before;
      m.failed = failed_before;
    }
    const bool have_both_kinds = !options.trace || pass >= 1;
    if (have_both_kinds && m.untraced_s + m.traced_s >= options.seconds) {
      break;
    }
  }
  if (options.trace) {
    workload.ReportLayers(m);
  }
  return m;
}

Testbed AssembleTestbed(zombie::Bytes buff_size, zombie::Bytes server_memory, bool materialize) {
  const std::int64_t t0 = NowNs();
  zombie::cloud::RackConfig config;
  config.buff_size = buff_size;
  config.materialize_memory = materialize;
  Testbed bed;
  bed.rack = std::make_unique<zombie::cloud::Rack>(config);
  const auto profile = zombie::acpi::MachineProfile::HpCompaqElite8300();
  const zombie::cloud::ServerCapacity capacity{8, server_memory};
  zombie::cloud::Rack& rack = *bed.rack;
  rack.AddServer("ctr", profile, capacity).set_role(zombie::cloud::Role::kGlobalController);
  rack.AddServer("ctr2", profile, capacity).set_role(zombie::cloud::Role::kSecondaryController);
  zombie::cloud::Server& user = rack.AddServer("user", profile, capacity);
  user.set_role(zombie::cloud::Role::kUser);
  bed.user = user.id();
  bed.zombie = rack.AddServer("zombie", profile, capacity).id();
  const std::int64_t t1 = NowNs();
  const zombie::Status pushed = rack.PushToZombie(bed.zombie);
  bed.assemble_ns = t1 - t0;
  bed.push_ns = NowNs() - t1;
  if (!pushed.ok()) {
    bed.rack.reset();
  }
  return bed;
}

bool SameStats(const zombie::hv::PagerStats& a, const zombie::hv::PagerStats& b) {
  return a.accesses == b.accesses && a.faults == b.faults && a.major_faults == b.major_faults &&
         a.evictions == b.evictions && a.writebacks == b.writebacks &&
         a.policy_cycles == b.policy_cycles && a.total_cost == b.total_cost;
}

void AddStats(zombie::hv::PagerStats& total, const zombie::hv::PagerStats& more) {
  total.accesses += more.accesses;
  total.faults += more.faults;
  total.major_faults += more.major_faults;
  total.evictions += more.evictions;
  total.writebacks += more.writebacks;
  total.policy_cycles += more.policy_cycles;
  total.total_cost += more.total_cost;
}

std::map<std::string, double> PagerCounts(const zombie::hv::PagerStats& total) {
  const auto count = [](std::uint64_t n) { return static_cast<double>(n); };
  return {
      {"hv.faults", count(total.faults)},
      {"hv.major_faults", count(total.major_faults)},
      {"hv.evictions", count(total.evictions)},
      {"hv.writebacks", count(total.writebacks)},
      {"hv.fault_rate", total.FaultRate()},
      {"hv.policy_cycles_per_fault",
       total.faults == 0 ? 0.0 : count(total.policy_cycles) / count(total.faults)},
  };
}

double PeakRssMb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec, so
  // it would report the launching process's peak when that one was larger.
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) {
    return 0.0;
  }
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) {
      break;
    }
  }
  std::fclose(status);
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace perfbench
