// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--lane-threads <n>] [--trace-file <path>]
//
// Every metric is printed by name and unit; the last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
// --trace 0 the metrics are the end-to-end ones, with --trace 1 the
// per-layer ones (plus trace.overhead_frac), and the traced run's spans are
// written to --trace-file.
#include <malloc.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "bench.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// The metric catalog; BENCHMARK.json lists the same names and units.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"throughput_ops_per_s", "1/s"}, {"call_p50_us", "us"},
    {"call_tail_us", "us"}, {"peak_rss_mb", "MB"},           {"ok_ops_frac", "frac"},
};

constexpr MetricDef kPerLayer[] = {
    {"workloads.fill_ns_per_access", "ns/access"},
    {"hv.host_pager.self_ns_per_access", "ns/access"},
    {"hv.guest_pager.self_ns_per_access", "ns/access"},
    {"remotemem.extent.ns_per_call", "ns/call"},
    {"remotemem.extent.write_ns_p50", "ns"},
    {"remotemem.extent.read_ns_p50", "ns"},
    {"remotemem.extent.mirror_read_ns_p50", "ns"},
    {"hv.sharded.lane_ns_per_access", "ns/access"},
    {"hv.sharded.drain_us", "us"},
    {"hv.sharded.lane_wait_frac", "frac"},
    {"hv.fault_batch.round_trips", "count"},
    {"hv.fault_batch.rider_ratio", "frac"},
    {"rdma.ring.acquisitions_per_round_trip", "ratio"},
    {"cloud.rack.assemble_ms", "ms"},
    {"cloud.rack.push_to_zombie_ms", "ms"},
    {"remotemem.alloc_extension_ms", "ms"},
    {"cloud.rack.wake_ms", "ms"},
    {"serve.stream.generate_ms", "ms"},
    {"serve.daemon.us_per_request", "us/request"},
    {"serve.daemon.check_health_ms", "ms"},
    {"hv.faults", "count"},
    {"hv.major_faults", "count"},
    {"hv.evictions", "count"},
    {"hv.writebacks", "count"},
    {"hv.fault_rate", "frac"},
    {"hv.policy_cycles_per_fault", "cycles"},
    {"remotemem.remote_reads", "count"},
    {"remotemem.remote_writes", "count"},
    {"remotemem.mirror_reads", "count"},
    {"rdma.fabric.ops", "count"},
    {"rdma.fabric.bytes", "bytes"},
    {"serve.arrivals", "count"},
    {"serve.placed", "count"},
    {"serve.shed_rate", "frac"},
    {"serve.zombie_wakes", "count"},
    {"serve.slo_violations", "count"},
    {"serve.sim_place_p99_ms", "sim_ms"},
    {"trace.overhead_frac", "frac"},
};

using Factory = std::function<std::unique_ptr<Workload>(const RunOptions&)>;

const std::map<std::string, Factory>& Workloads() {
  static const std::map<std::string, Factory> workloads = {
      {"paper_paging", MakePaperPaging},
      {"sharded_paging", MakeShardedPaging},
      {"serve_flash", MakeServeFlash},
      {"zombie_lend", MakeZombieLend},
  };
  return workloads;
}

// Shortest decimal that round-trips: every digit as measured.
std::string Num(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof buf, value);
  return std::string(buf, result.ptr);
}

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--lane-threads <n>] [--trace-file <path>]\n",
               message);
  return 2;
}

bool ParseU64(std::string_view text, std::uint64_t* out) {
  const auto result = std::from_chars(text.data(), text.data() + text.size(), *out);
  return result.ec == std::errc() && result.ptr == text.data() + text.size();
}

int Main(int argc, char** argv) {
  // Pin glibc's mmap threshold at its initial value.  Left dynamic, it rises
  // once the first pass frees its large regions, and later passes then carve
  // them from the heap: already-touched memory, so their set-up skips the
  // page faults a fresh process pays and peak_rss_mb depends on pass count.
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      return Usage(("bad argument: " + key).c_str());
    }
    args[key.substr(2)] = argv[++i];
  }
  for (const auto& [key, value] : args) {
    if (key != "workload" && key != "seed" && key != "seconds" && key != "trace" &&
        key != "lane-threads" && key != "trace-file") {
      return Usage(("unknown option --" + key).c_str());
    }
  }
  const auto workload = Workloads().find(args["workload"]);
  if (workload == Workloads().end()) {
    return Usage(("unknown workload '" + args["workload"] + "'").c_str());
  }
  RunOptions options;
  std::uint64_t seconds = 0;
  std::uint64_t threads = 1;
  if (!ParseU64(args["seed"], &options.seed) || !ParseU64(args["seconds"], &seconds) ||
      seconds == 0 || (args["trace"] != "0" && args["trace"] != "1") ||
      (args.contains("lane-threads") &&
       (!ParseU64(args["lane-threads"], &threads) || threads == 0 || threads > 1024))) {
    return Usage("--seed, --seconds (> 0), --trace (0|1) and --lane-threads (> 0) are numbers");
  }
  options.seconds = static_cast<double>(seconds);
  options.trace = args["trace"] == "1";
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  options.lane_threads = static_cast<int>(std::min<std::uint64_t>(threads, nproc));

  std::printf("perfbench: workload=%s seed=%llu seconds=%llu trace=%d\n",
              workload->first.c_str(), static_cast<unsigned long long>(options.seed),
              static_cast<unsigned long long>(seconds), options.trace ? 1 : 0);
  std::printf("perfbench: nproc=%u lane_threads=%d (requested %llu) build_type=%s\n", nproc,
              options.lane_threads, static_cast<unsigned long long>(threads),
              PERFBENCH_BUILD_TYPE);
  std::fflush(stdout);

  SpanLog spans;
  const std::unique_ptr<Workload> bench = workload->second(options);
  Measurement m = Drive(*bench, options, spans);
  const double peak_rss_mb = PeakRssMb();

  std::map<std::string, double> values;
  const MetricDef* begin = options.trace ? std::begin(kPerLayer) : std::begin(kEndToEnd);
  const MetricDef* end = options.trace ? std::end(kPerLayer) : std::end(kEndToEnd);
  if (options.trace) {
    values = m.counts;
    values.insert(m.layers.begin(), m.layers.end());
    const double untraced = m.untraced_ops == 0 ? 0.0 : m.untraced_s / m.untraced_ops;
    const double traced = m.traced_ops == 0 ? 0.0 : m.traced_s / m.traced_ops;
    values["trace.overhead_frac"] = untraced == 0.0 ? 0.0 : traced / untraced - 1.0;
    if (args.contains("trace-file")) {
      if (spans.WriteChromeTrace(args["trace-file"])) {
        std::printf("perfbench: %zu spans written to %s\n", spans.size(),
                    args["trace-file"].c_str());
      } else {
        m.errors.push_back("could not write the span log to " + args["trace-file"]);
      }
    }
  } else {
    const std::vector<double> calls = m.call_ns.Samples();
    const Tail tail = SelectTail(calls);
    values["setup_s"] = Median(m.setup_s);
    values["throughput_ops_per_s"] =
        m.untraced_s == 0.0 ? 0.0 : static_cast<double>(m.untraced_ops) / m.untraced_s;
    values["call_p50_us"] = Median(calls) / 1e3;
    values["call_tail_us"] = tail.value / 1e3;
    values["peak_rss_mb"] = peak_rss_mb;
    values["ok_ops_frac"] =
        m.attempted == 0 ? 0.0
                         : static_cast<double>(m.attempted - m.failed) /
                               static_cast<double>(m.attempted);
    std::printf("perfbench: %zu set-ups; %llu calls, %zu sampled; tail = p%g of %zu samples "
                "(%zu beyond)\n",
                m.setup_s.size(), static_cast<unsigned long long>(m.call_ns.seen()),
                calls.size(), tail.percentile, tail.samples, tail.beyond);
  }

  std::vector<std::pair<const MetricDef*, double>> printed;
  for (const MetricDef* def = begin; def != end; ++def) {
    const auto it = values.find(def->name);
    const bool measured = it != values.end();
    double value = measured ? it->second : 0.0;
    if (!std::isfinite(value)) {
      m.errors.push_back(std::string("non-finite value for ") + def->name);
      value = 0.0;
    }
    std::printf("  %-40s %16s %-10s%s\n", def->name, Num(value).c_str(), def->unit,
                measured ? "" : " (not exercised by this workload)");
    printed.emplace_back(def, value);
  }
  const double failed_frac = m.attempted == 0 ? 0.0
                                              : static_cast<double>(m.failed) /
                                                    static_cast<double>(m.attempted);
  std::printf("perfbench: attempted=%llu failed=%llu failed_ops_frac=%s\n",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed), Num(failed_frac).c_str());
  for (const std::string& note : m.notes) {
    std::printf("perfbench: note: %s\n", note.c_str());
  }
  for (const std::string& error : m.errors) {
    std::printf("perfbench: error: %s\n", error.c_str());
  }

  std::string json = "{\"correct\": ";
  json += m.errors.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(m.attempted);
  json += ", \"failed\": " + std::to_string(m.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < printed.size(); ++i) {
    json += std::string(i == 0 ? "" : ", ") + "\"" + printed[i].first->name +
            "\": {\"value\": " + Num(printed[i].second) + ", \"unit\": \"" +
            printed[i].first->unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
