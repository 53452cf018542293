// The repo benchmark's shared machinery: run options, host-time timers,
// percentile selection, the in-memory span log of a traced run, and the
// pass loop every workload runs under.
//
// A run repeats identical passes of one workload (same seed, same inputs)
// until `seconds` of timed work have accumulated.  Each pass first builds
// the workload's state (timed as set-up, excluded from throughput), then runs
// the timed phase, then checks the program's outputs.  In a traced run the
// passes alternate untraced / traced: the traced ones time the calls into
// each layer, and the per-op cost difference between the two kinds is the
// tracing overhead.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/cloud/rack.h"
#include "src/hv/pager.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Threads driving the sharded_paging lanes (capped at the core count).
  int lane_threads = 1;
};

inline std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// What one NowNs() reading costs (the median of back-to-back pairs, measured
// once).  A timed interval around a call includes about one reading, so
// timers of calls this short subtract it.
double ClockReadNs();

// Host time spent in the calls across one layer boundary.
struct LayerTimer {
  std::uint64_t calls = 0;
  std::int64_t ns = 0;

  void Add(std::int64_t elapsed_ns) {
    ++calls;
    ns += elapsed_ns;
  }
  void Merge(const LayerTimer& other) {
    calls += other.calls;
    ns += other.ns;
  }
};

// Median of `samples` (mean of the two middle values for an even count);
// 0 for an empty set.
double Median(std::vector<double> samples);

// The tail of a latency distribution: the highest of p99, p90 and p50 that
// has at least kMinBeyond samples strictly beyond its rank, so the reported
// tail always rests on kMinBeyond or more observations.  The ladder stops at
// p99: on a shared host, p99.9 of a multi-second run varied by 30% between
// runs of the same seed, which is the scheduler, not the program.
struct Tail {
  static constexpr std::size_t kMinBeyond = 10;
  double percentile = 0.0;  // 0 when no percentile qualifies
  double value = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
Tail SelectTail(std::vector<double> samples);

// A uniform random sample of at most kCapacity values from a stream
// (Vitter's Algorithm R).  The generator has a fixed seed, so which positions
// are kept depends only on the stream's length.  The storage is allocated
// and touched up front, so the number of calls a run makes does not show in
// peak_rss_mb.
class SampleReservoir {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 17;

  SampleReservoir() : kept_(kCapacity, 0.0) {}

  void Add(double value) {
    if (seen_ < kCapacity) {
      kept_[seen_] = value;
    } else if (const std::uint64_t slot = Next() % (seen_ + 1); slot < kCapacity) {
      kept_[slot] = value;
    }
    ++seen_;
  }
  std::uint64_t seen() const { return seen_; }
  std::vector<double> Samples() const {
    return {kept_.begin(), kept_.begin() + static_cast<std::ptrdiff_t>(
                                               seen_ < kCapacity ? seen_ : kCapacity)};
  }

 private:
  std::uint64_t Next() {  // splitmix64
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  std::uint64_t state_ = 0;
};

// Coarse spans (passes, rows, lanes, set-up steps, episodes) kept in memory
// and written out once, at the end of the run, as Chrome trace-event JSON
// (loadable in Perfetto or chrome://tracing).  Thread-safe: lanes record
// concurrently.  Per-call timings are aggregated in LayerTimers instead, so
// the log stays small however long the run.
class SpanLog {
 public:
  using Id = std::uint32_t;  // 0 = no span (a root has parent 0)

  Id Open(const char* name, Id parent, std::uint32_t lane = 0);
  void Close(Id id);
  std::size_t size() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    Id parent;
    std::uint32_t lane;
    std::int64_t start_ns;
    std::int64_t end_ns;
  };
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // span i has Id i + 1
};

// Opens a span on construction and closes it on destruction; a no-op when
// the log is null (untraced passes).
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const char* name, SpanLog::Id parent, std::uint32_t lane = 0)
      : log_(log), id_(log != nullptr ? log->Open(name, parent, lane) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) {
      log_->Close(id_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  SpanLog::Id id() const { return id_; }

 private:
  SpanLog* log_;
  SpanLog::Id id_;
};

// Everything one run measured.
struct Measurement {
  std::vector<double> setup_s;  // one sample per set-up
  SampleReservoir call_ns;       // entry-point call latencies, untraced passes
  double untraced_s = 0.0;      // timed-phase host seconds, untraced passes
  std::uint64_t untraced_ops = 0;
  double traced_s = 0.0;
  std::uint64_t traced_ops = 0;
  // Operations of one pass (identical for every pass of a run), so the same
  // seed always reports the same attempted and failed.
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Failures outside the workload's recorded known defects; any entry makes
  // the run incorrect.
  std::vector<std::string> errors;
  std::vector<std::string> notes;
  // Simulated counts of one pass (identical for every pass of a run).
  std::map<std::string, double> counts;
  // Per-layer host-time metrics from the traced passes.
  std::map<std::string, double> layers;
};

// What one pass hands back to the pass loop.
struct PassStats {
  double timed_s = 0.0;
  std::uint64_t ops = 0;
  std::map<std::string, double> counts;
};

class Workload {
 public:
  virtual ~Workload() = default;
  // One pass: set-up (appended to m.setup_s), the timed phase, then the
  // output checks (recorded in m.attempted / m.failed / m.errors).  `spans`
  // is null on untraced passes, which must then time nothing but the set-up
  // and the entry-point calls.
  virtual PassStats RunPass(Measurement& m, SpanLog* spans) = 0;
  // Fills m.layers from what the traced passes timed.
  virtual void ReportLayers(Measurement& m) const = 0;
};

std::unique_ptr<Workload> MakePaperPaging(const RunOptions& options);
std::unique_ptr<Workload> MakeShardedPaging(const RunOptions& options);
std::unique_ptr<Workload> MakeServeFlash(const RunOptions& options);
std::unique_ptr<Workload> MakeZombieLend(const RunOptions& options);

// Runs passes of `workload` until options.seconds of timed work have
// accumulated (at least one pass of each kind a traced run needs), checking
// that every pass reproduces the first pass's simulated counts.
Measurement Drive(Workload& workload, const RunOptions& options, SpanLog& spans);

// Peak resident set size of this process, in MB.
double PeakRssMb();

// The Section 6.1 testbed: a global controller, its secondary, one user
// server and one zombie that has lent its memory to the rack pool.
struct Testbed {
  std::unique_ptr<zombie::cloud::Rack> rack;  // null when the zombie push failed
  zombie::remotemem::ServerId user = 0;
  zombie::remotemem::ServerId zombie = 0;
  std::int64_t assemble_ns = 0;  // building the rack and adding its servers
  std::int64_t push_ns = 0;      // Rack::PushToZombie
};
Testbed AssembleTestbed(zombie::Bytes buff_size, zombie::Bytes server_memory, bool materialize);

// True when two pager statistics agree bit for bit.
bool SameStats(const zombie::hv::PagerStats& a, const zombie::hv::PagerStats& b);

// Adds `more` into `total`.
void AddStats(zombie::hv::PagerStats& total, const zombie::hv::PagerStats& more);

// The simulated hv.* counts of summed pager statistics.
std::map<std::string, double> PagerCounts(const zombie::hv::PagerStats& total);

// Milliseconds between two NowNs() readings.
inline double Ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
