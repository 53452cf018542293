// Unit tests for the benchmark's own code: percentile selection, the pass
// loop's operation accounting and the zombie_lend read-back checks.  Build and run:
//
//   cmake --build .bench_build/perfbench --target perfbench_test
//   .bench_build/perfbench/perfbench_test
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <map>
#include <numeric>
#include <span>
#include <vector>

#include "bench.h"
#include "page_model.h"
#include "src/common/result.h"

namespace perfbench {
namespace {

int g_failures = 0;

#define CHECK(cond)                                                  \
  do {                                                               \
    if (!(cond)) {                                                   \
      std::printf("%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                  \
    }                                                                \
  } while (0)

std::vector<double> Ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  // Reverse so the selection cannot rely on sorted input.
  return std::vector<double>(v.rbegin(), v.rend());
}

void TestMedian() {
  CHECK(Median({}) == 0.0);
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestTailNeedsTenSamplesBeyond() {
  // 1000 samples: p99 has exactly 10 beyond.
  Tail tail = SelectTail(Ramp(1000));
  CHECK(tail.percentile == 99.0);
  CHECK(tail.value == 990.0);
  CHECK(tail.beyond == 10);
  CHECK(tail.samples == 1000);

  // 999 samples: p99's rank is 990 with only 9 beyond -> falls to p90.
  tail = SelectTail(Ramp(999));
  CHECK(tail.percentile == 90.0);
  CHECK(tail.value == 900.0);
  CHECK(tail.beyond == 99);

  // 100000 samples: the ladder tops out at p99, however many lie beyond.
  tail = SelectTail(Ramp(100000));
  CHECK(tail.percentile == 99.0);
  CHECK(tail.value == 99000.0);
  CHECK(tail.beyond == 1000);

  // 20 samples: only the median qualifies; 19 samples: nothing does.
  tail = SelectTail(Ramp(20));
  CHECK(tail.percentile == 50.0);
  CHECK(tail.beyond == 10);
  tail = SelectTail(Ramp(19));
  CHECK(tail.percentile == 0.0);
  CHECK(tail.samples == 19);
}

void TestReservoirKeepsAUniformSample() {
  SampleReservoir small;
  for (int i = 0; i < 100; ++i) {
    small.Add(i);
  }
  CHECK(small.seen() == 100);
  CHECK(small.Samples().size() == 100);
  CHECK(Median(small.Samples()) == 49.5);

  // Past capacity it keeps kCapacity values, spread over the whole stream.
  SampleReservoir big;
  const std::size_t n = 4 * SampleReservoir::kCapacity;
  for (std::size_t i = 0; i < n; ++i) {
    big.Add(static_cast<double>(i));
  }
  CHECK(big.seen() == n);
  const std::vector<double> kept = big.Samples();
  CHECK(kept.size() == SampleReservoir::kCapacity);
  const double median = Median(kept);
  CHECK(median > 0.48 * static_cast<double>(n) && median < 0.52 * static_cast<double>(n));
}

// An in-memory extent whose reads can be made to misbehave.
class FakeExtent {
 public:
  enum class ReadMode { kFaithful, kCorruptByte, kLeaveUntouched, kFail, kServeOldVersion };

  zombie::Result<zombie::Duration> WritePage(std::uint64_t page,
                                             std::span<const std::byte> data) {
    old_[page] = pages_[page];
    pages_[page].assign(data.begin(), data.end());
    return zombie::Duration{1};
  }
  zombie::Result<zombie::Duration> ReadPage(std::uint64_t page, std::span<std::byte> out) {
    if (mode == ReadMode::kFail) {
      return zombie::Status(zombie::ErrorCode::kUnavailable, "injected");
    }
    if (mode == ReadMode::kLeaveUntouched) {
      return zombie::Duration{1};
    }
    const auto& source = mode == ReadMode::kServeOldVersion ? old_[page] : pages_[page];
    std::vector<std::byte> bytes = source;
    bytes.resize(out.size(), std::byte{0});  // never-written pages read as zeros
    if (mode == ReadMode::kCorruptByte) {
      bytes[123] ^= std::byte{0x01};
    }
    std::copy(bytes.begin(), bytes.end(), out.begin());
    return zombie::Duration{1};
  }

  ReadMode mode = ReadMode::kFaithful;

 private:
  std::map<std::uint64_t, std::vector<std::byte>> pages_;
  std::map<std::uint64_t, std::vector<std::byte>> old_;
};

void TestReadBackChecks() {
  FakeExtent extent;
  PageModel model(/*seed=*/7, /*pages=*/16);
  std::vector<std::byte> buf(kPageBytes);
  OpLedger ledger;

  // Never written: zeros are the bytes "last written".
  CHECK(ReadAndVerify(extent, model, 3, buf) == ReadCheck::kOk);

  CHECK(WriteNextVersion(extent, model, 5, buf));
  CHECK(WriteNextVersion(extent, model, 5, buf));
  CHECK(model.version(5) == 2);
  CHECK(ReadAndVerify(extent, model, 5, buf) == ReadCheck::kOk);

  // A corrupted read-back is a failed operation.
  extent.mode = FakeExtent::ReadMode::kCorruptByte;
  const ReadCheck corrupt = ReadAndVerify(extent, model, 5, buf);
  CHECK(corrupt == ReadCheck::kWrong);
  ledger.Record(corrupt == ReadCheck::kOk);
  CHECK(ledger.attempted == 1);
  CHECK(ledger.failed == 1);

  // An older version of the page is wrong too.
  extent.mode = FakeExtent::ReadMode::kServeOldVersion;
  CHECK(ReadAndVerify(extent, model, 5, buf) == ReadCheck::kWrong);

  // An OK status with the buffer left untouched is stale, and failed.
  extent.mode = FakeExtent::ReadMode::kLeaveUntouched;
  const ReadCheck stale = ReadAndVerify(extent, model, 5, buf);
  CHECK(stale == ReadCheck::kStale);
  ledger.Record(stale == ReadCheck::kOk);
  CHECK(ledger.failed == 2);

  extent.mode = FakeExtent::ReadMode::kFail;
  CHECK(ReadAndVerify(extent, model, 5, buf) == ReadCheck::kError);

  extent.mode = FakeExtent::ReadMode::kFaithful;
  CHECK(ReadAndVerify(extent, model, 5, buf) == ReadCheck::kOk);
  ledger.Record(true);
  CHECK(ledger.attempted == 3);
  CHECK(ledger.failed == 2);
}

// A workload whose passes each take one second of timed work and record
// `attempted` operations, `failed` of them failed; pass `odd_pass` fails one
// more.
class CountingWorkload : public Workload {
 public:
  CountingWorkload(std::uint64_t attempted, std::uint64_t failed, int odd_pass)
      : attempted_(attempted), failed_(failed), odd_pass_(odd_pass) {}

  PassStats RunPass(Measurement& m, SpanLog*) override {
    m.attempted += attempted_;
    m.failed += failed_ + (passes_++ == odd_pass_ ? 1 : 0);
    PassStats stats;
    stats.timed_s = 1.0;
    stats.ops = attempted_;
    return stats;
  }
  void ReportLayers(Measurement&) const override {}

  int passes() const { return passes_; }

 private:
  std::uint64_t attempted_;
  std::uint64_t failed_;
  int odd_pass_;
  int passes_ = 0;
};

void TestAttemptedAndFailedDescribeOnePass() {
  RunOptions options;
  options.seconds = 3.0;
  SpanLog spans;

  // However many passes the run makes, the same seeded passes report the
  // same attempted and failed.
  CountingWorkload steady(/*attempted=*/100, /*failed=*/7, /*odd_pass=*/-1);
  const Measurement m = Drive(steady, options, spans);
  CHECK(steady.passes() == 3);
  CHECK(m.attempted == 100);
  CHECK(m.failed == 7);
  CHECK(m.untraced_ops == 300);
  CHECK(m.errors.empty());

  // A pass that fails differently from pass 0 makes the run incorrect.
  CountingWorkload drifting(/*attempted=*/100, /*failed=*/7, /*odd_pass=*/2);
  const Measurement d = Drive(drifting, options, spans);
  CHECK(d.attempted == 100);
  CHECK(d.failed == 7);
  CHECK(d.errors.size() == 1);
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestMedian();
  perfbench::TestTailNeedsTenSamplesBeyond();
  perfbench::TestReservoirKeepsAUniformSample();
  perfbench::TestReadBackChecks();
  perfbench::TestAttemptedAndFailedDescribeOnePass();
  if (perfbench::g_failures != 0) {
    std::printf("%d check(s) failed\n", perfbench::g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
