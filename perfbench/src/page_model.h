// The zombie_lend page model: what every page of a lent extent must hold.
//
// Version 0 of a page is all zeros (lent memory starts zeroed); every write
// stores the page's next version, whose 512 words derive from (seed, page,
// version), so a read-back proves it saw the bytes last written — not an
// older version, not another page, not a buffer the read never touched.
// Before every read the destination buffer is poisoned, which tells a read
// that left the buffer untouched (stale) from one that returned wrong bytes.
#ifndef PERFBENCH_SRC_PAGE_MODEL_H_
#define PERFBENCH_SRC_PAGE_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kPageBytes = 4096;

class PageModel {
 public:
  PageModel(std::uint64_t seed, std::uint64_t pages) : seed_(seed), versions_(pages, 0) {}

  std::uint64_t pages() const { return versions_.size(); }
  std::uint32_t version(std::uint64_t page) const { return versions_[page]; }
  void set_version(std::uint64_t page, std::uint32_t version) { versions_[page] = version; }

  // The bytes of `version` of `page`.
  void Fill(std::uint64_t page, std::uint32_t version, std::span<std::byte> out) const {
    if (version == 0) {
      std::memset(out.data(), 0, out.size());
      return;
    }
    const std::uint64_t base = Base(page, version);
    for (std::size_t i = 0; i < out.size() / sizeof(std::uint64_t); ++i) {
      const std::uint64_t word = base + i * kStep;
      std::memcpy(out.data() + i * sizeof word, &word, sizeof word);
    }
  }

  // True when `got` holds the bytes last written to `page`.
  bool Matches(std::uint64_t page, std::span<const std::byte> got) const {
    const std::uint32_t version = versions_[page];
    const std::uint64_t base = version == 0 ? 0 : Base(page, version);
    const std::uint64_t step = version == 0 ? 0 : kStep;
    std::uint64_t diff = 0;
    for (std::size_t i = 0; i < got.size() / sizeof(std::uint64_t); ++i) {
      std::uint64_t word = 0;
      std::memcpy(&word, got.data() + i * sizeof word, sizeof word);
      diff |= word ^ (base + i * step);
    }
    return diff == 0;
  }

 private:
  static constexpr std::uint64_t kStep = 0x9e3779b97f4a7c15ULL;

  std::uint64_t Base(std::uint64_t page, std::uint32_t version) const {
    std::uint64_t z = seed_ ^ (page * 0xbf58476d1ce4e5b9ULL) ^
                      (static_cast<std::uint64_t>(version) << 40);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;  // splitmix64 finaliser
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  std::uint64_t seed_;
  std::vector<std::uint32_t> versions_;
};

inline constexpr std::byte kPoison{0xa5};

inline void Poison(std::span<std::byte> buf) {
  std::memset(buf.data(), static_cast<int>(kPoison), buf.size());
}

inline bool IsPoisoned(std::span<const std::byte> buf) {
  for (std::byte b : buf) {
    if (b != kPoison) {
      return false;
    }
  }
  return true;
}

enum class ReadCheck {
  kOk,     // the bytes last written
  kStale,  // status OK, but the buffer was never written
  kWrong,  // status OK, other bytes
  kError,  // the read returned an error status
};

// Writes the page's next version through `extent`; the model records it only
// if the write succeeds.  Returns whether it did.
template <class Extent>
bool WriteNextVersion(Extent& extent, PageModel& model, std::uint64_t page,
                      std::span<std::byte> buf) {
  const std::uint32_t next = model.version(page) + 1;
  model.Fill(page, next, buf);
  if (!extent.WritePage(page, buf).ok()) {
    return false;
  }
  model.set_version(page, next);
  return true;
}

// Reads the page through `extent` into a poisoned buffer and checks it.
template <class Extent>
ReadCheck ReadAndVerify(Extent& extent, const PageModel& model, std::uint64_t page,
                        std::span<std::byte> buf) {
  Poison(buf);
  if (!extent.ReadPage(page, buf).ok()) {
    return ReadCheck::kError;
  }
  if (model.Matches(page, buf)) {
    return ReadCheck::kOk;
  }
  return IsPoisoned(buf) ? ReadCheck::kStale : ReadCheck::kWrong;
}

// Verified page operations, attempted and failed.
struct OpLedger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void Record(bool ok) {
    ++attempted;
    failed += ok ? 0 : 1;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_PAGE_MODEL_H_
