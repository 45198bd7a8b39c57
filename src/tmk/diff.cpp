#include "tmk/diff.hpp"

#include <bit>
#include <cstring>

#include "common/check.hpp"

namespace tmk {

namespace {

struct RunHeader {
  std::uint16_t offset_words;
  std::uint16_t len_words;
};
static_assert(sizeof(RunHeader) == 4);

// The 64-bit block scan splits each u64 into its low/high 32-bit words
// positionally; the wire format stays host-order (single-host mesh), but
// the low-half-first mapping below assumes little-endian hosts.
static_assert(std::endian::native == std::endian::little,
              "diff block scan assumes little-endian word order");

constexpr std::size_t kU64PerPage = common::kPageSize / sizeof(std::uint64_t);
constexpr std::size_t kU64PerBlock = 8;  // 64-byte compare blocks

// Maximum number of runs: every second word changed.
constexpr std::size_t kMaxRuns = kWordsPerPage / 2;

}  // namespace

void make_diff_into(const std::byte* twin, const std::byte* current,
                    std::vector<std::byte>& out) {
  out.clear();
  if (out.capacity() < kMaxDiffBytes) out.reserve(kMaxDiffBytes);

  // Pass 1: find the changed-word runs. A 64-byte block compare
  // (vectorized by libc) skips unchanged blocks — the overwhelmingly
  // common case for sparse writers and the whole page for an unchanged
  // one; only mismatching blocks are examined word by word, as u64
  // pairs with the open run held in registers.
  RunHeader runs[kMaxRuns + 1];
  std::size_t nruns = 0;
  std::size_t payload_words = 0;
  std::uint32_t open_off = 0;  // first word of the open run
  std::uint32_t open_len = 0;  // 0 = no open run

  const auto close_run = [&] {
    if (open_len != 0) {
      runs[nruns].offset_words = static_cast<std::uint16_t>(open_off);
      runs[nruns].len_words = static_cast<std::uint16_t>(open_len);
      ++nruns;
      payload_words += open_len;
      open_len = 0;
    }
  };

  constexpr std::size_t kBlockBytes = kU64PerBlock * sizeof(std::uint64_t);
  const auto load_xor = [&](std::size_t k) {
    std::uint64_t tv;
    std::uint64_t cv;
    std::memcpy(&tv, twin + k * sizeof(std::uint64_t), sizeof(tv));
    std::memcpy(&cv, current + k * sizeof(std::uint64_t), sizeof(cv));
    return tv ^ cv;
  };

  std::size_t b = 0;  // block-aligned u64 cursor
  while (b < kU64PerPage) {
    // Let libc's vectorized compare skip clean 64-byte blocks — the
    // overwhelmingly common case for sparse writers.
    if (std::memcmp(twin + b * sizeof(std::uint64_t),
                    current + b * sizeof(std::uint64_t), kBlockBytes) == 0) {
      b += kU64PerBlock;
      continue;
    }
    std::size_t q = b;
    std::size_t end = b + kU64PerBlock;
    while (q < end) {
      const std::uint64_t x = load_xor(q);
      if (x == 0) {
        ++q;
        continue;
      }
      const auto w0 = static_cast<std::uint32_t>(q * 2);
      // Little endian: the low half of the u64 is word w0. A run covers
      // 1 word (one half changed) or starts/extends by 2 (both halves).
      const std::uint32_t lo = static_cast<std::uint32_t>(x) != 0;
      const std::uint32_t hi = (x >> 32) != 0;
      const std::uint32_t w = w0 + (1 - lo);
      const std::uint32_t n = lo + hi;
      if (open_len != 0 && open_off + open_len == w) {
        open_len += n;
      } else {
        close_run();
        open_off = w;
        open_len = n;
      }
      ++q;
      if (lo & hi) {
        // Inside a rewritten region: greedily consume fully-changed
        // u64s with a tight loop (crossing block boundaries); the first
        // partial/clean u64 falls back to the generic handling above,
        // finishing out its block before memcmp skipping resumes.
        while (q < kU64PerPage) {
          const std::uint64_t y = load_xor(q);
          if (static_cast<std::uint32_t>(y) == 0 || (y >> 32) == 0) break;
          open_len += 2;
          ++q;
        }
        end = std::min(kU64PerPage,
                       (q + kU64PerBlock - 1) & ~(kU64PerBlock - 1));
      }
    }
    b = end;
  }
  close_run();
  if (nruns == 0) return;

  // Pass 2: single exact-size resize (never reallocates: capacity is at
  // least kMaxDiffBytes), then bulk-copy headers and payload runs.
  const std::size_t total =
      nruns * sizeof(RunHeader) + payload_words * kDiffWord;
  COMMON_CHECK(total <= kMaxDiffBytes);
  out.resize(total);
  std::byte* p = out.data();
  for (std::size_t r = 0; r < nruns; ++r) {
    std::memcpy(p, &runs[r], sizeof(RunHeader));
    p += sizeof(RunHeader);
    const std::size_t bytes =
        static_cast<std::size_t>(runs[r].len_words) * kDiffWord;
    std::memcpy(p, current + runs[r].offset_words * kDiffWord, bytes);
    p += bytes;
  }
}

std::vector<std::byte> make_diff(const std::byte* twin,
                                 const std::byte* current) {
  std::vector<std::byte> out;
  make_diff_into(twin, current, out);
  return out;
}

RaceMask changed_word_mask(const std::byte* twin, const std::byte* current) {
  static_assert(RaceMask::kWordBytes == kDiffWord,
                "race masks must use the diff-word granularity");
  RaceMask mask;
  for (std::size_t q = 0; q < kU64PerPage; ++q) {
    std::uint64_t a;
    std::uint64_t b;
    std::memcpy(&a, twin + q * sizeof(std::uint64_t), sizeof(a));
    std::memcpy(&b, current + q * sizeof(std::uint64_t), sizeof(b));
    const std::uint64_t x = a ^ b;
    if (x == 0) continue;
    // Little endian, as in make_diff_into: the low half of u64 q is
    // diff word 2q, the high half word 2q + 1.
    const std::size_t w0 = q * 2;
    if (static_cast<std::uint32_t>(x) != 0)
      mask.v[w0 / 64] |= std::uint64_t{1} << (w0 % 64);
    if ((x >> 32) != 0)
      mask.v[(w0 + 1) / 64] |= std::uint64_t{1} << ((w0 + 1) % 64);
  }
  return mask;
}

void apply_diff(std::span<const std::byte> diff, std::byte* target) {
  std::size_t pos = 0;
  while (pos < diff.size()) {
    COMMON_CHECK_MSG(pos + sizeof(RunHeader) <= diff.size(),
                     "truncated diff run header");
    RunHeader h;
    std::memcpy(&h, diff.data() + pos, sizeof(h));
    pos += sizeof(h);
    const std::size_t bytes = static_cast<std::size_t>(h.len_words) * kDiffWord;
    COMMON_CHECK_MSG(h.offset_words + h.len_words <= kWordsPerPage,
                     "diff run exceeds page");
    COMMON_CHECK_MSG(pos + bytes <= diff.size(), "truncated diff payload");
    std::memcpy(target + static_cast<std::size_t>(h.offset_words) * kDiffWord,
                diff.data() + pos, bytes);
    pos += bytes;
  }
}

std::size_t diff_payload_bytes(std::span<const std::byte> diff) {
  std::size_t pos = 0;
  std::size_t total = 0;
  while (pos < diff.size()) {
    RunHeader h;
    COMMON_CHECK(pos + sizeof(h) <= diff.size());
    std::memcpy(&h, diff.data() + pos, sizeof(h));
    const std::size_t bytes = static_cast<std::size_t>(h.len_words) * kDiffWord;
    pos += sizeof(h) + bytes;
    total += bytes;
  }
  COMMON_CHECK(pos == diff.size());
  return total;
}

}  // namespace tmk
