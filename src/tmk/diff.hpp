// Twin/diff machinery (§2.2).
//
// "A diff is a runlength encoding of the modifications made to a page,
//  generated by comparing the page to a copy saved prior to the
//  modifications."
//
// Diffs are computed at 32-bit word granularity, like TreadMarks: two
// processors may concurrently modify adjacent 4-byte floats of one page
// (false sharing) and their diffs will merge without clobbering each
// other. Encoded layout: repeated { u16 offset_words; u16 len_words;
// payload bytes } runs, in ascending offset order.
//
// The creation path is the hottest host-side loop in the DSM: it scans
// twin vs. current as 64-bit words in 64-byte blocks directly over the
// page images (no staging copies), sizes the encoding in a first pass,
// and appends into a caller-supplied buffer whose worst-case capacity
// is reserved once — after warm-up, `make_diff_into` performs no
// allocation at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/page.hpp"
#include "tmk/types.hpp"

namespace tmk {

inline constexpr std::size_t kDiffWord = 4;
inline constexpr std::size_t kWordsPerPage = common::kPageSize / kDiffWord;

/// Tight upper bound on the encoded size of one page's diff. With R runs
/// covering W changed words the encoding occupies 4R + 4W bytes, subject
/// to W <= kWordsPerPage and (runs are separated by at least one
/// unchanged word) W + R - 1 <= kWordsPerPage; the maximum of
/// 4R + 4(kWordsPerPage + 1 - R) is attained for every R, giving
/// 4 * (kWordsPerPage + 1). Note this EXCEEDS the page size by one run
/// header: a fully-rewritten page encodes as 4 + 4096 bytes.
inline constexpr std::size_t kMaxDiffBytes = kDiffWord * (kWordsPerPage + 1);
static_assert(kMaxDiffBytes == common::kPageSize + kDiffWord);
static_assert(kMaxDiffBytes > common::kPageSize,
              "worst-case diff exceeds a page; buffers must not assume "
              "kPageSize is enough");

/// Encodes the difference `current - twin` of one page into `out`
/// (cleared first; empty when the page is unchanged). Reserves
/// kMaxDiffBytes on first use of a buffer, so a reused `out` is never
/// reallocated — the allocation-free hot path used by the runtime.
void make_diff_into(const std::byte* twin, const std::byte* current,
                    std::vector<std::byte>& out);

/// Convenience wrapper returning a fresh buffer (tests, one-off callers).
[[nodiscard]] std::vector<std::byte> make_diff(const std::byte* twin,
                                               const std::byte* current);

/// Applies an encoded diff onto `target` (a writable page image).
void apply_diff(std::span<const std::byte> diff, std::byte* target);

/// Word-granular mask of where `current` differs from `twin` — the
/// same twin-vs-page scan make_diff_into performs, reduced to one bit
/// per 4-byte diff word for the race detector's per-interval write masks
/// (types.hpp: RaceMask).
[[nodiscard]] RaceMask changed_word_mask(const std::byte* twin,
                                         const std::byte* current);

/// Number of payload bytes a diff would modify (for stats/tests).
[[nodiscard]] std::size_t diff_payload_bytes(std::span<const std::byte> diff);

}  // namespace tmk
