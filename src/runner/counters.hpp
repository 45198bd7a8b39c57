// Named counter registry: the one place a per-run counter is declared.
//
// Eight PRs of counters (diff/push/futex/send-call/fault columns) were
// each hand-threaded through Transport -> Endpoint -> ProcReport ->
// RunResult -> bench Row -> JSON -> bench_scale: six copies of every
// name, and a seventh edit for each aggregation. This registry replaces
// the per-field plumbing with one declaration row per counter — its
// JSON key, producing layer, and aggregation — and one fixed-size
// trivially-copyable Block that flows through the report pipe, the
// run-level aggregation, and the bench rows generically. Adding a
// counter is one enum entry plus one kRegistry row; everything between
// the producer and BENCH_results.json is untouched. The DSM has no other
// counters: each tmk::Runtime bumps one Block where the events happen
// and folds it into its rank's report at shutdown.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <type_traits>

namespace runner::ctr {

/// Which layer of the stack produces the counter. Host counters are
/// host syscall and wake costs (they vary with the host schedule); DSM
/// counters are protocol observables, computed above the transport.
/// The JSON writer groups columns by layer, preserving the historical
/// key order.
enum class Layer : std::uint8_t { kHost, kDsm };

/// How per-rank values combine into the run-level total.
enum class Agg : std::uint8_t { kSum, kMax };

enum class Id : std::uint8_t {
  kHostSendCalls,   // transport publishes (doorbell bumps)
  kHostFutexWakes,  // send-side FUTEX_WAKE syscalls
  kHostMprotectCalls,  // mprotect syscalls on the DSM heap
  kDiffRequests,    // diff pull round trips
  kDiffReplies,
  kDiffPush,        // barrier-time pushed diffs (TMK_UPDATE_MODE)
  kPushHits,
  kPushWaste,
  kPageFaults,      // SIGSEGV faults taken
  kRaceReports,     // TMK_RACE_REPORT lines emitted (TMK_RACECHECK)
  kRaceReportsDropped,  // reports past TMK_RACECHECK_MAX_REPORTS
  kIntervalsReclaimed,  // interval records freed by epoch GC
  kProtocolRssBytes,    // peak per-rank protocol-state footprint
  kTwinsCreated,        // twins taken by write faults (a pristine
                        // page's twin is the zero page, not a copy)
  kDiffsCreated,        // diffs encoded (lazy flushes)
  kDiffBytesCreated,    // encoded bytes of those diffs
  kDiffsFetched,        // diff records received in fetch replies
  kCount,
};

inline constexpr std::size_t kCount = static_cast<std::size_t>(Id::kCount);

struct Desc {
  Id id;
  std::string_view json_key;  // BENCH_results.json / bench_scale column
  Layer layer;
  Agg agg;
};

inline constexpr std::array<Desc, kCount> kRegistry = {{
    {Id::kHostSendCalls, "host_send_calls", Layer::kHost, Agg::kSum},
    {Id::kHostFutexWakes, "host_futex_wakes", Layer::kHost, Agg::kSum},
    {Id::kHostMprotectCalls, "host_mprotect_calls", Layer::kHost, Agg::kSum},
    {Id::kDiffRequests, "diff_requests", Layer::kDsm, Agg::kSum},
    {Id::kDiffReplies, "diff_replies", Layer::kDsm, Agg::kSum},
    {Id::kDiffPush, "diff_push", Layer::kDsm, Agg::kSum},
    {Id::kPushHits, "push_hits", Layer::kDsm, Agg::kSum},
    {Id::kPushWaste, "push_waste", Layer::kDsm, Agg::kSum},
    {Id::kPageFaults, "page_faults", Layer::kDsm, Agg::kSum},
    {Id::kRaceReports, "race_reports", Layer::kDsm, Agg::kSum},
    {Id::kRaceReportsDropped, "race_reports_dropped", Layer::kDsm, Agg::kSum},
    {Id::kIntervalsReclaimed, "intervals_reclaimed", Layer::kDsm, Agg::kSum},
    {Id::kProtocolRssBytes, "protocol_rss_bytes", Layer::kDsm, Agg::kMax},
    {Id::kTwinsCreated, "twins_created", Layer::kDsm, Agg::kSum},
    {Id::kDiffsCreated, "diffs_created", Layer::kDsm, Agg::kSum},
    {Id::kDiffBytesCreated, "diff_bytes_created", Layer::kDsm, Agg::kSum},
    {Id::kDiffsFetched, "diffs_fetched", Layer::kDsm, Agg::kSum},
}};

consteval bool registry_matches_enum() {
  for (std::size_t i = 0; i < kCount; ++i)
    if (static_cast<std::size_t>(kRegistry[i].id) != i) return false;
  return true;
}
static_assert(registry_matches_enum(),
              "kRegistry rows must appear in Id order");

/// Fixed-size value block, indexed by Id. Trivially copyable so it can
/// ride the ProcReport result pipe unchanged.
struct Block {
  std::array<std::uint64_t, kCount> v{};

  [[nodiscard]] std::uint64_t& operator[](Id id) noexcept {
    return v[static_cast<std::size_t>(id)];
  }
  [[nodiscard]] const std::uint64_t& operator[](Id id) const noexcept {
    return v[static_cast<std::size_t>(id)];
  }

  /// Folds one rank's block into a run-level total, honoring each
  /// counter's declared aggregation.
  void accumulate(const Block& rank) noexcept {
    for (const Desc& d : kRegistry) {
      std::uint64_t& dst = (*this)[d.id];
      const std::uint64_t src = rank[d.id];
      switch (d.agg) {
        case Agg::kSum: dst += src; break;
        case Agg::kMax: dst = dst > src ? dst : src; break;
      }
    }
  }
};
static_assert(std::is_trivially_copyable_v<Block>);

}  // namespace runner::ctr
