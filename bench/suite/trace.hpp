// Span store shared by the benchmark process and the ranks it forks.
//
// tmkbench measures every layer from outside, around public calls, so a
// rank's spans are taken inside the forked child and must reach the
// parent. The store is one MAP_SHARED anonymous mapping created before
// the first spawn: every child inherits it and appends spans with one
// atomic slot claim, nothing is written to disk until the benchmark
// ends, and the parent reads the spans back after each spawn returns
// (the runner's report pipe orders the child's stores before the
// parent's reads).
#pragma once

#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <new>
#include <span>
#include <stdexcept>

namespace tmkbench {

/// Every span kind the benchmark records. The probe spans time one
/// unit-cost operation each (a batch of diff operations for the two
/// diff kinds).
enum class SpanName : std::uint16_t {
  kRun,       // one spawn, recorded by the benchmark process
  kSpawn,     // run start -> this rank entered Variant::run
  kRankRun,   // Variant::run on this rank
  kTeardown,  // this rank left Variant::run -> spawn returned
  kWriteFault,
  kReadFault,
  kValidate64,
  kBarrier,
  kBarrierDirty64,
  kPreGcBarrier,
  kGcBarrier,
  kLockAcquire,
  kSpfParallel,
  kRoundtrip64,
  kRoundtrip4k,
  kDiffMake,
  kDiffApply,
};

[[nodiscard]] constexpr const char* to_string(SpanName n) noexcept {
  switch (n) {
    case SpanName::kRun: return "run";
    case SpanName::kSpawn: return "spawn";
    case SpanName::kRankRun: return "rank_run";
    case SpanName::kTeardown: return "teardown";
    case SpanName::kWriteFault: return "probe.write_fault";
    case SpanName::kReadFault: return "probe.read_fault";
    case SpanName::kValidate64: return "probe.validate_64_pages";
    case SpanName::kBarrier: return "probe.barrier";
    case SpanName::kBarrierDirty64: return "probe.barrier_dirty64";
    case SpanName::kPreGcBarrier: return "probe.pre_gc_barrier";
    case SpanName::kGcBarrier: return "probe.gc_barrier";
    case SpanName::kLockAcquire: return "probe.lock_acquire";
    case SpanName::kSpfParallel: return "probe.spf_parallel";
    case SpanName::kRoundtrip64: return "probe.roundtrip_64b";
    case SpanName::kRoundtrip4k: return "probe.roundtrip_4k";
    case SpanName::kDiffMake: return "probe.diff_make_x16";
    case SpanName::kDiffApply: return "probe.diff_apply_x16";
  }
  return "?";
}

// No default member initializers: the store's span array must stay
// untouched (and its pages unallocated) until spans land in it.
struct Span {
  std::uint32_t run;     // run id shared by all spans of one spawn
  SpanName name;
  std::int16_t rank;     // -1 = the benchmark process
  std::uint64_t t0_ns;   // CLOCK_MONOTONIC, comparable across ranks
  std::uint64_t t1_ns;
};

class SharedArea {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 18;
  static constexpr int kMaxRanks = 8;

  /// What a rank leaves behind after Variant::run: its run span (traced
  /// reps only) and its peak resident set.
  struct RankSlot {
    std::atomic<std::uint64_t> start_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
    std::atomic<std::uint64_t> rss_kib{0};
  };

  SharedArea() {
    void* p = mmap(nullptr, sizeof(Layout), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap of span store failed");
    layout_ = new (p) Layout;  // default-init: spans stay untouched
  }
  ~SharedArea() { munmap(layout_, sizeof(Layout)); }
  SharedArea(const SharedArea&) = delete;
  SharedArea& operator=(const SharedArea&) = delete;

  /// Appends one span; spans past the capacity are counted as dropped.
  void record(std::uint32_t run, SpanName name, int rank, std::uint64_t t0,
              std::uint64_t t1) noexcept {
    const std::uint64_t i =
        layout_->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= kMaxSpans) return;
    layout_->spans[i] = Span{run, name, static_cast<std::int16_t>(rank), t0, t1};
  }

  [[nodiscard]] std::span<const Span> spans() const noexcept {
    const std::uint64_t n = layout_->next.load(std::memory_order_relaxed);
    return {layout_->spans, n < kMaxSpans ? n : kMaxSpans};
  }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    const std::uint64_t n = layout_->next.load(std::memory_order_relaxed);
    return n > kMaxSpans ? n - kMaxSpans : 0;
  }

  [[nodiscard]] RankSlot& slot(int rank) noexcept {
    return layout_->slots[rank];
  }
  void clear_slots() noexcept {
    for (RankSlot& s : layout_->slots) {
      s.start_ns.store(0, std::memory_order_relaxed);
      s.end_ns.store(0, std::memory_order_relaxed);
      s.rss_kib.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct Layout {
    std::atomic<std::uint64_t> next{0};
    RankSlot slots[kMaxRanks];
    Span spans[kMaxSpans];
  };
  static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
                "cross-process atomics must be lock-free");
  Layout* layout_ = nullptr;
};

}  // namespace tmkbench
