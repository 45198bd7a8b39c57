// Lock-free single-producer single-consumer datagram ring over raw
// (shared) memory — the building block of the ring mesh (transport.hpp).
//
// One ring carries framed datagrams in ONE direction between ONE
// producing thread and ONE consuming thread; the mesh keeps a ring
// per (src, dst, lane, sending-thread) so every ring is strictly SPSC
// and needs no locks. The control words and the data bytes live in a
// MAP_SHARED region; the ring object itself is a per-process non-owning
// view.
//
// Record layout (8-byte aligned within the ring):
//   [u32 chunk_len][u32 unused][FrameHeader][payload, padded to 8]
// A chunk_len of kWrapMarker means "skip to the start of the ring":
// records never straddle the wrap boundary, so header and payload are
// always contiguous and can be handed to the consumer as one span.
//
// Cursors are free-running 32-bit offsets (capacity a power of two, so
// unsigned wraparound composes with masking). `head` doubles as the
// futex word a blocked producer sleeps on; the consumer wakes it only
// when `writer_waiting` is set, keeping the steady-state pop path
// syscall-free. The producer's sleep carries a short timeout as a
// belt-and-suspenders against the (benign, rare) flag race — a missed
// wake costs one bounded re-check, never a hang.
#pragma once

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/check.hpp"
#include "mpl/frame.hpp"

namespace mpl {

namespace detail {

/// FUTEX_WAIT on a shared-memory word (no _PRIVATE: waiters and wakers
/// are different processes). Returns on wake, value mismatch, signal,
/// or timeout.
inline void futex_wait(const std::atomic<std::uint32_t>* addr,
                       std::uint32_t expected, int timeout_ms) noexcept {
  timespec ts{};
  timespec* tsp = nullptr;
  if (timeout_ms >= 0) {
    ts.tv_sec = timeout_ms / 1000;
    ts.tv_nsec = (timeout_ms % 1000) * 1'000'000L;
    tsp = &ts;
  }
  (void)syscall(SYS_futex, addr, FUTEX_WAIT, expected, tsp, nullptr, 0);
}

inline void futex_wake(const std::atomic<std::uint32_t>* addr,
                       int nwaiters) noexcept {
  (void)syscall(SYS_futex, addr, FUTEX_WAKE, nwaiters, nullptr, nullptr, 0);
}

}  // namespace detail

/// Shared-memory control block of one ring. Zero-initialized memory is
/// a valid empty ring. Consumer-written and producer-written words sit
/// on separate cache lines.
struct RingCtrl {
  alignas(64) std::atomic<std::uint32_t> head{0};  // consumer cursor
  std::atomic<std::uint32_t> writer_waiting{0};
  alignas(64) std::atomic<std::uint32_t> tail{0};  // producer cursor
};
static_assert(sizeof(RingCtrl) == 128);

class SpscRing {
 public:
  static constexpr std::uint32_t kWrapMarker = 0xffffffffu;
  static constexpr std::uint32_t kRecordHeader = 8;  // u32 len + u32 pad

  /// Bytes a datagram of `chunk_len` payload occupies in the ring.
  [[nodiscard]] static constexpr std::uint32_t record_bytes(
      std::uint32_t chunk_len) noexcept {
    return (kRecordHeader + static_cast<std::uint32_t>(sizeof(FrameHeader)) +
            chunk_len + 7u) &
           ~7u;
  }

  /// Smallest power-of-two capacity that guarantees an EMPTY ring can
  /// accept a datagram of `max_chunk` payload at every cursor offset.
  /// Records never straddle the wrap, so a push may need to burn up to
  /// (record - 8) trailing bytes with a wrap marker before placing the
  /// record at the start: the worst case costs just under two records.
  /// With less capacity than this, a maximum-size push can fail forever
  /// at an unlucky offset — a wedged channel, not mere backpressure.
  [[nodiscard]] static constexpr std::uint32_t min_capacity(
      std::size_t max_chunk) noexcept {
    const std::uint32_t need =
        2 * record_bytes(static_cast<std::uint32_t>(max_chunk));
    std::uint32_t cap = 1;
    while (cap < need) cap <<= 1;
    return cap;
  }

  SpscRing() = default;
  SpscRing(RingCtrl* ctrl, std::byte* data, std::uint32_t capacity) noexcept
      : ctrl_(ctrl), data_(data), cap_(capacity), mask_(capacity - 1) {}

  [[nodiscard]] RingCtrl* ctrl() const noexcept { return ctrl_; }
  [[nodiscard]] std::uint32_t capacity() const noexcept { return cap_; }

  // ---- producer side (one thread) ------------------------------------

  /// Enqueues one datagram; false when the ring lacks space (consumer
  /// has not caught up). Never blocks.
  bool try_push(const FrameHeader& h,
                std::span<const std::byte> chunk) noexcept {
    const bool ok = stage(h, chunk);
    publish();
    return ok;
  }

  /// Writes one datagram into the ring WITHOUT making it visible to the
  /// consumer: the tail store is deferred until publish(). A run of
  /// stage() calls followed by one publish() hands the consumer the
  /// whole run with a single release store — which is how the transport
  /// rings its doorbell once per message instead of once per chunk.
  /// False when the ring lacks space for this record (anything already
  /// staged stays staged; the caller decides whether to publish it).
  bool stage(const FrameHeader& h, std::span<const std::byte> chunk) noexcept {
    if (!staging_) {
      staged_tail_ = ctrl_->tail.load(std::memory_order_relaxed);
      staging_ = true;
    }
    const auto len = static_cast<std::uint32_t>(chunk.size());
    const std::uint32_t rec = record_bytes(len);
    const std::uint32_t head = ctrl_->head.load(std::memory_order_acquire);
    std::uint32_t tail = staged_tail_;
    std::uint32_t free = cap_ - (tail - head);
    std::uint32_t pos = tail & mask_;
    const std::uint32_t contig = cap_ - pos;
    if (contig < rec) {
      // Record would straddle the end: burn the remainder with a wrap
      // marker (there are always >= 8 contiguous bytes here, as every
      // cursor advance is a multiple of 8).
      if (free < contig + rec) return false;
      std::uint32_t marker = kWrapMarker;
      std::memcpy(data_ + pos, &marker, sizeof(marker));
      tail += contig;
      free -= contig;
      pos = 0;
    }
    if (free < rec) return false;
    std::memcpy(data_ + pos, &len, sizeof(len));
    std::memcpy(data_ + pos + kRecordHeader, &h, sizeof(h));
    if (len > 0)
      std::memcpy(data_ + pos + kRecordHeader + sizeof(FrameHeader),
                  chunk.data(), len);
    staged_tail_ = tail + rec;
    return true;
  }

  /// Makes every staged record visible to the consumer with one release
  /// store of the tail. No-op when nothing is staged.
  void publish() noexcept {
    if (!staging_) return;
    if (staged_tail_ != ctrl_->tail.load(std::memory_order_relaxed))
      ctrl_->tail.store(staged_tail_, std::memory_order_release);
    staging_ = false;
  }

  /// True when stage() has written records the consumer cannot yet see.
  [[nodiscard]] bool has_staged() const noexcept {
    return staging_ &&
           staged_tail_ != ctrl_->tail.load(std::memory_order_relaxed);
  }

  /// Blocks (futex on `head`) until the consumer has advanced past the
  /// cursor observed by the last failed try_push, or ~`timeout_ms`.
  /// Internally capped so a lost wake degrades to a bounded re-check.
  void wait_space(int timeout_ms) noexcept {
    constexpr int kMaxWaitMs = 10;
    const int t = (timeout_ms < 0 || timeout_ms > kMaxWaitMs) ? kMaxWaitMs
                                                              : timeout_ms;
    const std::uint32_t head = ctrl_->head.load(std::memory_order_acquire);
    ctrl_->writer_waiting.store(1, std::memory_order_seq_cst);
    if (ctrl_->head.load(std::memory_order_seq_cst) == head)
      detail::futex_wait(&ctrl_->head, head, t);
    ctrl_->writer_waiting.store(0, std::memory_order_relaxed);
  }

  // ---- consumer side (one thread) ------------------------------------

  [[nodiscard]] bool empty() const noexcept {
    return ctrl_->tail.load(std::memory_order_acquire) ==
           ctrl_->head.load(std::memory_order_relaxed);
  }

  /// Pops every ready datagram, invoking `sink(header, chunk)` with a
  /// span into the ring (valid only during the call; the slot is
  /// released right after). Returns the number of datagrams consumed.
  template <typename Sink>
  std::size_t drain(const Sink& sink) {
    const std::uint32_t tail = ctrl_->tail.load(std::memory_order_acquire);
    std::uint32_t head = ctrl_->head.load(std::memory_order_relaxed);
    std::size_t popped = 0;
    while (head != tail) {
      std::uint32_t pos = head & mask_;
      std::uint32_t len;
      std::memcpy(&len, data_ + pos, sizeof(len));
      if (len == kWrapMarker) {
        head += cap_ - pos;
        ctrl_->head.store(head, std::memory_order_release);
        continue;
      }
      FrameHeader h;
      std::memcpy(&h, data_ + pos + kRecordHeader, sizeof(h));
      COMMON_CHECK_MSG(h.chunk_len == len, "shm ring record corrupted");
      sink(h, std::span<const std::byte>(
                  data_ + pos + kRecordHeader + sizeof(FrameHeader), len));
      head += record_bytes(len);
      // Publish per record, not per batch, so a producer blocked on a
      // full ring sees space as soon as it exists.
      ctrl_->head.store(head, std::memory_order_release);
      ++popped;
    }
    if (popped > 0 &&
        ctrl_->writer_waiting.load(std::memory_order_seq_cst) != 0)
      detail::futex_wake(&ctrl_->head, 1);
    return popped;
  }

 private:
  RingCtrl* ctrl_ = nullptr;
  std::byte* data_ = nullptr;
  std::uint32_t cap_ = 0;
  std::uint32_t mask_ = 0;
  // Producer-local staging cursor (not in shared memory: only the single
  // producing thread reads it, and the consumer must not see staged
  // records until publish()).
  std::uint32_t staged_tail_ = 0;
  bool staging_ = false;
};

}  // namespace mpl
