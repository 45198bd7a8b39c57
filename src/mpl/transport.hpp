// The ring mesh: the interconnect under the process mesh.
//
// The Endpoint core (fabric.hpp) owns everything protocol-visible —
// framing, chunking, reassembly, message/byte counters, virtual-clock
// charges. The ring mesh only moves opaque datagram chunks between
// ranks, so the modelled results (message counts, bytes, virtual
// times, checksums) cannot depend on it; only the *host-side* cost of
// moving a chunk lives here. It is two classes:
//
//   Fabric      owns the one region: nprocs^2 * 4 lock-free SPSC byte
//               rings (spsc_ring.hpp), one per (src, dst, lane,
//               sending-thread), plus per-(dst, lane) futex doorbells
//               and a poison bitmask. The runner backend places it:
//               MAP_SHARED, inherited through the process backend's
//               fork (kShm), or process-private, shared by the thread
//               backend's rank threads (kInproc).
//
//   Transport   one rank's non-owning view of that region, built on
//               the rank's main thread. Its steady-state datagram path
//               makes no syscalls — the property Richie et al.'s
//               Epiphany mailbox DSM demonstrates and the reason the
//               modelled high-rank sweeps are affordable.
//
// One publish rule: a sent chunk is staged in its ring, and the chunk
// that ends its message publishes everything staged (one release store
// of the ring's tail, one doorbell bump). A message is therefore one
// publish however many chunks it spans; a full ring publishes what is
// staged early, so the receiver can drain it and make room.
//
// Delivery contract (what the Endpoint's reassembly relies on):
// datagrams are never corrupted, duplicated, or dropped, and datagrams
// pushed by ONE sending thread toward one (destination, lane) arrive
// in push order. Datagrams from different sending threads (a peer's
// main and service threads share outgoing channels) may interleave
// arbitrarily. Causality carries across channels: a datagram published
// before a send that causally precedes a receive (through any chain of
// sends and receives on this mesh) is drainable by the receiver's next
// drain after that receive. A publish releases its ring's tail and
// active-mask bit and a drain acquires both, so the chain orders the
// earlier publish before that drain. The hybrid update protocol's
// barrier-time pushes rely on this (tmk::Runtime::collect_pushes).
//
// Failure handling lives in the Transport's public methods, above the
// ring layout. They
//   - drive the rank's deterministic fault plan (TMK_FAULT_INJECT,
//     fault_inject.hpp) on the send path and at barrier entry;
//   - drop sends once this rank's fault has fired, so a dying rank
//     cannot keep completing protocol exchanges;
//   - bound every blocking wait to kMaxWaitSliceMs, so callers
//     (fabric.cpp) re-check peer-death poison and their wait deadline
//     between slices instead of parking indefinitely;
//   - cache the region's poison signal (poisoned_peer) so the per-wait
//     check is one atomic load after a peer death was first observed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <vector>

#include "mpl/fault_inject.hpp"
#include "mpl/frame.hpp"
#include "mpl/spsc_ring.hpp"

namespace mpl {

/// Where a run's ring mesh lives: a MAP_SHARED region the process
/// backend's forked ranks inherit (kShm), or a process-private region
/// the thread backend's rank threads share (kInproc). The runner
/// backend decides; kInproc cannot cross a fork.
enum class TransportKind : std::uint8_t { kShm = 1, kInproc = 2 };

[[nodiscard]] constexpr const char* to_string(TransportKind k) noexcept {
  return k == TransportKind::kInproc ? "inproc" : "shm";
}

/// Ring data capacity. Must be at least SpscRing::min_capacity of the
/// largest datagram (kMaxChunk payload + framing, TWICE over — see
/// min_capacity's wrap analysis) so a maximum-size push can always make
/// progress.
inline constexpr std::uint32_t kShmRingBytes = 128 * 1024;
static_assert(kShmRingBytes >= SpscRing::min_capacity(kMaxChunk));

/// Host-side cost counters of one transport view. These are HOST
/// observables (how many publishes and kernel wakes the interconnect
/// cost this rank), never modelled quantities: the modelled
/// message/byte counters and virtual times live in the Endpoint.
struct HostStats {
  /// Publishes toward peers (doorbell bumps): one per message, however
  /// many chunks it spans, plus one per ring-full spill.
  std::uint64_t send_calls = 0;
  /// FUTEX_WAKE syscalls actually issued by send-side doorbells.
  std::uint64_t futex_wakes = 0;
};

/// The two delivery targets inside every destination process: its
/// service thread and its main thread. A directed channel is (src, dst,
/// lane).
enum class Lane : std::uint8_t { kSvc = 0, kApp = 1 };

/// Non-owning reference to a `void(const FrameHeader&, chunk)` datagram
/// consumer — same trick as FramePredicate: receive paths hand the
/// transport a capturing lambda without a std::function allocation.
class ChunkSink {
 public:
  template <typename F>
  ChunkSink(const F& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](const void* o, const FrameHeader& h,
                           std::span<const std::byte> chunk) {
          (*static_cast<const F*>(o))(h, chunk);
        }) {}

  void operator()(const FrameHeader& h,
                  std::span<const std::byte> chunk) const {
    call_(obj_, h, chunk);
  }

 private:
  const void* obj_;
  void (*call_)(const void*, const FrameHeader&, std::span<const std::byte>);
};

/// The ring region of one run, built BEFORE the ranks start so every
/// rank reaches it (inherited through fork, or shared by the rank
/// threads). The runner keeps it for the whole spawn: ranks build their
/// Transport views over region(), and poison() propagates a rank death
/// to every survivor. Each process's copy unmaps its own view on
/// destruction (a forked child leaves through _exit instead).
class Fabric {
 public:
  /// Maps and initializes a zeroed region for an nprocs mesh: MAP_SHARED
  /// for kShm, MAP_PRIVATE for kInproc.
  explicit Fabric(int nprocs, TransportKind kind = TransportKind::kShm);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] TransportKind kind() const noexcept { return kind_; }
  [[nodiscard]] void* region() const noexcept { return region_; }

  /// Marks `dead_rank` dead for every survivor: sets its poison bit and
  /// wakes every parked receiver, so each survivor's next blocking wait
  /// (or blocked send) aborts naming the dead rank instead of parking
  /// until the global watchdog. Out-of-range ranks are ignored.
  void poison(int dead_rank) noexcept;

 private:
  int nprocs_;
  TransportKind kind_;
  std::size_t bytes_ = 0;
  void* region_ = nullptr;
};

/// One rank's view of the ring mesh. Used by exactly two threads — the
/// main thread (kApp receives, sends on either lane) and the service
/// thread (kSvc receives, sends on either lane).
class Transport {
 public:
  /// Upper bound every blocking wait honours: a parked rank wakes at
  /// least this often so the caller can re-check poison / deadline /
  /// stop conditions. Spurious wakes were already part of the contract.
  static constexpr int kMaxWaitSliceMs = 100;

  /// A view of `region` (an initialized Fabric::region() of an nprocs
  /// mesh) for `rank`. Must run on the rank's main thread: the sending
  /// slot of every later send is keyed off the constructing thread.
  Transport(void* region, int nprocs, int rank, TransportKind kind);
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] TransportKind kind() const noexcept { return kind_; }

  /// Attempts to enqueue one datagram (header + chunk) toward `dst`'s
  /// `lane`, publishing it (and the message's earlier chunks) when `h`
  /// ends its message. Returns false when the channel is full, after
  /// publishing what is staged — the caller may pump its own inbound
  /// traffic and retry (the Endpoint's deadlock-freedom discipline).
  /// Drives the fault plan; once this rank's fault fired, the datagram
  /// is silently dropped (reported as sent) so the dying rank unwinds
  /// instead of wedging in a send.
  bool try_send(Lane lane, int dst, const FrameHeader& h,
                std::span<const std::byte> chunk);

  /// Blocks until the (lane, dst) channel plausibly has space again, or
  /// `timeout_ms` elapsed (negative = no caller deadline; the wait is
  /// still sliced at kMaxWaitSliceMs and may wake spuriously). Only
  /// meaningful right after a failed try_send from the same thread.
  void wait_send(Lane lane, int dst, int timeout_ms);

  /// Non-blocking: feeds every ready inbound datagram on `lane` to
  /// `sink`, in per-sending-thread order. Returns the datagram count.
  /// The chunk span is only valid during the sink call.
  std::size_t drain(Lane lane, const ChunkSink& sink);

  /// Samples the arrival state of `lane` for a lost-wakeup-free wait:
  /// a token taken BEFORE a drain, passed to wait_recv AFTER the drain
  /// came up empty, guarantees wait_recv returns promptly if anything
  /// arrived in between.
  [[nodiscard]] std::uint32_t recv_token(Lane lane) noexcept;

  /// Blocks until new datagrams may be ready on `lane` — or, for
  /// Lane::kSvc, until wake_service() was called — or kMaxWaitSliceMs
  /// passed. Spurious returns are allowed; callers re-check their
  /// condition (and their wait deadline) in a loop.
  void wait_recv(Lane lane, std::uint32_t token);

  /// Wakes a wait_recv(Lane::kSvc) blocked in the service thread (used
  /// for shutdown). Callable from the main thread.
  void wake_service() noexcept;

  /// Host-side cost counters accumulated by this view (see HostStats).
  [[nodiscard]] HostStats host_stats() const noexcept;

  // ---- failure handling ----

  /// Runtime hook at barrier entry: fires the exit-at-barrier fault.
  void barrier_entered() {
    if (fault_ != nullptr) fault_->on_barrier();
  }

  /// True once this rank's own injected fault has fired: its sends are
  /// dropped and its waits return immediately so it unwinds loudly.
  [[nodiscard]] bool self_dead() const noexcept {
    return fault_ != nullptr && fault_->dead();
  }

  /// The recorded description of this rank's own fired fault ("" until
  /// one fires). Diagnostics include it so the blame names the plan key
  /// even when the fault fired on the rank's other thread.
  [[nodiscard]] const char* self_death_cause() const noexcept {
    return fault_ != nullptr ? fault_->cause() : "";
  }

  /// The lowest-numbered peer known to have died (Fabric::poison), or
  /// -1. One relaxed load after the first observation; the slow path
  /// scans the region's poison words.
  [[nodiscard]] int poisoned_peer() noexcept {
    const int cached = poison_cache_.load(std::memory_order_relaxed);
    if (cached >= 0) return cached;
    const int dead = poll_poison();
    if (dead >= 0) poison_cache_.store(dead, std::memory_order_relaxed);
    return dead;
  }

  /// Appends a human-readable per-peer channel snapshot (incoming ring
  /// occupancy) to `os` for crash reports. Best-effort.
  void describe_channels(std::ostream& os);

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }

 private:
  /// The ring half of try_send, below the fault plan.
  bool push(Lane lane, int dst, const FrameHeader& h,
            std::span<const std::byte> chunk);
  [[nodiscard]] int sender_slot() const noexcept;
  [[nodiscard]] SpscRing& out_ring(Lane lane, int slot, int dst) noexcept;
  void announce_ring(Lane lane, int slot, int dst) noexcept;
  void ring_doorbell(int dst, Lane lane) noexcept;
  void publish_staged(Lane lane, int slot, int dst) noexcept;
  /// Scans the region's poison words: the id of a dead peer, or -1.
  [[nodiscard]] int poll_poison() const noexcept;

  void* base_;
  int rank_;
  int nprocs_;
  TransportKind kind_;
  unsigned long main_thread_;  // pthread_t of the constructing thread
  // Null unless TMK_FAULT_INJECT names this rank as the victim: the
  // fault-free fast path costs one pointer check per send.
  std::unique_ptr<FaultInjector> fault_;
  std::atomic<int> poison_cache_{-1};
  // Ring views: outgoing indexed [slot][lane][dst], incoming
  // [lane][src * 2 + slot]. Slot 0 = main thread, slot 1 = the (single)
  // service thread. Views are plain pointer math over the region — no
  // ring's shared pages are touched until it actually carries traffic.
  std::vector<SpscRing> out_[2][2];
  std::vector<SpscRing> in_[2];
  // Local "already announced in the region's active mask" flags per
  // [slot][lane], so the once-per-ring fetch_or is not repeated on
  // every send. Slot 0 is only touched by the main thread, slot 1 only
  // by the service thread.
  std::vector<std::uint8_t> announced_[2][2];
  // Receive-side spin budget per lane before the futex sleep. It
  // adapts: a wait satisfied while spinning grows it, a wait that had
  // to sleep anyway shrinks it, so oversubscribed hosts (more rank
  // threads than cores) degrade back toward pure futex waits. Each
  // lane's budget is touched only by that lane's receiving thread.
  int spin_budget_[2];
  // Host-side cost counters (HostStats): both sending threads bump
  // them, so they are relaxed atomics.
  std::atomic<std::uint64_t> host_send_calls_{0};
  std::atomic<std::uint64_t> host_futex_wakes_{0};
};

}  // namespace mpl
