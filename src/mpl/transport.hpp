// Transport abstraction: the interconnect under the process mesh.
//
// The Endpoint core (fabric.hpp) owns everything protocol-visible —
// framing, chunking, reassembly, message/byte counters, virtual-clock
// charges. A Transport only moves opaque datagram chunks between
// ranks, so the modelled results (message counts, bytes, virtual
// times, checksums) cannot depend on it; only the *host-side* cost of
// moving a chunk lives here. There is one interconnect, a ring mesh
// of per-(pair, lane, sending-thread) lock-free SPSC byte rings with
// futex doorbells, whose steady-state datagram path makes no
// syscalls. The runner backend decides where its region lives:
//
//   ShmTransport (shm_transport.hpp)
//       One MAP_SHARED region inherited through the process backend's
//       fork.
//
//   InprocTransport (inproc_transport.hpp)
//       One process-private region shared by the thread backend's rank
//       threads: no fork, no MAP_SHARED.
//
// Delivery contract (what the Endpoint's reassembly relies on):
// datagrams are never corrupted, duplicated, or dropped, and datagrams
// pushed by ONE sending thread toward one (destination, lane) arrive
// in push order. Datagrams from different sending threads (a peer's
// main and service threads share outgoing channels) may interleave
// arbitrarily.
//
// Failure handling lives in THIS base class, above the ring layout:
// the public entry points are non-virtual wrappers over protected do_*
// hooks. The wrappers
//   - drive the rank's deterministic fault plan (TMK_FAULT_INJECT,
//     fault_inject.hpp) on the send path and at barrier entry;
//   - drop sends once this rank's fault has fired, so a dying rank
//     cannot keep completing protocol exchanges;
//   - bound every blocking wait to kMaxWaitSliceMs, so callers
//     (fabric.cpp) re-check peer-death poison and their wait deadline
//     between slices instead of parking indefinitely;
//   - cache the region's poison signal (poll_poison) so the per-wait
//     check is one atomic load after a peer death was first observed.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>

#include "mpl/fault_inject.hpp"
#include "mpl/frame.hpp"

namespace mpl {

/// Where a run's ring mesh lives: a MAP_SHARED region the process
/// backend's forked ranks inherit (kShm), or a process-private region
/// the thread backend's rank threads share (kInproc). The runner
/// backend decides; kInproc cannot cross a fork.
enum class TransportKind : std::uint8_t { kShm = 1, kInproc = 2 };

[[nodiscard]] constexpr const char* to_string(TransportKind k) noexcept {
  return k == TransportKind::kInproc ? "inproc" : "shm";
}

/// Whether the burst-mode send path is enabled: TMK_FABRIC_BURST=0
/// disables it, anything else (including unset) keeps the default ON.
/// Read per construction, never cached process-wide, so tests can
/// toggle it between spawns under the thread backend.
[[nodiscard]] bool burst_from_env() noexcept;

/// Host-side cost counters of one transport view. These are HOST
/// observables (how many publishes and kernel wakes the interconnect
/// cost this rank), never modelled quantities: the modelled
/// message/byte counters and virtual times live in the Endpoint and are
/// identical across burst modes by construction.
struct HostStats {
  /// Datagram publishes toward peers (doorbell bumps). A burst of N
  /// frames costs 1, not N.
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

/// One rank's view of the interconnect. Constructed by Fabric::adopt
/// on the rank's main thread; used by exactly two threads — the main
/// thread (kApp receives, sends on either lane) and the service thread
/// (kSvc receives, sends on either lane).
class Transport {
 public:
  /// Upper bound every blocking do_wait_* honours: a parked rank wakes
  /// at least this often so the caller can re-check poison / deadline /
  /// stop conditions. Spurious wakes were already part of the contract.
  static constexpr int kMaxWaitSliceMs = 100;

  Transport(int rank, int nprocs);
  virtual ~Transport() = default;

  [[nodiscard]] virtual TransportKind kind() const noexcept = 0;

  /// Attempts to enqueue one datagram (header + chunk) toward `dst`'s
  /// `lane`. Returns false when the channel is full — the caller may
  /// pump its own inbound traffic and retry (the Endpoint's
  /// deadlock-freedom discipline). Drives the fault plan; once this
  /// rank's fault fired, the datagram is silently dropped (reported as
  /// sent) so the dying rank unwinds instead of wedging in a send.
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
  [[nodiscard]] std::uint32_t recv_token(Lane lane);

  /// Blocks until new datagrams may be ready on `lane` — or, for
  /// Lane::kSvc, until wake_service() was called — or kMaxWaitSliceMs
  /// passed. Spurious returns are allowed; callers re-check their
  /// condition (and their wait deadline) in a loop.
  void wait_recv(Lane lane, std::uint32_t token);

  /// Wakes a wait_recv(Lane::kSvc) blocked in the service thread (used
  /// for shutdown). Callable from the main thread.
  void wake_service();

  // ---- bursts ----
  //
  // A burst groups consecutive try_sends from ONE thread toward ONE
  // (lane, dst) so they publish as a unit: the ring stages the records
  // and rings the doorbell once at flush. Between begin_burst and a
  // successful try_flush_burst the frames may be invisible to the
  // receiver, so callers MUST flush before blocking on anything a peer
  // could be waiting to answer — the Endpoint enforces this at its
  // operation boundaries.

  /// Opens (or continues) a burst from the calling thread toward
  /// (lane, dst).
  void begin_burst(Lane lane, int dst) { do_begin_burst(lane, dst); }

  /// Publishes everything buffered by the current burst toward
  /// (lane, dst). True when the burst is fully handed over (and closed);
  /// false when the channel back-pressured with frames still buffered —
  /// the caller should pump its inbound traffic, wait_send, and retry.
  [[nodiscard]] bool try_flush_burst(Lane lane, int dst) {
    return do_try_flush_burst(lane, dst);
  }

  /// Host-side cost counters accumulated by this view (see HostStats).
  [[nodiscard]] virtual HostStats host_stats() const noexcept = 0;

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

  /// The lowest-numbered peer known to have died (runner poison), or
  /// -1. One relaxed load after the first observation; the slow path
  /// scans the region (poll_poison).
  [[nodiscard]] int poisoned_peer() noexcept {
    const int cached = poison_cache_.load(std::memory_order_relaxed);
    if (cached >= 0) return cached;
    const int dead = poll_poison();
    if (dead >= 0) poison_cache_.store(dead, std::memory_order_relaxed);
    return dead;
  }

  /// Appends a human-readable per-peer channel snapshot (incoming ring
  /// occupancy) to `os` for crash reports. Best-effort.
  virtual void describe_channels(std::ostream& os) = 0;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }

 protected:
  virtual bool do_try_send(Lane lane, int dst, const FrameHeader& h,
                           std::span<const std::byte> chunk) = 0;
  virtual void do_wait_send(Lane lane, int dst, int timeout_ms) = 0;
  virtual std::size_t do_drain(Lane lane, const ChunkSink& sink) = 0;
  [[nodiscard]] virtual std::uint32_t do_recv_token(Lane lane) = 0;
  /// `timeout_ms` is already sliced to (0, kMaxWaitSliceMs].
  virtual void do_wait_recv(Lane lane, std::uint32_t token,
                            int timeout_ms) = 0;
  virtual void do_wake_service() = 0;
  virtual void do_begin_burst(Lane lane, int dst) = 0;
  [[nodiscard]] virtual bool do_try_flush_burst(Lane lane, int dst) = 0;
  /// Scan for the runner's peer-death poison signal: the id of a dead
  /// peer, or -1. Called only until the first positive answer.
  [[nodiscard]] virtual int poll_poison() noexcept = 0;

  int rank_ = 0;
  int nprocs_ = 1;

 private:
  // Null unless TMK_FAULT_INJECT names this rank as the victim: the
  // fault-free fast path costs one pointer check per send.
  std::unique_ptr<FaultInjector> fault_;
  std::atomic<int> poison_cache_{-1};
};

/// Parent-side handle that marks one rank dead for every survivor: the
/// runner calls poison() when it observes a rank die, and each
/// survivor's next blocking wait (or blocked send) aborts naming the
/// dead rank instead of parking until the global watchdog.
class PeerKiller {
 public:
  virtual ~PeerKiller() = default;
  virtual void poison(int dead_rank) noexcept = 0;
};

/// Parent-side ring region, built by the Fabric BEFORE the ranks start
/// so every rank reaches it (inherited through fork, or shared by the
/// rank threads). adopt() is called at most once per rank.
class FabricState {
 public:
  virtual ~FabricState() = default;
  [[nodiscard]] virtual std::unique_ptr<Transport> adopt(int rank) = 0;
  /// Builds the parent-side death-propagation handle. Must be called
  /// BEFORE the parent releases the fabric (the handle takes over the
  /// region view it needs).
  [[nodiscard]] virtual std::unique_ptr<PeerKiller> make_killer() = 0;
};

}  // namespace mpl
