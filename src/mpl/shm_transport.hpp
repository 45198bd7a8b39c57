// Ring-mesh mailbox transport: syscall-free datagram delivery.
//
// For the process backend, one MAP_SHARED | MAP_ANONYMOUS region is
// mapped by the parent before forking, so every child inherits it at
// the same address (the thread backend's InprocTransport reuses this
// class over a private region). Inside it, per (src, dst, lane,
// sending-thread) there is a lock-free SPSC ring (spsc_ring.hpp) —
// four rings per ordered pair, so the main and service threads of one
// rank never share a producer cursor and each keeps its own FIFO. Per
// (dst, lane) there is additionally a futex doorbell: senders bump a
// sequence word after each publish and issue FUTEX_WAKE only when the
// receiver has advertised itself asleep, so the steady-state
// send/receive path performs no syscalls at all — the property Richie
// et al.'s Epiphany mailbox DSM demonstrates and the reason the
// modelled high-rank sweeps are affordable.
//
// Memory footprint: nprocs^2 * 4 rings of 128 KiB — ~8.6 GiB of address
// space at 128 processes, but MAP_NORESERVE and touched lazily: a ring
// materializes pages only when it first carries a datagram. Per
// (dst, lane) the region also keeps an active-source bitmask; senders
// publish a ring's bit on first use and the receiver's drain walks only
// set bits, so both the page footprint AND the per-drain work scale
// with the pairs that actually communicate, not with nprocs^2.
//
// Failure propagation: the region header carries a poison bitmask of
// dead ranks. The runner's PeerKiller (make_shm_killer) sets the dead
// rank's bit and bumps every doorbell, so parked survivors wake, see
// the bit through poll_poison, and unwind naming the dead rank.
#pragma once

#include <memory>
#include <vector>

#include "mpl/spsc_ring.hpp"
#include "mpl/transport.hpp"

namespace mpl {

/// Ring data capacity. Must be at least SpscRing::min_capacity of the
/// largest datagram (kMaxChunk payload + framing, TWICE over — see
/// min_capacity's wrap analysis) so a maximum-size push can always make
/// progress.
inline constexpr std::uint32_t kShmRingBytes = 128 * 1024;
static_assert(kShmRingBytes >= SpscRing::min_capacity(kMaxChunk));

/// Bytes of shared mapping an nprocs mesh needs.
[[nodiscard]] std::size_t shm_region_bytes(int nprocs) noexcept;

/// Writes the region prologue (magic, nprocs, ring geometry) into a
/// zeroed `shm_region_bytes(nprocs)` block. Zero pages are a valid
/// empty state for every doorbell, poison word, and ring, so this is
/// all the initialization a fresh region needs. Shared by the
/// fork-inherited MAP_SHARED fabric and the in-process fabric
/// (inproc_transport.hpp).
void init_ring_region(void* base, int nprocs) noexcept;

/// Builds a PeerKiller over an initialized ring region: poison(k) sets
/// rank k's dead bit and wakes every parked receiver. When
/// `owns_region` is set the killer unmaps the caller's view when
/// destroyed (the process backend's parent hands its view over); the
/// thread backend's killer is a plain non-owning view.
[[nodiscard]] std::unique_ptr<PeerKiller> make_shm_killer(void* base,
                                                          int nprocs,
                                                          bool owns_region);

class ShmTransport : public Transport {
 public:
  /// `base` is the inherited region (already initialized by the
  /// parent-side fabric state). When `owns_region` is set — the normal
  /// case for an adopting process — the destructor unmaps this
  /// process's view, so in-process uses (benches, the thread backend's
  /// InprocTransport) do not leak the mapping. `kind` lets the
  /// in-process reuse report itself distinctly.
  ShmTransport(void* base, int nprocs, int rank, bool owns_region,
               TransportKind kind = TransportKind::kShm);
  ~ShmTransport() override;

  struct Doorbell;  // shared-memory futex doorbell, defined in the .cpp

  [[nodiscard]] TransportKind kind() const noexcept override {
    return kind_;
  }
  [[nodiscard]] HostStats host_stats() const noexcept override;
  void describe_channels(std::ostream& os) override;

 protected:
  bool do_try_send(Lane lane, int dst, const FrameHeader& h,
                   std::span<const std::byte> chunk) override;
  void do_wait_send(Lane lane, int dst, int timeout_ms) override;
  std::size_t do_drain(Lane lane, const ChunkSink& sink) override;
  [[nodiscard]] std::uint32_t do_recv_token(Lane lane) override;
  void do_wait_recv(Lane lane, std::uint32_t token, int timeout_ms) override;
  void do_wake_service() override;
  void do_begin_burst(Lane lane, int dst) override;
  [[nodiscard]] bool do_try_flush_burst(Lane lane, int dst) override;
  [[nodiscard]] int poll_poison() noexcept override;

 private:
  [[nodiscard]] int sender_slot() const noexcept;
  [[nodiscard]] SpscRing& out_ring(Lane lane, int slot, int dst) noexcept;
  [[nodiscard]] Doorbell& doorbell(int rank, Lane lane) noexcept;
  [[nodiscard]] std::atomic<std::uint64_t>* active_mask(int rank,
                                                        Lane lane) noexcept;
  void announce_ring(Lane lane, int slot, int dst) noexcept;
  void ring_doorbell(int dst, Lane lane) noexcept;
  void publish_staged(Lane lane, int slot, int dst) noexcept;

  void* base_;
  bool owns_region_;
  TransportKind kind_;
  unsigned long main_thread_;  // pthread_t of the constructing thread
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
  // Open-burst destination per [slot][lane] (-1 = none). While a burst
  // is open, try_sends toward it stage into the ring without a tail
  // store or doorbell; try_flush_burst publishes the whole batch with
  // one release store and one doorbell bump. Each slot is owned by its
  // single sending thread.
  int burst_dst_[2][2] = {{-1, -1}, {-1, -1}};
  // Burst mode also arms a receive-side spin before the futex sleep
  // (TMK_FABRIC_BURST=0 restores the sleep-only wait). The per-lane
  // budget adapts: a wait satisfied while spinning grows it, a wait
  // that had to sleep anyway shrinks it, so oversubscribed hosts (more
  // rank threads than cores) degrade back toward pure futex waits.
  // Each lane's budget is touched only by that lane's receiving thread.
  bool burst_enabled_ = true;
  int spin_budget_[2] = {0, 0};
  // Host-side cost counters (HostStats): both sending threads bump
  // them, so they are relaxed atomics.
  std::atomic<std::uint64_t> host_send_calls_{0};
  std::atomic<std::uint64_t> host_futex_wakes_{0};
};

/// Parent-side: maps and initializes the region, hands out transports.
[[nodiscard]] std::unique_ptr<FabricState> make_shm_fabric(int nprocs);

}  // namespace mpl
