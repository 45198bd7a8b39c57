#include "mpl/transport.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <climits>
#include <ostream>

#include "common/check.hpp"

namespace mpl {

namespace {

// Region layout. Inside the one mapping there is a lock-free SPSC ring
// per (src, dst, lane, sending-thread) — four rings per ordered pair,
// so the main and service threads of one rank never share a producer
// cursor and each keeps its own FIFO. Per (dst, lane) there is
// additionally a futex doorbell: senders bump a sequence word after
// each publish and issue FUTEX_WAKE only when the receiver has
// advertised itself asleep, so the steady-state send/receive path
// performs no syscalls at all.
//
// Memory footprint: nprocs^2 * 4 rings of 128 KiB — ~8.6 GiB of address
// space at 128 processes, but MAP_NORESERVE and touched lazily: a ring
// materializes pages only when it first carries a datagram. Per
// (dst, lane) the region also keeps an active-source bitmask; senders
// publish a ring's bit on first use and the receiver's drain walks only
// set bits, so both the page footprint AND the per-drain work scale
// with the pairs that actually communicate, not with nprocs^2.

constexpr std::uint32_t kShmMagic = 0x544d4b55;  // "TMKU" (v3: poison words)

/// Region prologue, followed by doorbells and ring blocks. The poison
/// words are a bitmask of dead ranks (set by Fabric::poison, read by
/// every survivor's poll_poison); two 64-bit words cover
/// kMaxProcs = 128.
struct RegionHeader {
  std::uint32_t magic;
  std::uint32_t nprocs;
  std::uint32_t ring_bytes;
  std::uint32_t reserved;
  std::atomic<std::uint64_t> poison[2];
};
static_assert(kMaxProcs <= 128, "poison words cover 128 ranks");

/// One per (receiver rank, lane): `seq` counts datagrams pushed toward
/// that inbox (any source ring) and is the receiver's futex word;
/// `waiters` advertises a sleeping receiver so senders skip FUTEX_WAKE
/// on the fast path. The seq_cst RMW pairing in wait_recv/ring_doorbell
/// makes the sleep lost-wakeup-free (Dekker through the futex word).
struct alignas(64) Doorbell {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::uint32_t> waiters{0};
};

constexpr std::size_t kAlign = 64;

// The header must fit inside the first alignment block so every
// doorbell/mask/ring offset below is independent of its exact size.
static_assert(sizeof(RegionHeader) <= kAlign);

[[nodiscard]] constexpr std::size_t align_up(std::size_t n) noexcept {
  return (n + kAlign - 1) & ~(kAlign - 1);
}

[[nodiscard]] std::size_t ring_block_bytes() noexcept {
  return align_up(sizeof(RingCtrl)) + kShmRingBytes;
}

[[nodiscard]] std::size_t rings_per_mesh(int nprocs) noexcept {
  // (src, dst) ordered pairs x 2 lanes x 2 sender slots.
  return static_cast<std::size_t>(nprocs) * static_cast<std::size_t>(nprocs) *
         4;
}

// Receive-side wait bounds (doorbell re-checks before advertising a
// sleeper). While a receiver re-checks it does NOT advertise `waiters`,
// so the matching senders skip FUTEX_WAKE entirely — the bulk of the
// send path's syscall saving. The first kSpinPause re-checks are pause
// spins (they catch a publish already in flight on another core); the
// rest are sched_yield re-checks, which is what matters with more rank
// threads than cores: the receiver hands its timeslice to the sender
// it is waiting on instead of burning it, so request/reply turnarounds
// and barrier fan-in storms complete without any futex traffic even on
// one core. The budget adapts per lane (grow on a hit, shrink on a
// miss) so receivers blocked on genuinely distant events — a barrier
// depart several compute phases away — fall back to sleeping after a
// few yields.
constexpr int kSpinPause = 32;
constexpr int kSpinInitial = 64;
constexpr int kSpinMax = 256;
// Floor above zero so a budget collapsed by a run of misses keeps a
// meaningful probe window (and can grow back); shrink is gentle (1/4
// per miss) so one long wait in a run of short turnarounds does not
// collapse the budget and push the next turnarounds into futex sleeps.
constexpr int kSpinMin = 32;

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);
#endif
}

[[nodiscard]] std::size_t doorbells_offset() noexcept {
  return align_up(sizeof(RegionHeader));
}

[[nodiscard]] Doorbell& doorbell(void* base, int rank, Lane lane) noexcept {
  auto* bells = reinterpret_cast<Doorbell*>(static_cast<std::byte*>(base) +
                                            doorbells_offset());
  return bells[static_cast<std::size_t>(rank) * 2 +
               static_cast<std::size_t>(lane)];
}

// Active-ring masks, one per (receiver rank, lane): bit src*2+slot is
// set (once, by the sender) the first time that incoming ring carries a
// datagram. The receiver's drain walks only set bits, so an idle pair
// ring is never constructed into the receive path and its control page
// is never touched — at 128 ranks a full drain pass would otherwise
// probe 2*nprocs ring headers per lane (16k rings process-wide) just to
// find the two or three neighbours that actually talk.
[[nodiscard]] std::size_t mask_words(int nprocs) noexcept {
  return (static_cast<std::size_t>(nprocs) * 2 + 63) / 64;
}

[[nodiscard]] std::size_t masks_offset(int nprocs) noexcept {
  return align_up(doorbells_offset() +
                  static_cast<std::size_t>(nprocs) * 2 * sizeof(Doorbell));
}

[[nodiscard]] std::size_t rings_offset(int nprocs) noexcept {
  return align_up(masks_offset(nprocs) +
                  static_cast<std::size_t>(nprocs) * 2 * mask_words(nprocs) *
                      sizeof(std::uint64_t));
}

[[nodiscard]] std::size_t region_bytes(int nprocs) noexcept {
  return rings_offset(nprocs) + rings_per_mesh(nprocs) * ring_block_bytes();
}

[[nodiscard]] std::atomic<std::uint64_t>* active_mask(void* base, int nprocs,
                                                      int rank,
                                                      Lane lane) noexcept {
  auto* words = reinterpret_cast<std::atomic<std::uint64_t>*>(
      static_cast<std::byte*>(base) + masks_offset(nprocs));
  return words + (static_cast<std::size_t>(rank) * 2 +
                  static_cast<std::size_t>(lane)) *
                     mask_words(nprocs);
}

/// Ring block index of (src, dst, lane, slot).
[[nodiscard]] std::size_t ring_index(int nprocs, int src, int dst, Lane lane,
                                     int slot) noexcept {
  const auto n = static_cast<std::size_t>(nprocs);
  return ((static_cast<std::size_t>(src) * n + static_cast<std::size_t>(dst)) *
              2 +
          static_cast<std::size_t>(lane)) *
             2 +
         static_cast<std::size_t>(slot);
}

[[nodiscard]] SpscRing ring_view(void* base, int nprocs, std::size_t index) {
  auto* bytes = static_cast<std::byte*>(base);
  std::byte* block = bytes + rings_offset(nprocs) + index * ring_block_bytes();
  auto* ctrl = reinterpret_cast<RingCtrl*>(block);
  return SpscRing(ctrl, block + align_up(sizeof(RingCtrl)), kShmRingBytes);
}

}  // namespace

Fabric::Fabric(int nprocs, TransportKind kind)
    : nprocs_(nprocs), kind_(kind) {
  COMMON_CHECK_MSG(nprocs >= 1 && nprocs <= kMaxProcs,
                   "nprocs=" << nprocs << " outside [1," << kMaxProcs << "]");
  bytes_ = region_bytes(nprocs);
  // Anonymous, zeroed, lazily materialized. MAP_SHARED lets forked
  // ranks see each other's writes; the thread backend's ranks share
  // one address space, so its region needs no sharing semantics.
  const int sharing = kind == TransportKind::kInproc ? MAP_PRIVATE : MAP_SHARED;
  void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 sharing | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  COMMON_CHECK_MSG(p != MAP_FAILED, "mmap of the ring region failed");
  region_ = p;
  // Zeroed pages are a valid empty state for every doorbell, poison
  // word, and ring; only the header needs real values.
  auto* h = static_cast<RegionHeader*>(region_);
  h->magic = kShmMagic;
  h->nprocs = static_cast<std::uint32_t>(nprocs);
  h->ring_bytes = kShmRingBytes;
}

Fabric::~Fabric() {
  // munmap is per-address-space: the parent unmapping never disturbs a
  // forked child still running on its inherited view.
  munmap(region_, bytes_);
}

void Fabric::poison(int dead_rank) noexcept {
  if (dead_rank < 0 || dead_rank >= nprocs_) return;
  auto* h = static_cast<RegionHeader*>(region_);
  h->poison[dead_rank / 64].fetch_or(1ull << (dead_rank % 64),
                                     std::memory_order_seq_cst);
  // Bump and wake every doorbell: parked receivers futex-wake, and
  // spinning receivers see the sequence move — either way the next
  // empty drain re-checks poison and unwinds. Producers blocked on a
  // full ring need no wake (wait_space self-bounds at 10 ms).
  for (int r = 0; r < nprocs_; ++r) {
    for (const Lane lane : {Lane::kSvc, Lane::kApp}) {
      Doorbell& d = doorbell(region_, r, lane);
      d.seq.fetch_add(1, std::memory_order_seq_cst);
      detail::futex_wake(&d.seq, INT_MAX);
    }
  }
}

Transport::Transport(void* region, int nprocs, int rank, TransportKind kind)
    : base_(region),
      rank_(rank),
      nprocs_(nprocs),
      kind_(kind),
      main_thread_(static_cast<unsigned long>(pthread_self())),
      spin_budget_{kSpinInitial, kSpinInitial} {
  COMMON_CHECK_MSG(rank >= 0 && rank < nprocs,
                   "rank " << rank << " outside [0," << nprocs << ")");
  const auto* h = static_cast<const RegionHeader*>(region);
  COMMON_CHECK_MSG(h->magic == kShmMagic &&
                       h->nprocs == static_cast<std::uint32_t>(nprocs) &&
                       h->ring_bytes == kShmRingBytes,
                   "ring region header mismatch");
  fault_ = fault_injector_from_env(rank, nprocs);
  for (int slot = 0; slot < 2; ++slot) {
    for (int lane = 0; lane < 2; ++lane) {
      out_[slot][lane].reserve(static_cast<std::size_t>(nprocs));
      for (int dst = 0; dst < nprocs; ++dst)
        out_[slot][lane].push_back(ring_view(
            region, nprocs,
            ring_index(nprocs, rank, dst, static_cast<Lane>(lane), slot)));
      announced_[slot][lane].assign(static_cast<std::size_t>(nprocs), 0);
    }
  }
  for (int lane = 0; lane < 2; ++lane) {
    in_[lane].reserve(static_cast<std::size_t>(nprocs) * 2);
    for (int src = 0; src < nprocs; ++src)
      for (int slot = 0; slot < 2; ++slot)
        in_[lane].push_back(ring_view(
            region, nprocs,
            ring_index(nprocs, src, rank, static_cast<Lane>(lane), slot)));
  }
}

int Transport::sender_slot() const noexcept {
  // Slot 0 is the thread that built the endpoint (the main thread);
  // anything else — there is exactly one, the service thread — uses
  // slot 1, keeping every ring single-producer without registration.
  return pthread_equal(pthread_self(),
                       static_cast<pthread_t>(main_thread_)) != 0
             ? 0
             : 1;
}

SpscRing& Transport::out_ring(Lane lane, int slot, int dst) noexcept {
  return out_[slot][static_cast<int>(lane)][static_cast<std::size_t>(dst)];
}

void Transport::announce_ring(Lane lane, int slot, int dst) noexcept {
  // First datagram on this (src, dst, lane, slot) ring: publish its bit
  // in the receiver's active mask so its drain starts visiting the
  // ring. Ordered before the doorbell bump — a receiver woken by the
  // bump re-reads the mask after a stale token, so the bit is always
  // seen before the datagram must be.
  auto& flag = announced_[slot][static_cast<int>(lane)]
                         [static_cast<std::size_t>(dst)];
  if (flag != 0) return;
  const std::size_t bit = static_cast<std::size_t>(rank_) * 2 +
                          static_cast<std::size_t>(slot);
  active_mask(base_, nprocs_, dst, lane)[bit / 64].fetch_or(
      1ull << (bit % 64), std::memory_order_seq_cst);
  flag = 1;
}

void Transport::ring_doorbell(int dst, Lane lane) noexcept {
  Doorbell& d = doorbell(base_, dst, lane);
  d.seq.fetch_add(1, std::memory_order_seq_cst);
  host_send_calls_.fetch_add(1, std::memory_order_relaxed);
  if (d.waiters.load(std::memory_order_seq_cst) != 0) {
    detail::futex_wake(&d.seq, INT_MAX);
    host_futex_wakes_.fetch_add(1, std::memory_order_relaxed);
  }
}

void Transport::publish_staged(Lane lane, int slot, int dst) noexcept {
  SpscRing& ring = out_ring(lane, slot, dst);
  const bool had_staged = ring.has_staged();
  ring.publish();
  if (had_staged) {
    announce_ring(lane, slot, dst);
    ring_doorbell(dst, lane);
  }
}

bool Transport::try_send(Lane lane, int dst, const FrameHeader& h,
                         std::span<const std::byte> chunk) {
  if (fault_ != nullptr) {
    // A rank whose fault already fired is unwinding: report the send as
    // done without delivering, so it cannot wedge in a full channel or
    // keep completing protocol exchanges (e.g. the shutdown rendezvous)
    // as if it were healthy.
    if (fault_->dead()) return true;
    fault_->before_send();
  }
  const bool sent = push(lane, dst, h, chunk);
  if (sent && fault_ != nullptr) fault_->after_send();
  return sent;
}

bool Transport::push(Lane lane, int dst, const FrameHeader& h,
                     std::span<const std::byte> chunk) {
  // The one publish rule (see the header). A full ring publishes what
  // IS staged so the consumer can drain it — otherwise neither side
  // could make progress — then reports backpressure for the retry.
  const int slot = sender_slot();
  const bool staged = out_ring(lane, slot, dst).stage(h, chunk);
  if (!staged || h.offset + h.chunk_len == h.orig_len)
    publish_staged(lane, slot, dst);
  return staged;
}

HostStats Transport::host_stats() const noexcept {
  return {host_send_calls_.load(std::memory_order_relaxed),
          host_futex_wakes_.load(std::memory_order_relaxed)};
}

void Transport::wait_send(Lane lane, int dst, int timeout_ms) {
  if (self_dead()) return;
  const int slice = (timeout_ms < 0 || timeout_ms > kMaxWaitSliceMs)
                        ? kMaxWaitSliceMs
                        : timeout_ms;
  out_ring(lane, sender_slot(), dst).wait_space(slice);
}

std::size_t Transport::drain(Lane lane, const ChunkSink& sink) {
  // Visit only rings that have ever carried a datagram toward us: the
  // active mask bounds the pass by the number of talking neighbours,
  // not by nprocs, and leaves idle rings' shared pages untouched.
  std::size_t count = 0;
  const std::atomic<std::uint64_t>* mask =
      active_mask(base_, nprocs_, rank_, lane);
  auto& rings = in_[static_cast<int>(lane)];
  const std::size_t words = mask_words(nprocs_);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t m = mask[w].load(std::memory_order_acquire);
    while (m != 0) {
      const int bit = std::countr_zero(m);
      m &= m - 1;
      count += rings[w * 64 + static_cast<std::size_t>(bit)].drain(sink);
    }
  }
  return count;
}

std::uint32_t Transport::recv_token(Lane lane) noexcept {
  return doorbell(base_, rank_, lane).seq.load(std::memory_order_acquire);
}

void Transport::wait_recv(Lane lane, std::uint32_t token) {
  if (self_dead()) return;
  Doorbell& d = doorbell(base_, rank_, lane);
  // Pause-then-yield on the doorbell before advertising a sleeper.
  // While re-checking, `waiters` stays 0, so senders skip FUTEX_WAKE —
  // the common request/reply exchange then costs no syscalls on the
  // wake side even when the sender only runs after the receiver yields
  // its timeslice (see the constants above).
  int& budget = spin_budget_[static_cast<int>(lane)];
  for (int i = 0; i < budget; ++i) {
    if (d.seq.load(std::memory_order_acquire) != token) {
      budget = std::min(kSpinMax, budget * 2 + 1);
      return;
    }
    if (i < kSpinPause)
      cpu_relax();
    else
      sched_yield();
  }
  budget = std::max(kSpinMin, budget - budget / 4);
  // Bounded sleep: a spurious return only costs one empty re-drain, and
  // the bound keeps even a theoretically missed wake from becoming a
  // hang — and lets the caller re-check poison and deadline state
  // between slices.
  d.waiters.fetch_add(1, std::memory_order_seq_cst);
  if (d.seq.load(std::memory_order_seq_cst) == token)
    detail::futex_wait(&d.seq, token, kMaxWaitSliceMs);
  d.waiters.fetch_sub(1, std::memory_order_seq_cst);
}

void Transport::wake_service() noexcept { ring_doorbell(rank_, Lane::kSvc); }

int Transport::poll_poison() const noexcept {
  const auto* h = static_cast<const RegionHeader*>(base_);
  for (int w = 0; w < 2; ++w) {
    std::uint64_t m = h->poison[w].load(std::memory_order_acquire);
    if (w == rank_ / 64) m &= ~(1ull << (rank_ % 64));  // not our own death
    if (m != 0) return w * 64 + std::countr_zero(m);
  }
  return -1;
}

void Transport::describe_channels(std::ostream& os) {
  // Incoming ring occupancy per announced (src, slot, lane): bytes the
  // peer published that we have not consumed. Best-effort snapshot over
  // the shared atomics; only rings the active mask names are touched.
  for (int lane = 0; lane < 2; ++lane) {
    const std::atomic<std::uint64_t>* mask =
        active_mask(base_, nprocs_, rank_, static_cast<Lane>(lane));
    const std::size_t words = mask_words(nprocs_);
    for (std::size_t w = 0; w < words; ++w) {
      std::uint64_t m = mask[w].load(std::memory_order_acquire);
      while (m != 0) {
        const int bit = std::countr_zero(m);
        m &= m - 1;
        const std::size_t idx = w * 64 + static_cast<std::size_t>(bit);
        const SpscRing& ring = in_[lane][idx];
        const std::uint32_t head =
            ring.ctrl()->head.load(std::memory_order_acquire);
        const std::uint32_t tail =
            ring.ctrl()->tail.load(std::memory_order_acquire);
        if (tail == head) continue;
        os << " peer" << idx / 2 << (idx % 2 == 0 ? ".main" : ".svc")
           << (lane == static_cast<int>(Lane::kSvc) ? "->svc:" : "->app:")
           << (tail - head) << "B";
      }
    }
  }
}

}  // namespace mpl
