// Process mesh: transport-agnostic endpoint core.
//
// The parent process builds the interconnect (a Fabric) *before* forking
// the DSM processes, so every child inherits it. Per ordered pair
// (i -> j) there are two one-directional channels:
//
//   svc[i->j] : anything process i sends to j's *service* thread
//               (diff/page requests, lock requests and forwards)
//   app[i->j] : anything process i sends to j's *main* thread
//               (replies, grants, barrier and fork/join traffic, pvme data)
//
// How chunks cross the host is a Transport concern (transport.hpp):
// socketpairs or shared-memory rings, selected per run. Everything
// protocol-visible lives HERE, in the Endpoint — framing, chunked
// reassembly keyed by (src, kind, tag, req_id), logical-message
// counters, and virtual-clock charges — which is why modelled results
// (message counts, bytes, virtual times, checksums) are identical
// across transports by construction.
//
// All transports are non-blocking on the send side. Main-thread sends
// that would block first drain incoming app traffic into the Inbox
// ("pumping"), which makes all-to-all patterns deadlock-free without a
// rendezvous protocol.
//
// Hot-path discipline: receives reuse a payload-buffer pool, sends hand
// the caller's buffer straight to the transport (no staging copy), and
// the wait predicates are non-owning function references — steady-state
// traffic allocates only when a payload outgrows every pooled buffer.
#pragma once

#include <atomic>
#include <cstddef>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "mpl/counters.hpp"
#include "mpl/frame.hpp"
#include "mpl/transport.hpp"
#include "sim/virtual_clock.hpp"

namespace mpl {

/// Non-owning reference to a `bool(const Frame&)` predicate: wait_app
/// callers pass capturing lambdas without materializing a std::function
/// (and without its potential heap allocation) per receive.
class FramePredicate {
 public:
  template <typename F>
  FramePredicate(const F& f) noexcept  // NOLINT(google-explicit-constructor)
      : obj_(&f), call_([](const void* o, const Frame& fr) {
          return (*static_cast<const F*>(o))(fr);
        }) {}

  bool operator()(const Frame& f) const { return call_(obj_, f); }

 private:
  const void* obj_;
  bool (*call_)(const void*, const Frame&);
};

/// Recycled payload-buffer pool plus its demand signal: `takes` counts
/// buffers drawn since the last Endpoint::trim_buffer_pools(), so the
/// trim can shrink a post-spike surplus (one giant all-to-all phase,
/// say) down to what the steady state actually re-uses.
struct BufferPool {
  std::vector<std::vector<std::byte>> bufs;
  std::size_t takes = 0;
};

/// Parent-side bundle of the whole interconnect. Children call
/// Endpoint's constructor with their rank (which adopts their slice);
/// destroying the Fabric afterwards releases every resource that rank
/// does not own.
class Fabric {
 public:
  explicit Fabric(int nprocs, TransportKind kind = TransportKind::kSocket);
  Fabric(Fabric&&) noexcept = default;
  Fabric& operator=(Fabric&&) noexcept = default;

  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] TransportKind kind() const noexcept { return kind_; }

  /// Builds this rank's Transport, consuming its slice of the parent
  /// state. Called (once) from the child, via Endpoint.
  [[nodiscard]] std::unique_ptr<Transport> adopt(int rank);

  /// Parent-side death-propagation handle (see PeerKiller). Call before
  /// discarding the Fabric — the killer takes over the resources it
  /// needs (the shm region view, the poison-pipe write ends).
  [[nodiscard]] std::unique_ptr<PeerKiller> make_peer_killer();

 private:
  int nprocs_ = 0;
  TransportKind kind_ = TransportKind::kSocket;
  std::unique_ptr<FabricState> state_;
};

/// One process's view of the fabric. Construct in the child with adopt().
class Endpoint {
 public:
  /// Takes this rank's transport out of the fabric. The caller should
  /// then destroy the Fabric object to release all foreign resources.
  Endpoint(Fabric& fabric, int rank, simx::MachineModel model);

  /// Flushes any burst left open (so no frame is ever stranded in the
  /// transport — a rank unwinding mid-burst must not hang its peers),
  /// then releases the transport.
  ~Endpoint();

  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] simx::VirtualClock& clock() noexcept { return clock_; }
  [[nodiscard]] TransportKind transport_kind() const noexcept {
    return transport_->kind();
  }
  [[nodiscard]] Counters counters() const noexcept {
    return counters_.snapshot();
  }
  /// Host-side interconnect cost (send publishes, futex wakes) this
  /// rank has accumulated. Purely a host observable — never modelled.
  [[nodiscard]] HostStats host_stats() const noexcept {
    return transport_->host_stats();
  }

  // ---- per-peer send bursts (main thread) ----
  //
  // A multi-frame operation toward one peer — a barrier arrival carrying
  // write notices, a barrier depart with its pushed diffs, a lock grant
  // with piggybacked intervals — can be handed to the transport as ONE
  // unit:
  //
  //   ep.begin_burst(dst);
  //   ep.send_app(...); ep.send_svc(...);   // frames are batched
  //   ep.flush_burst();                      // one publish, one doorbell
  //
  // Bursts change HOST cost only: modelled clocks and counters are
  // charged per logical message exactly as without bursting. The burst
  // is auto-flushed at every operation boundary that could block on a
  // peer (wait_app, a send to a different destination, destruction), so
  // forgetting flush_burst() affects batching, never correctness.
  // Disabled entirely (every call a no-op) when TMK_FABRIC_BURST=0.

  /// Opens (or switches) the current send burst toward `dst`.
  void begin_burst(int dst);

  /// Publishes every batched frame and closes the burst. No-op when no
  /// burst is open.
  void flush_burst();

  // ---- main-thread send paths ----

  /// Sends a logical message to `dst`'s main thread. Charges the virtual
  /// clock and the message counters. Pumps incoming app traffic if the
  /// channel is full.
  void send_app(int dst, FrameKind kind, std::int32_t tag,
                std::uint32_t req_id, std::span<const std::byte> payload);

  /// Sends a logical message to `dst`'s service thread (main thread).
  void send_svc(int dst, FrameKind kind, std::int32_t tag,
                std::uint32_t req_id, std::span<const std::byte> payload);

  // ---- service-thread send paths (timestamp supplied by caller) ----

  /// Service thread: send to `dst`'s main thread with an explicit modelled
  /// arrival time (the service thread must not touch the main clock).
  void send_app_stamped(int dst, FrameKind kind, std::int32_t tag,
                        std::uint32_t req_id,
                        std::span<const std::byte> payload,
                        std::uint64_t vt_arrival);

  /// Service thread: send to `dst`'s service thread.
  void send_svc_stamped(int dst, FrameKind kind, std::int32_t tag,
                        std::uint32_t req_id,
                        std::span<const std::byte> payload,
                        std::uint64_t vt_arrival);

  /// Models the arrival time of a `bytes`-byte reply issued by the service
  /// thread at virtual time `base` (request arrival + handler time).
  [[nodiscard]] std::uint64_t stamp_reply(std::uint64_t base, int dst,
                                          std::size_t bytes) const noexcept {
    if (dst == rank_) return base;
    return base + clock_.model().send_cost(bytes) +
           clock_.model().wire_time(bytes);
  }

  // ---- main-thread receive path ----

  /// Blocks until a frame matching `pred` is available on any app channel
  /// (earlier non-matching frames are queued for later consumers), then
  /// returns it. Charges the virtual clock for the receive.
  Frame wait_app(FramePredicate pred);

  /// Convenience: wait for a specific kind (any source, any tag).
  Frame wait_app_kind(FrameKind kind);

  /// Convenience: wait for a specific kind from a specific source.
  Frame wait_app_kind_from(FrameKind kind, int src);

  /// Non-blocking drain of app channels into the pending queue.
  void pump();

  /// True if a frame matching `pred` is already queued.
  [[nodiscard]] bool has_pending(FramePredicate pred) const;

  /// Returns a consumed frame's payload buffer to the receive pool, so
  /// steady-state traffic recycles capacity instead of re-allocating.
  /// Optional: an un-recycled payload is simply freed. Main thread only.
  void recycle_buffer(std::vector<std::byte>&& buf);

  /// Service-thread counterpart of recycle_buffer() for frames consumed
  /// by svc handlers.
  void recycle_svc_buffer(std::vector<std::byte>&& buf);

  /// High-water-mark trim of the app-side receive pool: drops pooled
  /// buffers beyond the number actually taken since the previous trim
  /// (the DSM calls this at barriers). Main thread only — the svc pool
  /// is service-thread-owned and stays bounded by its fixed cap.
  void trim_buffer_pools();

  // ---- failure handling -----------------------------------------------
  //
  // Every main-thread blocking point (wait_app's drain loop, a blocked
  // send or burst flush) re-checks, once per kMaxWaitSliceMs:
  //   - this rank's own injected fault (unwind instead of wedging);
  //   - the runner's peer-death poison (abort naming the dead rank);
  //   - the optional wait deadline (TMK_WAIT_DEADLINE_MS; 0 = off).
  // On poison or deadline expiry the rank dumps a machine-readable
  // protocol snapshot ("TMK_CRASH_REPORT {json}" on stderr) and throws
  // a short common::Error naming this rank, the wait site, and the dead
  // rank — so every survivor of a peer death unwinds in bounded time
  // with a blame line, instead of parking until a global watchdog.

  /// Labels the protocol operation the main thread is about to block in
  /// ("barrier 3 fan-in", "lock 7 acquire (manager 1)", ...); the label
  /// appears in crash reports and blame errors. The pointee must
  /// outlive the call (it is copied into a bounded buffer).
  void set_wait_site(const char* site) noexcept;
  [[nodiscard]] const char* wait_site() const noexcept { return wait_site_; }

  /// Registers a protocol-state dumper for crash reports (the DSM
  /// runtime dumps its vector clock, barrier phase, and lock table).
  /// The writer must emit plain text WITHOUT double quotes (it lands
  /// inside a JSON string) and must tolerate being called from the main
  /// thread while the service thread runs. Pass nullptr to clear.
  void set_forensics(void (*writer)(void* ctx, std::ostream& os),
                     void* ctx) noexcept {
    forensics_writer_ = writer;
    forensics_ctx_ = ctx;
  }

  /// Runtime hook at barrier entry: drives the exit-at-barrier fault.
  void fault_barrier_entered() { transport_->barrier_entered(); }

  /// True once this rank's own injected fault has fired.
  [[nodiscard]] bool self_dead() const noexcept {
    return transport_->self_dead();
  }

  // ---- service-thread receive path ----

  /// Blocks until a frame arrives on any svc channel or `stop` becomes
  /// true (checked whenever the transport's wait is woken). Returns
  /// nullopt on stop.
  std::optional<Frame> next_svc_request(const std::atomic<bool>& stop);

  /// Wakes the service thread (so it can observe `stop`).
  void wake_service();

  // ---- measurement window ---------------------------------------------
  // The paper times the steady-state iterations, excluding initialization
  // and the first (cache-warming) iteration. mark_measurement_start()
  // snapshots the virtual clock and counters; the harness reports values
  // relative to the snapshot. Call it at the same logical point (right
  // after a barrier) in every process.

  void mark_measurement_start() {
    measure_vt_start_ = clock_.now();
    measure_counters_start_ = counters_.snapshot();
  }

  /// Ends the window (e.g. before an untimed checksum-gathering phase).
  void mark_measurement_end() {
    measure_vt_end_ = clock_.now();
    measure_counters_end_ = counters_.snapshot();
    measure_ended_ = true;
  }

  [[nodiscard]] std::uint64_t measured_vt() noexcept {
    const std::uint64_t end = measure_ended_ ? measure_vt_end_ : clock_.now();
    return end - measure_vt_start_;
  }
  [[nodiscard]] Counters measured_counters() const noexcept {
    const Counters end =
        measure_ended_ ? measure_counters_end_ : counters_.snapshot();
    return end.since(measure_counters_start_);
  }

 private:
  // Per-channel reassembly state. Only multi-chunk messages (payloads
  // over kMaxChunk) ever touch the map; single-datagram frames complete
  // on the fast path in feed(). The map key precomposes (src, kind, tag,
  // req_id) into two 64-bit words — the full 96 bits of identity, hashed
  // in one multiply instead of a std::map tuple comparison chain.
  struct Assembler {
    struct Key {
      std::uint64_t hi;  // src << 16 | kind
      std::uint64_t lo;  // u32(tag) << 32 | req_id
      [[nodiscard]] bool operator==(const Key&) const = default;
    };
    struct KeyHash {
      [[nodiscard]] std::size_t operator()(const Key& k) const noexcept {
        std::uint64_t x = (k.hi * 0x9e3779b97f4a7c15ull) ^ k.lo;
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ull;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
      }
    };
    std::unordered_map<Key, Frame, KeyHash> partial;

    // Feeds one datagram; returns a completed frame if this chunk was the
    // last one. Completed payloads draw capacity from `pool`.
    std::optional<Frame> feed(const FrameHeader& h,
                              std::span<const std::byte> chunk,
                              BufferPool& pool);
  };

  void send_chunks(Lane lane, int dst, bool pump_while_blocked,
                   FrameKind kind, std::int32_t tag, std::uint32_t req_id,
                   std::span<const std::byte> payload,
                   std::uint64_t vt_arrival);
  void count_if_remote(int dst, FrameKind kind, std::size_t bytes) noexcept;

  // Drains ready app datagrams; appends completed frames to pending_.
  // If `block`, waits until at least one frame completes.
  void drain_app(bool block);

  /// Main-thread health re-check between wait slices: throws when this
  /// rank's fault fired, fail_wait()s on peer poison or an expired
  /// deadline. `start_ns` is when this blocking point started waiting.
  void check_wait_health(std::uint64_t start_ns);

  /// Dumps the TMK_CRASH_REPORT line and throws the blame error.
  [[noreturn]] void fail_wait(const char* reason, int dead_rank,
                              std::uint64_t start_ns);

  int rank_;
  int nprocs_;
  simx::VirtualClock clock_;
  AtomicCounters counters_;

  std::unique_ptr<Transport> transport_;

  // Recycled payload buffers. app side: main thread only. svc side:
  // service thread only (frames handed to handlers that run on the
  // service thread).
  BufferPool app_buffer_pool_;
  BufferPool svc_buffer_pool_;

  Assembler app_assembler_;
  Assembler svc_assembler_;
  std::deque<Frame> pending_;
  std::deque<Frame> svc_pending_;

  std::uint64_t measure_vt_start_ = 0;
  std::uint64_t measure_vt_end_ = 0;
  Counters measure_counters_start_{};
  Counters measure_counters_end_{};
  bool measure_ended_ = false;

  // Burst state (main thread only; the service thread's sends batch at
  // most within one send_chunks call). burst_lane_used_ tracks which
  // transport lanes the open burst has touched, so flush only visits
  // those.
  bool burst_enabled_ = true;
  int burst_dst_ = -1;
  bool burst_lane_used_[2] = {false, false};

  // Failure-handling state (main thread only, except the forensics
  // writer pointer which is set once before the service thread starts).
  long long wait_deadline_ms_ = 0;  // 0 = no deadline
  char wait_site_[64] = "startup";
  void (*forensics_writer_)(void*, std::ostream&) = nullptr;
  void* forensics_ctx_ = nullptr;
  // Last app-lane frame kind seen per source (0xffff = none yet): the
  // crash report's "how far did each peer get" breadcrumb.
  std::vector<std::uint16_t> last_frame_kind_;
};

}  // namespace mpl
