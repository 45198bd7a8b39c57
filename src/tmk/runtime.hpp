// TreadMarks runtime (§2.2, §2.3, §8).
//
// A user-level page-based software DSM:
//   - the shared heap is one anonymous private mapping inherited from the
//     harness parent, so it sits at the same address in every process and
//     starts as identical zero pages everywhere;
//   - access detection uses mprotect + SIGSEGV, at page granularity;
//   - consistency is lazy invalidate release consistency with a
//     multiple-writer protocol: writers twin pages on the first write
//     fault, create run-length diffs when their interval closes, and
//     faulting readers pull exactly the diffs they are missing;
//   - synchronization: centralized-manager barriers (2(n-1) messages) and
//     statically-managed locks whose releases are silent;
//   - the improved compiler interface (§2.3): one-to-all `fork` carrying
//     the loop-control block and all-to-one `join`, 2(n-1) messages per
//     parallel loop instead of 8(n-1);
//   - the extension interface used for the §5 hand optimizations
//     (Dwarkadas et al. [7]): aggregated validate (pull), push, and
//     broadcast of shared data.
//
// Threading model: the application runs on the rank's main thread; one
// service thread per Runtime answers diff fetches and lock traffic.
// The SIGSEGV handler runs on the faulting rank's main thread and
// performs its own RPCs; the process-wide handler hands each fault to
// the faulting thread's own Runtime (instance()), so under the runner's
// thread backend many rank runtimes — each with its own heap range —
// coexist in one process. Internal state is guarded by mu_ with the
// strict rule that no thread blocks on the network while holding it.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "mpl/fabric.hpp"
#include "runner/runner.hpp"
#include "tmk/config.hpp"  // UpdateMode / RaceCheckMode / Config
#include "tmk/diff.hpp"
#include "tmk/types.hpp"

namespace tmk {

/// Per-page protocol state.
enum class PageState : std::uint8_t {
  kZero,       // mapped PROT_READ; never written or patched on this rank,
               // so it still holds the zeroed heap's zeros
  kReadOnly,   // mapped PROT_READ; contents valid
  kReadWrite,  // mapped PROT_READ|PROT_WRITE; twinned, being written
  kInvalid,    // mapped PROT_NONE; write notices pending
};

class Runtime {
 public:
  /// Number of lock identifiers available to the application.
  static constexpr int kNumLocks = 64;

  /// One detected race: an incoming write notice that is concurrent
  /// (vector-clock unordered) with a local access to an overlapping
  /// block range of the same page. `local_write` distinguishes
  /// write/write from remote-write/local-read. Also emitted as one
  /// machine-greppable `TMK_RACE_REPORT {json}` stderr line.
  struct RaceReport {
    PageIndex page = 0;
    RaceMask overlap_mask;  // 4-byte diff words both sides touched
    bool local_write = false;
    ProcId remote = 0;  // the incoming interval's creator
    Seq remote_seq = 0;
    Seq local_seq = 0;  // local closed interval, or the open interval's
                        // would-be seq for open/read records
    VectorClock remote_vc;
    VectorClock local_vc;
    std::uint32_t barrier_seq = 0;  // workload phase at detection
  };

  /// Attaches the DSM to the rank's heap mapping and starts the
  /// service thread. At most one Runtime may be alive per rank thread
  /// (throws common::Error otherwise); it becomes the thread's
  /// instance(), which takes the thread's faults, until it is destroyed.
  /// Every protocol knob comes from the run's Config snapshot,
  /// ctx.config.
  explicit Runtime(runner::ChildContext& ctx);
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  [[nodiscard]] int rank() const noexcept { return rank_; }
  [[nodiscard]] int nprocs() const noexcept { return nprocs_; }
  [[nodiscard]] mpl::Endpoint& endpoint() noexcept { return ep_; }
  [[nodiscard]] RaceCheckMode racecheck() const noexcept {
    return cfg_.racecheck;
  }

  /// Every race detected so far, in detection order (tests; the stress
  /// workload asserts the exact set against its seed-derived plan).
  /// Capped at TMK_RACECHECK_MAX_REPORTS records: past the cap the
  /// stderr line and counters still fire but nothing more is stored.
  [[nodiscard]] std::vector<RaceReport> race_reports() const {
    std::lock_guard<std::mutex> g(mu_);
    return race_reports_;
  }

  /// This Runtime's protocol counters since construction, one cell per
  /// runner/counters.hpp row. Call it on the application thread: the
  /// service thread bumps its cells under mu_, and the copy is taken
  /// under mu_. After shutdown() the block is final and holds the
  /// end-of-run terms; shutdown() folds it into ChildContext::ctrs.
  [[nodiscard]] runner::ctr::Block counters() const;

  /// Point-in-time protocol memory accounting (tests and the soak
  /// assertion; protocol_rss_bytes also feeds the run counter of the
  /// same name through shutdown). Computed under mu_, so it is a
  /// consistent snapshot, not a sampled estimate.
  struct MemStats {
    std::uint64_t protocol_rss_bytes = 0;  // bytes held by protocol state
    std::uint64_t records_created = 0;     // interval records ever logged
    std::uint64_t records_reclaimed = 0;   // the intervals_reclaimed cell
    std::uint64_t records_live = 0;        // records currently held
    std::uint64_t twins_live = 0;          // twins attached to pages
    std::uint64_t page_ext_live = 0;       // non-null PageExt slots
  };
  [[nodiscard]] MemStats mem_stats() const;

  /// Snapshot of the current vector clock (tests and diagnostics; the
  /// across-mode equivalence suite asserts final clocks are identical
  /// whether diffs were pushed or pulled).
  [[nodiscard]] VectorClock clock_snapshot() const {
    std::lock_guard<std::mutex> g(mu_);
    return vc_;
  }

  // ---- allocation --------------------------------------------------
  // All processes must perform the identical allocation sequence (the
  // Fortran-common-block discipline of §2.2); allocations are served from
  // a deterministic bump pointer over the inherited mapping.

  /// Allocates `bytes` of shared memory. When `page_align` is set the
  /// block is padded to page boundaries — what SPF does for every shared
  /// array to reduce false sharing (§2.1).
  void* alloc_bytes(std::size_t bytes, bool page_align = true);

  template <typename T>
  [[nodiscard]] T* alloc(std::size_t count, bool page_align = true) {
    return static_cast<T*>(alloc_bytes(count * sizeof(T), page_align));
  }

  // ---- synchronization ----------------------------------------------

  /// Global barrier with a centralized manager at process 0 (§2.2).
  void barrier();

  void lock_acquire(int lock_id);
  void lock_release(int lock_id);

  // ---- improved compiler interface (§2.3) ----------------------------

  /// Master: closes the current interval and broadcasts the loop-control
  /// block plus consistency information to all workers (one-to-all).
  void fork_broadcast(std::uint32_t func_id, std::span<const std::byte> args);

  struct ForkWork {
    std::uint32_t func_id = 0;
    std::vector<std::byte> args;
  };

  /// Worker: blocks for the next fork message and integrates its
  /// consistency information.
  [[nodiscard]] ForkWork wait_fork();

  /// Worker: closes the interval and reports to the master (all-to-one).
  void join_worker();

  /// Master: collects all workers' join messages.
  void join_master();

  // ---- extension interface (§5 hand optimizations, §8) ---------------

  /// Aggregated pull: fetches every missing diff for [base, base+len) in
  /// one batched request per remote writer, instead of page-at-a-time
  /// faulting. ("Data aggregation" of §5.)
  void validate(const void* base, std::size_t len);

  /// Aggregated pull over several disjoint ranges (e.g. the strided slab
  /// a transposed FFT pass will read): still one batched request per
  /// remote writer across all ranges.
  struct Range {
    const void* base;
    std::size_t len;
  };
  void validate_ranges(std::span<const Range> ranges);

  /// Pushes the current contents of [base, base+len) to `dst`, together
  /// with the covered write-notice identities, so the receiver will not
  /// re-fetch them. The range must be page-aligned and closed under this
  /// process's current writes (the call closes the interval first).
  /// The receiver must call accept_push(src).
  void push(int dst, const void* base, std::size_t len);

  /// Receives one pushed region from `src` and applies it.
  void accept_push(int src);

  /// Hybrid update protocol hint: declares that `consumer` reads
  /// [base, base+len) after barriers, so this rank's barrier-time diffs
  /// of those pages are pushed to it instead of being pulled through a
  /// SIGSEGV fault plus a kDiffRequest/kDiffReply round trip. Derived
  /// from the src/dist decomposition (the compiler's static knowledge
  /// of the halo exchange, §2.1/§2.3); a no-op unless the update mode is
  /// kHybrid, so TMK_UPDATE_MODE=off runs are byte-identical with or
  /// without hints in the application.
  void hint_consumers(const void* base, std::size_t len, int consumer);

  /// Collective broadcast of [base, base+len) from `root`; merges
  /// synchronization and data (§5.3's MGS optimization). All processes
  /// must call it.
  void bcast(int root, void* base, std::size_t len);

  // ---- harness -------------------------------------------------------

  /// Final rendezvous: no shared-memory access is allowed afterwards.
  /// Called automatically by the destructor if not called explicitly.
  /// While an exception unwinds the rank it skips the rendezvous, which
  /// peers still mid-run would never answer, and only stops the service
  /// thread; the runner then blames the rank and poisons the mesh.
  void shutdown();

  /// The Runtime whose application thread is the calling thread (set at
  /// construction, cleared at destruction), or null — the SIGSEGV
  /// handler's only lookup. Under the thread backend every rank thread
  /// resolves to its own context.
  [[nodiscard]] static Runtime* instance() noexcept;

  /// SIGSEGV entry point, on this Runtime's application thread. Returns
  /// false if the address is outside this rank's heap, after one `tmk:`
  /// stderr line naming the rank, the address and the heap range (the
  /// handler then passes the signal to the previous action).
  bool handle_fault(void* addr, bool is_write);

  /// Total bytes of shared heap managed.
  [[nodiscard]] std::size_t heap_bytes() const noexcept { return heap_len_; }
  [[nodiscard]] void* heap_base() const noexcept { return heap_; }

 private:
  // Per-page state is split in two: a 2-byte record for every page (the
  // array is sized num_pages_ at startup — keeping it tiny makes Runtime
  // construction O(pages) over bytes, not cache lines), plus extended
  // protocol state allocated lazily the first time a page participates
  // in the protocol. Most pages of a large heap never do.
  struct PageMeta {
    PageState state = PageState::kZero;
    bool dirty = false;  // written during the current interval
  };
  static_assert(sizeof(PageMeta) == 2);

  struct PageExt {
    // The twin persists across interval closes (lazy diffing): it is the
    // page image as of the last flush, covering every interval in
    // `unflushed` plus any open-interval writes. A page first written in
    // state kZero twins against the shared zero image (zero_twin) and
    // holds no copy; `twin` is a private copy otherwise.
    std::unique_ptr<std::byte[]> twin;
    [[nodiscard]] bool has_twin() const noexcept {
      return zero_twin || twin != nullptr;
    }
    [[nodiscard]] const std::byte* twin_image() const noexcept {
      return zero_twin ? kZeroImage : twin.get();
    }
    // The twin as bytes a remote diff can be applied to: a zero twin
    // becomes a private zero-filled copy first.
    [[nodiscard]] std::byte* writable_twin() {
      if (zero_twin) {
        twin = std::make_unique<std::byte[]>(common::kPageSize);
        zero_twin = false;
      }
      return twin.get();
    }
    void free_twin() noexcept {
      twin.reset();
      zero_twin = false;
    }
    std::vector<const IntervalMeta*> pending;
    // Every interval known to touch this page (applied or pending);
    // lets push() enumerate covered write notices without a full scan.
    std::vector<const IntervalMeta*> notices;
    // My closed intervals whose diffs have not been created yet; they all
    // share the flush-time diff, so they are flushed before any remote
    // diff lands on the page (one blob never carries another writer's
    // words).
    std::vector<Seq> unflushed;
    // Applied-ahead marks, at most one per creator: (c, s) means c's
    // writes to this page through seq s are already here (a fetched
    // flush blob covered them, or a push carried them) although notice
    // s is not integrated yet. A notice from c at or below s leaves the
    // page valid; notice s itself retires the mark.
    std::vector<IntervalKey> applied_ahead;
    void mark_applied_ahead(ProcId creator, Seq seq) {
      for (IntervalKey& k : applied_ahead)
        if (k.creator == creator) {
          k.seq = std::max(k.seq, seq);
          return;
        }
      applied_ahead.push_back({creator, seq});
    }
    // True when notice (creator, seq) finds its data already here.
    bool take_applied_ahead(ProcId creator, Seq seq) {
      for (auto it = applied_ahead.begin(); it != applied_ahead.end(); ++it) {
        if (it->creator != creator || seq > it->seq) continue;
        if (seq == it->seq) applied_ahead.erase(it);
        return true;
      }
      return false;
    }
    // ---- hybrid update protocol (mode != off only) ----
    // Predicted consumers: static decomposition hints and the learned
    // set of ranks whose diff requests touched this page. The adaptive
    // bits expire when push_budget runs out; a fresh request re-arms it.
    ProcMask hint_consumers;
    ProcMask adaptive_consumers;
    std::uint8_t push_budget = 0;  // re-armed to Config::push_credits
    // (The twin's flag sits here, in push_budget's padding, so PageExt
    // does not grow.)
    bool zero_twin = false;
    static_assert(Config::push_credits >= 1 && Config::push_credits <= 0xff);
    // Own-interval push watermarks: the highest own seq that dirtied
    // this page, and the highest own seq already offered to consumers.
    Seq own_last_seq = 0;
    Seq pushed_seq = 0;
    // ---- race detection (racecheck != off only) ----
    // The twin persists across interval closes (lazy diffing), so a
    // twin-vs-page scan at close time yields the CUMULATIVE write mask
    // of every unflushed interval. This watermark is that cumulative
    // mask as of the previous close; the delta is the closing
    // interval's own mask. Reset whenever the twin is re-baselined
    // (created, flushed-and-recopied, or freed).
    RaceMask race_cum_mask;
    // Read records of the current sync epoch (precise mode only —
    // summary tracks writes exclusively): the open interval's would-be
    // seq, the epoch it was taken in, and the faulting 4-byte words
    // read. Records from earlier epochs are barrier-ordered before
    // any interval that can still arrive, so they are pruned on record.
    struct ReadRec {
      Seq seq = 0;
      std::uint32_t epoch = 0;
      RaceMask mask;
    };
    std::vector<ReadRec> race_reads;
  };

  struct LockState {
    // Main-thread view.
    bool held = false;
    // True when this process was the lock's last owner and has released
    // it (a forward can be granted immediately by the service thread).
    bool released_here = false;
    // Pending successor stored by the service thread while we hold it.
    std::optional<std::pair<ProcId, VectorClock>> successor;
  };

  // -- helpers, main thread --
  void close_interval();
  void integrate_interval(ProcId creator, Seq seq, const VectorClock& vc,
                          std::vector<PageIndex> pages,
                          std::vector<RaceMask> write_masks);
  void serialize_intervals_lacking(ByteWriter& w,
                                   const VectorClock& their_vc) const;
  void put_interval_record(ByteWriter& w, const IntervalMeta& m) const;
  void serialize_own_intervals_after(ByteWriter& w, Seq after_seq) const;
  void read_intervals(ByteReader& r);

  // -- rendezvous halves (§2.2 barrier, §2.3 fork/join; main thread) --
  // barrier() is an arrival wave then a depart wave; join is the arrival
  // alone and fork the depart alone, with the loop-control block as the
  // depart's header. `seq` is the barrier or fork sequence number.
  //
  // Worker: seq, vector clock, and the own intervals after
  // sent_to_master_seq_.
  void send_arrival(mpl::FrameKind kind, std::uint32_t seq);
  // Manager: reads the n-1 arrivals, integrates their intervals and
  // records each worker's clock in worker_vc_. A non-null `horizon` is
  // set to the manager's pre-fan-in clock met with every arrival clock
  // (the GC round's global horizon).
  void gather_arrivals(mpl::FrameKind kind, std::uint32_t seq,
                       VectorClock* horizon);
  // Manager: per worker, seq, `header`, the clock, the intervals that
  // worker lacks per worker_vc_ (then merged with the clock), and a
  // non-null `horizon` last.
  void send_departs(mpl::FrameKind kind, std::uint32_t seq,
                    std::span<const std::byte> header,
                    const VectorClock* horizon);
  // Worker: the clock and intervals of a depart whose seq and header
  // the caller has read.
  void integrate_depart(ByteReader& r);

  // Both write-fault paths end here (caller holds mu_): twin the page
  // unless it still holds a twin, mark it dirty for the open interval,
  // and map it read-write. A kZero page's twin is kZeroImage, not a copy.
  void make_writable_locked(PageIndex page);
  // The all-zero page every zero twin reads. Read-only data, so a stray
  // write through it faults instead of corrupting every zero twin.
  alignas(common::kPageSize) static const std::byte
      kZeroImage[common::kPageSize];

  // -- hybrid update protocol (barrier-time diff push; mode != off) --
  [[nodiscard]] bool pushing() const noexcept {
    return cfg_.update_mode != UpdateMode::kOff;
  }
  // Plan which pages go to which predicted consumers (caller holds mu_;
  // called right after close_interval at barrier entry).
  void build_push_plan();
  // Barrier entry, before the arrival: plans, flushes each planned page,
  // keeps the pages whose span (lo, hi] is one flush blob, and sends one
  // kDiffPush frame per destination, tagged with barrier_seq_ (takes
  // mu_).
  void send_pushes();
  // After the depart: takes every kDiffPush frame of this barrier
  // without blocking, then applies every fully-covered page (sorted by
  // vc weight, after flushing our own unflushed intervals of it) and
  // stashes the rest for the fault path.
  void collect_pushes();

  // Pulls and applies every pending diff of `pages`, per page in vc-weight
  // order, after flushing the page's own unflushed intervals. A reply
  // whose blob covers seqs this rank has not integrated yet raises the
  // page's applied-ahead mark for that creator.
  // `learn=false` marks the requests as epoch-GC validation traffic
  // (kDiffRequest tag 1): the server answers identically but does NOT
  // feed its adaptive push predictor — a forced fetch proves nothing
  // about what the requester actually reads, and learning from it would
  // turn every GC round into a sustained mispredicted-push storm.
  void fetch_and_apply(std::span<const PageIndex> pages, bool learn = true);

  // Page protection (main thread, under mu_). Interval close, notice
  // integration and fetch_and_apply update page state as they go,
  // collect the pages in prot_pages_, and change their protection with
  // mprotect_runs before they release mu_. The fault path, the
  // race-check scan and the push paths (collect_pushes, accept_push)
  // change one page at a time. Every mprotect on the heap counts in
  // the host_mprotect_calls cell.
  void mprotect_range(PageIndex first, std::size_t npages, int prot);
  void mprotect_page(PageIndex page, int prot) {
    mprotect_range(page, 1, prot);
  }
  // One mprotect per maximal run of consecutive page indices.
  void mprotect_runs(std::span<const PageIndex> ascending_pages, int prot);
  std::vector<PageIndex> prot_pages_;

  [[nodiscard]] std::byte* page_ptr(PageIndex page) const noexcept {
    return static_cast<std::byte*>(heap_) + page * common::kPageSize;
  }
  [[nodiscard]] PageIndex page_of(const void* p) const noexcept {
    return static_cast<PageIndex>(
        (static_cast<const std::byte*>(p) - static_cast<std::byte*>(heap_)) /
        common::kPageSize);
  }
  [[nodiscard]] int lock_manager(int lock_id) const noexcept {
    return lock_id % nprocs_;
  }

  // -- crash forensics --
  /// Endpoint crash-report hook (Endpoint::set_forensics): dumps the
  /// vector clock, barrier/fork phase, and held locks as quote-free
  /// text. Best-effort — uses try_lock on mu_ since the service thread
  /// may hold it while the main thread is writing the report.
  static void write_forensics(void* ctx, std::ostream& os);

  // -- service thread --
  void service_loop();
  void serve_diff_request(const mpl::Frame& f);
  void serve_lock_request(const mpl::Frame& f);
  void serve_lock_forward(const mpl::Frame& f);
  // Composes a grant for `requester` given its vector clock; used by both
  // the service thread and the main thread (at release).
  void send_lock_grant(int lock_id, ProcId requester,
                       const VectorClock& req_vc, bool from_service,
                       std::uint64_t base_vt);

  int rank_;
  int nprocs_;
  mpl::Endpoint& ep_;
  void* heap_;
  std::size_t heap_len_;
  std::size_t num_pages_;
  std::size_t alloc_off_ = 0;
  // The run's knob snapshot, copied from ChildContext at construction.
  const Config cfg_;

  // The one lock on protocol state: vc_, intervals_, pages_ and
  // page_ext_, locks_, diffs_, push_stash_ and the flush scratch. The
  // service thread holds it for the whole of each request it serves.
  mutable std::mutex mu_;
  VectorClock vc_;
  // Per-creator interval log: seqs are contiguous by construction, and
  // epoch GC pops reclaimed prefixes off the front, so record (p, s)
  // lives at live[s - 1 - base]. `base` is the highest reclaimed seq
  // (0 = nothing reclaimed); every indexing site guards s > base.
  struct IntervalLog {
    std::deque<std::unique_ptr<IntervalMeta>> live;
    Seq base = 0;
    /// Highest seq in the log (== base when empty).
    [[nodiscard]] Seq hi() const noexcept {
      return base + static_cast<Seq>(live.size());
    }
    /// Record (creator, s); caller guarantees base < s <= hi().
    [[nodiscard]] const IntervalMeta* at(Seq s) const noexcept {
      return live[static_cast<std::size_t>(s - 1 - base)].get();
    }
  };
  std::array<IntervalLog, mpl::kMaxProcs> intervals_;
  std::vector<PageMeta> pages_;
  // Lazily-allocated extended page state; null until a page first
  // participates in the protocol. Guarded by mu_ like pages_.
  std::vector<std::unique_ptr<PageExt>> page_ext_;
  std::vector<PageIndex> dirty_pages_;  // pages twinned this interval
  std::vector<LockState> locks_;

  // Extended state accessors (caller holds mu_): ext() creates on first
  // use; ext_if() is the read-only peek that never allocates.
  [[nodiscard]] PageExt& ext(PageIndex page) {
    auto& e = page_ext_[page];
    if (e == nullptr) e = std::make_unique<PageExt>();
    return *e;
  }
  [[nodiscard]] const PageExt* ext_if(PageIndex page) const noexcept {
    return page_ext_[page].get();
  }

  // One flushed diff can cover several of a page's intervals (everything
  // since the previous flush); covered_up_to tells the fetcher which
  // write notices the blob satisfies beyond the requested one.
  struct DiffRec {
    std::shared_ptr<std::vector<std::byte>> blob;
    Seq covered_up_to = 0;
  };
  // Diffs created by this process, keyed by diff_key(page, seq).
  std::unordered_map<std::uint64_t, DiffRec> diffs_;
  [[nodiscard]] static constexpr std::uint64_t diff_key(PageIndex page,
                                                        Seq seq) noexcept {
    return (static_cast<std::uint64_t>(page) << 32) | seq;
  }
  // A kDiffReply entry whose length is this marker shares the previous
  // entry's bytes (one lazy flush covers several intervals of a page).
  static constexpr std::uint32_t kSameAsPrevious = 0xffffffffu;

  // Flushes a page's lazy diff (creates it from twin vs current content
  // and registers it for every unflushed interval). Caller holds mu_.
  // A dirty page adopts the flush snapshot as its new twin; a clean
  // page's twin has no further use and is freed. Runs on a diff request
  // for an unflushed seq, on a push of the page, and before remote
  // diffs are applied to it. Returns modelled cost.
  std::uint64_t flush_page_diff(PageIndex page);

  // Reusable worst-case-sized diff encode buffer (service thread, under
  // mu_): the stored blob is then one exact-size allocation.
  std::vector<std::byte> diff_scratch_;
  // Page snapshot an invalid or dirty page's flush diffs against (under
  // mu_). A dirty page adopts it as its twin; the replaced twin becomes
  // the next snapshot.
  std::unique_ptr<std::byte[]> flush_snapshot_;
  // Reads a PROT_NONE page without changing its protection (the
  // application thread must keep faulting on it); /proc/self/mem is
  // opened on first use and closed by the destructor.
  void read_protected_page(PageIndex page, std::byte* out);
  int self_mem_fd_ = -1;
  // Reply writer reused across diff-request handlers (service thread).
  tmk::ByteWriter svc_reply_writer_;

  // fetch_and_apply scratch, reused across faults so the steady-state
  // fault path performs no per-call allocation (main thread only).
  struct FetchNeed {
    PageIndex page;
    Seq seq;
  };
  struct FetchedDiff {
    PageIndex page;
    const IntervalMeta* interval;
    // View into a reply frame's payload (kept alive in fetch_replies_
    // until applied): fetched diffs are staged without copying.
    std::span<const std::byte> blob;
    bool same_as_prev;  // shares the previous entry's flush blob
  };
  struct FetchOutstanding {
    ProcId creator;
    std::uint32_t req_id;
  };
  // Sized nprocs_ at construction (not kMaxProcs): both are touched on
  // every fault, and an 8-rank run has no business clearing 128 slots.
  std::vector<std::vector<FetchNeed>> fetch_needs_;
  std::vector<FetchOutstanding> fetch_outstanding_;
  std::vector<FetchedDiff> fetch_staged_;
  std::vector<mpl::Frame> fetch_replies_;
  tmk::ByteWriter fetch_writer_;

  // -- race detection (racecheck != off only) --
  // All called with mu_ held on the main thread — detection only ever
  // reads main-thread access records, which is what suppresses the
  // deliberate lazy-diffing service-thread race by construction.
  //
  // Checks one incoming write notice against local access records:
  // closed own intervals with seq > vc_in[rank_] are vector-clock
  // concurrent (anything older was delivered to the creator by an
  // earlier barrier/grant and is ordered); the open interval's
  // writes-so-far and current-epoch reads are concurrent by
  // construction (records appended after this integration are ordered
  // behind the acquire that delivered it, and are never re-checked).
  void race_check_incoming(const IntervalMeta& m);
  // Appends a read record for the faulting page (kInvalid read fault;
  // post-fault reads do not trap — a documented under-approximation).
  void race_record_read(PageIndex page, std::size_t offset_in_page);
  // Emits the TMK_RACE_REPORT stderr line and stores the report.
  void race_emit(RaceReport r);
  // Throws (outside mu_) if racecheck_throw is set and a report fired
  // during the integration that just completed.
  void race_maybe_throw();

  // Sync-epoch counter for read-record pruning: bumped at every global
  // rendezvous (barrier, fork receipt, join collection). An interval
  // arriving in epoch E can only contain writes performed in E — every
  // older write was closed and delivered by the rendezvous that ended
  // its epoch — so read records from epochs < E are ordered before it
  // even when no interval close ever told the remote vector clock so
  // (a rank that reads but writes nothing closes no intervals).
  std::uint32_t race_epoch_ = 0;
  bool race_throw_pending_ = false;
  // Capped at Config::racecheck_max_reports; the race_reports and
  // race_reports_dropped cells keep counting past the cap.
  std::vector<RaceReport> race_reports_;

  // -- epoch GC (TMK_EPOCH_GC; default on) --
  // Every `gc_interval_`-th barrier is a GC round: the manager folds
  // its own clock and every arrival's clock into the element-wise
  // minimum, the global horizon H, and the departs additionally carry H
  // to the workers. Reclamation then runs one round behind: at round
  // G each rank first frees everything at or below the snapshot taken
  // at round G-1 (safe: every rank passed barrier G-1 with that state
  // integrated, and the round-G validation below guaranteed no pending
  // references remain), then force-applies its own pending notices at
  // or below H (modelled validate traffic) and snapshots vc_ as the
  // next round's reclaim horizon. Non-GC barriers are byte-identical to
  // the GC-off protocol. Only barrier() counts toward a round: a
  // program that synchronizes by fork/join alone never reclaims.
  std::uint32_t gc_interval_ = 64;  // Config::epoch_gc_interval, >= 1
  // Validated reclaim horizon from the previous GC round (== vc_ at
  // that round's end, identical on every rank).
  VectorClock gc_ready_horizon_;
  bool gc_have_snapshot_ = false;
  // Accounting for the invariant records_created == records_reclaimed
  // (the intervals_reclaimed cell) + live records (own closes and
  // integrated remotes alike).
  std::uint64_t records_created_ = 0;

  /// True when barrier number `barrier_seq_` is a GC round (1-based:
  /// the arriving barrier is barrier_seq_ + 1).
  [[nodiscard]] bool gc_round_now() const noexcept {
    return cfg_.epoch_gc && (barrier_seq_ + 1) % gc_interval_ == 0;
  }
  // Frees every interval record with seq <= horizon[creator] plus the
  // diff blobs, notices, unflushed prefixes, stashed pushes, and race
  // metadata that reference them; frees the twins of pages left with
  // nothing to flush and folds emptied PageExt slots back to nullptr.
  // Caller holds mu_.
  void epoch_gc_reclaim(const VectorClock& horizon);
  // Bytes of protocol state held right now (caller holds mu_).
  [[nodiscard]] std::uint64_t protocol_rss_bytes_locked() const;
  // Raises the protocol_rss_bytes cell (a peak) to the current footprint.
  void sample_protocol_rss_locked();

  // -- hybrid update protocol state (mode != off only) --
  struct PushPlanEntry {
    PageIndex page;
    Seq lo = 0;  // push covers own seqs in (lo, hi] for this page
    Seq hi = 0;
    ProcMask dsts;
    std::shared_ptr<std::vector<std::byte>> blob;  // the span's flush blob
  };
  std::vector<PushPlanEntry> push_plan_;
  // Pages with own intervals not yet offered to consumers (appended by
  // close_interval, drained by build_push_plan).
  std::vector<PageIndex> push_candidates_;
  // Receiver-side stash of pushed diffs that could NOT be applied at the
  // barrier (the page had pending write notices the round's pushes did
  // not fully cover — false sharing with an unpredicted writer). The
  // fault path consumes them in place of a network fetch: the blob
  // covers the creator's seqs in (lo, hi], exactly like a pulled flush
  // blob, and is applied in the same vc-weight order. Keyed by
  // (page << 7) | creator; guarded by mu_ (main thread only).
  struct PushStash {
    Seq lo = 0;
    Seq hi = 0;
    std::shared_ptr<std::vector<std::byte>> blob;
  };
  static constexpr int kStashCreatorBits = 7;
  static_assert(mpl::kMaxProcs <= (1 << kStashCreatorBits));
  [[nodiscard]] static constexpr std::uint64_t stash_key(
      PageIndex page, ProcId creator) noexcept {
    return (static_cast<std::uint64_t>(page) << kStashCreatorBits) | creator;
  }
  [[nodiscard]] static constexpr ProcId stash_creator(
      std::uint64_t key) noexcept {
    return static_cast<ProcId>(key & ((1u << kStashCreatorBits) - 1));
  }
  std::unordered_map<std::uint64_t, PushStash> push_stash_;

  // Manager only, indexed by rank: what each worker is known to hold,
  // set by its arrival and merged with the manager's clock at each
  // depart, which sends it only the intervals beyond it.
  std::vector<VectorClock> worker_vc_;
  // My own intervals already sent to proc 0, by a barrier arrival or a
  // join: the floor both report from.
  Seq sent_to_master_seq_ = 0;
  std::uint32_t barrier_seq_ = 0;
  std::uint32_t fork_seq_ = 0;
  std::uint32_t next_req_id_ = 1;
  // Manager-side record of the last process to request each lock.
  std::vector<ProcId> lock_last_requester_;

  // Host-side cost of delivering one page fault (measured at startup);
  // excluded from scaled compute at each fault.
  std::uint64_t host_fault_cost_ns_ = 0;

  std::thread service_;
  std::atomic<bool> stop_{false};
  bool shutdown_done_ = false;

  // Protocol counters, bumped where each event happens. The cells the
  // service thread bumps (diff_replies, diffs_created, diff_bytes_created)
  // are only ever bumped under mu_; the application thread owns the rest.
  using Ctr = runner::ctr::Id;
  runner::ctr::Block ctrs_;
  // The rank's report block, which shutdown() folds ctrs_ into (several
  // Runtimes in turn on one rank add up).
  runner::ChildContext& report_ctx_;
  // shutdown()'s last step, on every path: adds the end-of-run terms to
  // ctrs_ and folds it into report_ctx_.ctrs.
  void fold_counters() noexcept;
};

}  // namespace tmk
