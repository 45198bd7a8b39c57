// TreadMarks runtime: lifecycle, allocation, intervals, consistency
// integration, barriers, fork/join, extensions, and fault handling.
// Lock traffic lives in locks.cpp; the service loop in service.cpp; the
// SIGSEGV trampoline in sigsegv.cpp.
#include "tmk/runtime.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"

namespace tmk {

namespace {

// Fault-dispatch registry: one slot per live Runtime in this process.
// Slots are claimed by CAS so concurrent rank threads (the thread
// backend constructs all ranks' runtimes at once) need no lock, and
// reads are plain atomic loads — async-signal-safe. The process
// backend occupies exactly one slot per child. This unsorted array is
// the ground truth; the sorted index below is an accelerator.
std::atomic<Runtime*> g_runtimes[mpl::kMaxProcs] = {};

// Sorted heap-range index: owner_of's O(log n) fast path. At 128 rank
// threads the former linear scan put up to 128 range probes on every
// page fault's critical path; the handler now binary-searches this
// base-sorted table instead. Writers (Runtime construction and
// destruction) serialize on g_range_mu and publish via the seqlock
// g_range_version (odd while mutating); the reader — the SIGSEGV
// handler, async-signal-safe by construction — retries on a torn read
// a bounded number of times and falls back to the linear ground-truth
// scan, so a fault taken while another thread is mid-registration can
// never spin forever (not even on a genuine wild-pointer crash taken
// by the registering thread itself, which holds g_range_mu).
struct HeapRange {
  std::atomic<std::uintptr_t> base{0};
  std::atomic<std::uintptr_t> end{0};
  std::atomic<Runtime*> rt{nullptr};
};
HeapRange g_ranges[mpl::kMaxProcs];
std::atomic<std::uint32_t> g_range_count{0};
std::atomic<std::uint32_t> g_range_version{0};
std::mutex g_range_mu;

void range_index_insert(Runtime* rt, std::uintptr_t base,
                        std::uintptr_t end) {
  std::lock_guard<std::mutex> g(g_range_mu);
  const std::uint32_t n = g_range_count.load(std::memory_order_relaxed);
  COMMON_CHECK(n < static_cast<std::uint32_t>(mpl::kMaxProcs));
  g_range_version.fetch_add(1, std::memory_order_acq_rel);  // odd: mutating
  std::uint32_t i = n;
  while (i > 0 && g_ranges[i - 1].base.load(std::memory_order_relaxed) >
                      base) {
    g_ranges[i].base.store(
        g_ranges[i - 1].base.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    g_ranges[i].end.store(g_ranges[i - 1].end.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    g_ranges[i].rt.store(g_ranges[i - 1].rt.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
    --i;
  }
  g_ranges[i].base.store(base, std::memory_order_relaxed);
  g_ranges[i].end.store(end, std::memory_order_relaxed);
  g_ranges[i].rt.store(rt, std::memory_order_relaxed);
  g_range_count.store(n + 1, std::memory_order_relaxed);
  g_range_version.fetch_add(1, std::memory_order_release);  // even: stable
}

void range_index_erase(Runtime* rt) {
  std::lock_guard<std::mutex> g(g_range_mu);
  const std::uint32_t n = g_range_count.load(std::memory_order_relaxed);
  std::uint32_t i = 0;
  while (i < n && g_ranges[i].rt.load(std::memory_order_relaxed) != rt) ++i;
  if (i == n) return;  // never indexed (construction failure path)
  g_range_version.fetch_add(1, std::memory_order_acq_rel);
  for (; i + 1 < n; ++i) {
    g_ranges[i].base.store(
        g_ranges[i + 1].base.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    g_ranges[i].end.store(g_ranges[i + 1].end.load(std::memory_order_relaxed),
                          std::memory_order_relaxed);
    g_ranges[i].rt.store(g_ranges[i + 1].rt.load(std::memory_order_relaxed),
                         std::memory_order_relaxed);
  }
  g_ranges[n - 1].rt.store(nullptr, std::memory_order_relaxed);
  g_range_count.store(n - 1, std::memory_order_relaxed);
  g_range_version.fetch_add(1, std::memory_order_release);
}

// The rank context of the calling thread: the Runtime constructed on
// it. Thread-local, so every rank thread resolves to its own.
thread_local Runtime* t_runtime = nullptr;

}  // namespace

Runtime* Runtime::instance() noexcept { return t_runtime; }

Runtime* Runtime::owner_of(const void* addr) noexcept {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  // Fast path: seqlock-validated binary search over the sorted index.
  constexpr int kMaxAttempts = 64;
  for (int attempt = 0; attempt < kMaxAttempts; ++attempt) {
    const std::uint32_t v1 = g_range_version.load(std::memory_order_acquire);
    if ((v1 & 1u) != 0) continue;  // writer mid-update
    const std::uint32_t n = g_range_count.load(std::memory_order_acquire);
    // Greatest entry with base <= a.
    std::uint32_t lo = 0;
    std::uint32_t hi = n;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (g_ranges[mid].base.load(std::memory_order_relaxed) <= a)
        lo = mid + 1;
      else
        hi = mid;
    }
    Runtime* rt = nullptr;
    if (lo > 0 && a < g_ranges[lo - 1].end.load(std::memory_order_relaxed))
      rt = g_ranges[lo - 1].rt.load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (g_range_version.load(std::memory_order_relaxed) == v1) return rt;
  }
  // A writer is churning the index (concurrent runtime construction or
  // destruction). The unsorted slot array is always consistent entry by
  // entry; scan it instead of spinning.
  for (const auto& slot : g_runtimes) {
    Runtime* rt = slot.load(std::memory_order_acquire);
    if (rt == nullptr) continue;
    const auto base = reinterpret_cast<std::uintptr_t>(rt->heap_);
    if (a >= base && a < base + rt->heap_len_) return rt;
  }
  return nullptr;
}

// Defined in sigsegv.cpp.
void install_sigsegv_handler();
void uninstall_thread_sigaltstack() noexcept;
std::uint64_t measure_host_fault_cost_ns();

Runtime::Runtime(runner::ChildContext& ctx)
    : rank_(ctx.endpoint.rank()),
      nprocs_(ctx.endpoint.nprocs()),
      ep_(ctx.endpoint),
      heap_(ctx.heap_base),
      heap_len_(ctx.heap_bytes),
      cfg_(ctx.config) {
  COMMON_CHECK_MSG(t_runtime == nullptr, "one Runtime per rank thread");
  COMMON_CHECK_MSG(heap_ != nullptr && heap_len_ >= common::kPageSize,
                   "no shared heap mapping inherited");
  COMMON_CHECK((reinterpret_cast<std::uintptr_t>(heap_) & common::kPageMask) ==
               0);
  num_pages_ = heap_len_ / common::kPageSize;
  COMMON_CHECK_MSG(num_pages_ <= static_cast<std::size_t>(kPackMaxPage) + 1,
                   "heap too large for packed write-notice keys");
  pages_.resize(num_pages_);
  page_ext_.resize(num_pages_);
  // Worst case every page dirtied in one interval: reserve once so the
  // write-fault path never grows this vector.
  dirty_pages_.reserve(num_pages_);

  // Zero-page invariant: every process starts with identical all-zero
  // pages; reads are free until the first write notice arrives.
  COMMON_SYSCALL(mprotect(heap_, heap_len_, PROT_READ));

  locks_.resize(kNumLocks);
  lock_last_requester_.resize(kNumLocks);
  for (int l = 0; l < kNumLocks; ++l) {
    lock_last_requester_[static_cast<std::size_t>(l)] =
        static_cast<ProcId>(lock_manager(l));
    if (lock_manager(l) == rank_)
      locks_[static_cast<std::size_t>(l)].released_here = true;
  }

  worker_vc_.resize(static_cast<std::size_t>(nprocs_));
  fetch_needs_.resize(static_cast<std::size_t>(nprocs_));
  fetch_outstanding_.reserve(static_cast<std::size_t>(nprocs_));
  main_tid_ = pthread_self();

  // Knobs come from cfg_, the run's snapshot (resolved once at spawn —
  // env parsing and warn-once validation live in tmk/config.hpp). Only
  // the values that need normalizing are derived here.
  if (pushing()) push_counts_.assign(static_cast<std::size_t>(nprocs_), 0);
  gc_interval_ = cfg_.epoch_gc_interval > 0
                     ? static_cast<std::uint32_t>(cfg_.epoch_gc_interval)
                     : 64;
  report_ctx_ = &ctx;
  if (rank_ == 0) {
    // The barrier manager's per-worker state, indexed by rank - 1.
    const auto workers = static_cast<std::size_t>(nprocs_ - 1);
    barrier_child_vc_.resize(workers);
    push_counts_child_rx_.resize(workers);
    push_counts_sent_down_.resize(workers);
  }

  install_sigsegv_handler();
  host_fault_cost_ns_ = measure_host_fault_cost_ns();
  // Crash-report hook before the service thread exists: any wait the
  // main thread ever abandons can dump protocol state.
  ep_.set_forensics(&Runtime::write_forensics, this);
  service_ = std::thread([this] { service_loop(); });

  // Publish to the fault-dispatch registry LAST, after every fallible
  // construction step: if anything above threw, no slot could be left
  // dangling (the destructor of a half-built object never runs). This
  // is still before the first heap fault — the heap is PROT_READ and
  // application code only touches it after the constructor returns;
  // the calibration probe above dispatches via its own thread-local
  // page, not the registry.
  t_runtime = this;
  bool claimed = false;
  for (auto& slot : g_runtimes) {
    Runtime* expected = nullptr;
    if (slot.compare_exchange_strong(expected, this,
                                     std::memory_order_acq_rel)) {
      claimed = true;
      break;
    }
  }
  if (!claimed) {
    // Undo the started service thread before reporting; the error path
    // must leave no trace of this runtime.
    stop_.store(true, std::memory_order_release);
    ep_.wake_service();
    service_.join();
    t_runtime = nullptr;
    COMMON_CHECK_MSG(false, "fault-dispatch registry full: more than "
                                << mpl::kMaxProcs
                                << " live Runtimes in one process");
  }
  // Index the heap range for the handler's binary search. Ordered after
  // the slot claim so the linear fallback already finds this runtime
  // while the index write is in flight.
  const auto base = reinterpret_cast<std::uintptr_t>(heap_);
  range_index_insert(this, base, base + heap_len_);
}

Runtime::~Runtime() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw; a failed rendezvous will surface as a
    // missing report in the harness.
  }
  ep_.set_forensics(nullptr, nullptr);
  range_index_erase(this);
  for (auto& slot : g_runtimes) {
    Runtime* expected = this;
    if (slot.compare_exchange_strong(expected, nullptr,
                                     std::memory_order_acq_rel))
      break;
  }
  t_runtime = nullptr;
  uninstall_thread_sigaltstack();
  if (self_mem_fd_ >= 0) ::close(self_mem_fd_);
}

void Runtime::shutdown() {
  if (shutdown_done_) return;
  shutdown_done_ = true;
  // Rendezvous: after this no process touches shared memory, so it is
  // safe to stop answering diff requests. Uncounted (harness traffic).
  // Even an abandoned rendezvous (peer death, deadline, own injected
  // fault) MUST fall through to stopping and joining the service thread
  // — leaving it running would std::terminate in ~thread, turning a
  // clean blame error into an opaque abort.
  try {
    // A rank unwinding from a racecheck throw skips the rendezvous:
    // its peers are still mid-epoch (or unwinding too) and will never
    // answer; exiting promptly hands teardown to the runner's
    // peer-death propagation, the same path an injected fault takes.
    if (nprocs_ > 1 && !race_unwinding_) {
      ep_.set_wait_site(rank_ == 0 ? "shutdown rendezvous (root fan-in)"
                                   : "shutdown rendezvous (depart wait)");
      if (rank_ == 0) {
        for (int i = 1; i < nprocs_; ++i)
          (void)ep_.wait_app_kind(mpl::FrameKind::kShutdownArrive);
        for (int p = 1; p < nprocs_; ++p)
          ep_.send_app(p, mpl::FrameKind::kShutdownDepart, 0, 0, {});
      } else {
        ep_.send_app(0, mpl::FrameKind::kShutdownArrive, 0, 0, {});
        (void)ep_.wait_app_kind_from(mpl::FrameKind::kShutdownDepart, 0);
      }
    }
  } catch (...) {
    stop_.store(true, std::memory_order_release);
    ep_.wake_service();
    if (service_.joinable()) service_.join();
    flush_stats_to_ctx();
    throw;
  }
  stop_.store(true, std::memory_order_release);
  ep_.wake_service();
  if (service_.joinable()) service_.join();
  flush_stats_to_ctx();
}

void Runtime::flush_stats_to_ctx() noexcept {
  // Called once per Runtime, after the service thread has joined, so
  // every counter is final; += lets a rank that constructs several
  // Runtimes back to back report their sum.
  if (report_ctx_ == nullptr) return;
  // Final footprint sample (the run may never have hit a GC round); the
  // service thread is joined, so try_lock only fails under a concurrent
  // crash path — where losing one gauge sample is fine.
  if (std::unique_lock<std::mutex> g(mu_, std::try_to_lock); g.owns_lock())
    protocol_rss_peak_ =
        std::max(protocol_rss_peak_, protocol_rss_bytes_locked());
  using runner::ctr::Id;
  auto& c = report_ctx_->ctrs;
  c[Id::kDiffRequests] += stats_.diff_requests;
  c[Id::kDiffReplies] += stats_.diff_replies;
  c[Id::kDiffPush] += stats_.diff_push;
  c[Id::kPushHits] += stats_.push_hits;
  // Stashed pushes the run never consumed were sent for nothing.
  c[Id::kPushWaste] += stats_.push_waste + push_stash_.size();
  c[Id::kPageFaults] += stats_.read_faults + stats_.write_faults;
  // Every emitted report counts, stored or dropped past the cap.
  c[Id::kRaceReports] += race_emitted_;
  c[Id::kRaceReportsDropped] += race_reports_dropped_;
  c[Id::kIntervalsReclaimed] += records_reclaimed_;
  const std::uint64_t peak = protocol_rss_peak_;
  if (c[Id::kProtocolRssBytes] < peak) c[Id::kProtocolRssBytes] = peak;
  report_ctx_ = nullptr;
}

void Runtime::write_forensics(void* ctx, std::ostream& os) {
  auto* rt = static_cast<Runtime*>(ctx);
  os << "barrier_seq=" << rt->barrier_seq_ << " fork_seq=" << rt->fork_seq_;
  // Best-effort: the service thread may be holding mu_ (possibly the
  // very reason this rank looks wedged); never block a crash report on
  // it.
  std::unique_lock<std::mutex> g(rt->mu_, std::try_to_lock);
  if (!g.owns_lock()) {
    os << " state=mu-busy";
    return;
  }
  os << " vc=[";
  for (int p = 0; p < rt->nprocs_; ++p)
    os << (p == 0 ? "" : " ") << rt->vc_.get(static_cast<ProcId>(p));
  os << "] held_locks=[";
  bool first = true;
  for (std::size_t l = 0; l < rt->locks_.size(); ++l) {
    if (!rt->locks_[l].held) continue;
    os << (first ? "" : " ") << l;
    first = false;
  }
  os << "] dirty_pages=" << rt->dirty_pages_.size();
}

// ---------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------

void* Runtime::alloc_bytes(std::size_t bytes, bool page_align) {
  COMMON_CHECK(bytes > 0);
  if (page_align)
    alloc_off_ = common::align_up(alloc_off_, common::kPageSize);
  else
    alloc_off_ = common::align_up(alloc_off_, 16);
  COMMON_CHECK_MSG(alloc_off_ + bytes <= heap_len_,
                   "shared heap exhausted: need "
                       << bytes << " at offset " << alloc_off_ << " of "
                       << heap_len_);
  void* p = static_cast<std::byte*>(heap_) + alloc_off_;
  alloc_off_ += bytes;
  if (page_align) alloc_off_ = common::align_up(alloc_off_, common::kPageSize);
  return p;
}

// ---------------------------------------------------------------------
// Page protection
// ---------------------------------------------------------------------

void Runtime::mprotect_page(PageIndex page, int prot) const {
  COMMON_SYSCALL(mprotect(page_ptr(page), common::kPageSize, prot));
}

// ---------------------------------------------------------------------
// Twin buffer pool (caller holds mu_)
// ---------------------------------------------------------------------

std::unique_ptr<std::byte[]> Runtime::take_twin_buffer() {
  // Demand signal for the barrier-time high-water-mark trim: pooled or
  // fresh, every take is one page of this epoch's twin working set.
  ++twin_takes_epoch_;
  if (twin_pool_.empty())
    return std::make_unique<std::byte[]>(common::kPageSize);
  auto twin = std::move(twin_pool_.back());
  twin_pool_.pop_back();
  return twin;
}

void Runtime::recycle_twin(std::unique_ptr<std::byte[]> twin) {
  if (twin != nullptr) twin_pool_.push_back(std::move(twin));
}

// ---------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------

void Runtime::close_interval() {
  simx::ProtocolSection protocol(ep_.clock());
  std::lock_guard<std::mutex> g(mu_);
  if (dirty_pages_.empty()) return;

  const Seq seq = vc_.get(static_cast<ProcId>(rank_)) + 1;
  COMMON_CHECK_MSG(seq <= kPackMaxSeq,
                   "interval sequence overflows the packed key seq field");
  vc_.set(static_cast<ProcId>(rank_), seq);

  auto meta = std::make_unique<IntervalMeta>();
  meta->id = IntervalKey{static_cast<ProcId>(rank_), seq};
  meta->vc = vc_;
  meta->vc_weight = vc_.weight();
  meta->pages = dirty_pages_;
  std::sort(meta->pages.begin(), meta->pages.end());

  if (cfg_.racecheck != RaceCheckMode::kOff) {
    // Per-page write masks for the write notice. The persistent twin
    // covers every unflushed interval, so twin-vs-page yields the
    // CUMULATIVE word mask; subtracting the race_cum_mask watermark
    // isolates the closing interval's own words. A word rewritten in
    // two unflushed intervals attributes wholly to the older one —
    // never a false positive (the older interval is concurrent with at
    // least everything the newer one is), at worst a missed rematch.
    meta->write_masks.reserve(meta->pages.size());
    for (PageIndex page : meta->pages) {
      PageMeta& pm = pages_[page];
      PageExt& px = ext(page);
      // A dirty page can sit PROT_NONE (invalidated by a concurrent
      // writer's notice); its content is intact — unprotect to scan.
      const bool unreadable = pm.state == PageState::kInvalid;
      if (unreadable) mprotect_page(page, PROT_READ);
      const RaceMask cum = changed_word_mask(px.twin.get(), page_ptr(page));
      if (unreadable) mprotect_page(page, PROT_NONE);
      meta->write_masks.push_back(cum.minus(px.race_cum_mask));
      px.race_cum_mask = cum;
    }
  }

  // Lazy diffing: no diffs are made here. Each dirty page records the
  // closing interval and is write-protected again; the twin persists so
  // the eventual flush (at the first diff request) covers every interval
  // since the previous flush. Pages never fetched never pay for a diff.
  for (PageIndex page : dirty_pages_) {
    PageMeta& pm = pages_[page];
    PageExt& px = ext(page);
    COMMON_CHECK(pm.dirty && px.twin != nullptr);
    px.unflushed.push_back(seq);
    if (pushing()) {
      // First unpushed interval for this page since the last barrier
      // push: enroll it as a push candidate (deduplicated by watermark).
      if (px.own_last_seq <= px.pushed_seq) push_candidates_.push_back(page);
      px.own_last_seq = seq;
    }
    pm.dirty = false;
    if (pm.state != PageState::kInvalid) {
      // (An invalid page — concurrent-writer notice — stays invalid.)
      mprotect_page(page, PROT_READ);
      pm.state = PageState::kReadOnly;
    }
  }
  for (PageIndex page : meta->pages)
    ext(page).notices.push_back(meta.get());
  intervals_[static_cast<std::size_t>(rank_)].live.push_back(std::move(meta));
  ++records_created_;
  dirty_pages_.clear();
}

std::uint64_t Runtime::flush_page_diff(PageIndex page) {
  // Caller holds mu_. Creates one diff for every unflushed interval of
  // this page. Open-interval writes leak into the stored diff with their
  // current values; for data-race-free programs any such word is either
  // rewritten by a later (fetched) diff or never read concurrently, and
  // because the stored diff is immutable every fetcher sees the same
  // bytes (lazy diffing; see PageExt::twin in runtime.hpp).
  PageMeta& pm = pages_[page];
  PageExt& px = ext(page);
  COMMON_CHECK(!px.unflushed.empty() && px.twin != nullptr);
  const auto& model = ep_.clock().model();
  std::uint64_t cost = model.diff_create_ns;

  // The page may be PROT_NONE locally (invalidated while unflushed);
  // its content is intact. Unprotecting it here would let the
  // application thread read it without faulting — missing the very
  // diffs that invalidated it — so it is read through /proc/self/mem,
  // which ignores the protection. A dirty readable page is mapped
  // read-write, so the application thread may be writing it right now:
  // diff a snapshot and make that snapshot the new twin, so a word
  // written after the copy still differs from the twin and reaches a
  // later diff. Reads on a clean PROT_READ page are fine in place.
  const std::byte* image = page_ptr(page);
  if (pm.state == PageState::kInvalid || pm.dirty) {
    if (flush_snapshot_ == nullptr)
      flush_snapshot_ = std::make_unique<std::byte[]>(common::kPageSize);
    if (pm.state == PageState::kInvalid)
      read_protected_page(page, flush_snapshot_.get());
    else
      std::memcpy(flush_snapshot_.get(), page_ptr(page), common::kPageSize);
    image = flush_snapshot_.get();
    if (pm.dirty) cost += model.twin_ns;
  }
  // Encode into the reusable worst-case-sized scratch (no allocation
  // after warm-up), then store one exact-size immutable blob.
  make_diff_into(px.twin.get(), image, diff_scratch_);
  auto diff = std::make_shared<std::vector<std::byte>>(diff_scratch_.begin(),
                                                       diff_scratch_.end());
  stats_.diffs_created.fetch_add(1, std::memory_order_relaxed);
  stats_.diff_bytes_created.fetch_add(diff->size(),
                                      std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> dg(diff_mu_);
    const Seq covered = px.unflushed.back();
    for (Seq s : px.unflushed)
      diffs_.emplace((static_cast<std::uint64_t>(page) << 32) | s,
                     DiffRec{diff, covered});
  }
  px.unflushed.clear();
  if (pm.dirty)
    px.twin.swap(flush_snapshot_);  // open-interval writes diff against it
  else
    recycle_twin(std::move(px.twin));
  // The twin was re-baselined (recopied or retired) — the race
  // detector's cumulative write-mask watermark restarts from this
  // image. Open-interval writes made before the flush are baked into
  // the new baseline and drop out of future masks: a documented
  // under-approximation, never a false positive.
  px.race_cum_mask = RaceMask{};
  return cost;
}

void Runtime::read_protected_page(PageIndex page, std::byte* out) {
  if (self_mem_fd_ < 0)
    self_mem_fd_ = COMMON_SYSCALL(::open("/proc/self/mem", O_RDONLY | O_CLOEXEC));
  const auto addr = reinterpret_cast<std::uintptr_t>(page_ptr(page));
  std::size_t done = 0;
  while (done < common::kPageSize) {
    const ssize_t n = ::pread(self_mem_fd_, out + done,
                              common::kPageSize - done,
                              static_cast<off_t>(addr + done));
    COMMON_CHECK_MSG(n > 0, "reading protected page " << page
                                << " through /proc/self/mem failed");
    done += static_cast<std::size_t>(n);
  }
}

void Runtime::integrate_interval(ProcId creator, Seq seq,
                                 const VectorClock& vc,
                                 std::vector<PageIndex> pages,
                                 std::vector<RaceMask> write_masks) {
  // Caller holds mu_.
  if (creator == rank_) return;
  auto& known = intervals_[creator];
  if (seq <= known.hi()) return;  // duplicate delivery
  COMMON_CHECK_MSG(seq == known.hi() + 1,
                   "interval gap for proc " << creator << ": have "
                                            << known.hi() << ", got "
                                            << seq);
  auto meta = std::make_unique<IntervalMeta>();
  meta->id = IntervalKey{creator, seq};
  meta->vc = vc;
  meta->vc_weight = vc.weight();
  meta->pages = std::move(pages);
  meta->write_masks = std::move(write_masks);
  const IntervalMeta* m = meta.get();
  known.live.push_back(std::move(meta));
  ++records_created_;
  // Race detection is THE choke point here: every write notice this
  // rank ever learns of — barrier fan-in/depart, lock grant, fork,
  // join — arrives through this integration, before local bookkeeping
  // reacts to it. Local accesses recorded after this line are ordered
  // behind the sync operation that delivered the notice and are never
  // re-checked against it.
  if (cfg_.racecheck != RaceCheckMode::kOff) race_check_incoming(*m);
  if (vc_.get(creator) < seq) vc_.set(creator, seq);

  for (PageIndex page : m->pages) {
    PageMeta& pm = pages_[page];
    PageExt& px = ext(page);
    px.notices.push_back(m);
    if (preapplied_.erase(pack_preapplied(creator, seq, page))) {
      // Already applied through a push/bcast; no invalidation needed.
      continue;
    }
    px.pending.push_back(m);
    if (pm.state != PageState::kInvalid) {
      mprotect_page(page, PROT_NONE);
      pm.state = PageState::kInvalid;
    }
  }
  // Coverage bookkeeping can pre-register pages this interval turned out
  // not to touch; drop the leftovers now that the real page list is known.
  if (!preapplied_.empty()) {
    const std::uint64_t prefix =
        preapplied_prefix(pack_preapplied(creator, seq, PageIndex{0}));
    preapplied_.erase_if([prefix](std::uint64_t key) {
      return preapplied_prefix(key) == prefix;
    });
  }
}

void Runtime::put_interval_record(ByteWriter& w,
                                  const IntervalMeta& m) const {
  // The one wire format every interval serializer emits and
  // read_intervals parses: creator, seq, vc, page list — plus, when
  // race detection is on, one write mask per page. TMK_RACECHECK must
  // therefore be uniform across ranks; `off` leaves the format (and
  // every modelled byte count) identical to a detection-free build.
  w.put<ProcId>(m.id.creator);
  w.put<Seq>(m.id.seq);
  w.put_vc(m.vc, nprocs_);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(m.pages.size()));
  for (PageIndex pg : m.pages) w.put<PageIndex>(pg);
  if (cfg_.racecheck != RaceCheckMode::kOff) {
    COMMON_CHECK(m.write_masks.size() == m.pages.size());
    for (const RaceMask& mask : m.write_masks)
      for (std::uint64_t word : mask.v) w.put<std::uint64_t>(word);
  }
}

void Runtime::serialize_intervals_lacking(ByteWriter& w,
                                          const VectorClock& their_vc) const {
  // Caller holds mu_. Emits, per creator in ascending seq order, every
  // interval the peer lacks according to their_vc, bounded by what we
  // know (vc_).
  // A floor below a creator's reclaimed prefix can only mean the peer's
  // recorded clock is stale (e.g. worker_vc_ across many barriers): the
  // reclaim horizon proves every rank integrated those seqs long ago,
  // so clamping to `base` skips only records the peer already holds.
  std::uint32_t count = 0;
  for (int p = 0; p < nprocs_; ++p) {
    const auto pid = static_cast<ProcId>(p);
    const Seq lo =
        std::max(their_vc.get(pid), intervals_[static_cast<std::size_t>(p)].base);
    count += vc_.get(pid) - std::min(lo, vc_.get(pid));
  }
  w.put<std::uint32_t>(count);
  for (int p = 0; p < nprocs_; ++p) {
    const auto pid = static_cast<ProcId>(p);
    const auto& known = intervals_[static_cast<std::size_t>(p)];
    for (Seq s = std::max(their_vc.get(pid), known.base) + 1; s <= vc_.get(pid);
         ++s)
      put_interval_record(w, *known.at(s));
  }
}

void Runtime::serialize_own_intervals_after(ByteWriter& w,
                                            Seq after_seq) const {
  // Caller holds mu_.
  const auto& own = intervals_[static_cast<std::size_t>(rank_)];
  const Seq cur = vc_.get(static_cast<ProcId>(rank_));
  COMMON_CHECK(after_seq <= cur);
  // Own watermarks advance at every barrier, so they can never fall
  // behind the reclaim horizon (which trails the barrier clock).
  COMMON_CHECK_MSG(after_seq >= own.base,
                   "own-interval floor " << after_seq
                                         << " below reclaimed prefix "
                                         << own.base);
  w.put<std::uint32_t>(cur - after_seq);
  for (Seq s = after_seq + 1; s <= cur; ++s)
    put_interval_record(w, *own.at(s));
}

void Runtime::read_intervals(ByteReader& r) {
  // Caller holds mu_.
  const auto count = r.get<std::uint32_t>();
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto creator = r.get<ProcId>();
    const auto seq = r.get<Seq>();
    VectorClock vc = r.get_vc(nprocs_);
    const auto npages = r.get<std::uint32_t>();
    std::vector<PageIndex> pages;
    pages.reserve(npages);
    for (std::uint32_t k = 0; k < npages; ++k)
      pages.push_back(r.get<PageIndex>());
    std::vector<RaceMask> write_masks;
    if (cfg_.racecheck != RaceCheckMode::kOff) {
      write_masks.resize(npages);
      for (std::uint32_t k = 0; k < npages; ++k)
        for (std::uint64_t& word : write_masks[k].v)
          word = r.get<std::uint64_t>();
    }
    integrate_interval(creator, seq, vc, std::move(pages),
                       std::move(write_masks));
  }
}

// ---------------------------------------------------------------------
// Online race detection (TMK_RACECHECK != off). The vector clocks the
// protocol already maintains ARE a happens-before oracle; detection
// just compares the access summaries the twin machinery yields for
// free against each incoming write notice, at the one choke point all
// notices pass through (integrate_interval). Everything below runs on
// the main thread with mu_ held — detection never reads pages from the
// service thread, which is what suppresses the deliberate lazy-diffing
// race (tsan.supp: the flush snapshot vs. open-interval writes) by
// construction rather than by annotation.
// ---------------------------------------------------------------------

void Runtime::race_check_incoming(const IntervalMeta& m) {
  // Caller holds mu_. `m` is a remote interval seen for the first time.
  //
  // Ordering argument, both directions:
  //   - m happened-before a local access: impossible for accesses
  //     already recorded — any sync edge ordering m before this point
  //     would have carried m's metadata here earlier (grants, departs
  //     and forks all forward everything the receiver lacks), so m
  //     would not be new. Accesses recorded AFTER this call are ordered
  //     behind the acquire that delivered m and are never re-checked.
  //   - a local access happened-before m: for a closed interval with
  //     seq q, that edge raised m.vc[rank_] to at least q — so every
  //     own interval with seq > m.vc[rank_] is concurrent. The open
  //     interval's writes-so-far and this epoch's reads have had no
  //     outgoing sync edge since they happened (a release/arrive/join
  //     would have closed the interval resp. bumped race_epoch_), so
  //     they are concurrent with m unconditionally.
  COMMON_CHECK(m.write_masks.size() == m.pages.size());
  const auto me = static_cast<ProcId>(rank_);
  const auto& own = intervals_[static_cast<std::size_t>(rank_)];
  const Seq own_cur = vc_.get(me);
  const Seq ordered_up_to = m.vc.get(me);
  for (std::size_t pi = 0; pi < m.pages.size(); ++pi) {
    const PageIndex page = m.pages[pi];
    const RaceMask& rmask = m.write_masks[pi];
    if (!rmask.any()) continue;
    const PageExt* px = ext_if(page);
    if (px == nullptr) continue;  // page never accessed locally

    // -- write/write, closed local intervals --
    // A new arrival always carries m.vc[rank_] >= the reclaim horizon
    // (its creator passed the GC barrier that set it), so the clamp to
    // own.base skips nothing real — it only guards the indexing.
    for (Seq s = std::max(ordered_up_to, own.base) + 1; s <= own_cur; ++s) {
      const IntervalMeta& l = *own.at(s);
      const auto it = std::lower_bound(l.pages.begin(), l.pages.end(), page);
      if (it == l.pages.end() || *it != page) continue;
      const RaceMask& lmask =
          l.write_masks[static_cast<std::size_t>(it - l.pages.begin())];
      const RaceMask overlap = lmask & rmask;
      if (!overlap.any()) continue;
      RaceReport rep;
      rep.page = page;
      rep.overlap_mask = overlap;
      rep.local_write = true;
      rep.remote = m.id.creator;
      rep.remote_seq = m.id.seq;
      rep.local_seq = s;
      rep.remote_vc = m.vc;
      rep.local_vc = l.vc;
      race_emit(std::move(rep));
    }

    // -- write/write, the open local interval --
    if (pages_[page].dirty && px->twin != nullptr) {
      const bool unreadable = pages_[page].state == PageState::kInvalid;
      if (unreadable) mprotect_page(page, PROT_READ);
      const RaceMask open =
          changed_word_mask(px->twin.get(), page_ptr(page))
              .minus(px->race_cum_mask);
      if (unreadable) mprotect_page(page, PROT_NONE);
      const RaceMask overlap = open & rmask;
      if (overlap.any()) {
        RaceReport rep;
        rep.page = page;
        rep.overlap_mask = overlap;
        rep.local_write = true;
        rep.remote = m.id.creator;
        rep.remote_seq = m.id.seq;
        rep.local_seq = own_cur + 1;  // the open interval's would-be seq
        rep.remote_vc = m.vc;
        rep.local_vc = vc_;
        race_emit(std::move(rep));
      }
    }

    // -- remote write / local read, current sync epoch only --
    // (race_reads stays empty outside precise mode; see
    // race_record_read for why summary is write/write-only.)
    for (const PageExt::ReadRec& rr : px->race_reads) {
      if (rr.epoch != race_epoch_) continue;
      const RaceMask overlap = rr.mask & rmask;
      if (!overlap.any()) continue;
      RaceReport rep;
      rep.page = page;
      rep.overlap_mask = overlap;
      rep.local_write = false;
      rep.remote = m.id.creator;
      rep.remote_seq = m.id.seq;
      rep.local_seq = rr.seq;
      rep.remote_vc = m.vc;
      rep.local_vc = vc_;
      race_emit(std::move(rep));
    }
  }
}

void Runtime::race_record_read(PageIndex page, std::size_t offset_in_page) {
  // Caller holds mu_. Only kInvalid read faults arrive here — the first
  // read of an invalidated page; subsequent reads of the now-valid page
  // do not trap, so the faulting access is the witness (a documented
  // under-approximation), recorded at the faulting 4-byte diff word.
  // Precise mode only: a page-granular read witness would intersect any
  // concurrent same-page write notice, flagging exactly the read/write
  // false sharing the multiple-writer protocol exists to permit (fft's
  // transpose produces hundreds of such pairs) — so summary mode keeps
  // no read state at all and read/write detection is precise-only.
  if (cfg_.racecheck != RaceCheckMode::kPrecise) return;
  PageExt& px = ext(page);
  // Records from finished epochs are ordered before any interval that
  // can still arrive (see race_epoch_); drop them on the way in.
  std::erase_if(px.race_reads, [this](const PageExt::ReadRec& rr) {
    return rr.epoch != race_epoch_;
  });
  const RaceMask mask = RaceMask::word_at(offset_in_page);
  const Seq open_seq = vc_.get(static_cast<ProcId>(rank_)) + 1;
  for (PageExt::ReadRec& rr : px.race_reads) {
    if (rr.seq == open_seq) {
      rr.mask |= mask;
      return;
    }
  }
  px.race_reads.push_back({open_seq, race_epoch_, mask});
}

void Runtime::race_emit(RaceReport r) {
  // Caller holds mu_. One machine-greppable line per detected pair, in
  // the TMK_CRASH_REPORT style; embedded values are all numeric or
  // fixed enum strings, so the line is always valid JSON.
  r.barrier_seq = barrier_seq_;
  std::ostringstream os;
  os << "{\"rank\":" << rank_ << ",\"kind\":\""
     << (r.local_write ? "ww" : "rw") << "\",\"page\":" << r.page
     << ",\"words\":\"0x" << r.overlap_mask.hex()
     << "\",\"remote\":" << r.remote << ",\"remote_seq\":" << r.remote_seq
     << ",\"local_seq\":" << r.local_seq << ",\"remote_vc\":[";
  for (int p = 0; p < nprocs_; ++p)
    os << (p == 0 ? "" : ",") << r.remote_vc.get(static_cast<ProcId>(p));
  os << "],\"local_vc\":[";
  for (int p = 0; p < nprocs_; ++p)
    os << (p == 0 ? "" : ",") << r.local_vc.get(static_cast<ProcId>(p));
  os << "],\"barrier_seq\":" << r.barrier_seq << ",\"mode\":\""
     << to_string(cfg_.racecheck) << "\"}";
  std::fprintf(stderr, "TMK_RACE_REPORT %s\n", os.str().c_str());
  std::fflush(stderr);
  if (cfg_.racecheck_throw) race_throw_pending_ = true;
  // Storage is capped (each report carries two full vector clocks —
  // unbounded retention would OOM a racy long-running workload); the
  // line above and the race_reports counter keep firing regardless.
  ++race_emitted_;
  if (std::cmp_less(race_reports_.size(), cfg_.racecheck_max_reports))
    race_reports_.push_back(std::move(r));
  else
    ++race_reports_dropped_;
}

void Runtime::race_maybe_throw() {
  if (!cfg_.racecheck_throw) return;
  bool fire;
  {
    std::lock_guard<std::mutex> g(mu_);
    fire = race_throw_pending_;
    race_throw_pending_ = false;
  }
  if (fire) {
    race_unwinding_ = true;  // ~Runtime: skip the shutdown rendezvous
    throw common::Error("rank " + std::to_string(rank_) +
                        ": data race detected (TMK_RACECHECK_THROW=1; see "
                        "TMK_RACE_REPORT lines on stderr)");
  }
}

// ---------------------------------------------------------------------
// Diff fetching (page faults and aggregated validate)
// ---------------------------------------------------------------------

void Runtime::fetch_and_apply(std::span<const PageIndex> fault_pages,
                              bool learn) {
  // Snapshot the needed (creator -> [(page, seq)...]) sets into the
  // reusable per-creator scratch vectors. Only the main thread mutates
  // pending lists, and we *are* the main thread, so the snapshot stays
  // accurate while we release mu_ to do network I/O.
  bool any = false;
  // Pending seqs covered by a stashed push (a barrier-time diff push
  // the page's other pending notices kept us from applying on the
  // spot) are satisfied locally: the stashed blob is staged alongside
  // the fetched ones and that creator's round trip never happens.
  struct StashHit {
    PageIndex page;
    const IntervalMeta* interval;
    std::uint64_t key;
  };
  std::vector<StashHit> stash_hits;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (auto& v : fetch_needs_) v.clear();
    for (PageIndex page : fault_pages) {
      const PageExt* px = ext_if(page);
      if (px == nullptr) continue;
      for (const IntervalMeta* m : px->pending) {
        COMMON_CHECK(m->id.creator != rank_);
        const std::uint64_t key = stash_key(page, m->id.creator);
        if (const auto it = push_stash_.find(key);
            it != push_stash_.end() && m->id.seq > it->second.lo &&
            m->id.seq <= it->second.hi) {
          stash_hits.push_back(StashHit{page, m, key});
          continue;
        }
        fetch_needs_[m->id.creator].push_back(FetchNeed{page, m->id.seq});
        any = true;
      }
    }
  }
  if (!any && stash_hits.empty()) return;

  // One batched request per creator, issued in parallel.
  fetch_outstanding_.clear();
  for (int p = 0; p < nprocs_; ++p) {
    const auto& needs = fetch_needs_[static_cast<std::size_t>(p)];
    if (needs.empty()) continue;
    ByteWriter& w = fetch_writer_;
    w.clear();
    w.put<std::uint32_t>(static_cast<std::uint32_t>(needs.size()));
    for (const FetchNeed& n : needs) {
      w.put<PageIndex>(n.page);
      w.put<Seq>(n.seq);
    }
    const std::uint32_t req_id = next_req_id_++;
    // One request frame per creator for its whole fetch_needs_ set,
    // handed to the transport as one burst unit.
    ep_.begin_burst(p);
    ep_.send_svc(p, mpl::FrameKind::kDiffRequest, learn ? 0 : 1, req_id,
                 w.bytes());
    fetch_outstanding_.push_back(
        FetchOutstanding{static_cast<ProcId>(p), req_id});
    stats_.diff_requests.fetch_add(1, std::memory_order_relaxed);
  }
  ep_.flush_burst();

  // Collect replies; stage diffs as zero-copy views into the reply
  // payloads, which stay alive in fetch_replies_ until applied.
  constexpr PageIndex kNoPage = std::numeric_limits<PageIndex>::max();
  fetch_staged_.clear();
  fetch_replies_.clear();
  for (const FetchOutstanding& o : fetch_outstanding_) {
    char site[64];
    std::snprintf(site, sizeof(site), "diff fetch from rank %d", o.creator);
    ep_.set_wait_site(site);
    mpl::Frame f = ep_.wait_app([&o](const mpl::Frame& fr) {
      return fr.kind == mpl::FrameKind::kDiffReply && fr.src == o.creator &&
             fr.req_id == o.req_id;
    });
    ByteReader r(f.payload);
    const auto n = r.get<std::uint32_t>();
    std::lock_guard<std::mutex> g(mu_);
    const auto& known = intervals_[o.creator];
    std::span<const std::byte> prev_bytes;
    // Reply records echo the request order, so one page's records are
    // consecutive; aggregate its requested/covered seqs on the fly. The
    // blob bakes in the creator's writes up to `covered`; write notices
    // for the gap (requested, covered] must not trigger a refetch later
    // — the stale blob would clobber our own concurrent writes to other
    // words of the page (false sharing).
    PageIndex cur_page = kNoPage;
    Seq max_covered = 0;
    Seq max_requested = 0;
    const auto finish_page = [&] {
      if (cur_page == kNoPage) return;
      for (Seq s = max_requested + 1; s <= max_covered; ++s) {
        // Integrated gap seqs did not touch this page (else they would
        // have been pending, hence requested); skip them.
        if (s <= known.hi()) continue;
        preapplied_.insert(pack_preapplied(o.creator, s, cur_page));
      }
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto page = r.get<PageIndex>();
      const auto seq = r.get<Seq>();
      const auto covered = r.get<Seq>();
      const auto len = r.get<std::uint32_t>();
      std::span<const std::byte> bytes;
      const bool shared_blob = (len == 0xffffffffu);
      if (shared_blob) {
        bytes = prev_bytes;  // one flush covered several intervals
      } else {
        bytes = r.get_bytes(len);
        prev_bytes = bytes;
      }
      COMMON_CHECK(seq > known.base && seq <= known.hi());
      fetch_staged_.push_back(
          FetchedDiff{page, known.at(seq), bytes, shared_blob});
      stats_.diffs_fetched.fetch_add(1, std::memory_order_relaxed);
      if (page != cur_page) {
        finish_page();
        cur_page = page;
        max_covered = 0;
        max_requested = 0;
      }
      max_covered = std::max(max_covered, covered);
      max_requested = std::max(max_requested, seq);
    }
    finish_page();
    fetch_replies_.push_back(std::move(f));  // keep the spans alive
  }

  // Apply, per page, in a linear extension of happens-before (vc weight;
  // concurrent intervals write disjoint words, so ties are safe).
  std::lock_guard<std::mutex> g(mu_);
  // Stage the stash-satisfied seqs exactly like fetched ones: one entry
  // per pending interval (the apply loop checks that count), with the
  // blob applied once per stash entry via the shared-blob flag. The
  // stash's shared_ptr keeps each blob alive past the erase below.
  std::vector<std::shared_ptr<std::vector<std::byte>>> stash_live;
  stash_live.reserve(stash_hits.size());
  {
    std::uint64_t prev_key = ~std::uint64_t{0};
    for (const StashHit& sh : stash_hits) {
      const auto it = push_stash_.find(sh.key);
      COMMON_CHECK(it != push_stash_.end());
      const bool dup = sh.key == prev_key;
      if (!dup) stash_live.push_back(it->second.blob);
      fetch_staged_.push_back(FetchedDiff{
          sh.page, sh.interval, std::span<const std::byte>(*it->second.blob),
          dup});
      prev_key = sh.key;
    }
  }
  std::sort(fetch_staged_.begin(), fetch_staged_.end(),
            [](const FetchedDiff& a, const FetchedDiff& b) {
              if (a.page != b.page) return a.page < b.page;
              const auto wa = a.interval->vc_weight;
              const auto wb = b.interval->vc_weight;
              if (wa != wb) return wa < wb;
              return a.interval->id.creator < b.interval->id.creator;
            });
  std::size_t i = 0;
  while (i < fetch_staged_.size()) {
    const PageIndex page = fetch_staged_[i].page;
    std::size_t j = i;
    while (j < fetch_staged_.size() && fetch_staged_[j].page == page) ++j;
    PageMeta& pm = pages_[page];
    PageExt& px = ext(page);
    COMMON_CHECK_MSG(j - i == px.pending.size(),
                     "pending set changed under fetch for page " << page);
    const bool dirty = pm.dirty;
    mprotect_page(page, PROT_READ | PROT_WRITE);
    for (std::size_t k = i; k < j; ++k) {
      const FetchedDiff& fd = fetch_staged_[k];
      // Entries sharing one flush blob are applied (and charged) once.
      if (fd.same_as_prev) continue;
      ep_.clock().add_model(
          ep_.clock().model().diff_apply_cost(fd.blob.size()));
      apply_diff(fd.blob, page_ptr(page));
      // Keep the twin in sync (TreadMarks applies incoming diffs to both
      // copies): otherwise our next flush would re-export other writers'
      // words at stale values and clobber their newer updates.
      if (px.twin != nullptr) apply_diff(fd.blob, px.twin.get());
    }
    px.pending.clear();
    if (dirty) {
      pm.state = PageState::kReadWrite;  // keep writing against old twin
    } else {
      mprotect_page(page, PROT_READ);
      pm.state = PageState::kReadOnly;
    }
    i = j;
  }
  fetch_staged_.clear();
  // Consumed stash entries are retired as hits (erase() de-dups the
  // per-entry count when several seqs drew on one blob).
  for (const StashHit& sh : stash_hits)
    if (push_stash_.erase(sh.key) != 0)
      stats_.push_hits.fetch_add(1, std::memory_order_relaxed);
  // Return the reply payload buffers to the receive pool.
  for (mpl::Frame& f : fetch_replies_) ep_.recycle_buffer(std::move(f.payload));
  fetch_replies_.clear();
}

bool Runtime::handle_fault(void* addr, bool is_write_hint) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const auto base = reinterpret_cast<std::uintptr_t>(heap_);
  if (a < base || a >= base + heap_len_) return false;
  if (!pthread_equal(pthread_self(), main_tid_)) {
    // The faulting thread is not this runtime's application thread: a
    // service thread touched protected pages, or — thread backend — a
    // rank scribbled into a PEER's heap range (e.g. per-rank state
    // leaked through a shared global). Unrecoverable; dying loudly here
    // beats throwing a C++ exception through the signal frame.
    std::fprintf(stderr,
                 "tmk: fault at %p belongs to rank %d's heap but was taken "
                 "on a foreign thread — cross-rank wild pointer?\n",
                 addr, rank_);
    std::fflush(nullptr);
    std::abort();
  }

  simx::ProtocolSection protocol(ep_.clock(), host_fault_cost_ns_);
  ep_.clock().add_model(ep_.clock().model().page_fault_ns);
  const PageIndex page = page_of(addr);
  PageState state;
  {
    std::lock_guard<std::mutex> g(mu_);
    state = pages_[page].state;
  }
  // A fault on a read-only page can only be a write; a fault on an
  // invalid page uses the hardware's read/write bit when available
  // (x86-64), else is treated as a read — the retried store then faults
  // again on the read-only page and takes the write path.
  const bool is_write = is_write_hint || state == PageState::kReadOnly;

  switch (state) {
    case PageState::kInvalid: {
      if (is_write)
        stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
      else
        stats_.read_faults.fetch_add(1, std::memory_order_relaxed);
      const PageIndex pages[1] = {page};
      fetch_and_apply(pages);
      if (!is_write && cfg_.racecheck != RaceCheckMode::kOff) {
        std::lock_guard<std::mutex> g(mu_);
        race_record_read(page, static_cast<std::size_t>(a - base) %
                                   common::kPageSize);
      }
      if (is_write) {
        std::lock_guard<std::mutex> g(mu_);
        PageMeta& pm = pages_[page];
        PageExt& px = ext(page);
        if (!pm.dirty) {
          if (px.twin == nullptr) {
            px.twin = take_twin_buffer();
            std::memcpy(px.twin.get(), page_ptr(page), common::kPageSize);
            ep_.clock().add_model(ep_.clock().model().twin_ns);
            stats_.twins_created.fetch_add(1, std::memory_order_relaxed);
          }
          pm.dirty = true;
          dirty_pages_.push_back(page);
        }
        mprotect_page(page, PROT_READ | PROT_WRITE);
        pm.state = PageState::kReadWrite;
      }
      return true;
    }
    case PageState::kReadOnly: {
      stats_.write_faults.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> g(mu_);
      PageMeta& pm = pages_[page];
      PageExt& px = ext(page);
      COMMON_CHECK(!pm.dirty);
      if (px.twin == nullptr) {
        // First write since the last flush: make a twin. A persistent
        // twin from earlier intervals is reused without copying (the
        // big lazy-diffing saving for repeatedly-written pages).
        px.twin = take_twin_buffer();
        std::memcpy(px.twin.get(), page_ptr(page), common::kPageSize);
        ep_.clock().add_model(ep_.clock().model().twin_ns);
        stats_.twins_created.fetch_add(1, std::memory_order_relaxed);
      }
      pm.dirty = true;
      dirty_pages_.push_back(page);
      mprotect_page(page, PROT_READ | PROT_WRITE);
      pm.state = PageState::kReadWrite;
      return true;
    }
    case PageState::kReadWrite:
      // The only way to fault on an RW page is a protocol bug.
      COMMON_CHECK_MSG(false, "fault on a read-write page " << page);
  }
  return false;
}

// ---------------------------------------------------------------------
// Barrier (§2.2: centralized manager at rank 0, 2(n-1) messages). Each
// worker sends one arrival carrying its vector clock and its own new
// intervals, then waits for one depart. The manager reads the n-1
// arrivals and sends each worker exactly the intervals it lacked at
// arrival. Two extensions ride the same messages: the hybrid update
// protocol's kDiffPush frame counts, and on GC rounds the epoch GC's
// global horizon, which only the departs carry.
// ---------------------------------------------------------------------

void Runtime::barrier() {
  simx::ProtocolSection protocol(ep_.clock());
  // Fault hook first: "exit-at-barrier=K" means the rank enters its Kth
  // barrier and dies there, before any arrive leaves this rank.
  ep_.fault_barrier_entered();
  close_interval();
  stats_.barriers.fetch_add(1, std::memory_order_relaxed);
  if (nprocs_ == 1) {
    if (cfg_.epoch_gc) {
      // Single rank: everything is integrated by construction (no
      // pendings, no peers to wait for), so a GC round reclaims straight
      // up to the current clock.
      std::lock_guard<std::mutex> g(mu_);
      if (gc_round_now()) {
        protocol_rss_peak_ =
            std::max(protocol_rss_peak_, protocol_rss_bytes_locked());
        epoch_gc_reclaim(vc_);
      }
      trim_pools_locked();
    }
    ++barrier_seq_;
    return;
  }

  // Epoch-GC piggyback: only GC rounds extend the departs with the
  // global horizon (the element-wise minimum of every rank's clock at
  // arrival), so the other barriers — and every barrier of a
  // TMK_EPOCH_GC=off run — stay byte-identical to the pre-GC protocol.
  // The round predicate depends only on barrier_seq_ and config, so
  // every rank agrees on the wire shape without negotiation.
  const bool gc_round = gc_round_now();
  VectorClock gc_horizon;
  const auto fold_min = [this](VectorClock& into, const VectorClock& other) {
    for (int p = 0; p < nprocs_; ++p) {
      const auto pid = static_cast<ProcId>(p);
      into.set(pid, std::min(into.get(pid), other.get(pid)));
    }
  };
  if (pushing()) {
    std::lock_guard<std::mutex> g(mu_);
    build_push_plan();
  }

  char site[64];
  std::snprintf(site, sizeof(site), "barrier %u fan-in", barrier_seq_);
  ep_.set_wait_site(site);

  if (rank_ == 0) {
    // ---- manager: n-1 arrivals ----
    if (gc_round) {
      // The manager's own share of the horizon is its pre-fan-in clock
      // (the workers' integrated news must not inflate the minimum).
      std::lock_guard<std::mutex> g(mu_);
      gc_horizon = vc_;
    }
    for (int i = 1; i < nprocs_; ++i) {
      mpl::Frame f = ep_.wait_app_kind(mpl::FrameKind::kBarrierArrive);
      COMMON_CHECK_MSG(f.src > 0 && f.src < nprocs_,
                       "barrier arrive from rank " << f.src);
      const auto worker = static_cast<std::size_t>(f.src - 1);
      ByteReader r(f.payload);
      const auto seq = r.get<std::uint32_t>();
      COMMON_CHECK_MSG(seq == barrier_seq_, "barrier sequence mismatch");
      VectorClock their = r.get_vc(nprocs_);
      std::lock_guard<std::mutex> g(mu_);
      read_intervals(r);
      // Each worker reports how many kDiffPush frames it will send to
      // each destination; sum them into the run-wide totals.
      if (pushing())
        read_push_counts(r, /*accumulate=*/true, push_counts_child_rx_[worker]);
      if (gc_round) fold_min(gc_horizon, their);
      // Deliberately NO vc_.merge(their): a worker's vc can claim
      // intervals it learned about through a lock chain — claims whose
      // creators may not have arrived yet. Merging them would let a
      // concurrent lock grant, serialized bounded by vc_, index interval
      // records never received. vc_ grows only through
      // integrate_interval, so it always equals what intervals_
      // actually holds; every claim is covered by its creator's own
      // arrival before the fan-in ends.
      barrier_child_vc_[worker] = std::move(their);
      ep_.recycle_buffer(std::move(f.payload));
    }
  } else {
    // ---- worker: one arrival, one depart ----
    ByteWriter w;
    w.put<std::uint32_t>(barrier_seq_);
    {
      std::lock_guard<std::mutex> g(mu_);
      w.put_vc(vc_, nprocs_);
      serialize_own_intervals_after(w, sent_to_master_seq_);
      sent_to_master_seq_ = vc_.get(static_cast<ProcId>(rank_));
      if (pushing())  // arrival: every destination's count
        append_push_counts(w, /*only_dst=*/-1, push_counts_sent_up_);
    }
    // The arrival (vc + interval metadata, possibly several chunks) goes
    // to the manager as one burst; the wait below flushes it.
    ep_.begin_burst(0);
    ep_.send_app(0, mpl::FrameKind::kBarrierArrive, 0, 0, w.bytes());

    std::snprintf(site, sizeof(site), "barrier %u depart (manager 0)",
                  barrier_seq_);
    ep_.set_wait_site(site);
    mpl::Frame f = ep_.wait_app_kind_from(mpl::FrameKind::kBarrierDepart, 0);
    ByteReader r(f.payload);
    const auto seq = r.get<std::uint32_t>();
    COMMON_CHECK_MSG(seq == barrier_seq_, "barrier sequence mismatch");
    VectorClock merged = r.get_vc(nprocs_);
    {
      std::lock_guard<std::mutex> g(mu_);
      read_intervals(r);
      vc_.merge(merged);
      // The depart carries this rank's run-wide push total.
      if (pushing())
        read_push_counts(r, /*accumulate=*/false, push_counts_rx_down_);
      if (gc_round) gc_horizon = r.get_vc(nprocs_);
    }
    ep_.recycle_buffer(std::move(f.payload));
  }

  // Flatten the planned diff chains and assemble one kDiffPush payload
  // per predicted consumer, before the departs go out: a worker that is
  // also a consumer gets its depart AND its pushed diffs as one burst.
  if (pushing()) prepare_push_frames();

  if (rank_ == 0) {
    // ---- manager: departs, tailored to what each worker lacked ----
    for (int dst = 1; dst < nprocs_; ++dst) {
      const auto worker = static_cast<std::size_t>(dst - 1);
      ByteWriter w;
      w.put<std::uint32_t>(barrier_seq_);
      {
        std::lock_guard<std::mutex> g(mu_);
        w.put_vc(vc_, nprocs_);
        serialize_intervals_lacking(w, barrier_child_vc_[worker]);
        if (pushing())  // depart: only the frames this worker receives
          append_push_counts(w, dst, push_counts_sent_down_[worker]);
        if (gc_round) w.put_vc(gc_horizon, nprocs_);
      }
      // Per-destination burst: each worker's depart (notices included)
      // is one transport publish however many chunks it spans.
      ep_.begin_burst(dst);
      ep_.send_app(dst, mpl::FrameKind::kBarrierDepart, 0, 0, w.bytes());
      for (auto& pf : push_frames_) {
        if (pf.first != dst) continue;
        ep_.send_app(pf.first, mpl::FrameKind::kDiffPush, 0, 0, pf.second);
        pf.first = -1;  // consumed by the depart burst
      }
    }
  }
  ep_.flush_burst();
  if (pushing()) {
    // Pushes not already sent with a depart follow, one burst per peer;
    // then collect exactly the frames the totals promised us.
    for (auto& pf : push_frames_) {
      if (pf.first < 0) continue;
      ep_.begin_burst(pf.first);
      ep_.send_app(pf.first, mpl::FrameKind::kDiffPush, 0, 0, pf.second);
    }
    ep_.flush_burst();
    collect_pushes(push_counts_[static_cast<std::size_t>(rank_)]);
  }
  // ---- epoch GC execution (one round behind the horizon exchange) ----
  if (gc_round) {
    std::vector<PageIndex> stale;
    {
      std::lock_guard<std::mutex> g(mu_);
      protocol_rss_peak_ =
          std::max(protocol_rss_peak_, protocol_rss_bytes_locked());
      if (gc_have_snapshot_) {
        // Reclaim up to the PREVIOUS round's validated snapshot, capped
        // by this round's global horizon (the cap is provably a no-op —
        // every rank's clock already covered the snapshot when it passed
        // the previous GC barrier — but keeps the safety condition local
        // and checkable).
        VectorClock h = gc_ready_horizon_;
        fold_min(h, gc_horizon);
        epoch_gc_reclaim(h);
      }
      // Validation pass: find every page still carrying pending write
      // notices; force-applying them below makes the snapshot taken
      // after this block safe — nothing pending can reference a record
      // at or below it when the NEXT round reclaims.
      for (std::size_t p = 0; p < num_pages_; ++p)
        if (const PageExt* px = ext_if(static_cast<PageIndex>(p));
            px != nullptr && !px->pending.empty())
          stale.push_back(static_cast<PageIndex>(p));
    }
    if (!stale.empty()) fetch_and_apply(stale, /*learn=*/false);
    {
      std::lock_guard<std::mutex> g(mu_);
      gc_ready_horizon_ = vc_;
      gc_have_snapshot_ = true;
    }
  }
  if (cfg_.epoch_gc) {
    std::lock_guard<std::mutex> g(mu_);
    trim_pools_locked();
  }
  ++barrier_seq_;
  {
    // End of a global rendezvous: every interval closed before it has
    // now been integrated everywhere, so any interval that arrives
    // from here on contains only post-barrier writes — this rank's
    // pre-barrier reads are ordered before them without any vector
    // clock ever saying so (read-only intervals never close).
    std::lock_guard<std::mutex> g(mu_);
    ++race_epoch_;
  }
  race_maybe_throw();
}

// ---------------------------------------------------------------------
// Epoch GC (TMK_EPOCH_GC): reclamation of protocol state below the
// global vector-clock horizon. The horizon reclaim() receives is the
// element-wise minimum of every rank's clock as VALIDATED one GC round
// ago: every seq at or below it has been integrated everywhere and had
// its data applied everywhere (the previous round's forced validate),
// so no diff request, push, lock-grant serialization, or race check can
// ever reference those records again.
// ---------------------------------------------------------------------

void Runtime::epoch_gc_reclaim(const VectorClock& horizon) {
  // Caller holds mu_.
  std::vector<PageIndex> touched;
  {
    std::lock_guard<std::mutex> dg(diff_mu_);
    for (int p = 0; p < nprocs_; ++p) {
      auto& known = intervals_[static_cast<std::size_t>(p)];
      const Seq limit = horizon.get(static_cast<ProcId>(p));
      while (known.base < limit && !known.live.empty()) {
        std::unique_ptr<IntervalMeta> meta = std::move(known.live.front());
        known.live.pop_front();
        COMMON_CHECK(meta->id.seq == known.base + 1);
        ++known.base;
        const Seq s = meta->id.seq;
        for (PageIndex page : meta->pages) {
          PageExt* px = page_ext_[page].get();
          if (px == nullptr) continue;
          COMMON_CHECK_MSG(
              std::find(px->pending.begin(), px->pending.end(), meta.get()) ==
                  px->pending.end(),
              "reclaiming interval (" << p << "," << s
                                      << ") still pending on page " << page);
          std::erase(px->notices,
                     static_cast<const IntervalMeta*>(meta.get()));
          if (p == rank_) {
            // Own record: the stored diff blob (if the page ever
            // flushed) and the unflushed marker (if it never did) both
            // die with it. Reclaim walks seqs in ascending order, so an
            // unflushed marker for s can only sit at the front.
            diffs_.erase((static_cast<std::uint64_t>(page) << 32) | s);
            if (!px->unflushed.empty() && px->unflushed.front() == s)
              px->unflushed.erase(px->unflushed.begin());
          }
          touched.push_back(page);
        }
        ++records_reclaimed_;
      }
    }
  }
  // Stashed pushes wholly below the horizon can never be consumed — the
  // fault they were stashed for was provably resolved (validated) by
  // the previous round; account them as waste exactly like stashes
  // still unconsumed at shutdown.
  for (auto it = push_stash_.begin(); it != push_stash_.end();) {
    const auto creator = static_cast<ProcId>(
        it->first & ((std::uint64_t{1} << kPackCreatorBits) - 1));
    if (it->second.hi <= horizon.get(creator)) {
      stats_.push_waste.fetch_add(1, std::memory_order_relaxed);
      it = push_stash_.erase(it);
    } else {
      ++it;
    }
  }
  // Per-page post-pass over every page a reclaimed record touched.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  for (PageIndex page : touched) {
    auto& slot = page_ext_[page];
    if (slot == nullptr) continue;
    PageExt& px = *slot;
    const PageMeta& pm = pages_[page];
    // Stale read witnesses: records from sync epochs before the current
    // one are barrier-ordered before any interval that can still
    // arrive (same pruning rule race_record_read applies on append).
    std::erase_if(px.race_reads, [this](const PageExt::ReadRec& r) {
      return r.epoch != race_epoch_;
    });
    // Twin retirement: with no unflushed interval left (every remaining
    // fetcher-visible diff is already materialized in diffs_) and no
    // open write in flight, the baseline image serves no future diff.
    // Drop it — the next write fault re-baselines from the current
    // content, which has the reclaimed writes baked in.
    if (px.twin != nullptr && px.unflushed.empty() && !pm.dirty) {
      recycle_twin(std::move(px.twin));
      px.race_cum_mask = RaceMask{};
    }
    // Fold an emptied slot back to nullptr — the lazy-allocation steady
    // state for pages that left the protocol's working set. Consumer
    // hints persist (the application declared them once, for the whole
    // run), so a hinted page keeps its slot.
    if (px.twin == nullptr && px.pending.empty() && px.notices.empty() &&
        px.unflushed.empty() && px.race_reads.empty() &&
        !px.hint_consumers.any() && !px.adaptive_consumers.any())
      slot.reset();
  }
}

std::uint64_t Runtime::protocol_rss_bytes_locked() const {
  // Caller holds mu_; takes diff_mu_ for the blob map. Deliberately an
  // upper bound where exactness would cost more than it informs: a
  // flush blob shared by several covered intervals counts once per
  // interval. The soak assertions compare trends (flat vs growing), for
  // which a consistent over-approximation is exactly as good.
  std::uint64_t total = 0;
  for (int p = 0; p < nprocs_; ++p) {
    const auto& log = intervals_[static_cast<std::size_t>(p)];
    for (const auto& m : log.live) {
      total += sizeof(IntervalMeta);
      total += m->pages.capacity() * sizeof(PageIndex);
      total += m->write_masks.capacity() * sizeof(RaceMask);
    }
  }
  {
    std::lock_guard<std::mutex> dg(diff_mu_);
    for (const auto& [key, rec] : diffs_) {
      total += sizeof(key) + sizeof(rec);
      if (rec.blob != nullptr) total += rec.blob->capacity();
    }
  }
  for (const auto& e : page_ext_) {
    if (e == nullptr) continue;
    total += sizeof(PageExt);
    total += e->pending.capacity() * sizeof(const IntervalMeta*);
    total += e->notices.capacity() * sizeof(const IntervalMeta*);
    total += e->unflushed.capacity() * sizeof(Seq);
    total += e->race_reads.capacity() * sizeof(PageExt::ReadRec);
    if (e->twin != nullptr) total += common::kPageSize;
  }
  total += twin_pool_.size() * common::kPageSize;
  for (const auto& [key, stash] : push_stash_) {
    total += sizeof(key) + sizeof(stash);
    if (stash.blob != nullptr) total += stash.blob->capacity();
  }
  total += race_reports_.size() * sizeof(RaceReport);
  total += preapplied_.size() * sizeof(std::uint64_t);
  return total;
}

void Runtime::trim_pools_locked() {
  // High-water-mark trim: keep only as many pooled twins as this epoch
  // actually consumed, so a one-off spike (an init phase touching every
  // page, say) stops pinning page-sized buffers for the rest of the
  // run. Runs every barrier when the collector is on.
  if (twin_pool_.size() > twin_takes_epoch_)
    twin_pool_.resize(twin_takes_epoch_);
  twin_takes_epoch_ = 0;
  ep_.trim_buffer_pools();
}

Runtime::MemStats Runtime::mem_stats() const {
  std::lock_guard<std::mutex> g(mu_);
  MemStats s;
  s.protocol_rss_bytes = protocol_rss_bytes_locked();
  s.records_created = records_created_;
  s.records_reclaimed = records_reclaimed_;
  for (int p = 0; p < nprocs_; ++p)
    s.records_live += intervals_[static_cast<std::size_t>(p)].live.size();
  s.twin_pool_pages = twin_pool_.size();
  for (const auto& e : page_ext_) {
    if (e == nullptr) continue;
    ++s.page_ext_live;
    if (e->twin != nullptr) ++s.twins_live;
  }
  s.race_reports_dropped = race_reports_dropped_;
  return s;
}

// ---------------------------------------------------------------------
// Hybrid update protocol (TMK_UPDATE_MODE != off): barrier-time diff
// push. The paper's premise is that the compiler KNOWS the access
// pattern; hint_consumers feeds that knowledge in, the adaptive
// predictor learns it from observed diff requests, and the barrier
// departure pushes each page's flattened diff chain to the predicted
// consumers — replacing a SIGSEGV fault plus a kDiffRequest/kDiffReply
// round trip per page per consumer with one pushed frame per peer.
// ---------------------------------------------------------------------

void Runtime::hint_consumers(const void* base, std::size_t len,
                             int consumer) {
  COMMON_CHECK(consumer >= 0 && consumer < nprocs_);
  if (!pushing()) return;  // hints are inert in off runs, byte for byte
  if (len == 0 || consumer == rank_) return;
  const auto off = static_cast<std::size_t>(
      static_cast<const std::byte*>(base) - static_cast<std::byte*>(heap_));
  COMMON_CHECK(off < heap_len_ && off + len <= heap_len_);
  const auto first = static_cast<PageIndex>(off / common::kPageSize);
  const auto last =
      static_cast<PageIndex>((off + len - 1) / common::kPageSize);
  std::lock_guard<std::mutex> g(mu_);
  for (PageIndex p = first; p <= last; ++p)
    ext(p).hint_consumers.set(consumer);
}

void Runtime::build_push_plan() {
  // Caller holds mu_ (barrier entry, this interval just closed).
  push_plan_.clear();
  std::fill(push_counts_.begin(), push_counts_.end(), 0);
  ProcMask planned;
  for (PageIndex page : push_candidates_) {
    PageExt& px = ext(page);
    if (px.own_last_seq <= px.pushed_seq) continue;
    PushPlanEntry e;
    e.page = page;
    e.lo = px.pushed_seq;
    e.hi = px.own_last_seq;
    e.dsts.merge(px.hint_consumers);
    if (px.adaptive_consumers.any()) {
      // Credit-bounded: a consumer that stopped requesting stops
      // costing bandwidth after Config::push_credits pushed rounds; its
      // next request re-arms the bit (and the budget) in
      // serve_diff_request.
      e.dsts.merge(px.adaptive_consumers);
      if (--px.push_budget == 0) px.adaptive_consumers.reset();
    }
    e.dsts.clear(rank_);
    // The offer watermark advances whether or not anyone was predicted:
    // skipped intervals are pulled as today, never re-offered.
    px.pushed_seq = px.own_last_seq;
    if (!e.dsts.any()) continue;
    planned.merge(e.dsts);
    push_plan_.push_back(std::move(e));
  }
  push_candidates_.clear();
  // One frame per destination this barrier, however many pages it packs.
  for (int d = 0; d < nprocs_; ++d)
    if (planned.test(d)) ++push_counts_[static_cast<std::size_t>(d)];
}

void Runtime::append_push_counts(ByteWriter& w, int only_dst,
                                 std::vector<std::uint16_t>& last_sent) const {
  // Caller holds mu_. Sparse (dst, frames) pairs — almost every entry is
  // zero for halo patterns — packed as u8/u8: a dst fits kPackCreatorBits
  // and a count is at most one frame per sender. An arrival carries
  // every nonzero dst (only_dst < 0); a depart carries only the
  // receiving worker's own entry, since that is all it can consume —
  // sending every worker the full table costs O(n^2) entries per
  // barrier and showed up as a measurable share of hybrid-mode bytes at
  // 32+ ranks. On top of that, steady-state access patterns repeat the
  // identical table barrier after barrier, so each link remembers what
  // it last carried and an unchanged table collapses to the 1-byte
  // sentinel 0xff (a real entry count never exceeds nprocs <= 128).
  std::vector<std::uint16_t> cur(static_cast<std::size_t>(nprocs_), 0);
  std::uint8_t n = 0;
  for (int d = 0; d < nprocs_; ++d) {
    const std::uint16_t c = push_counts_[static_cast<std::size_t>(d)];
    if (c == 0 || (only_dst >= 0 && d != only_dst)) continue;
    cur[static_cast<std::size_t>(d)] = c;
    ++n;
  }
  if (!last_sent.empty() && cur == last_sent) {
    w.put<std::uint8_t>(0xff);
    return;
  }
  w.put<std::uint8_t>(n);
  for (int d = 0; d < nprocs_; ++d) {
    const std::uint16_t c = cur[static_cast<std::size_t>(d)];
    if (c == 0) continue;
    COMMON_CHECK(c <= 0xfe);
    w.put<std::uint8_t>(static_cast<std::uint8_t>(d));
    w.put<std::uint8_t>(static_cast<std::uint8_t>(c));
  }
  last_sent = std::move(cur);
}

void Runtime::read_push_counts(ByteReader& r, bool accumulate,
                               std::vector<std::uint16_t>& last_rx) {
  // Caller holds mu_. accumulate=true folds a worker's counts into the
  // totals (manager fan-in); false replaces them with the depart's entry
  // for this rank (pre-filtered by the manager). The sentinel 0xff means
  // "same table as this link carried last barrier".
  const auto n = r.get<std::uint8_t>();
  if (n == 0xff) {
    COMMON_CHECK_MSG(!last_rx.empty(), "push-count sentinel with no history");
  } else {
    last_rx.assign(static_cast<std::size_t>(nprocs_), 0);
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto d = r.get<std::uint8_t>();
      const auto c = r.get<std::uint8_t>();
      COMMON_CHECK_MSG(d < nprocs_, "push count for rank " << int{d});
      last_rx[d] = c;
    }
  }
  if (!accumulate) std::fill(push_counts_.begin(), push_counts_.end(), 0);
  for (int d = 0; d < nprocs_; ++d)
    push_counts_[static_cast<std::size_t>(d)] = static_cast<std::uint16_t>(
        push_counts_[static_cast<std::size_t>(d)] +
        last_rx[static_cast<std::size_t>(d)]);
}

void Runtime::prepare_push_frames() {
  push_frames_.clear();
  if (push_plan_.empty()) return;
  {
    std::lock_guard<std::mutex> g(mu_);
    const auto& m = ep_.clock().model();
    for (PushPlanEntry& e : push_plan_) {
      PageExt& px = ext(e.page);
      // The newest covered intervals are usually still lazy; flush them
      // so the chain is materialized (and pull requests for the same
      // seqs will serve the identical blobs).
      if (!px.unflushed.empty())
        ep_.clock().add_model(flush_page_diff(e.page));
      // Gather the distinct flush blobs covering (lo, hi], oldest
      // first. One blob is the common case (one flush generation since
      // the last barrier); several arise when the page was flushed
      // mid-span (a reader pulled between barriers) — the chain that
      // used to ship as multiple overlapping diffs.
      std::vector<std::shared_ptr<std::vector<std::byte>>> chain;
      {
        std::lock_guard<std::mutex> dg(diff_mu_);
        for (Seq s = e.lo + 1; s <= e.hi; ++s) {
          const auto it =
              diffs_.find((static_cast<std::uint64_t>(e.page) << 32) | s);
          if (it == diffs_.end()) continue;  // seq missed this page
          if (!chain.empty() && chain.back() == it->second.blob) continue;
          chain.push_back(it->second.blob);
        }
      }
      COMMON_CHECK_MSG(!chain.empty(),
                       "no diff for planned push of page " << e.page);
      if (chain.size() == 1) {
        e.blob = chain.front();
      } else {
        // Diff-chain flattening: absorb oldest -> newest (later wins,
        // the receiver-order semantics) and re-encode one coalesced
        // diff — one apply pass instead of chain.size() overlapping
        // ones, and strictly fewer bytes on the wire.
        diff_merger_.reset();
        for (const auto& b : chain) {
          diff_merger_.absorb(*b);
          ep_.clock().add_model(m.diff_apply_cost(b->size()));
        }
        auto out = std::make_shared<std::vector<std::byte>>();
        diff_merger_.encode_into(*out);
        e.blob = std::move(out);
      }
    }
  }
  // Assemble one payload per destination (blobs are immutable; no lock
  // needed). The creator is implicit in the frame's src.
  for (int d = 0; d < nprocs_; ++d) {
    std::size_t npages = 0;
    for (const PushPlanEntry& e : push_plan_)
      if (e.dsts.test(d)) ++npages;
    if (npages == 0) continue;
    ByteWriter w;
    w.put<std::uint16_t>(static_cast<std::uint16_t>(npages));
    for (const PushPlanEntry& e : push_plan_) {
      if (!e.dsts.test(d)) continue;
      // Compact header: the span (hi - lo) is one or two barriers'
      // worth of seqs in steady state, so it ships as a u8 with an
      // escape for the rare long chain, and a diff never exceeds
      // kMaxDiffBytes so its length fits a u16. Worth ~7 bytes per
      // pushed page, which is what keeps hybrid-mode kbytes strictly
      // below pull-only on halo workloads.
      w.put<PageIndex>(e.page);
      w.put<Seq>(e.hi);
      const Seq span = e.hi - e.lo;
      if (span >= 0xff) {
        w.put<std::uint8_t>(0xff);
        w.put<Seq>(e.lo);
      } else {
        w.put<std::uint8_t>(static_cast<std::uint8_t>(span));
      }
      COMMON_CHECK(e.blob->size() <= 0xffff);
      w.put<std::uint16_t>(static_cast<std::uint16_t>(e.blob->size()));
      w.put_bytes(*e.blob);
      stats_.diff_push.fetch_add(1, std::memory_order_relaxed);
    }
    push_frames_.emplace_back(d, w.take());
  }
}

void Runtime::collect_pushes(std::uint32_t expected) {
  if (expected == 0) return;
  char site[64];
  std::snprintf(site, sizeof(site), "barrier %u push collect (%u frames)",
                barrier_seq_, expected);
  ep_.set_wait_site(site);

  struct PushRec {
    PageIndex page;
    ProcId creator;
    Seq lo;
    Seq hi;
    std::span<const std::byte> blob;
    std::uint64_t order_weight;
  };
  std::vector<PushRec> recs;
  std::vector<mpl::Frame> frames;
  frames.reserve(expected);
  for (std::uint32_t i = 0; i < expected; ++i) {
    mpl::Frame f = ep_.wait_app_kind(mpl::FrameKind::kDiffPush);
    ByteReader r(f.payload);
    const auto n = r.get<std::uint16_t>();
    for (std::uint32_t k = 0; k < n; ++k) {
      PushRec rec{};
      rec.page = r.get<PageIndex>();
      rec.creator = static_cast<ProcId>(f.src);
      rec.hi = r.get<Seq>();
      const auto span = r.get<std::uint8_t>();
      rec.lo = (span == 0xff) ? r.get<Seq>() : rec.hi - span;
      const auto len = r.get<std::uint16_t>();
      rec.blob = r.get_bytes(len);
      recs.push_back(rec);
    }
    frames.push_back(std::move(f));  // keep the blob spans alive
  }

  std::lock_guard<std::mutex> g(mu_);
  // Same linear extension of happens-before as the pull path: per page,
  // by the vc weight of the newest covered interval (concurrent
  // intervals write disjoint words, so ties are safe).
  for (PushRec& rec : recs) {
    const auto& known = intervals_[rec.creator];
    rec.order_weight = (rec.hi > known.base && rec.hi <= known.hi())
                           ? known.at(rec.hi)->vc_weight
                           : 0;
  }
  std::sort(recs.begin(), recs.end(),
            [](const PushRec& a, const PushRec& b) {
              if (a.page != b.page) return a.page < b.page;
              if (a.order_weight != b.order_weight)
                return a.order_weight < b.order_weight;
              return a.creator < b.creator;
            });
  std::size_t i = 0;
  while (i < recs.size()) {
    const PageIndex page = recs[i].page;
    std::size_t j = i;
    while (j < recs.size() && recs[j].page == page) ++j;
    // Fully-covered-or-discard: applying a SUBSET of a page's pending
    // notices could order wrongly against a later pull (the pull would
    // re-apply an older creator's diff over newer pushed words). Only
    // when this round's pushes cover the page's entire pending set is
    // applying them equivalent to the pull path; anything less is
    // discarded wholesale and the fault path pulls as if nothing had
    // been pushed.
    const PageExt* pxv = ext_if(page);
    bool ok = pxv != nullptr && !pxv->pending.empty();
    for (std::size_t k = i; ok && k < j; ++k)
      if (recs[k].hi > intervals_[recs[k].creator].hi())
        ok = false;  // push outran our write-notice knowledge
    if (ok) {
      for (const IntervalMeta* pend : pxv->pending) {
        bool covered = false;
        for (std::size_t k = i; k < j && !covered; ++k)
          covered = recs[k].creator == pend->id.creator &&
                    pend->id.seq > recs[k].lo && pend->id.seq <= recs[k].hi;
        if (!covered) {
          ok = false;
          break;
        }
      }
    }
    if (!ok) {
      // Partial coverage (an unpredicted writer shares the page, or no
      // pending at all). Don't throw the bytes away: stash each blob
      // per (page, creator) and let the fault path consume it in place
      // of that creator's network round trip, in the same vc-weight
      // order a pull would have used. A newer push for the same key
      // retires an unconsumed older one as waste.
      for (std::size_t k = i; k < j; ++k) {
        PushStash& slot = push_stash_[stash_key(page, recs[k].creator)];
        if (slot.blob != nullptr)
          stats_.push_waste.fetch_add(1, std::memory_order_relaxed);
        slot.lo = recs[k].lo;
        slot.hi = recs[k].hi;
        slot.blob = std::make_shared<std::vector<std::byte>>(
            recs[k].blob.begin(), recs[k].blob.end());
      }
      i = j;
      continue;
    }
    PageMeta& pm = pages_[page];
    PageExt& px = ext(page);
    const bool dirty = pm.dirty;
    mprotect_page(page, PROT_READ | PROT_WRITE);
    for (std::size_t k = i; k < j; ++k) {
      ep_.clock().add_model(
          ep_.clock().model().diff_apply_cost(recs[k].blob.size()));
      apply_diff(recs[k].blob, page_ptr(page));
      // Twin stays in sync, exactly as in the pull path: our next flush
      // must not re-export other writers' words at stale values.
      if (px.twin != nullptr) apply_diff(recs[k].blob, px.twin.get());
    }
    stats_.push_hits.fetch_add(j - i, std::memory_order_relaxed);
    px.pending.clear();
    if (dirty) {
      pm.state = PageState::kReadWrite;
    } else {
      mprotect_page(page, PROT_READ);
      pm.state = PageState::kReadOnly;
    }
    i = j;
  }
  for (mpl::Frame& f : frames) ep_.recycle_buffer(std::move(f.payload));
}

// ---------------------------------------------------------------------
// Improved compiler interface (§2.3)
// ---------------------------------------------------------------------

void Runtime::fork_broadcast(std::uint32_t func_id,
                             std::span<const std::byte> args) {
  COMMON_CHECK_MSG(rank_ == 0, "fork_broadcast is master-only");
  simx::ProtocolSection protocol(ep_.clock());
  close_interval();
  for (int w = 1; w < nprocs_; ++w) {
    ByteWriter msg;
    msg.put<std::uint32_t>(fork_seq_);
    msg.put<std::uint32_t>(func_id);
    msg.put<std::uint32_t>(static_cast<std::uint32_t>(args.size()));
    msg.put_bytes(args);
    {
      std::lock_guard<std::mutex> g(mu_);
      msg.put_vc(vc_, nprocs_);
      serialize_intervals_lacking(msg,
                                  worker_vc_[static_cast<std::size_t>(w)]);
      worker_vc_[static_cast<std::size_t>(w)].merge(vc_);
    }
    ep_.begin_burst(w);
    ep_.send_app(w, mpl::FrameKind::kForkWork, 0, 0, msg.bytes());
  }
  ep_.flush_burst();
  ++fork_seq_;
  {
    // Outgoing edge to every worker: pre-fork reads are ordered before
    // whatever the workers now do.
    std::lock_guard<std::mutex> g(mu_);
    ++race_epoch_;
  }
}

Runtime::ForkWork Runtime::wait_fork() {
  COMMON_CHECK_MSG(rank_ != 0, "wait_fork is worker-only");
  simx::ProtocolSection protocol(ep_.clock());
  ep_.set_wait_site("fork wait (master 0)");
  mpl::Frame f = ep_.wait_app_kind_from(mpl::FrameKind::kForkWork, 0);
  ByteReader r(f.payload);
  const auto seq = r.get<std::uint32_t>();
  COMMON_CHECK_MSG(seq == fork_seq_, "fork sequence mismatch");
  ++fork_seq_;
  ForkWork work;
  work.func_id = r.get<std::uint32_t>();
  const auto len = r.get<std::uint32_t>();
  auto bytes = r.get_bytes(len);
  work.args.assign(bytes.begin(), bytes.end());
  VectorClock master_vc = r.get_vc(nprocs_);
  {
    std::lock_guard<std::mutex> g(mu_);
    read_intervals(r);
    vc_.merge(master_vc);
    ++race_epoch_;
  }
  ep_.recycle_buffer(std::move(f.payload));
  race_maybe_throw();
  return work;
}

void Runtime::join_worker() {
  COMMON_CHECK_MSG(rank_ != 0, "join_worker is worker-only");
  simx::ProtocolSection protocol(ep_.clock());
  close_interval();
  ByteWriter w;
  w.put<std::uint32_t>(fork_seq_);
  {
    std::lock_guard<std::mutex> g(mu_);
    w.put_vc(vc_, nprocs_);
    serialize_own_intervals_after(w, sent_to_master_seq_);
    sent_to_master_seq_ = vc_.get(static_cast<ProcId>(rank_));
    // Outgoing sync edge: reads before this join are ordered before
    // anything the master (and, through the next fork, anyone) does
    // after collecting it — prune them rather than false-report.
    ++race_epoch_;
  }
  ep_.send_app(0, mpl::FrameKind::kJoinDone, 0, 0, w.bytes());
}

void Runtime::join_master() {
  COMMON_CHECK_MSG(rank_ == 0, "join_master is master-only");
  simx::ProtocolSection protocol(ep_.clock());
  close_interval();
  ep_.set_wait_site("join fan-in");
  for (int i = 1; i < nprocs_; ++i) {
    mpl::Frame f = ep_.wait_app_kind(mpl::FrameKind::kJoinDone);
    ByteReader r(f.payload);
    const auto seq = r.get<std::uint32_t>();
    COMMON_CHECK_MSG(seq == fork_seq_, "join sequence mismatch");
    VectorClock their = r.get_vc(nprocs_);
    {
      std::lock_guard<std::mutex> g(mu_);
      read_intervals(r);
      worker_vc_[static_cast<std::size_t>(f.src)] = their;
      // No vc_.merge(their): like the barrier fan-in, a worker's vc can
      // claim lock-learned intervals this master does not yet possess;
      // vc_ advances only through integrate_interval, and every claimed
      // interval's creator reports it itself before the loop ends — so
      // the final clock is identical, without the transient overclaim
      // window (during which the service thread could serialize a lock
      // grant bounded by vc_ and index intervals never received).
    }
    ep_.recycle_buffer(std::move(f.payload));
  }
  {
    std::lock_guard<std::mutex> g(mu_);
    ++race_epoch_;
  }
  race_maybe_throw();
}

// ---------------------------------------------------------------------
// Extension interface (§5 optimizations; Dwarkadas et al. [7])
// ---------------------------------------------------------------------

void Runtime::validate(const void* base, std::size_t len) {
  const Range r{base, len};
  validate_ranges({&r, 1});
}

void Runtime::validate_ranges(std::span<const Range> ranges) {
  simx::ProtocolSection protocol(ep_.clock());
  std::vector<PageIndex> want;
  {
    std::lock_guard<std::mutex> g(mu_);
    for (const Range& r : ranges) {
      if (r.len == 0) continue;
      const auto off = static_cast<std::size_t>(
          static_cast<const std::byte*>(r.base) -
          static_cast<std::byte*>(heap_));
      COMMON_CHECK(off < heap_len_ && off + r.len <= heap_len_);
      const PageIndex first = static_cast<PageIndex>(off / common::kPageSize);
      const PageIndex last =
          static_cast<PageIndex>((off + r.len - 1) / common::kPageSize);
      for (PageIndex p = first; p <= last; ++p)
        if (const PageExt* px = ext_if(p);
            px != nullptr && !px->pending.empty())
          want.push_back(p);
    }
    // Ranges may share pages; fetch each once.
    std::sort(want.begin(), want.end());
    want.erase(std::unique(want.begin(), want.end()), want.end());
  }
  if (!want.empty()) fetch_and_apply(want);
}

void Runtime::push(int dst, const void* base, std::size_t len) {
  simx::ProtocolSection protocol(ep_.clock());
  const auto off = static_cast<std::size_t>(static_cast<const std::byte*>(base) -
                                            static_cast<std::byte*>(heap_));
  COMMON_CHECK_MSG((off & common::kPageMask) == 0 &&
                       (len & common::kPageMask) == 0,
                   "push requires page-aligned region");
  COMMON_CHECK(off + len <= heap_len_);
  close_interval();

  const PageIndex first = static_cast<PageIndex>(off / common::kPageSize);
  const auto npages = static_cast<PageIndex>(len / common::kPageSize);

  ByteWriter w;
  w.put<std::uint64_t>(off);
  w.put<std::uint32_t>(static_cast<std::uint32_t>(len));
  {
    std::lock_guard<std::mutex> g(mu_);
    for (PageIndex p = first; p < first + npages; ++p) {
      const PageExt* px = ext_if(p);
      COMMON_CHECK_MSG(px == nullptr || px->pending.empty(),
                       "push source page " << p << " is stale");
    }
    w.put_bytes({static_cast<const std::byte*>(base), len});
    // Covered write notices: every known interval touching these pages.
    std::vector<std::tuple<PageIndex, ProcId, Seq>> covered;
    for (PageIndex p = first; p < first + npages; ++p) {
      const PageExt* px2 = ext_if(p);
      if (px2 == nullptr) continue;
      for (const IntervalMeta* m : px2->notices)
        covered.emplace_back(p, m->id.creator, m->id.seq);
    }
    w.put<std::uint32_t>(static_cast<std::uint32_t>(covered.size()));
    for (const auto& [p, c, s] : covered) {
      w.put<PageIndex>(p);
      w.put<ProcId>(c);
      w.put<Seq>(s);
    }
    // Outgoing sync edge to `dst`: prune pre-push read records rather
    // than false-report them against writes ordered behind the push.
    ++race_epoch_;
  }
  ep_.send_app(dst, mpl::FrameKind::kPushData, 0, 0, w.bytes());
}

namespace {

struct CoveredTriple {
  PageIndex page;
  ProcId creator;
  Seq seq;
};

}  // namespace

void Runtime::accept_push(int src) {
  simx::ProtocolSection protocol(ep_.clock());
  char site[64];
  std::snprintf(site, sizeof(site), "push accept from rank %d", src);
  ep_.set_wait_site(site);
  mpl::Frame f = ep_.wait_app_kind_from(mpl::FrameKind::kPushData, src);
  ep_.clock().add_model(ep_.clock().model().diff_apply_cost(f.payload.size()));
  ByteReader r(f.payload);
  const auto off = r.get<std::uint64_t>();
  const auto len = r.get<std::uint32_t>();
  auto content = r.get_bytes(len);
  const auto ncov = r.get<std::uint32_t>();
  std::vector<CoveredTriple> covered;
  covered.reserve(ncov);
  for (std::uint32_t i = 0; i < ncov; ++i) {
    CoveredTriple t{};
    t.page = r.get<PageIndex>();
    t.creator = r.get<ProcId>();
    t.seq = r.get<Seq>();
    covered.push_back(t);
  }

  const PageIndex first = static_cast<PageIndex>(off / common::kPageSize);
  const auto npages = static_cast<PageIndex>(len / common::kPageSize);

  std::lock_guard<std::mutex> g(mu_);
  for (PageIndex p = first; p < first + npages; ++p) {
    PageMeta& pm = pages_[p];
    const PageExt* px = ext_if(p);
    COMMON_CHECK_MSG(!pm.dirty && (px == nullptr || px->unflushed.empty()),
                     "push target page " << p << " is locally written");
    mprotect_page(p, PROT_READ | PROT_WRITE);
  }
  std::memcpy(static_cast<std::byte*>(heap_) + off, content.data(), len);

  for (const CoveredTriple& t : covered) {
    if (t.creator == rank_) continue;
    PageExt& px = ext(t.page);
    // If the notice is already pending, the push satisfied it; otherwise
    // remember it so the future notice does not invalidate the page.
    auto it = std::find_if(px.pending.begin(), px.pending.end(),
                           [&t](const IntervalMeta* m) {
                             return m->id.creator == t.creator &&
                                    m->id.seq == t.seq;
                           });
    if (it != px.pending.end()) {
      px.pending.erase(it);
    } else if (t.seq > intervals_[t.creator].hi()) {
      preapplied_.insert(pack_preapplied(t.creator, t.seq, t.page));
    }
  }
  for (PageIndex p = first; p < first + npages; ++p) {
    PageMeta& pm = pages_[p];
    const PageExt* px = ext_if(p);
    if (px == nullptr || px->pending.empty()) {
      mprotect_page(p, PROT_READ);
      pm.state = PageState::kReadOnly;
    } else {
      mprotect_page(p, PROT_NONE);
      pm.state = PageState::kInvalid;
    }
  }
}

void Runtime::bcast(int root, void* base, std::size_t len) {
  if (nprocs_ == 1) return;
  if (rank_ == root) {
    for (int p = 0; p < nprocs_; ++p)
      if (p != rank_) push(p, base, len);
  } else {
    accept_push(root);
  }
}

}  // namespace tmk
