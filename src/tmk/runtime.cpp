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
#include <exception>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.hpp"
#include "common/env.hpp"

#if defined(__SANITIZE_THREAD__)
// Exported by libtsan; no installed sanitizer header declares them.
extern "C" void __tsan_ignore_thread_begin();
extern "C" void __tsan_ignore_thread_end();
#endif

namespace tmk {

namespace {

// The rank context of the calling thread: the Runtime constructed on
// it, which the SIGSEGV handler hands this thread's faults to.
// Thread-local, so every rank thread resolves to its own.
thread_local Runtime* t_runtime = nullptr;

/// Hides the calling thread's memory accesses from ThreadSanitizer for
/// its lifetime; an empty object in every other build.
struct TsanIgnoreScope {
#if defined(__SANITIZE_THREAD__)
  TsanIgnoreScope() noexcept { __tsan_ignore_thread_begin(); }
  ~TsanIgnoreScope() { __tsan_ignore_thread_end(); }
#endif
};

}  // namespace

Runtime* Runtime::instance() noexcept { return t_runtime; }

alignas(common::kPageSize) const std::byte
    Runtime::kZeroImage[common::kPageSize] = {};

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
      cfg_(ctx.config),
      report_ctx_(ctx) {
  COMMON_CHECK_MSG(t_runtime == nullptr, "one Runtime per rank thread");
  COMMON_CHECK_MSG(heap_ != nullptr && heap_len_ >= common::kPageSize,
                   "no shared heap mapping inherited");
  COMMON_CHECK((reinterpret_cast<std::uintptr_t>(heap_) & common::kPageMask) ==
               0);
  num_pages_ = heap_len_ / common::kPageSize;
  pages_.resize(num_pages_);
  page_ext_.resize(num_pages_);
  // Worst case every page dirtied in one interval: reserve once so the
  // write-fault path never grows this vector.
  dirty_pages_.reserve(num_pages_);

  // Zero-page invariant: every Runtime starts from identical all-zero
  // pages, so reads are free until the first write notice arrives and a
  // page's first write twins against kZeroImage (PageState::kZero).
  // Dropping the private mapping's pages makes that hold for a second
  // Runtime on a rank too: it reads zeros, not what the first one left.
  COMMON_SYSCALL(madvise(heap_, heap_len_, MADV_DONTNEED));
  COMMON_SYSCALL(mprotect(heap_, heap_len_, PROT_READ));
  ++ctrs_[Ctr::kHostMprotectCalls];

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

  // Knobs come from cfg_, the run's snapshot (resolved once at spawn —
  // env parsing and warn-once validation live in tmk/config.hpp). Only
  // the values that need normalizing are derived here.
  gc_interval_ = cfg_.epoch_gc_interval > 0
                     ? static_cast<std::uint32_t>(cfg_.epoch_gc_interval)
                     : 64;

  install_sigsegv_handler();
  host_fault_cost_ns_ = measure_host_fault_cost_ns();
  // Crash-report hook before the service thread exists: any wait the
  // main thread ever abandons can dump protocol state.
  ep_.set_forensics(&Runtime::write_forensics, this);
  service_ = std::thread([this] { service_loop(); });

  // Claim the thread LAST, after every fallible construction step, so a
  // constructor that throws leaves the thread free for another Runtime
  // (the destructor of a half-built object never runs). This is still
  // before the first heap fault: the heap is PROT_READ and application
  // code only touches it after the constructor returns; the calibration
  // probe above is matched by its own thread-local page.
  t_runtime = this;
}

Runtime::~Runtime() {
  try {
    shutdown();
  } catch (...) {
    // Destructor must not throw; a failed rendezvous will surface as a
    // missing report in the harness.
  }
  ep_.set_forensics(nullptr, nullptr);
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
    // A rank unwinding from an exception (a racecheck throw, a failed
    // wait, an application error) skips the rendezvous: its peers are
    // still mid-run (or unwinding too) and will never answer; exiting
    // promptly hands teardown to the runner's peer-death propagation,
    // the same path an injected fault takes.
    if (nprocs_ > 1 && std::uncaught_exceptions() == 0) {
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
    fold_counters();
    throw;
  }
  stop_.store(true, std::memory_order_release);
  ep_.wake_service();
  if (service_.joinable()) service_.join();
  fold_counters();
}

void Runtime::fold_counters() noexcept {
  // Runs once per Runtime, after the service thread has joined, so the
  // block is final. Stashed pushes the run never consumed were sent for
  // nothing. The final footprint sample covers a run that never reached
  // a GC round; try_lock only fails under a concurrent crash path, where
  // losing one gauge sample is fine.
  ctrs_[Ctr::kPushWaste] += push_stash_.size();
  if (std::unique_lock<std::mutex> g(mu_, std::try_to_lock); g.owns_lock())
    sample_protocol_rss_locked();
  report_ctx_.ctrs.accumulate(ctrs_);
}

runner::ctr::Block Runtime::counters() const {
  std::lock_guard<std::mutex> g(mu_);
  return ctrs_;
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

void Runtime::mprotect_range(PageIndex first, std::size_t npages, int prot) {
  COMMON_SYSCALL(mprotect(page_ptr(first), npages * common::kPageSize, prot));
  ++ctrs_[Ctr::kHostMprotectCalls];
}

void Runtime::mprotect_runs(std::span<const PageIndex> ascending_pages,
                            int prot) {
  const std::size_t n = ascending_pages.size();
  std::size_t i = 0;
  while (i < n) {
    std::size_t j = i + 1;
    while (j < n && ascending_pages[j] == ascending_pages[j - 1] + 1) ++j;
    mprotect_range(ascending_pages[i], j - i, prot);
    i = j;
  }
}

// ---------------------------------------------------------------------
// Intervals
// ---------------------------------------------------------------------

void Runtime::close_interval() {
  simx::ProtocolSection protocol(ep_.clock());
  std::lock_guard<std::mutex> g(mu_);
  if (dirty_pages_.empty()) return;

  const Seq seq = vc_.get(static_cast<ProcId>(rank_)) + 1;
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
      const RaceMask cum = changed_word_mask(px.twin_image(), page_ptr(page));
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
    COMMON_CHECK(pm.dirty && px.has_twin());
    px.unflushed.push_back(seq);
    if (pushing()) {
      // First unpushed interval for this page since the last barrier
      // push: enroll it as a push candidate (deduplicated by watermark).
      if (px.own_last_seq <= px.pushed_seq) push_candidates_.push_back(page);
      px.own_last_seq = seq;
    }
    pm.dirty = false;
    // (An invalid page — concurrent-writer notice — stays invalid.)
    if (pm.state != PageState::kInvalid) pm.state = PageState::kReadOnly;
  }
  // Write-protect in ascending runs; an invalid page splits its run.
  prot_pages_.clear();
  for (PageIndex page : meta->pages) {
    ext(page).notices.push_back(meta.get());
    if (pages_[page].state == PageState::kReadOnly) prot_pages_.push_back(page);
  }
  mprotect_runs(prot_pages_, PROT_READ);
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
  COMMON_CHECK(!px.unflushed.empty() && px.has_twin());
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
      flush_snapshot_ =
          std::make_unique_for_overwrite<std::byte[]>(common::kPageSize);
    image = flush_snapshot_.get();
    if (pm.dirty) cost += model.twin_ns;
  }
  {
    // The page reads race with application stores by design: the
    // snapshot of a dirty page, and the in-place scan of a clean one.
    // A store that faults on a clean PROT_READ page waits on mu_ in the
    // SIGSEGV handler until this flush is done, but TSan records the
    // store before it runs, so it would report the scan as concurrent
    // with it. The reads are therefore hidden from TSan; everything
    // else this function touches stays checked.
    [[maybe_unused]] TsanIgnoreScope page_reads;
    if (pm.state == PageState::kInvalid)
      read_protected_page(page, flush_snapshot_.get());
    else if (pm.dirty)
      std::memcpy(flush_snapshot_.get(), page_ptr(page), common::kPageSize);
    // Encode into the reusable worst-case-sized scratch (no allocation
    // after warm-up), then store one exact-size immutable blob.
    make_diff_into(px.twin_image(), image, diff_scratch_);
  }
  auto diff = std::make_shared<std::vector<std::byte>>(diff_scratch_.begin(),
                                                       diff_scratch_.end());
  ++ctrs_[Ctr::kDiffsCreated];
  ctrs_[Ctr::kDiffBytesCreated] += diff->size();
  const Seq covered = px.unflushed.back();
  for (Seq s : px.unflushed)
    diffs_.emplace(diff_key(page, s), DiffRec{diff, covered});
  px.unflushed.clear();
  if (pm.dirty) {
    // Open-interval writes diff against the snapshot. A copied twin
    // becomes the next snapshot; the zero image never does (a null
    // snapshot is allocated at the next flush that needs one).
    px.twin.swap(flush_snapshot_);
    px.zero_twin = false;
  } else {
    px.free_twin();  // the diff exists; the next write fault re-twins
  }
  // The twin was re-baselined (recopied or freed) — the race
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

  // The creator sorted the page list, so the newly invalidated pages
  // come out ascending and go PROT_NONE one run at a time.
  prot_pages_.clear();
  for (PageIndex page : m->pages) {
    PageMeta& pm = pages_[page];
    PageExt& px = ext(page);
    px.notices.push_back(m);
    // Its data already arrived with a fetched blob or a push.
    if (px.take_applied_ahead(creator, seq)) continue;
    px.pending.push_back(m);
    if (pm.state != PageState::kInvalid) {
      pm.state = PageState::kInvalid;
      prot_pages_.push_back(page);
    }
  }
  mprotect_runs(prot_pages_, PROT_NONE);
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
  // recorded clock is stale: the reclaim horizon proves every rank
  // integrated those seqs long ago, so clamping to `base` skips only
  // records the peer already holds.
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
// service thread, so it adds no read to the deliberate lazy-diffing
// race (the flush's page reads vs. open-interval writes, which
// flush_page_diff hides from TSan) and needs no annotation of its own.
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
    if (pages_[page].dirty && px->has_twin()) {
      const bool unreadable = pages_[page].state == PageState::kInvalid;
      if (unreadable) mprotect_page(page, PROT_READ);
      const RaceMask open =
          changed_word_mask(px->twin_image(), page_ptr(page))
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
  // line above and the race_reports cell keep counting regardless.
  ++ctrs_[Ctr::kRaceReports];
  if (std::cmp_less(race_reports_.size(), cfg_.racecheck_max_reports))
    race_reports_.push_back(std::move(r));
  else
    ++ctrs_[Ctr::kRaceReportsDropped];
}

void Runtime::race_maybe_throw() {
  if (!cfg_.racecheck_throw) return;
  bool fire;
  {
    std::lock_guard<std::mutex> g(mu_);
    fire = race_throw_pending_;
    race_throw_pending_ = false;
  }
  // ~Runtime sees the exception in flight and skips the rendezvous.
  if (fire)
    throw common::Error("rank " + std::to_string(rank_) +
                        ": data race detected (TMK_RACECHECK_THROW=1; see "
                        "TMK_RACE_REPORT lines on stderr)");
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
    // One request frame per creator for its whole fetch_needs_ set.
    ep_.send_svc(p, mpl::FrameKind::kDiffRequest, learn ? 0 : 1, req_id,
                 w.bytes());
    fetch_outstanding_.push_back(
        FetchOutstanding{static_cast<ProcId>(p), req_id});
    ++ctrs_[Ctr::kDiffRequests];
  }

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
    // consecutive; track its highest covered seq on the fly. The blob
    // bakes in the creator's writes to the page up to `covered`; write
    // notices beyond what we have integrated must not trigger a refetch
    // later — the stale blob would clobber our own concurrent writes to
    // other words of the page (false sharing) — so they are marked as
    // applied ahead.
    PageIndex cur_page = kNoPage;
    Seq max_covered = 0;
    const auto finish_page = [&] {
      if (cur_page != kNoPage && max_covered > known.hi())
        ext(cur_page).mark_applied_ahead(o.creator, max_covered);
    };
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto page = r.get<PageIndex>();
      const auto seq = r.get<Seq>();
      const auto covered = r.get<Seq>();
      const auto len = r.get<std::uint32_t>();
      std::span<const std::byte> bytes;
      const bool shared_blob = (len == kSameAsPrevious);
      if (shared_blob) {
        bytes = prev_bytes;  // one flush covered several intervals
      } else {
        bytes = r.get_bytes(len);
        prev_bytes = bytes;
      }
      COMMON_CHECK(seq > known.base && seq <= known.hi());
      fetch_staged_.push_back(
          FetchedDiff{page, known.at(seq), bytes, shared_blob});
      ++ctrs_[Ctr::kDiffsFetched];
      if (page != cur_page) {
        finish_page();
        cur_page = page;
        max_covered = 0;
      }
      max_covered = std::max(max_covered, covered);
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
  // Unprotect every staged page at once; the clean ones are
  // write-protected again, together, after the apply.
  prot_pages_.clear();
  for (const FetchedDiff& fd : fetch_staged_)
    if (prot_pages_.empty() || prot_pages_.back() != fd.page)
      prot_pages_.push_back(fd.page);
  mprotect_runs(prot_pages_, PROT_READ | PROT_WRITE);
  std::size_t clean = 0;
  std::size_t i = 0;
  while (i < fetch_staged_.size()) {
    const PageIndex page = fetch_staged_[i].page;
    std::size_t j = i;
    while (j < fetch_staged_.size() && fetch_staged_[j].page == page) ++j;
    PageMeta& pm = pages_[page];
    PageExt& px = ext(page);
    COMMON_CHECK_MSG(j - i == px.pending.size(),
                     "pending set changed under fetch for page " << page);
    // Our own writes are diffed before remote ones land (TreadMarks'
    // rule): a blob spanning the apply would carry the remote words too
    // and, applied at its first interval's place, undo newer writes.
    if (!px.unflushed.empty()) ep_.clock().add_model(flush_page_diff(page));
    for (std::size_t k = i; k < j; ++k) {
      const FetchedDiff& fd = fetch_staged_[k];
      // Entries sharing one flush blob are applied (and charged) once.
      if (fd.same_as_prev) continue;
      ep_.clock().add_model(
          ep_.clock().model().diff_apply_cost(fd.blob.size()));
      apply_diff(fd.blob, page_ptr(page));
      // A twin left after the flush belongs to the open interval: the
      // diff goes to both copies, so the next flush exports our words
      // only. (Only here and in collect_pushes does a zero twin become
      // a copy.)
      if (px.has_twin()) apply_diff(fd.blob, px.writable_twin());
    }
    px.pending.clear();
    if (pm.dirty) {
      pm.state = PageState::kReadWrite;  // keep writing against old twin
    } else {
      pm.state = PageState::kReadOnly;
      prot_pages_[clean++] = page;  // pages ascend: overwrites visited slots
    }
    i = j;
  }
  prot_pages_.resize(clean);
  mprotect_runs(prot_pages_, PROT_READ);
  fetch_staged_.clear();
  // Consumed stash entries are retired as hits (erase() de-dups the
  // per-entry count when several seqs drew on one blob).
  for (const StashHit& sh : stash_hits)
    if (push_stash_.erase(sh.key) != 0) ++ctrs_[Ctr::kPushHits];
  // Return the reply payload buffers to the receive pool.
  for (mpl::Frame& f : fetch_replies_) ep_.recycle_buffer(std::move(f.payload));
  fetch_replies_.clear();
}

void Runtime::make_writable_locked(PageIndex page) {
  PageMeta& pm = pages_[page];
  if (!pm.dirty) {
    PageExt& px = ext(page);
    if (!px.has_twin()) {
      // First write since the last flush: make a twin. A persistent
      // twin from earlier intervals is reused without copying (the
      // big lazy-diffing saving for repeatedly-written pages). A kZero
      // page still holds the zeroed heap's zeros, so kZeroImage is its
      // twin and no copy is made; the model charges a twin either way.
      if (pm.state == PageState::kZero) {
        px.zero_twin = true;
      } else {
        // Not zero-filled: the copy overwrites the whole page.
        px.twin =
            std::make_unique_for_overwrite<std::byte[]>(common::kPageSize);
        std::memcpy(px.twin.get(), page_ptr(page), common::kPageSize);
      }
      ep_.clock().add_model(ep_.clock().model().twin_ns);
      ++ctrs_[Ctr::kTwinsCreated];
    }
    pm.dirty = true;
    dirty_pages_.push_back(page);
  }
  mprotect_page(page, PROT_READ | PROT_WRITE);
  pm.state = PageState::kReadWrite;
}

bool Runtime::handle_fault(void* addr, bool is_write_hint) {
  const auto a = reinterpret_cast<std::uintptr_t>(addr);
  const auto base = reinterpret_cast<std::uintptr_t>(heap_);
  if (a < base || a >= base + heap_len_) {
    // Not a page of this rank's heap: a null or wild pointer, or (thread
    // backend) a rank scribbling into a PEER's heap, e.g. per-rank state
    // leaked through a shared global. Unrecoverable: name it here, and
    // the handler passes the signal on to the previous action.
    std::fprintf(stderr,
                 "tmk: rank %d: fault at %p outside its heap [%p, %p)\n",
                 rank_, addr, heap_, reinterpret_cast<void*>(base + heap_len_));
    return false;
  }

  simx::ProtocolSection protocol(ep_.clock(), host_fault_cost_ns_);
  ep_.clock().add_model(ep_.clock().model().page_fault_ns);
  const PageIndex page = page_of(addr);
  PageState state;
  {
    std::lock_guard<std::mutex> g(mu_);
    state = pages_[page].state;
  }
  // A fault on a PROT_READ page (kZero or kReadOnly) can only be a
  // write; a fault on an invalid page uses the hardware's read/write bit
  // when available (x86-64), else is treated as a read — the retried
  // store then faults again on the read-only page and takes the write
  // path.
  const bool is_write = is_write_hint || state == PageState::kZero ||
                        state == PageState::kReadOnly;
  ++ctrs_[Ctr::kPageFaults];

  switch (state) {
    case PageState::kInvalid: {
      const PageIndex pages[1] = {page};
      fetch_and_apply(pages);
      if (!is_write && cfg_.racecheck != RaceCheckMode::kOff) {
        std::lock_guard<std::mutex> g(mu_);
        race_record_read(page, static_cast<std::size_t>(a - base) %
                                   common::kPageSize);
      }
      if (is_write) {
        std::lock_guard<std::mutex> g(mu_);
        make_writable_locked(page);
      }
      return true;
    }
    case PageState::kZero:
    case PageState::kReadOnly: {
      std::lock_guard<std::mutex> g(mu_);
      COMMON_CHECK(!pages_[page].dirty);
      make_writable_locked(page);
      return true;
    }
    case PageState::kReadWrite:
      // The only way to fault on an RW page is a protocol bug.
      COMMON_CHECK_MSG(false, "fault on a read-write page " << page);
  }
  return false;
}

// ---------------------------------------------------------------------
// Rendezvous (§2.2, §2.3): a centralized manager at rank 0. Each worker
// sends one arrival carrying its vector clock and its own new
// intervals; the manager reads the n-1 arrivals and sends each worker
// one depart with exactly the intervals it lacks. A barrier is both
// waves, 2(n-1) messages. The improved compiler interface splits it in
// two: join is the arrival wave, and fork is the depart wave with the
// loop-control block as the depart's header. On epoch-GC rounds the
// barrier's departs also carry the global horizon.
// ---------------------------------------------------------------------

void Runtime::send_arrival(mpl::FrameKind kind, std::uint32_t seq) {
  ByteWriter w;
  w.put<std::uint32_t>(seq);
  {
    std::lock_guard<std::mutex> g(mu_);
    w.put_vc(vc_, nprocs_);
    serialize_own_intervals_after(w, sent_to_master_seq_);
    sent_to_master_seq_ = vc_.get(static_cast<ProcId>(rank_));
  }
  ep_.send_app(0, kind, 0, 0, w.bytes());
}

void Runtime::gather_arrivals(mpl::FrameKind kind, std::uint32_t seq,
                              VectorClock* horizon) {
  if (horizon != nullptr) {
    // The manager's own share of the horizon is its pre-fan-in clock
    // (the workers' integrated news must not inflate the minimum).
    std::lock_guard<std::mutex> g(mu_);
    *horizon = vc_;
  }
  for (int i = 1; i < nprocs_; ++i) {
    mpl::Frame f = ep_.wait_app_kind(kind);
    COMMON_CHECK_MSG(f.src > 0 && f.src < nprocs_,
                     "arrival from rank " << f.src);
    ByteReader r(f.payload);
    const auto their_seq = r.get<std::uint32_t>();
    COMMON_CHECK_MSG(their_seq == seq, "rendezvous sequence mismatch");
    const VectorClock their = r.get_vc(nprocs_);
    std::lock_guard<std::mutex> g(mu_);
    read_intervals(r);
    if (horizon != nullptr) horizon->meet(their);
    // Deliberately NO vc_.merge(their): a worker's vc can claim
    // intervals it learned about through a lock chain — claims whose
    // creators may not have arrived yet. Merging them would let a
    // concurrent lock grant, serialized bounded by vc_, index interval
    // records never received. vc_ grows only through
    // integrate_interval, so it always equals what intervals_
    // actually holds; every claim is covered by its creator's own
    // arrival before the fan-in ends.
    worker_vc_[static_cast<std::size_t>(f.src)] = their;
    ep_.recycle_buffer(std::move(f.payload));
  }
}

void Runtime::send_departs(mpl::FrameKind kind, std::uint32_t seq,
                           std::span<const std::byte> header,
                           const VectorClock* horizon) {
  for (int dst = 1; dst < nprocs_; ++dst) {
    VectorClock& their = worker_vc_[static_cast<std::size_t>(dst)];
    ByteWriter w;
    w.put<std::uint32_t>(seq);
    w.put_bytes(header);
    {
      std::lock_guard<std::mutex> g(mu_);
      w.put_vc(vc_, nprocs_);
      serialize_intervals_lacking(w, their);
      their.merge(vc_);
    }
    if (horizon != nullptr) w.put_vc(*horizon, nprocs_);
    ep_.send_app(dst, kind, 0, 0, w.bytes());
  }
}

void Runtime::integrate_depart(ByteReader& r) {
  const VectorClock manager_vc = r.get_vc(nprocs_);
  std::lock_guard<std::mutex> g(mu_);
  read_intervals(r);
  vc_.merge(manager_vc);
}

void Runtime::barrier() {
  simx::ProtocolSection protocol(ep_.clock());
  // Fault hook first: "exit-at-barrier=K" means the rank enters its Kth
  // barrier and dies there, before any arrive leaves this rank.
  ep_.fault_barrier_entered();
  close_interval();
  if (nprocs_ == 1) {
    if (gc_round_now()) {
      // Single rank: everything is integrated by construction (no
      // pendings, no peers to wait for), so a GC round reclaims straight
      // up to the current clock.
      std::lock_guard<std::mutex> g(mu_);
      sample_protocol_rss_locked();
      epoch_gc_reclaim(vc_);
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
  VectorClock* const horizon = gc_round ? &gc_horizon : nullptr;

  char site[64];
  std::snprintf(site, sizeof(site), "barrier %u fan-in", barrier_seq_);
  ep_.set_wait_site(site);
  // This barrier's pushes leave before the arrival: each is then
  // published before every depart, which collect_pushes relies on.
  if (pushing()) send_pushes();

  if (rank_ == 0) {
    gather_arrivals(mpl::FrameKind::kBarrierArrive, barrier_seq_, horizon);
    send_departs(mpl::FrameKind::kBarrierDepart, barrier_seq_, {}, horizon);
  } else {
    send_arrival(mpl::FrameKind::kBarrierArrive, barrier_seq_);
    std::snprintf(site, sizeof(site), "barrier %u depart (manager 0)",
                  barrier_seq_);
    ep_.set_wait_site(site);
    mpl::Frame f = ep_.wait_app_kind_from(mpl::FrameKind::kBarrierDepart, 0);
    ByteReader r(f.payload);
    const auto seq = r.get<std::uint32_t>();
    COMMON_CHECK_MSG(seq == barrier_seq_, "barrier sequence mismatch");
    integrate_depart(r);
    if (gc_round) gc_horizon = r.get_vc(nprocs_);
    ep_.recycle_buffer(std::move(f.payload));
  }
  if (pushing()) collect_pushes();
  // ---- epoch GC execution (one round behind the horizon exchange) ----
  if (gc_round) {
    std::vector<PageIndex> stale;
    {
      std::lock_guard<std::mutex> g(mu_);
      sample_protocol_rss_locked();
      if (gc_have_snapshot_) {
        // Reclaim up to the PREVIOUS round's validated snapshot, capped
        // by this round's global horizon (the cap is provably a no-op —
        // every rank's clock already covered the snapshot when it passed
        // the previous GC barrier — but keeps the safety condition local
        // and checkable).
        VectorClock h = gc_ready_horizon_;
        h.meet(gc_horizon);
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
        std::erase(px->notices, static_cast<const IntervalMeta*>(meta.get()));
        if (p == rank_) {
          // Own record: the stored diff blob (if the page ever flushed)
          // and the unflushed marker (if it never did) both die with it.
          // Reclaim walks seqs in ascending order, so an unflushed
          // marker for s can only sit at the front.
          diffs_.erase(diff_key(page, s));
          if (!px->unflushed.empty() && px->unflushed.front() == s)
            px->unflushed.erase(px->unflushed.begin());
        }
        touched.push_back(page);
      }
      ++ctrs_[Ctr::kIntervalsReclaimed];
    }
  }
  // Stashed pushes wholly below the horizon can never be consumed — the
  // fault they were stashed for was provably resolved (validated) by
  // the previous round; account them as waste exactly like stashes
  // still unconsumed at shutdown.
  for (auto it = push_stash_.begin(); it != push_stash_.end();) {
    if (it->second.hi <= horizon.get(stash_creator(it->first))) {
      ++ctrs_[Ctr::kPushWaste];
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
    // Free it — the next write fault re-baselines from the current
    // content, which has the reclaimed writes baked in.
    if (px.has_twin() && px.unflushed.empty() && !pm.dirty) {
      px.free_twin();
      px.race_cum_mask = RaceMask{};
    }
    // Fold an emptied slot back to nullptr — the lazy-allocation steady
    // state for pages that left the protocol's working set. Consumer
    // hints persist (the application declared them once, for the whole
    // run), so a hinted page keeps its slot.
    if (!px.has_twin() && px.pending.empty() && px.notices.empty() &&
        px.unflushed.empty() && px.applied_ahead.empty() &&
        px.race_reads.empty() && !px.hint_consumers.any() &&
        !px.adaptive_consumers.any())
      slot.reset();
  }
}

std::uint64_t Runtime::protocol_rss_bytes_locked() const {
  // Caller holds mu_. Deliberately an upper bound where exactness would
  // cost more than it informs: a flush blob shared by several covered
  // intervals counts once per interval. The soak assertions compare
  // trends (flat vs growing), for which a consistent over-approximation
  // is exactly as good.
  std::uint64_t total = 0;
  for (int p = 0; p < nprocs_; ++p) {
    const auto& log = intervals_[static_cast<std::size_t>(p)];
    for (const auto& m : log.live) {
      total += sizeof(IntervalMeta);
      total += m->pages.capacity() * sizeof(PageIndex);
      total += m->write_masks.capacity() * sizeof(RaceMask);
    }
  }
  for (const auto& [key, rec] : diffs_) {
    total += sizeof(key) + sizeof(rec);
    if (rec.blob != nullptr) total += rec.blob->capacity();
  }
  for (const auto& e : page_ext_) {
    if (e == nullptr) continue;
    total += sizeof(PageExt);
    total += e->pending.capacity() * sizeof(const IntervalMeta*);
    total += e->notices.capacity() * sizeof(const IntervalMeta*);
    total += e->unflushed.capacity() * sizeof(Seq);
    total += e->applied_ahead.capacity() * sizeof(IntervalKey);
    total += e->race_reads.capacity() * sizeof(PageExt::ReadRec);
    if (e->twin != nullptr) total += common::kPageSize;  // copies only
  }
  for (const auto& [key, stash] : push_stash_) {
    total += sizeof(key) + sizeof(stash);
    if (stash.blob != nullptr) total += stash.blob->capacity();
  }
  total += race_reports_.size() * sizeof(RaceReport);
  return total;
}

void Runtime::sample_protocol_rss_locked() {
  std::uint64_t& peak = ctrs_[Ctr::kProtocolRssBytes];
  peak = std::max(peak, protocol_rss_bytes_locked());
}

Runtime::MemStats Runtime::mem_stats() const {
  std::lock_guard<std::mutex> g(mu_);
  MemStats s;
  s.protocol_rss_bytes = protocol_rss_bytes_locked();
  s.records_created = records_created_;
  s.records_reclaimed = ctrs_[Ctr::kIntervalsReclaimed];
  for (int p = 0; p < nprocs_; ++p)
    s.records_live += intervals_[static_cast<std::size_t>(p)].live.size();
  for (const auto& e : page_ext_) {
    if (e == nullptr) continue;
    ++s.page_ext_live;
    if (e->has_twin()) ++s.twins_live;
  }
  return s;
}

// ---------------------------------------------------------------------
// Hybrid update protocol (TMK_UPDATE_MODE != off): barrier-time diff
// push. The paper's premise is that the compiler KNOWS the access
// pattern; hint_consumers feeds that knowledge in, the adaptive
// predictor learns it from observed diff requests, and each rank's
// barrier entry pushes each page's flush blob to the predicted
// consumers, to be applied once the barrier departs —
// replacing a SIGSEGV fault plus a kDiffRequest/kDiffReply round trip
// per page per consumer with one pushed frame per peer.
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
    push_plan_.push_back(std::move(e));
  }
  push_candidates_.clear();
}

void Runtime::send_pushes() {
  {
    std::lock_guard<std::mutex> g(mu_);
    build_push_plan();
    for (PushPlanEntry& e : push_plan_) {
      PageExt& px = ext(e.page);
      // The newest covered intervals are usually still lazy; flush them
      // (pull requests for the same seqs then serve the identical blob).
      if (!px.unflushed.empty())
        ep_.clock().add_model(flush_page_diff(e.page));
      const auto newest = diffs_.find(diff_key(e.page, e.hi));
      COMMON_CHECK_MSG(newest != diffs_.end(),
                       "no diff for planned push of page " << e.page);
      // A receiver applies the pushed blob at hi's place. That is right
      // only if the blob is the span's one flush blob: a page flushed
      // mid-span (a reader pulled between barriers) has an older blob
      // that must apply at its own, earlier place, so the page is left
      // to the pull path.
      bool one_blob = true;
      for (Seq s = e.lo + 1; s < e.hi && one_blob; ++s) {
        const auto it = diffs_.find(diff_key(e.page, s));
        one_blob = it == diffs_.end() || it->second.blob == newest->second.blob;
      }
      if (one_blob) e.blob = newest->second.blob;
    }
    std::erase_if(push_plan_,
                  [](const PushPlanEntry& e) { return e.blob == nullptr; });
  }
  // One frame per destination (blobs are immutable; no lock needed):
  // the creator is implicit in the frame's src, the barrier in its tag.
  const auto tag = static_cast<std::int32_t>(barrier_seq_);
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
      ++ctrs_[Ctr::kDiffPush];
    }
    ep_.send_app(d, mpl::FrameKind::kDiffPush, tag, 0, w.bytes());
  }
}

void Runtime::collect_pushes() {
  // Every push of this barrier left before its sender's arrival, and
  // this rank now holds its depart (or, as the manager, every
  // arrival), so by the ring mesh's delivery contract (transport.hpp)
  // each one is drainable: polling until none is left takes them all.
  const auto tag = static_cast<std::int32_t>(barrier_seq_);
  const auto this_barrier = [tag](const mpl::Frame& f) {
    return f.kind == mpl::FrameKind::kDiffPush && f.tag == tag;
  };
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
  while (std::optional<mpl::Frame> f = ep_.poll_app(this_barrier)) {
    ByteReader r(f->payload);
    const auto n = r.get<std::uint16_t>();
    for (std::uint32_t k = 0; k < n; ++k) {
      PushRec rec{};
      rec.page = r.get<PageIndex>();
      rec.creator = static_cast<ProcId>(f->src);
      rec.hi = r.get<Seq>();
      const auto span = r.get<std::uint8_t>();
      rec.lo = (span == 0xff) ? r.get<Seq>() : rec.hi - span;
      const auto len = r.get<std::uint16_t>();
      rec.blob = r.get_bytes(len);
      recs.push_back(rec);
    }
    frames.push_back(std::move(*f));  // keep the blob spans alive
  }
  if (frames.empty()) return;

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
        if (slot.blob != nullptr) ++ctrs_[Ctr::kPushWaste];
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
    // Own writes are diffed before remote ones land, as in the pull path.
    if (!px.unflushed.empty()) ep_.clock().add_model(flush_page_diff(page));
    mprotect_page(page, PROT_READ | PROT_WRITE);
    for (std::size_t k = i; k < j; ++k) {
      ep_.clock().add_model(
          ep_.clock().model().diff_apply_cost(recs[k].blob.size()));
      apply_diff(recs[k].blob, page_ptr(page));
      if (px.has_twin()) apply_diff(recs[k].blob, px.writable_twin());
    }
    ctrs_[Ctr::kPushHits] += j - i;
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
// Improved compiler interface (§2.3): the barrier's two waves, apart.
// ---------------------------------------------------------------------

void Runtime::fork_broadcast(std::uint32_t func_id,
                             std::span<const std::byte> args) {
  COMMON_CHECK_MSG(rank_ == 0, "fork_broadcast is master-only");
  simx::ProtocolSection protocol(ep_.clock());
  close_interval();
  ByteWriter loop_control;
  loop_control.put<std::uint32_t>(func_id);
  loop_control.put<std::uint32_t>(static_cast<std::uint32_t>(args.size()));
  loop_control.put_bytes(args);
  send_departs(mpl::FrameKind::kForkWork, fork_seq_, loop_control.bytes(),
               nullptr);
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
  integrate_depart(r);
  {
    std::lock_guard<std::mutex> g(mu_);
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
  {
    // Outgoing sync edge: reads before this join are ordered before
    // anything the master (and, through the next fork, anyone) does
    // after collecting it — prune them rather than false-report.
    std::lock_guard<std::mutex> g(mu_);
    ++race_epoch_;
  }
  send_arrival(mpl::FrameKind::kJoinDone, fork_seq_);
}

void Runtime::join_master() {
  COMMON_CHECK_MSG(rank_ == 0, "join_master is master-only");
  simx::ProtocolSection protocol(ep_.clock());
  close_interval();
  ep_.set_wait_site("join fan-in");
  gather_arrivals(mpl::FrameKind::kJoinDone, fork_seq_, nullptr);
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
    // mark it applied ahead so the future notice does not invalidate the
    // page.
    auto it = std::find_if(px.pending.begin(), px.pending.end(),
                           [&t](const IntervalMeta* m) {
                             return m->id.creator == t.creator &&
                                    m->id.seq == t.seq;
                           });
    if (it != px.pending.end()) {
      px.pending.erase(it);
    } else if (t.seq > intervals_[t.creator].hi()) {
      px.mark_applied_ahead(t.creator, t.seq);
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
