#include "runner/runner.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <thread>

#include "common/check.hpp"
#include "common/cpu_clock.hpp"
#include "common/env.hpp"
#include "common/fd.hpp"
#include "sim/virtual_clock.hpp"

namespace runner {

std::optional<Backend> parse_backend(std::string_view name) noexcept {
  if (name == "process") return Backend::kProcess;
  if (name == "thread") return Backend::kThread;
  return std::nullopt;
}

Backend backend_from_env(Backend fallback) noexcept {
  const char* env = common::env::raw("TMK_BACKEND");
  if (env == nullptr) return fallback;
  if (auto b = parse_backend(env)) return *b;
  common::env::detail::warn_value("TMK_BACKEND", env, "expected process|thread");
  return fallback;
}

namespace {

/// Once a rank is known dead, poisoned survivors get this long to
/// unwind through their bounded waits and deliver failure reports
/// before the remaining stragglers are forcibly ended.
constexpr int kPoisonGraceSec = 10;

/// Watchdog deadline shared by both backends: the process backend's
/// report gather polls against it, the thread backend's cv-wait sleeps
/// against it, and a first failure pulls it in to a short grace window.
class RunDeadline {
 public:
  explicit RunDeadline(int timeout_sec)
      : deadline_ns_(common::wall_ns() +
                     static_cast<std::uint64_t>(timeout_sec) *
                         1'000'000'000ULL) {}

  /// Pulls the deadline in to `now + grace_sec` if that is sooner.
  void arm_grace(int grace_sec) noexcept {
    const std::uint64_t grace_end =
        common::wall_ns() +
        static_cast<std::uint64_t>(grace_sec) * 1'000'000'000ULL;
    deadline_ns_ = std::min(deadline_ns_, grace_end);
  }

  [[nodiscard]] bool expired() const noexcept {
    return common::wall_ns() >= deadline_ns_;
  }

  /// Milliseconds left for poll()/wait_for; >= 1 until expiry.
  [[nodiscard]] int remaining_ms() const noexcept {
    const std::uint64_t now = common::wall_ns();
    if (now >= deadline_ns_) return 0;
    return static_cast<int>((deadline_ns_ - now) / 1'000'000ULL) + 1;
  }

 private:
  std::uint64_t deadline_ns_;
};

/// Names the ranks a watchdog caught unfinished, e.g.
/// "ranks still running: 2, 5" — the blamed-rank half of a timeout
/// diagnostic on either backend.
std::string describe_stragglers(const std::vector<char>& done_flags) {
  std::string s;
  for (std::size_t i = 0; i < done_flags.size(); ++i) {
    if (done_flags[i] != 0) continue;
    s += s.empty() ? "ranks still running: " : ", ";
    s += std::to_string(i);
  }
  if (s.empty()) s = "all ranks finished";
  return s;
}

/// Shared heap mapping with RAII unmapping in the parent.
class HeapMapping {
 public:
  explicit HeapMapping(std::size_t bytes) : bytes_(bytes) {
    if (bytes_ == 0) return;
    void* p = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    COMMON_CHECK_MSG(p != MAP_FAILED, "mmap of shared heap failed");
    base_ = p;
  }
  ~HeapMapping() {
    if (base_ != nullptr) munmap(base_, bytes_);
  }
  HeapMapping(const HeapMapping&) = delete;
  HeapMapping& operator=(const HeapMapping&) = delete;

  [[nodiscard]] void* base() const noexcept { return base_; }
  [[nodiscard]] std::size_t bytes() const noexcept { return bytes_; }

 private:
  void* base_ = nullptr;
  std::size_t bytes_ = 0;
};

void write_report(int fd, const ProcReport& r) {
  const char* p = reinterpret_cast<const char*>(&r);
  std::size_t left = sizeof(r);
  while (left > 0) {
    const ssize_t n = write(fd, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // parent gone; nothing useful to do
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
}

/// One rank's body on either backend: builds the rank's Endpoint and
/// ChildContext, runs `fn` and returns the rank's report. Called on the
/// rank's own thread: the ring mesh keys its sender slots off the thread
/// that constructs the Endpoint.
ProcReport run_rank(const mpl::Fabric& fabric, int rank,
                    const SpawnOptions& options, const tmk::Config& config,
                    const HeapMapping& heap, const ChildFn& fn) {
  ProcReport report;
  report.rank = static_cast<std::uint32_t>(rank);
  try {
    mpl::Endpoint endpoint(fabric, rank, options.model);
    ChildContext ctx{endpoint, heap.base(), heap.bytes(), config};
    report.checksum = fn(ctx);
    report.vt_ns = endpoint.measured_vt();
    report.cpu_ns = common::thread_cpu_ns();
    report.host_transport_ns = endpoint.clock().host_transport_ns();
    report.ctrs = ctx.ctrs;
    report.ctrs[ctr::Id::kHostSendCalls] = endpoint.host_stats().send_calls;
    report.ctrs[ctr::Id::kHostFutexWakes] = endpoint.host_stats().futex_wakes;
    report.counters = endpoint.measured_counters();
    report.ok = 1;
  } catch (const std::exception& e) {
    std::snprintf(report.error, sizeof(report.error), "%s", e.what());
    report.ok = 0;
  } catch (...) {
    std::snprintf(report.error, sizeof(report.error), "unknown exception");
    report.ok = 0;
  }
  return report;
}

[[noreturn]] void child_main(const mpl::Fabric& fabric, int rank,
                             const SpawnOptions& options,
                             const tmk::Config& config,
                             const HeapMapping& heap, const ChildFn& fn,
                             int report_fd) {
  const ProcReport report = run_rank(fabric, rank, options, config, heap, fn);
  write_report(report_fd, report);
  // Child-side printf output (examples) is block-buffered when stdout is
  // a pipe; _exit skips stdio teardown, so flush explicitly.
  std::fflush(nullptr);
  // Skip atexit handlers: this child shares gtest/benchmark state with the
  // parent and must not run their teardown.
  _exit(report.ok != 0u ? 0 : 1);
}

/// Checks every rank's report and sums them into the run-level fields.
/// `who` names a rank in failure messages ("proc" for forked children,
/// "rank" for backend threads). `first_failed` is the chronologically
/// first failed rank (or -1): its error is the root cause and must be
/// the one reported, not whichever poisoned survivor has the lowest id.
void aggregate_reports(RunResult& result, std::uint64_t wall_start_ns,
                       const char* who, int first_failed = -1) {
  if (first_failed >= 0) {
    const auto& rep = result.procs[static_cast<std::size_t>(first_failed)];
    COMMON_CHECK_MSG(rep.ok == 1,
                     who << ' ' << first_failed << " failed: " << rep.error);
  }
  for (int i = 0; i < result.nprocs; ++i) {
    const auto& rep = result.procs[static_cast<std::size_t>(i)];
    COMMON_CHECK_MSG(rep.ok == 1, who << ' ' << i << " failed: " << rep.error);
    result.max_vt_ns = std::max(result.max_vt_ns, rep.vt_ns);
    result.total_cpu_ns += rep.cpu_ns;
    result.total_host_transport_ns += rep.host_transport_ns;
    result.total_ctrs.accumulate(rep.ctrs);
    result.total += rep.counters;
  }
  result.checksum = result.procs[0].checksum;
  result.host_wall_s =
      static_cast<double>(common::wall_ns() - wall_start_ns) * 1e-9;
}

/// Thread backend: every rank is a std::thread of this process, with a
/// private heap mapping at its own address range and the ring mesh in a
/// process-private region. No fork, no report pipes — reports are
/// written in place and published by the thread join.
RunResult spawn_threads(int nprocs, const SpawnOptions& options,
                        const tmk::Config& config, const ChildFn& fn) {
  // Preflight: each rank is two threads (application + DSM service). A
  // 128-rank run wants ~260 threads; raise the RLIMIT_NPROC soft limit
  // toward the hard limit if it is visibly short. If even the raised
  // limit cannot hold this run's own threads, failure is certain —
  // report it here with the configuration attached instead of dying
  // mid-spawn with a bare EAGAIN. (A limit above `need` can still be
  // exhausted by the user's other processes; that stays best-effort.)
  {
    const auto need = static_cast<rlim_t>(nprocs) * 2 + 32;
    rlimit rl{};
    if (getrlimit(RLIMIT_NPROC, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY &&
        rl.rlim_cur < need) {
      rlimit want = rl;
      want.rlim_cur =
          (rl.rlim_max == RLIM_INFINITY || rl.rlim_max > need) ? need
                                                               : rl.rlim_max;
      (void)setrlimit(RLIMIT_NPROC, &want);
      if (getrlimit(RLIMIT_NPROC, &rl) == 0)
        COMMON_CHECK_MSG(rl.rlim_cur == RLIM_INFINITY || rl.rlim_cur >= need,
                         "thread backend at nprocs="
                             << nprocs << " needs ~" << need
                             << " threads but RLIMIT_NPROC caps at "
                             << rl.rlim_cur);
    }
  }
  const std::uint64_t wall_start_ns = common::wall_ns();

  RunResult result;
  result.nprocs = nprocs;
  result.backend = Backend::kThread;
  result.config = config;
  // A process-private mesh is the only one whose writes all ranks can
  // see; any other request is coerced and the result records it.
  result.transport = mpl::TransportKind::kInproc;
  result.procs.resize(static_cast<std::size_t>(nprocs));

  // Distinct per-rank heaps: each rank's pages need their own contents
  // and protections, so each rank maps its own range. Fresh anonymous
  // mappings give every rank the same all-zero starting pages the fork
  // backend's copy-on-write heap provides.
  std::deque<HeapMapping> heaps;
  mpl::Fabric fabric(nprocs, mpl::TransportKind::kInproc);

  std::mutex mu;
  std::condition_variable cv;
  int finished = 0;
  int first_failed = -1;
  std::vector<char> done_flags(static_cast<std::size_t>(nprocs), 0);

  std::vector<std::thread> ranks;
  ranks.reserve(static_cast<std::size_t>(nprocs));
  for (int rank = 0; rank < nprocs; ++rank) {
    HeapMapping& heap = heaps.emplace_back(options.shared_heap_bytes);
    ProcReport& report = result.procs[static_cast<std::size_t>(rank)];
    ranks.emplace_back([&fabric, &options, &config, &fn, &mu, &cv, &finished,
                        &first_failed, &done_flags, rank, &heap, &report] {
      report = run_rank(fabric, rank, options, config, heap, fn);
      std::lock_guard<std::mutex> g(mu);
      done_flags[static_cast<std::size_t>(rank)] = 1;
      ++finished;
      if (report.ok != 1 && first_failed < 0) {
        // Death propagation: the first rank to fail poisons the mesh so
        // every survivor's next blocking wait unwinds naming it, instead
        // of the whole suite parking until the watchdog.
        first_failed = rank;
        fabric.poison(rank);
      }
      cv.notify_all();
    });
  }

  // Watchdog. A hung rank thread cannot be killed the way a forked
  // child can, and returning while rank threads still reference this
  // frame would corrupt the caller — so a timeout here ends the whole
  // process with a diagnostic (naming the wedged ranks) instead of
  // hanging the suite.
  {
    RunDeadline deadline(options.timeout_sec);
    std::unique_lock<std::mutex> lk(mu);
    while (finished < nprocs) {
      cv.wait_for(lk, std::chrono::milliseconds(deadline.remaining_ms()),
                  [&] { return finished == nprocs; });
      if (finished == nprocs) break;
      if (deadline.expired()) {
        std::fprintf(stderr,
                     "runner: thread-backend run timed out after %ds "
                     "(%d/%d ranks finished; %s); aborting\n",
                     options.timeout_sec, finished, nprocs,
                     describe_stragglers(done_flags).c_str());
        std::fflush(nullptr);
        _exit(124);
      }
    }
  }
  for (std::thread& t : ranks) t.join();

  aggregate_reports(result, wall_start_ns, "rank", first_failed);
  return result;
}

}  // namespace

/// Human-readable waitpid status for run-failure diagnostics.
std::string describe_wait_status(int status) {
  if (WIFEXITED(status))
    return "exited with status " + std::to_string(WEXITSTATUS(status));
  if (WIFSIGNALED(status))
    return "killed by signal " + std::to_string(WTERMSIG(status));
  return "wait status " + std::to_string(status);
}

RunResult spawn(int nprocs, const SpawnOptions& options, const ChildFn& fn) {
  COMMON_CHECK(nprocs >= 1 && nprocs <= mpl::kMaxProcs);
  common::env::warn_unrecognized_once();
  // The knob snapshot for this run: resolved here — once per spawn, after
  // any EnvGuard a test set up — so every rank sees identical values.
  const tmk::Config config =
      options.tmk_config.value_or(tmk::Config::from_env());
  if (options.backend == Backend::kThread)
    return spawn_threads(nprocs, options, config, fn);
  COMMON_CHECK_MSG(options.transport != mpl::TransportKind::kInproc,
                   "the inproc transport cannot cross fork(); use the "
                   "thread backend for an in-process mesh");

  const std::uint64_t wall_start_ns = common::wall_ns();
  HeapMapping heap(options.shared_heap_bytes);
  mpl::Fabric fabric(nprocs, options.transport);

  std::vector<common::Fd> report_r(static_cast<std::size_t>(nprocs));
  std::vector<common::Fd> report_w(static_cast<std::size_t>(nprocs));
  for (int i = 0; i < nprocs; ++i) {
    int fds[2];
    COMMON_SYSCALL(pipe(fds));
    report_r[static_cast<std::size_t>(i)].reset(fds[0]);
    report_w[static_cast<std::size_t>(i)].reset(fds[1]);
  }

  // Every child flushes its stdio before _exit; a buffer it inherited
  // unflushed would be written once per rank. Empty them first.
  std::fflush(nullptr);
  std::vector<pid_t> pids(static_cast<std::size_t>(nprocs), -1);
  for (int rank = 0; rank < nprocs; ++rank) {
    const pid_t pid = COMMON_SYSCALL(fork());
    if (pid == 0) {
      // Child: keep only our own report pipe's write end.
      for (int j = 0; j < nprocs; ++j) {
        report_r[static_cast<std::size_t>(j)].reset();
        if (j != rank) report_w[static_cast<std::size_t>(j)].reset();
      }
      child_main(fabric, rank, options, config, heap, fn,
                 report_w[static_cast<std::size_t>(rank)].get());
    }
    pids[static_cast<std::size_t>(rank)] = pid;
  }

  // Parent: drop the report pipes' write ends so the children own them.
  for (auto& w : report_w) w.reset();

  // Gather reports with a watchdog. On the first terminal child failure
  // — EOF on its result pipe before a full report (crash, _exit, abort)
  // or a delivered report with ok == 0 — the parent poisons the mesh so
  // every survivor's next blocking wait unwinds naming the dead rank,
  // and keeps gathering for a short grace window so those failure
  // reports land; stragglers still wedged after the grace are SIGKILLed.
  RunResult result;
  result.nprocs = nprocs;
  result.backend = Backend::kProcess;
  result.transport = options.transport;
  result.config = config;
  result.procs.resize(static_cast<std::size_t>(nprocs));
  std::vector<std::size_t> got(static_cast<std::size_t>(nprocs), 0);

  RunDeadline deadline(options.timeout_sec);
  bool timed_out = false;
  int failed_rank = -1;

  std::size_t done = 0;
  while (done < static_cast<std::size_t>(nprocs)) {
    std::vector<pollfd> pfds;
    std::vector<int> ranks;
    for (int i = 0; i < nprocs; ++i) {
      if (got[static_cast<std::size_t>(i)] < sizeof(ProcReport)) {
        pfds.push_back({report_r[static_cast<std::size_t>(i)].get(), POLLIN, 0});
        ranks.push_back(i);
      }
    }
    if (deadline.expired()) {
      timed_out = failed_rank < 0;
      break;
    }
    const int r = poll(pfds.data(), pfds.size(), deadline.remaining_ms());
    if (r < 0) {
      if (errno == EINTR) continue;
      COMMON_SYSCALL(r);
    }
    if (r == 0) {
      timed_out = failed_rank < 0;
      break;
    }
    for (std::size_t k = 0; k < pfds.size(); ++k) {
      if (!(pfds[k].revents & (POLLIN | POLLHUP))) continue;
      const int rank = ranks[k];
      auto& rep = result.procs[static_cast<std::size_t>(rank)];
      auto& off = got[static_cast<std::size_t>(rank)];
      char* dst = reinterpret_cast<char*>(&rep) + off;
      const ssize_t n =
          read(pfds[k].fd, dst, sizeof(ProcReport) - off);
      if (n < 0) {
        if (errno == EINTR) continue;
        COMMON_SYSCALL(n);
      }
      if (n == 0) {
        // EOF before a full report: the child is gone without telling
        // us why (crash, bare _exit).
        if (off < sizeof(ProcReport)) {
          rep.ok = 0;
          std::snprintf(rep.error, sizeof(rep.error),
                        "process exited without a report");
          off = sizeof(ProcReport);
          ++done;
        }
      } else {
        off += static_cast<std::size_t>(n);
        if (off == sizeof(ProcReport)) ++done;
      }
      if (off == sizeof(ProcReport) && rep.ok != 1 && failed_rank < 0) {
        failed_rank = rank;
        fabric.poison(rank);
        deadline.arm_grace(kPoisonGraceSec);
      }
    }
  }

  if (timed_out || done < static_cast<std::size_t>(nprocs)) {
    for (pid_t pid : pids)
      if (pid > 0) kill(pid, SIGKILL);
  }
  std::vector<int> wait_status(static_cast<std::size_t>(nprocs), 0);
  for (int i = 0; i < nprocs; ++i)
    (void)waitpid(pids[static_cast<std::size_t>(i)],
                  &wait_status[static_cast<std::size_t>(i)], 0);

  if (timed_out) {
    std::vector<char> done_flags(static_cast<std::size_t>(nprocs), 0);
    for (int i = 0; i < nprocs; ++i)
      done_flags[static_cast<std::size_t>(i)] =
          got[static_cast<std::size_t>(i)] == sizeof(ProcReport) ? 1 : 0;
    std::string crash;
    for (int i = 0; i < nprocs; ++i) {
      const int status = wait_status[static_cast<std::size_t>(i)];
      if (WIFSIGNALED(status) && WTERMSIG(status) != SIGKILL)
        crash += "proc " + std::to_string(i) + " " +
                 describe_wait_status(status) + "; ";
    }
    COMMON_CHECK_MSG(false, "run timed out after "
                                << options.timeout_sec << "s; "
                                << describe_stragglers(done_flags) << "; "
                                << crash);
  }
  if (failed_rank >= 0) {
    const auto& rep = result.procs[static_cast<std::size_t>(failed_rank)];
    COMMON_CHECK_MSG(
        false, "proc " << failed_rank << " failed ("
                       << describe_wait_status(
                              wait_status[static_cast<std::size_t>(
                                  failed_rank)])
                       << "): " << rep.error
                       << "; surviving processes were aborted");
  }
  aggregate_reports(result, wall_start_ns, "proc");
  return result;
}

RunResult run_sequential(const SpawnOptions& options,
                         const std::function<double()>& fn) {
  SpawnOptions opts = options;
  return spawn(1, opts, [&fn](ChildContext&) { return fn(); });
}

}  // namespace runner
