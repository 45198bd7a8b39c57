// Multi-process run harness.
//
// A "run" launches `nprocs` worker ranks from the calling process, on
// one of two execution backends:
//
//   Backend::kProcess (the original): forks one child per rank. Before
//   forking, the harness maps the DSM shared heap (so every child
//   inherits it at the same virtual address — the zero-page invariant
//   of tmk/runtime.hpp) and the MAP_SHARED ring region (mpl::Fabric).
//   Each child builds its endpoint over the inherited region, executes
//   the supplied function, and reports a fixed-size result record
//   through a pipe; children leave via _exit().
//
//   Backend::kThread: runs each rank as a std::thread of the calling
//   process — no fork, no exec, no fd inheritance. Each rank gets its
//   own private heap mapping at a distinct address range (the
//   process-wide SIGSEGV handler hands each fault to the faulting rank
//   thread's own DSM runtime), and the ring mesh lives in a
//   process-private region (mpl::Fabric). Fast to launch and
//   — unlike fork — visible to ThreadSanitizer as ONE program, which is
//   what lets CI race-check the full coherence protocol.
//
// Either way the caller aggregates per-rank virtual times, CPU times,
// and message counters into a RunResult, and never participates in the
// computation itself, so the harness can be driven from gtest and
// google-benchmark without contaminating their state.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mpl/counters.hpp"
#include "mpl/fabric.hpp"
#include "runner/counters.hpp"
#include "sim/machine_model.hpp"
#include "tmk/config.hpp"

namespace runner {

/// How ranks are executed: forked processes or threads of this process.
enum class Backend : std::uint8_t { kProcess = 0, kThread = 1 };

[[nodiscard]] constexpr const char* to_string(Backend b) noexcept {
  return b == Backend::kThread ? "thread" : "process";
}

/// Parses a backend name ("process" or "thread"); nullopt otherwise.
[[nodiscard]] std::optional<Backend> parse_backend(
    std::string_view name) noexcept;

/// The process-wide default: TMK_BACKEND=process|thread when set (and
/// valid), else `fallback`.
[[nodiscard]] Backend backend_from_env(
    Backend fallback = Backend::kProcess) noexcept;

/// Fixed-size per-process report sent over the result pipe.
struct ProcReport {
  std::uint32_t ok = 0;  // 1 = success
  std::uint32_t rank = 0;
  double checksum = 0.0;
  std::uint64_t vt_ns = 0;       // final virtual time
  std::uint64_t cpu_ns = 0;      // raw main-thread CPU
  std::uint64_t host_transport_ns = 0;  // host CPU discarded as transport cost
  // Registered per-run counters (runner/counters.hpp): transport
  // syscall costs plus the DSM protocol observables (zero for non-DSM
  // runs). One block instead of one field per column.
  ctr::Block ctrs{};
  mpl::Counters counters{};
  char error[192] = {};
};
static_assert(std::is_trivially_copyable_v<ProcReport>);

/// Aggregated outcome of one multi-process run.
struct RunResult {
  int nprocs = 0;
  Backend backend = Backend::kProcess;
  mpl::TransportKind transport = mpl::TransportKind::kShm;
  tmk::Config config{};            // the knob snapshot every rank ran with
  double checksum = 0.0;           // proc 0's checksum
  std::uint64_t max_vt_ns = 0;     // modelled parallel execution time
  std::uint64_t total_cpu_ns = 0;
  std::uint64_t total_host_transport_ns = 0;
  // Registered counters aggregated over ranks per their declared
  // aggregation (runner/counters.hpp).
  ctr::Block total_ctrs{};
  double host_wall_s = 0.0;        // real wall time of the whole run
  mpl::Counters total{};           // summed over processes
  std::vector<ProcReport> procs;

  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(max_vt_ns) * 1e-9;
  }
  /// Run-level value of one registered counter.
  [[nodiscard]] std::uint64_t ctr(ctr::Id id) const noexcept {
    return total_ctrs[id];
  }
  [[nodiscard]] std::uint64_t messages(mpl::Layer l) const noexcept {
    return total.messages[static_cast<std::size_t>(l)];
  }
  [[nodiscard]] double kbytes(mpl::Layer l) const noexcept {
    return static_cast<double>(total.bytes[static_cast<std::size_t>(l)]) /
           1024.0;
  }
};

/// Environment handed to each child process.
struct ChildContext {
  mpl::Endpoint& endpoint;
  void* heap_base = nullptr;       // inherited shared-heap mapping
  std::size_t heap_bytes = 0;
  // The run's TMK_* knob snapshot (tmk/config.hpp): resolved once in
  // spawn() so every rank sees identical values, consumed by
  // tmk::Runtime in place of scattered getenv reads.
  tmk::Config config{};
  // DSM protocol counters: each tmk::Runtime's shutdown folds its block
  // in with Block::accumulate — a rank may run several Runtimes back to
  // back — and the rank's ProcReport takes it after `fn` returns. Zero
  // for non-DSM runs.
  ctr::Block ctrs{};
};

using ChildFn = std::function<double(ChildContext&)>;

struct SpawnOptions {
  simx::MachineModel model = simx::MachineModel::sp2();
  std::size_t shared_heap_bytes = 512ull * 1024 * 1024;
  int timeout_sec = 600;  // watchdog: kill and fail the run if exceeded
  /// Where the ring mesh lives; the backend fixes it. The process
  /// backend runs on kShm and rejects kInproc (a process-private region
  /// cannot cross a fork); the thread backend coerces every value to
  /// kInproc, and RunResult.transport records the coercion.
  mpl::TransportKind transport = mpl::TransportKind::kShm;
  /// Execution backend for the ranks. Defaults to TMK_BACKEND=
  /// process|thread when set, else forked processes.
  Backend backend = backend_from_env();
  /// Programmatic TMK_* knob snapshot override. Left unset, spawn()
  /// builds one via tmk::Config::from_env() at spawn time — after any
  /// EnvGuard a test set up — and hands it to every rank's
  /// ChildContext.
  std::optional<tmk::Config> tmk_config;
};

/// Launches `nprocs` ranks, runs `fn` in each, and aggregates results.
/// Throws common::Error if any rank fails, crashes, or times out.
///
/// Failure semantics (both backends): the first rank to die poisons the
/// mesh (mpl::Fabric::poison), so every survivor's next blocking wait
/// unwinds in bounded time with a blame line naming the dead rank and
/// the wait site, instead of parking until the global watchdog. The
/// error reported is the chronologically FIRST failure — the root
/// cause — not a poisoned survivor's. Process backend: the parent
/// keeps gathering reports for a short grace window after poisoning,
/// then SIGKILLs any straggler; the error carries the child's rank and
/// wait status. Thread backend: ranks cannot be killed, so a rank
/// wedged outside any protocol wait still ends the whole test process
/// via the watchdog, whose diagnostic names the unfinished ranks.
RunResult spawn(int nprocs, const SpawnOptions& options, const ChildFn& fn);

/// Convenience for sequential baselines: one process, no communication;
/// returns the checksum and the scaled CPU time as virtual time.
RunResult run_sequential(const SpawnOptions& options,
                         const std::function<double()>& fn);

}  // namespace runner
