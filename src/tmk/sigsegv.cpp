// SIGSEGV trampoline: the access-detection mechanism of the DSM.
//
// "TreadMarks relies on user-level memory management techniques provided
//  by the operating system to detect accesses to shared memory at the
//  granularity of a page." (§2.2)
//
// On x86-64 the page-fault error code (bit 1 of REG_ERR) distinguishes
// writes from reads, so a write miss on an invalid page fetches diffs and
// twins the page in a single fault. On other architectures the handler
// treats the first fault as a read; the retried store then faults again
// on the now read-only page, which is unambiguously a write.
//
// The handler is process-wide but the DSM contexts are per rank. A
// SIGSEGV is delivered to the thread that touched the page, and only a
// rank's application thread touches its heap, so the handler hands each
// fault to the faulting thread's own Runtime (Runtime::instance()). That
// is the same route on both backends, and it is what lets the thread
// backend run many ranks, each with a private heap at a distinct
// address, in one address space.
#include <signal.h>
#include <sys/mman.h>
#include <ucontext.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/cpu_clock.hpp"

#include "common/check.hpp"
#include "tmk/runtime.hpp"

namespace tmk {

namespace {

struct sigaction g_old_action;
std::once_flag g_install_once;
// Per-thread probe page used to measure the host's fault-delivery cost
// (trap + signal dispatch + mprotect), which the virtual clock must not
// scale as application compute. Thread-local so concurrently starting
// rank threads (thread backend) can calibrate independently; the
// handler runs on the faulting thread and sees its own slot.
thread_local void* t_probe_page = nullptr;
// Per-thread handler stack (sigaltstack is per-thread state): every
// rank's application thread gets its own, installed with its Runtime
// and restored at Runtime destruction. Restoring matters under ASan,
// whose runtime registers its own per-thread alternate stack and
// unmaps whatever is registered when the thread dies — which must be
// its mapping again, not our heap buffer.
thread_local std::unique_ptr<std::byte[]> t_alt_stack;
thread_local stack_t t_prev_stack{};
thread_local bool t_alt_stack_installed = false;

void restore_default_and_return() {
  // Re-raising with the default handler lets a genuine crash produce a
  // normal core/termination instead of looping through our handler.
  sigaction(SIGSEGV, &g_old_action, nullptr);
}

void handler(int /*sig*/, siginfo_t* info, void* uctx) {
  if (t_probe_page != nullptr &&
      reinterpret_cast<std::uintptr_t>(info->si_addr) ==
          reinterpret_cast<std::uintptr_t>(t_probe_page)) {
    mprotect(t_probe_page, 4096, PROT_READ | PROT_WRITE);
    return;
  }
  bool is_write = false;
#if defined(__x86_64__)
  const auto* ctx = static_cast<const ucontext_t*>(uctx);
  is_write = (ctx->uc_mcontext.gregs[REG_ERR] & 0x2) != 0;
#else
  (void)uctx;
#endif
  // A thread without a Runtime, or an address outside its Runtime's
  // heap, is a genuine crash.
  Runtime* rt = Runtime::instance();
  if (rt == nullptr || !rt->handle_fault(info->si_addr, is_write)) {
    restore_default_and_return();
  }
}

}  // namespace

std::uint64_t measure_host_fault_cost_ns() {
  void* p = mmap(nullptr, 4096, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  COMMON_CHECK(p != MAP_FAILED);
  auto* word = static_cast<volatile int*>(p);
  *word = 1;  // warm the mapping
  t_probe_page = p;
  // 32 rounds keep the estimate stable to a few hundred ns while the
  // calibration stays well under a millisecond of every child's startup
  // (256 rounds cost more than the rest of Runtime construction).
  constexpr int kIters = 32;

  // Full path: protect, fault, handler unprotects.
  const std::uint64_t t0 = common::thread_cpu_ns();
  for (int i = 0; i < kIters; ++i) {
    COMMON_SYSCALL(mprotect(p, 4096, PROT_NONE));
    *word = i;  // faults; the handler unprotects
  }
  const std::uint64_t full =
      (common::thread_cpu_ns() - t0) / static_cast<std::uint64_t>(kIters);

  // Syscall-only path: the two mprotect calls without a fault. The
  // difference isolates trap + signal delivery + handler entry — the
  // only part that lands in the *application's* fold window (the
  // handler body runs in protocol mode and is dropped separately).
  const std::uint64_t t1 = common::thread_cpu_ns();
  for (int i = 0; i < kIters; ++i) {
    COMMON_SYSCALL(mprotect(p, 4096, PROT_NONE));
    COMMON_SYSCALL(mprotect(p, 4096, PROT_READ | PROT_WRITE));
  }
  const std::uint64_t bare =
      (common::thread_cpu_ns() - t1) / static_cast<std::uint64_t>(kIters);

  t_probe_page = nullptr;
  munmap(p, 4096);
  // The tight calibration loop runs with warm caches and predictors; a
  // real fault in the middle of a compute loop costs a little more. Half
  // the syscall-pair cost is a robust margin for that cold-path delta.
  const std::uint64_t trap = full > bare ? full - bare : 0;
  return trap + bare / 2;
}

void install_sigsegv_handler() {
  // The handler performs real protocol work (diff fetches over the
  // fabric), so give it its own sizeable stack — per thread, because
  // sigaltstack is per-thread state and under the thread backend every
  // rank's application thread takes its own faults.
  if (!t_alt_stack_installed) {
    constexpr std::size_t kAltStackBytes = 512 * 1024;
    if (t_alt_stack == nullptr)
      t_alt_stack = std::make_unique<std::byte[]>(kAltStackBytes);
    stack_t ss{};
    ss.ss_sp = t_alt_stack.get();
    ss.ss_size = kAltStackBytes;
    COMMON_SYSCALL(sigaltstack(&ss, &t_prev_stack));
    t_alt_stack_installed = true;
  }

  // The process-wide action is installed exactly once, even when many
  // rank threads construct their runtimes concurrently.
  std::call_once(g_install_once, [] {
    struct sigaction sa{};
    sa.sa_sigaction = handler;
    sa.sa_flags = SA_SIGINFO | SA_ONSTACK;
    sigemptyset(&sa.sa_mask);
    COMMON_SYSCALL(sigaction(SIGSEGV, &sa, &g_old_action));
  });
}

void uninstall_thread_sigaltstack() noexcept {
  if (!t_alt_stack_installed) return;
  // Put back whatever this thread had before its Runtime (ASan's
  // per-thread stack, or SS_DISABLE); no more DSM faults can hit this
  // thread once its runtime is gone. The buffer is kept for reuse by a
  // later Runtime on the same thread and freed at thread exit.
  sigaltstack(&t_prev_stack, nullptr);
  t_alt_stack_installed = false;
}

}  // namespace tmk
