// Cross-backend invariance suite: forked processes vs rank threads.
//
// The thread backend changes everything host-visible about a run — no
// fork, per-rank heaps at distinct addresses, the ring mesh in a
// private region instead of an inherited MAP_SHARED one, many rank
// threads taking SIGSEGVs in one process — and nothing modelled: the
// Endpoint core and the DSM protocol above it are identical. So the
// modelled results must be backend-invariant, with the strongest
// invariant each protocol admits:
//
//  - Message-passing variants (kPvme) have a FIXED communication
//    schedule: checksums, per-layer message/byte counters, and
//    per-rank virtual times are asserted bit-identical across
//    backends.
//  - TreadMarks variants are asserted checksum-identical per rank,
//    plus a controlled protocol run asserting the barrier/lock/fault
//    digest. Traffic totals stay schedule-dependent (lazy diff
//    flushing: one flush covers every interval closed before the first
//    request arrives, so a request racing the writer's next barrier can
//    save or cost a message run-to-run) on ANY backend, so they are not
//    compared bit-wise.
//
// Also here: the regression test for the fault route — many rank
// threads taking SIGSEGVs concurrently on their own heaps, each of
// which the process-wide handler must hand to the faulting thread's own
// runtime.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <string>

#include "apps/registry.hpp"
#include "env_guard.hpp"
#include "mpl/transport.hpp"
#include "runner/counters.hpp"
#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

namespace {

/// Deterministic model: SP/2 protocol constants, measured host CPU
/// scaled to zero — the virtual clock depends only on the protocol
/// event sequence.
runner::SpawnOptions det_options(runner::Backend b) {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::sp2();
  o.model.cpu_scale = 0.0;
  o.shared_heap_bytes = 256ull << 20;
  o.timeout_sec = 300;
  o.backend = b;
  return o;
}

// The key is stored inline, not as a pointer: gtest prints an
// unprintable parameter as its raw bytes into the listed test name, and
// a pointer's bytes change from process to process under ASLR.
struct Case {
  char key[8];
  apps::System system;
  int nprocs;
};

std::string case_name(const Case& c) {
  std::string s = std::string(c.key) + "_";
  for (const char* p = apps::to_string(c.system); *p != '\0'; ++p)
    if (std::isalnum(static_cast<unsigned char>(*p)))
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  return s + "_" + std::to_string(c.nprocs);
}

runner::RunResult run_case(const Case& c, runner::Backend b) {
  const apps::Workload& w = apps::find_workload(c.key);
  return apps::run_workload(w, c.system, c.nprocs, det_options(b),
                            apps::Preset::kReduced);
}

// ---- DSM variants: per-rank checksum invariance ----------------------

class CrossBackendDsm : public ::testing::TestWithParam<Case> {};

TEST_P(CrossBackendDsm, ChecksumsAreBackendInvariant) {
  const Case c = GetParam();
  const auto process = run_case(c, runner::Backend::kProcess);
  const auto thread = run_case(c, runner::Backend::kThread);
  EXPECT_EQ(process.backend, runner::Backend::kProcess);
  EXPECT_EQ(thread.backend, runner::Backend::kThread);
  EXPECT_EQ(thread.transport, mpl::TransportKind::kInproc);
  for (int p = 0; p < c.nprocs; ++p)
    EXPECT_DOUBLE_EQ(process.procs[static_cast<std::size_t>(p)].checksum,
                     thread.procs[static_cast<std::size_t>(p)].checksum)
        << c.key << " rank " << p;
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CrossBackendDsm,
    ::testing::Values(Case{"jacobi", apps::System::kTmk, 4},
                      Case{"mgs", apps::System::kTmk, 2},
                      Case{"jacobi", apps::System::kSpf, 4}),
    [](const auto& info) { return case_name(info.param); });

// ---- message-passing variants: full bit-equality ---------------------

class CrossBackendMp : public ::testing::TestWithParam<Case> {};

TEST_P(CrossBackendMp, ModelledResultsAreBitIdentical) {
  const Case c = GetParam();
  const auto process = run_case(c, runner::Backend::kProcess);
  const auto thread = run_case(c, runner::Backend::kThread);
  EXPECT_DOUBLE_EQ(process.checksum, thread.checksum) << c.key;
  EXPECT_EQ(process.max_vt_ns, thread.max_vt_ns) << c.key;
  for (std::size_t l = 0; l < process.total.messages.size(); ++l) {
    EXPECT_EQ(process.total.messages[l], thread.total.messages[l])
        << c.key << " layer " << l;
    EXPECT_EQ(process.total.bytes[l], thread.total.bytes[l])
        << c.key << " layer " << l;
  }
  for (int p = 0; p < c.nprocs; ++p) {
    EXPECT_EQ(process.procs[static_cast<std::size_t>(p)].vt_ns,
              thread.procs[static_cast<std::size_t>(p)].vt_ns)
        << c.key << " rank " << p;
    EXPECT_DOUBLE_EQ(process.procs[static_cast<std::size_t>(p)].checksum,
                     thread.procs[static_cast<std::size_t>(p)].checksum)
        << c.key << " rank " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Registry, CrossBackendMp,
    ::testing::Values(Case{"jacobi", apps::System::kPvme, 4},
                      Case{"mgs", apps::System::kPvme, 4}),
    [](const auto& info) { return case_name(info.param); });

// ---- epoch-GC invariance across backends ------------------------------

// Barrier-phased ring producer/consumer with a fresh slice per round:
// each round's pull fetches exactly one closed unflushed interval, so
// lazy-diff flush coverage has nothing left to vary on and the
// collector's wire additions are the only variable.
double gc_ring_schedule(runner::ChildContext& c) {
  tmk::Runtime rt(c);
  const int me = rt.rank();
  const int n = rt.nprocs();
  auto* data = rt.alloc<std::int64_t>(512 * n);  // one page per rank
  rt.barrier();
  double sum = 0;
  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 32; ++i)
      data[512 * me + 32 * round + i] = 1000 * me + 10 * round + i;
    rt.barrier();
    const int left = (me + n - 1) % n;
    for (int i = 0; i < 32; ++i)
      sum += static_cast<double>(data[512 * left + 32 * round + i]);
    rt.barrier();
  }
  return sum;
}

// TMK_EPOCH_GC=off vs an enabled-but-idle collector (first GC round
// beyond the run) on the thread backend's inproc mesh — the second
// transport's leg of the off==pre-GC bit-identity contract (the shm
// leg lives in the cross-transport suite).
TEST(EpochGcIdleIdentity, OffIsBitIdenticalToIdleCollectorOnThreadMesh) {
  runner::RunResult on, off;
  {
    const test::EpochGcEnv guard(true);
    on = runner::spawn(8, det_options(runner::Backend::kThread),
                       gc_ring_schedule);
  }
  {
    const test::EpochGcEnv guard(false);
    off = runner::spawn(8, det_options(runner::Backend::kThread),
                        gc_ring_schedule);
  }
  for (std::size_t l = 0; l < on.total.messages.size(); ++l) {
    EXPECT_EQ(on.total.messages[l], off.total.messages[l]) << "layer " << l;
    EXPECT_EQ(on.total.bytes[l], off.total.bytes[l]) << "layer " << l;
  }
  for (const runner::ctr::Desc& d : runner::ctr::kRegistry) {
    if (d.layer != runner::ctr::Layer::kDsm) continue;  // host = wall clock
    EXPECT_EQ(on.total_ctrs[d.id], off.total_ctrs[d.id])
        << "counter " << d.json_key;
  }
  ASSERT_EQ(on.procs.size(), off.procs.size());
  for (std::size_t i = 0; i < on.procs.size(); ++i)
    EXPECT_DOUBLE_EQ(on.procs[i].checksum, off.procs[i].checksum)
        << "rank " << i;
}

// Active collector (interval 4), forked shm mesh vs thread inproc
// mesh: the horizon piggyback, the validation fetches, and the
// reclamation counters must be backend-invariant.
class EpochGcActiveBackendInvariance
    : public ::testing::TestWithParam<bool> {};

TEST_P(EpochGcActiveBackendInvariance, RingTrafficMatchesAcrossBackends) {
  const test::EpochGcEnv guard(GetParam());
  const test::EnvGuard interval("TMK_EPOCH_GC_INTERVAL", "4");
  const auto process = runner::spawn(
      8, det_options(runner::Backend::kProcess), gc_ring_schedule);
  const auto thread = runner::spawn(
      8, det_options(runner::Backend::kThread), gc_ring_schedule);
  for (std::size_t l = 0; l < process.total.messages.size(); ++l) {
    EXPECT_EQ(process.total.messages[l], thread.total.messages[l])
        << "layer " << l;
    EXPECT_EQ(process.total.bytes[l], thread.total.bytes[l])
        << "layer " << l;
  }
  EXPECT_EQ(process.ctr(runner::ctr::Id::kIntervalsReclaimed),
            thread.ctr(runner::ctr::Id::kIntervalsReclaimed));
  if (GetParam())
    EXPECT_GT(process.ctr(runner::ctr::Id::kIntervalsReclaimed), 0u);
  else
    EXPECT_EQ(process.ctr(runner::ctr::Id::kIntervalsReclaimed), 0u);
  ASSERT_EQ(process.procs.size(), thread.procs.size());
  for (std::size_t i = 0; i < process.procs.size(); ++i)
    EXPECT_DOUBLE_EQ(process.procs[i].checksum, thread.procs[i].checksum)
        << "rank " << i;
}

INSTANTIATE_TEST_SUITE_P(OnOff, EpochGcActiveBackendInvariance,
                         ::testing::Values(true, false),
                         [](const auto& info) {
                           return std::string(info.param ? "on" : "off");
                         });

// ---- controlled tmk protocol run --------------------------------------

// Fixed barrier/lock/shared-write schedule with deterministic protocol
// event counts: the per-rank digest of barriers, lock acquires, and
// write faults must match across backends. Barriers and acquires are the
// schedule's own loop counts; write faults are page-fault deltas over
// windows that only store (the cell's load, whose fault count follows
// the lock order, stays outside them). (Message totals are not
// compared: the manager-side lock chaining makes self-forwards, which
// are uncounted, contention-order-dependent on either backend.)
constexpr int kProcs = 4;
constexpr int kRounds = 5;

TEST(CrossBackendTmk, BarrierLockFaultDigestIdentical) {
  auto run = [&](runner::Backend b) {
    return runner::spawn(
        kProcs, det_options(b), [](runner::ChildContext& c) {
          tmk::Runtime rt(c);
          auto* data = rt.alloc<std::int64_t>(1024 * rt.nprocs());
          auto* cell = rt.alloc<std::int64_t>(1);
          int barriers = 0;
          int acquires = 0;
          std::uint64_t write_faults = 0;
          const auto faults = [&rt] {
            return rt.counters()[runner::ctr::Id::kPageFaults];
          };
          for (int iter = 0; iter < kRounds; ++iter) {
            rt.barrier();
            ++barriers;
            const int me = rt.rank();
            std::uint64_t before = faults();
            data[1024 * me + iter] = 100 * me + iter;
            write_faults += faults() - before;
            rt.lock_acquire(3);
            ++acquires;
            const std::int64_t v = *cell;
            before = faults();
            *cell = v + 1;
            write_faults += faults() - before;
            rt.lock_release(3);
            rt.barrier();
            ++barriers;
            const int peer = (me + 1) % rt.nprocs();
            if (data[1024 * peer + iter] != 100 * peer + iter) return -1.0;
          }
          rt.barrier();
          ++barriers;
          if (*cell != kProcs * kRounds) return -2.0;
          return barriers * 1e6 + acquires * 1e3 +
                 static_cast<double>(write_faults);
        });
  };
  const auto process = run(runner::Backend::kProcess);
  const auto thread = run(runner::Backend::kThread);
  for (int p = 0; p < kProcs; ++p) {
    EXPECT_GT(process.procs[static_cast<std::size_t>(p)].checksum, 0.0);
    EXPECT_DOUBLE_EQ(process.procs[static_cast<std::size_t>(p)].checksum,
                     thread.procs[static_cast<std::size_t>(p)].checksum)
        << "rank " << p;
  }
}

// ---- SIGSEGV fault route under concurrency ----------------------------

// Regression test for the thread-local fault route: all rank threads
// take write faults on their own heaps AT THE SAME TIME (no
// synchronization between the allocations and the fault storm), so the
// process-wide handler must concurrently hand each fault to the
// faulting thread's own runtime (Runtime::instance()). A misroute dies
// loudly in handle_fault ("tmk: rank R: fault at ... outside its heap")
// or corrupts the per-rank pattern verified below.
TEST(FaultDispatch, ConcurrentFaultsRouteToOwningRuntime) {
  constexpr int kRanks = 4;
  constexpr int kPages = 64;
  constexpr int kIntsPerPage = 1024;  // 4 KiB pages of int32
  runner::SpawnOptions opts = det_options(runner::Backend::kThread);
  opts.model = simx::MachineModel::zero_cost();

  // Rank threads share the test's address space: collect each rank's
  // heap base through a plain array (each rank writes only its slot;
  // the thread join orders the reads after the writes).
  std::array<std::uintptr_t, kRanks> bases{};
  std::array<std::uint64_t, kRanks> write_faults{};

  auto r = runner::spawn(
      kRanks, opts, [&bases, &write_faults](runner::ChildContext& c) {
        tmk::Runtime rt(c);
        bases[static_cast<std::size_t>(rt.rank())] =
            reinterpret_cast<std::uintptr_t>(c.heap_base);
        auto* mine = rt.alloc<std::int32_t>(
            static_cast<std::size_t>(kRanks) * kPages * kIntsPerPage);
        // Fault storm: every page of this rank's block, concurrently
        // with every other rank's storm on ITS heap.
        const int me = rt.rank();
        for (int pg = 0; pg < kPages; ++pg)
          for (int i = 0; i < kIntsPerPage; ++i)
            mine[(me * kPages + pg) * kIntsPerPage + i] =
                me * 1'000'000 + pg * 1000 + (i % 97);
        // Only stores so far: every fault is a write fault.
        write_faults[static_cast<std::size_t>(me)] =
            rt.counters()[runner::ctr::Id::kPageFaults];
        rt.barrier();
        // Cross-check a peer's block through the DSM (read faults, on
        // the same route).
        const int peer = (me + 1) % rt.nprocs();
        double sum = 0;
        for (int pg = 0; pg < kPages; ++pg)
          for (int i = 0; i < kIntsPerPage; ++i)
            sum += mine[(peer * kPages + pg) * kIntsPerPage + i];
        rt.barrier();
        double expect = 0;
        for (int pg = 0; pg < kPages; ++pg)
          for (int i = 0; i < kIntsPerPage; ++i)
            expect += peer * 1'000'000 + pg * 1000 + (i % 97);
        return sum == expect ? 1.0 : -1.0;
      });

  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, 1.0);
  // Every rank heap is a distinct, non-overlapping range, so each rank
  // thread's faults can only be on its own heap.
  for (int i = 0; i < kRanks; ++i) {
    EXPECT_NE(bases[static_cast<std::size_t>(i)], 0u);
    for (int j = i + 1; j < kRanks; ++j) {
      const auto a = bases[static_cast<std::size_t>(i)];
      const auto b = bases[static_cast<std::size_t>(j)];
      EXPECT_TRUE(a + opts.shared_heap_bytes <= b ||
                  b + opts.shared_heap_bytes <= a)
          << "rank heaps " << i << " and " << j << " overlap";
    }
  }
  // Each rank faulted on every page it wrote — its own, not a peer's.
  for (int i = 0; i < kRanks; ++i)
    EXPECT_GE(write_faults[static_cast<std::size_t>(i)],
              static_cast<std::uint64_t>(kPages))
        << "rank " << i;
}

}  // namespace
