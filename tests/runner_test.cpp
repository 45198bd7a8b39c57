// Harness tests: report plumbing, crash propagation, heap inheritance.
#include <gtest/gtest.h>

#include <sys/mman.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>

#include "common/check.hpp"
#include "runner/runner.hpp"

namespace {

runner::SpawnOptions fast_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.shared_heap_bytes = 1 << 20;
  o.timeout_sec = 60;
  return o;
}

TEST(Runner, ChecksumComesFromRankZero) {
  auto r = runner::spawn(4, fast_options(), [](runner::ChildContext& c) {
    return c.endpoint.rank() == 0 ? 42.0 : -1.0;
  });
  EXPECT_DOUBLE_EQ(r.checksum, 42.0);
  EXPECT_EQ(r.nprocs, 4);
  EXPECT_EQ(r.procs.size(), 4u);
}

TEST(Runner, PerProcessReportsCarryRank) {
  auto r = runner::spawn(3, fast_options(), [](runner::ChildContext& c) {
    return static_cast<double>(c.endpoint.rank());
  });
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(r.procs[static_cast<std::size_t>(i)].rank,
              static_cast<std::uint32_t>(i));
    EXPECT_DOUBLE_EQ(r.procs[static_cast<std::size_t>(i)].checksum, i);
  }
}

TEST(Runner, ChildExceptionPropagates) {
  EXPECT_THROW(
      runner::spawn(2, fast_options(),
                    [](runner::ChildContext& c) -> double {
                      if (c.endpoint.rank() == 1)
                        throw common::Error("deliberate failure");
                      return 0.0;
                    }),
      common::Error);
}

TEST(Runner, HeapInheritedAtSameAddressAndZeroed) {
  // Fork-backend contract: every child writes its rank at a distinct
  // offset in its *private* copy; children verify the heap starts
  // zeroed and the base pointer is identical (checksummed via the
  // address bits). The thread backend intentionally breaks the
  // same-address half (distinct per-rank heaps), so this pins kProcess.
  auto opts = fast_options();
  opts.backend = runner::Backend::kProcess;
  auto r = runner::spawn(4, opts, [](runner::ChildContext& c) {
    auto* p = static_cast<unsigned char*>(c.heap_base);
    for (int i = 0; i < 1000; ++i)
      if (p[i] != 0) return -1.0;
    p[c.endpoint.rank()] = 0xAB;  // private COW write
    // Another process's write must not be visible here.
    for (int i = 0; i < 4; ++i)
      if (i != c.endpoint.rank() && p[i] != 0) return -2.0;
    return static_cast<double>(reinterpret_cast<std::uintptr_t>(p) & 0xFFFF);
  });
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, r.procs[0].checksum);
}

// The process backend's ranks run on the ring mesh in the MAP_SHARED
// region they inherit: the default options pick it without being told.
TEST(Runner, ProcessBackendRunsOnTheShmRingMesh) {
  auto opts = fast_options();
  opts.backend = runner::Backend::kProcess;
  auto r = runner::spawn(2, opts, [](runner::ChildContext& c) {
    return c.endpoint.transport_kind() == mpl::TransportKind::kShm ? 1.0
                                                                   : 0.0;
  });
  EXPECT_EQ(r.transport, mpl::TransportKind::kShm);
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, 1.0);
}

// A line the parent buffered before the spawn appears once in its
// stream, not once more per forked rank (each rank flushes its stdio
// before _exit, which would replay an inherited unflushed buffer).
TEST(Runner, ParentStdioBufferIsNotReplayedByRanks) {
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  std::fputs("before spawn\n", out);  // stays in the FILE buffer
  auto opts = fast_options();
  opts.backend = runner::Backend::kProcess;
  (void)runner::spawn(4, opts, [](runner::ChildContext&) { return 0.0; });
  std::fflush(out);
  std::rewind(out);
  int lines = 0;
  char buf[64];
  while (std::fgets(buf, sizeof(buf), out) != nullptr) ++lines;
  std::fclose(out);
  EXPECT_EQ(lines, 1);
}

TEST(Runner, SequentialHelperMeasuresCpu) {
  auto r = runner::run_sequential(fast_options(), [] {
    volatile double x = 0;
    for (int i = 0; i < 5'000'000; ++i) x = x + i;
    return static_cast<double>(x);
  });
  EXPECT_GT(r.max_vt_ns, 0u);
  EXPECT_GT(r.total_cpu_ns, 0u);
  EXPECT_EQ(r.nprocs, 1);
}

TEST(Runner, CpuScaleMultipliesVirtualTime) {
  auto busy = [] {
    volatile double x = 0;
    for (int i = 0; i < 20'000'000; ++i) x = x + i;
    return 0.0;
  };
  auto base = fast_options();
  base.model.cpu_scale = 1.0;
  auto scaled = fast_options();
  scaled.model.cpu_scale = 8.0;
  const auto r1 = runner::run_sequential(base, busy);
  const auto r8 = runner::run_sequential(scaled, busy);
  // Expect roughly 8x; allow generous slack for measurement noise.
  const double ratio = static_cast<double>(r8.max_vt_ns) /
                       static_cast<double>(r1.max_vt_ns);
  EXPECT_GT(ratio, 4.0);
  EXPECT_LT(ratio, 16.0);
}

// A child that dies before delivering its report must fail the run
// immediately (with its rank and wait status), not leave the survivors
// blocked on the dead peer until the watchdog fires.
TEST(Runner, ChildDeathWithoutReportFailsFast) {
  auto opts = fast_options();
  opts.timeout_sec = 120;  // watchdog far beyond the fail-fast budget
  // _exit and waitpid-status reporting are fork-backend semantics (a
  // rank thread calling _exit would take the whole test down).
  opts.backend = runner::Backend::kProcess;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    runner::spawn(2, opts, [](runner::ChildContext& c) -> double {
      if (c.endpoint.rank() == 1) _exit(7);  // no report, no unwind
      // Rank 0 blocks on a message that will never arrive.
      (void)c.endpoint.wait_app_kind(mpl::FrameKind::kTestPing);
      return 0.0;
    });
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("proc 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("exited with status 7"), std::string::npos) << msg;
  }
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  EXPECT_LT(elapsed, 30.0) << "run hung instead of failing fast";
}

TEST(Runner, RejectsTooManyProcs) {
  EXPECT_THROW(runner::spawn(mpl::kMaxProcs + 1, fast_options(),
                             [](runner::ChildContext&) { return 0.0; }),
               common::Error);
}

/// KiB this process has mapped in mappings of at least 128 MiB. A
/// 16-rank ring region is one (1024 rings of 128 KiB plus control
/// blocks); malloc arenas (64 MiB each, created by rank threads at the
/// allocator's discretion) and thread stacks are smaller, so unlike
/// VmSize this total does not move with them.
long long large_mappings_kib() {
  std::ifstream maps("/proc/self/maps");
  if (!maps) return -1;
  long long kib = 0;
  std::string line;
  while (std::getline(maps, line)) {
    unsigned long long lo = 0, hi = 0;
    if (std::sscanf(line.c_str(), "%llx-%llx", &lo, &hi) == 2 &&
        hi - lo >= (128ull << 20))
      kib += static_cast<long long>((hi - lo) >> 10);
  }
  return kib;
}

// Each spawn maps a ring region and must unmap it before returning, on
// both backends: 24 leaked 16-rank regions would add about 3 GiB.
TEST(Runner, RingRegionIsUnmappedWhenSpawnReturns) {
  const auto trivial = [](runner::ChildContext&) { return 0.0; };
  for (const runner::Backend b :
       {runner::Backend::kProcess, runner::Backend::kThread}) {
    auto opts = fast_options();
    opts.backend = b;
    runner::spawn(16, opts, trivial);
    const long long before = large_mappings_kib();
    ASSERT_GE(before, 0);
    for (int i = 0; i < 24; ++i) runner::spawn(16, opts, trivial);
    EXPECT_LT(large_mappings_kib() - before, 128 * 1024)
        << runner::to_string(b);
  }
}

// ---- thread backend ---------------------------------------------------

runner::SpawnOptions thread_options() {
  auto o = fast_options();
  o.backend = runner::Backend::kThread;
  return o;
}

TEST(RunnerThread, BackendNamesRoundTrip) {
  EXPECT_EQ(runner::parse_backend("process"), runner::Backend::kProcess);
  EXPECT_EQ(runner::parse_backend("thread"), runner::Backend::kThread);
  EXPECT_FALSE(runner::parse_backend("fiber").has_value());
  EXPECT_STREQ(runner::to_string(runner::Backend::kThread), "thread");
  EXPECT_STREQ(runner::to_string(runner::Backend::kProcess), "process");
}

TEST(RunnerThread, RanksRunAsThreadsWithDistinctZeroedHeaps) {
  // Rank threads share the test's address space, so they can publish
  // their heap bases through a plain array (one slot per rank; the
  // joins order the reads).
  std::array<std::uintptr_t, 4> bases{};
  auto opts = thread_options();
  auto r = runner::spawn(4, opts, [&bases](runner::ChildContext& c) {
    auto* p = static_cast<unsigned char*>(c.heap_base);
    for (int i = 0; i < 1000; ++i)
      if (p[i] != 0) return -1.0;  // heap must start zeroed
    p[c.endpoint.rank()] = 0xAB;   // private to this rank's mapping
    bases[static_cast<std::size_t>(c.endpoint.rank())] =
        reinterpret_cast<std::uintptr_t>(p);
    return static_cast<double>(c.endpoint.rank());
  });
  EXPECT_EQ(r.backend, runner::Backend::kThread);
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(r.procs[static_cast<std::size_t>(i)].checksum, i);
    EXPECT_NE(bases[static_cast<std::size_t>(i)], 0u);
    for (int j = i + 1; j < 4; ++j)
      EXPECT_NE(bases[static_cast<std::size_t>(i)],
                bases[static_cast<std::size_t>(j)]);
  }
}

TEST(RunnerThread, CoercesTransportToInproc) {
  auto opts = thread_options();
  opts.transport = mpl::TransportKind::kShm;
  auto r = runner::spawn(2, opts, [](runner::ChildContext& c) {
    return c.endpoint.transport_kind() == mpl::TransportKind::kInproc ? 1.0
                                                                      : 0.0;
  });
  EXPECT_EQ(r.transport, mpl::TransportKind::kInproc);
  EXPECT_DOUBLE_EQ(r.checksum, 1.0);
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, 1.0);
}

TEST(RunnerThread, RankExceptionPropagates) {
  try {
    runner::spawn(2, thread_options(), [](runner::ChildContext& c) -> double {
      if (c.endpoint.rank() == 1)
        throw common::Error("deliberate thread-rank failure");
      return 0.0;
    });
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("deliberate thread-rank failure"), std::string::npos)
        << msg;
  }
}

TEST(RunnerThread, ProcessBackendRejectsInprocTransport) {
  auto opts = fast_options();
  opts.backend = runner::Backend::kProcess;
  opts.transport = mpl::TransportKind::kInproc;
  EXPECT_THROW(
      runner::spawn(2, opts, [](runner::ChildContext&) { return 0.0; }),
      common::Error);
}

TEST(RunnerThread, SequentialHelperWorksOnThreads) {
  auto r = runner::run_sequential(thread_options(), [] {
    volatile double x = 0;
    for (int i = 0; i < 1'000'000; ++i) x = x + i;
    return static_cast<double>(x);
  });
  EXPECT_GT(r.max_vt_ns, 0u);
  EXPECT_GT(r.total_cpu_ns, 0u);
  EXPECT_EQ(r.nprocs, 1);
  EXPECT_EQ(r.backend, runner::Backend::kThread);
}

}  // namespace
