// Multi-process TreadMarks consistency tests: real forked processes, real
// SIGSEGV-driven page faults, the full lazy-release-consistency protocol.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/prng.hpp"
#include "env_guard.hpp"
#include "runner/counters.hpp"
#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

namespace {

using runner::ctr::Id;

runner::SpawnOptions fast_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.shared_heap_bytes = 64ull << 20;
  o.timeout_sec = 120;
  return o;
}

// fast_options() with the update mode pinned in the run's Config (every
// other knob from the environment).
runner::SpawnOptions mode_options(tmk::UpdateMode mode) {
  runner::SpawnOptions o = fast_options();
  tmk::Config cfg = tmk::Config::from_env();
  cfg.update_mode = mode;
  o.tmk_config = cfg;
  return o;
}

// One of the rank's protocol counters so far.
std::uint64_t count(const tmk::Runtime& rt, Id id) {
  return rt.counters()[id];
}

// Master writes before the barrier; everyone reads after it.
TEST(TmkRuntime, BarrierPublishesWrites) {
  auto r = runner::spawn(4, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(8192);
    if (rt.rank() == 0) {
      for (int i = 0; i < 8192; ++i) data[i] = i * 3;
    }
    rt.barrier();
    double sum = 0;
    for (int i = 0; i < 8192; ++i) sum += data[i];
    rt.barrier();
    return sum;
  });
  const double expect = 3.0 * (8191.0 * 8192.0 / 2.0);
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, expect);
}

// Each process writes its own page-aligned block; everyone reads all.
TEST(TmkRuntime, DisjointBlockWritersAllVisible) {
  auto r = runner::spawn(8, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    constexpr int kPer = 2048;  // ints per proc = 2 pages
    auto* data = rt.alloc<std::int32_t>(kPer * 8);
    rt.barrier();
    for (int i = 0; i < kPer; ++i) data[rt.rank() * kPer + i] = rt.rank() + 1;
    rt.barrier();
    double sum = 0;
    for (int i = 0; i < kPer * rt.nprocs(); ++i) sum += data[i];
    rt.barrier();
    return sum;
  });
  EXPECT_DOUBLE_EQ(r.checksum, 2048.0 * (1 + 2 + 3 + 4 + 5 + 6 + 7 + 8));
}

// False sharing: all 8 processes write disjoint words of the SAME page in
// the same interval; the multiple-writer protocol must merge all writes.
TEST(TmkRuntime, FalseSharingMergesConcurrentWriters) {
  auto r = runner::spawn(8, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* page = rt.alloc<std::int32_t>(1024);  // exactly one page
    rt.barrier();
    for (int i = rt.rank(); i < 1024; i += rt.nprocs())
      page[i] = 1000 + rt.rank();
    rt.barrier();
    double sum = 0;
    for (int i = 0; i < 1024; ++i) sum += page[i];
    rt.barrier();
    return sum;
  });
  double expect = 0;
  for (int i = 0; i < 1024; ++i) expect += 1000 + (i % 8);
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, expect);
}

// Lock-serialized read-modify-write of one shared cell.
TEST(TmkRuntime, LockProtectsSharedCounter) {
  constexpr int kIters = 25;
  auto r = runner::spawn(4, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* counter = rt.alloc<std::int64_t>(1);
    rt.barrier();
    for (int i = 0; i < kIters; ++i) {
      rt.lock_acquire(3);
      *counter += 1;
      rt.lock_release(3);
    }
    rt.barrier();
    return static_cast<double>(*counter);
  });
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, 4.0 * kIters);
}

// Several distinct locks used concurrently, managers spread over procs.
TEST(TmkRuntime, MultipleLocksIndependent) {
  auto r = runner::spawn(4, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* cells = rt.alloc<std::int64_t>(512 * 4);  // one page per lock
    rt.barrier();
    for (int round = 0; round < 10; ++round) {
      for (int l = 0; l < 4; ++l) {
        rt.lock_acquire(l);
        cells[512 * l] += 1;
        rt.lock_release(l);
      }
    }
    rt.barrier();
    double sum = 0;
    for (int l = 0; l < 4; ++l) sum += static_cast<double>(cells[512 * l]);
    return sum;
  });
  EXPECT_DOUBLE_EQ(r.checksum, 4.0 * 10 * 4);
}

// A reader that skips epochs must receive the full chain of diffs.
TEST(TmkRuntime, LateReaderGetsAllEpochDiffs) {
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(1024);
    rt.barrier();
    for (int epoch = 0; epoch < 5; ++epoch) {
      if (rt.rank() == 0) data[100 + epoch] = epoch + 1;
      rt.barrier();
      // Rank 1 deliberately does not read until the end.
    }
    double sum = 0;
    for (int i = 0; i < 1024; ++i) sum += data[i];
    rt.barrier();
    return sum;
  });
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, 1 + 2 + 3 + 4 + 5);
}

// Ping-pong ownership: two processes alternately rewrite the same page.
TEST(TmkRuntime, AlternatingWritersConverge) {
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(1024);
    rt.barrier();
    for (int round = 0; round < 10; ++round) {
      if (round % 2 == rt.rank()) {
        for (int i = 0; i < 64; ++i) data[i] = data[i] + 1;
      }
      rt.barrier();
    }
    double sum = 0;
    for (int i = 0; i < 64; ++i) sum += data[i];
    return sum;
  });
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, 64.0 * 10);
}

// Write-first access (no prior read) on an invalid page must still fetch
// pending diffs before the write proceeds.
TEST(TmkRuntime, WriteFaultOnInvalidPagePreservesOthersData) {
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(1024);
    rt.barrier();
    if (rt.rank() == 0) {
      for (int i = 0; i < 512; ++i) data[i] = 7;
    }
    rt.barrier();
    if (rt.rank() == 1) {
      // First access is a WRITE to the upper half; rank 0's lower half
      // must survive the twin/merge.
      for (int i = 512; i < 1024; ++i) data[i] = 9;
    }
    rt.barrier();
    double sum = 0;
    for (int i = 0; i < 1024; ++i) sum += data[i];
    rt.barrier();
    return sum;
  });
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, 512.0 * 7 + 512.0 * 9);
}

// Improved fork/join interface: master dispatches three parallel "loops".
TEST(TmkRuntime, ForkJoinRoundTrips) {
  auto r = runner::spawn(4, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(4096);
    struct Args {
      std::int32_t scale;
    };
    if (rt.rank() == 0) {
      for (int loop = 0; loop < 3; ++loop) {
        Args a{loop + 1};
        rt.fork_broadcast(static_cast<std::uint32_t>(loop),
                          {reinterpret_cast<const std::byte*>(&a), sizeof(a)});
        for (int i = 0; i < 1024; ++i) data[i] += a.scale;  // master's share
        rt.join_master();
      }
      Args stop{0};
      rt.fork_broadcast(99,
                        {reinterpret_cast<const std::byte*>(&stop),
                         sizeof(stop)});
      double sum = 0;
      for (int i = 0; i < 4096; ++i) sum += data[i];
      return sum;
    }
    for (;;) {
      auto work = rt.wait_fork();
      if (work.func_id == 99) break;
      Args a;
      std::memcpy(&a, work.args.data(), sizeof(a));
      const int lo = 1024 * rt.rank();
      for (int i = lo; i < lo + 1024; ++i) data[i] += a.scale;
      rt.join_worker();
    }
    return 0.0;
  });
  // Each quarter incremented by 1+2+3 = 6.
  EXPECT_DOUBLE_EQ(r.checksum, 4096.0 * 6);
}

// Aggregated validate: one batched fetch instead of page-at-a-time.
TEST(TmkRuntime, ValidatePrefetchesRange) {
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    constexpr int kInts = 16 * 1024;  // 16 pages
    auto* data = rt.alloc<std::int32_t>(kInts);
    rt.barrier();
    if (rt.rank() == 0)
      for (int i = 0; i < kInts; ++i) data[i] = 2;
    rt.barrier();
    if (rt.rank() == 1) {
      rt.validate(data, kInts * sizeof(std::int32_t));
      // All pages fetched with one request: afterwards reads are local.
      const std::uint64_t before = count(rt, Id::kDiffRequests);
      double sum = 0;
      for (int i = 0; i < kInts; ++i) sum += data[i];
      const std::uint64_t after = count(rt, Id::kDiffRequests);
      rt.barrier();
      return (after == before) ? sum : -1.0;
    }
    rt.barrier();
    return 0.0;
  });
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, 2.0 * 16 * 1024);
}

// Push + accept_push: producer pushes its boundary, consumer reads it
// without any further protocol traffic even after the barrier.
TEST(TmkRuntime, PushSatisfiesFutureWriteNotices) {
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(1024);  // one page
    rt.barrier();
    if (rt.rank() == 0) {
      for (int i = 0; i < 1024; ++i) data[i] = 5;
      rt.push(1, data, common::kPageSize);
    } else {
      rt.accept_push(0);
    }
    rt.barrier();
    if (rt.rank() == 1) {
      const std::uint64_t faults_before = count(rt, Id::kPageFaults);
      double sum = 0;
      for (int i = 0; i < 1024; ++i) sum += data[i];
      const std::uint64_t faults_after = count(rt, Id::kPageFaults);
      rt.barrier();
      // The barrier's write notice was applied ahead: no fault, no fetch.
      return (faults_after == faults_before) ? sum : -sum;
    }
    rt.barrier();
    return 0.0;
  });
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, 5.0 * 1024);
}

// Broadcast: root's region lands everywhere with n-1 messages.
TEST(TmkRuntime, BcastDeliversToAll) {
  auto r = runner::spawn(4, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(2048);  // two pages
    rt.barrier();
    if (rt.rank() == 2)
      for (int i = 0; i < 2048; ++i) data[i] = i;
    rt.bcast(2, data, 2 * common::kPageSize);
    double sum = 0;
    for (int i = 0; i < 2048; ++i) sum += data[i];
    rt.barrier();
    return sum;
  });
  const double expect = 2047.0 * 2048.0 / 2.0;
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, expect);
}

// Locks as consistency carriers: updates made under the lock are visible
// to the next holder without any barrier.
TEST(TmkRuntime, LockGrantCarriesConsistency) {
  auto r = runner::spawn(3, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(1024);
    auto* turn = rt.alloc<std::int32_t>(1024);
    rt.barrier();
    // Token passing via the lock: the process whose rank matches *turn
    // writes the next cell. The updates travel only through lock grants
    // within a round; barriers just delimit rounds.
    for (int round = 0; round < rt.nprocs(); ++round) {
      rt.lock_acquire(0);
      if (*turn < rt.nprocs() && *turn % rt.nprocs() == rt.rank()) {
        data[*turn] = *turn + 1;
        *turn += 1;
      }
      rt.lock_release(0);
      rt.barrier();
    }
    double sum = 0;
    for (int i = 0; i < rt.nprocs(); ++i) sum += data[i];
    rt.barrier();
    return sum;
  });
  // data[i] = i+1 for i in 0..2 => 1+2+3.
  EXPECT_DOUBLE_EQ(r.checksum, 6.0);
}

TEST(TmkRuntime, SingleProcessDegenerateCase) {
  auto r = runner::spawn(1, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<double>(1000);
    rt.barrier();
    for (int i = 0; i < 1000; ++i) data[i] = i;
    rt.barrier();
    rt.lock_acquire(0);
    data[0] += 1;
    rt.lock_release(0);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) sum += data[i];
    return sum;
  });
  EXPECT_DOUBLE_EQ(r.checksum, 999.0 * 1000.0 / 2.0 + 1.0);
  EXPECT_EQ(r.total.total_messages(), 0u);
}

TEST(TmkRuntime, StatsCountFaultsAndDiffs) {
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(1024);
    rt.barrier();
    if (rt.rank() == 0) {
      data[0] = 1;  // write fault -> twin
      rt.barrier();
      // Lazy diffing: the diff is created when rank 1 requests it; wait
      // for rank 1's read before sampling the counters.
      rt.barrier();
      return static_cast<double>(count(rt, Id::kTwinsCreated) +
                                 count(rt, Id::kDiffsCreated) * 100);
    }
    rt.barrier();
    // Volatile read so the fault is not optimized away; compiler fence so
    // the counter reads below are not hoisted above the faulting read.
    const double x = *static_cast<volatile std::int32_t*>(data);
    asm volatile("" ::: "memory");
    const double result =
        static_cast<double>(count(rt, Id::kPageFaults) +
                            count(rt, Id::kDiffsFetched) * 100) *
        (x == 1.0 ? 1.0 : -1.0);
    rt.barrier();
    return result;
  });
  EXPECT_DOUBLE_EQ(r.procs[0].checksum, 101.0);  // 1 twin + 1 lazy diff
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, 101.0);  // 1 fault + 1 diff fetched
}

// Worst-case diffs end to end: one page with every second word written
// (512 runs, encodes to exactly one page) and one fully-rewritten page
// (one run, kPageSize + 4 bytes — larger than the page itself). Both
// must flush, ship, and apply correctly, and the creator's counters must
// report the exact encoded sizes.
TEST(TmkRuntime, WorstCaseDiffPatternsFlushAndApply) {
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* alt = rt.alloc<std::uint32_t>(1024);   // one page
    auto* full = rt.alloc<std::uint32_t>(1024);  // one page
    rt.barrier();
    if (rt.rank() == 0) {
      for (int i = 0; i < 1024; i += 2) alt[i] = 7u + static_cast<unsigned>(i);
      for (int i = 0; i < 1024; ++i) full[i] = 3u + static_cast<unsigned>(i);
      rt.barrier();
      rt.barrier();  // rank 1 fetched by now (lazy flush done)
      const std::uint64_t bytes = count(rt, Id::kDiffBytesCreated);
      const std::uint64_t diffs = count(rt, Id::kDiffsCreated);
      // alternating: 512 * (4 + 4) = 4096; full: 4 + 4096 = 4100.
      return (diffs == 2 && bytes == 4096 + 4100) ? 1.0 : -1.0;
    }
    rt.barrier();
    double ok = 1.0;
    for (int i = 0; i < 1024; ++i) {
      const std::uint32_t want_alt =
          (i % 2 == 0) ? 7u + static_cast<unsigned>(i) : 0u;
      if (alt[i] != want_alt) ok = -1.0;
      if (full[i] != 3u + static_cast<unsigned>(i)) ok = -1.0;
    }
    rt.barrier();
    return ok;
  });
  EXPECT_DOUBLE_EQ(r.procs[0].checksum, 1.0);
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, 1.0);
}

// Tmk-layer bytes of a run (summed over ranks).
std::uint64_t tmk_bytes(const runner::RunResult& r) {
  return r.total.bytes[static_cast<std::size_t>(mpl::Layer::kTmk)];
}

// Barrier message count: 2(n-1) per barrier (§2.2). The paper variants
// run the default (flat, centralized-manager) shape, whose modelled
// cost must stay exactly the paper's. With no writes, every message is
// its sequence number, the vector clock and an empty interval list, in
// every update mode.
TEST(TmkRuntime, BarrierCosts2NMinus1Messages) {
  auto r = runner::spawn(8, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    rt.barrier();
    rt.barrier();
    rt.barrier();
    return 0.0;
  });
  // 3 counted barriers + shutdown rendezvous (uncounted layer kOther).
  EXPECT_EQ(r.messages(mpl::Layer::kTmk), 3u * 2u * 7u);
  // seq + interval count (8) + an 8-entry clock (4 * 8) per message.
  EXPECT_EQ(tmk_bytes(r), 3u * 2u * 7u * (8u + 4u * 8u));
}

// join_worker and a barrier arrival both report a worker's own
// intervals to rank 0, so they share one watermark: the barrier after
// a join reports from the floor the join left. A floor past it opens an
// interval gap at the manager, which aborts the run. The barrier
// follows the join with NO fork in between — a fork_broadcast would
// re-teach every worker and mask a wrong floor.
TEST(TmkRuntime, BarrierAfterForkJoinHasNoIntervalGap) {
  auto r = runner::spawn(4, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    constexpr int kPer = 1024;  // one page per rank
    auto* data = rt.alloc<std::int32_t>(kPer * 4);
    struct Args {
      std::int32_t scale;
    };
    if (rt.rank() == 0) {
      Args a{2};
      rt.fork_broadcast(
          0, {reinterpret_cast<const std::byte*>(&a), sizeof(a)});
      for (int i = 0; i < kPer; ++i) data[i] += a.scale;
      rt.join_master();
    } else {
      auto work = rt.wait_fork();
      Args a;
      std::memcpy(&a, work.args.data(), sizeof(a));
      const int lo = kPer * rt.rank();
      for (int i = lo; i < lo + kPer; ++i) data[i] += a.scale;
      rt.join_worker();
    }
    // New intervals after the join, published through the barrier:
    // each worker's arrival must start right after the intervals its
    // join already reported.
    data[kPer * rt.rank()] += rt.rank();
    rt.barrier();
    double sum = 0;
    for (int i = 0; i < kPer * rt.nprocs(); ++i) sum += data[i];
    rt.barrier();
    return sum;
  });
  // Every quarter incremented by 2, plus each rank's extra bump.
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, 1024.0 * 4 * 2 + (0 + 1 + 2 + 3));
}

// Covered-seq gap regression (fetch_and_apply): a diff reply's blob can
// bake in creator seqs the fetcher has not yet integrated (the reply's
// `covered` exceeds the requested seq, because the creator's lazy flush
// covers every unflushed interval of the page in one blob). When those
// write notices later arrive at a barrier they must NOT re-invalidate
// the page — a refetch would pull the same stale blob over words the
// fetcher has since written under false sharing. The gap is constructed
// deterministically: rank 0 opens a second interval on page A, then
// pushes an unrelated go-page to rank 2. push() closes the interval but
// ships write notices only for the pushed page, so rank 2 is sequenced
// after s2 exists yet still only knows s1 when its fault-time fetch
// runs.
TEST(TmkRuntime, CoveredSeqGapDoesNotRefetchOrClobberLocalWrites) {
  auto r = runner::spawn(3, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* go = rt.alloc<std::int32_t>(1024);  // one page, the signal
    auto* a = rt.alloc<std::int32_t>(1024);   // one page, falsely shared
    rt.barrier();
    if (rt.rank() == 0) {
      for (int i = 0; i < 256; ++i) a[i] = 1;  // interval s1
    }
    rt.barrier();  // everyone learns s1; page invalid at ranks 1, 2
    if (rt.rank() == 0) {
      for (int i = 256; i < 512; ++i) a[i] = 2;  // interval s2 opens
      go[0] = 42;
      rt.push(2, go, common::kPageSize);  // closes s2; no page-A notice
      rt.barrier();
      double sum = 0;
      for (int i = 0; i < 1024; ++i) sum += a[i];
      rt.barrier();
      return sum;
    }
    if (rt.rank() == 1) {
      // Passive witness: learns s1, s2 and rank 2's interval only at
      // the barrier, then pulls the fully merged page.
      rt.barrier();
      double sum = 0;
      for (int i = 0; i < 1024; ++i) sum += a[i];
      rt.barrier();
      return sum;
    }
    // Rank 2: ordered after s2 closed, but ignorant of it.
    rt.accept_push(0);
    if (go[0] != 42) return -1.0;
    // Write fault on the invalid page: the pending fetch requests s1
    // only; the reply's blob covers s1..s2, so the page is marked
    // applied ahead through s2. Our own words must survive the apply.
    for (int i = 768; i < 1024; ++i) a[i] = 9;
    if (a[0] != 1 || a[256] != 2) return -2.0;  // baked-in writes visible
    const std::uint64_t before = count(rt, Id::kDiffRequests);
    rt.barrier();  // s2's write notice arrives; applied ahead, no refetch
    double sum = 0;
    for (int i = 0; i < 1024; ++i) sum += a[i];
    if (count(rt, Id::kDiffRequests) != before) return -3.0;  // refetched!
    if (a[900] != 9) return -4.0;  // stale blob clobbered local writes
    rt.barrier();
    return sum;
  });
  const double expect = 256.0 * 1 + 256.0 * 2 + 256.0 * 9;
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, expect);
}

constexpr int kIntsPerPage =
    static_cast<int>(common::kPageSize / sizeof(std::int32_t));

// Page protection changes one run of consecutive pages at a time: the
// writer's interval close write-protects its 256 dirty pages, and the
// reader's integration of that interval invalidates them, in one call
// each. What stays per page is the fault path: one upgrade per write
// fault, and two calls per single-page read fetch. Per-page calls at
// close and integration would cost about 2x and 3x the faults.
TEST(TmkRuntime, ProtectionChangesCostOneCallPerRun) {
  constexpr int kPages = 256;
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(kPages * kIntsPerPage);
    if (rt.rank() == 0)
      for (int p = 0; p < kPages; ++p) data[p * kIntsPerPage] = p + 1;
    rt.barrier();
    double sum = 0;
    if (rt.rank() == 1)
      for (int p = 0; p < kPages; ++p) sum += data[p * kIntsPerPage];
    rt.barrier();
    return sum;
  });
  ASSERT_EQ(r.procs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, kPages * (kPages + 1) / 2.0);
  const runner::ctr::Block& writer = r.procs[0].ctrs;
  const runner::ctr::Block& reader = r.procs[1].ctrs;
  EXPECT_EQ(writer[Id::kPageFaults], std::uint64_t{kPages});
  EXPECT_EQ(reader[Id::kPageFaults], std::uint64_t{kPages});
  EXPECT_LE(writer[Id::kHostMprotectCalls], writer[Id::kPageFaults] + 8);
  EXPECT_LE(reader[Id::kHostMprotectCalls], 2 * reader[Id::kPageFaults] + 8);
}

// Hybrid pushes land through the fetch path, so their protection changes
// in runs too: the consumer of 32 pushed contiguous pages takes no fault
// and makes four calls in all (heap set-up, the depart's invalidation,
// and one read-write and one read-only run for the landing), where one
// pair per page would make 66.
TEST(TmkRuntime, HybridPushesLandInProtectionRuns) {
  constexpr int kPages = 32;
  auto r = runner::spawn(
      2, mode_options(tmk::UpdateMode::kHybrid), [](runner::ChildContext& c) {
        tmk::Runtime rt(c);
        auto* data = rt.alloc<std::int32_t>(kPages * kIntsPerPage);
        if (rt.rank() == 0) {
          rt.hint_consumers(data, kPages * common::kPageSize, 1);
          for (int p = 0; p < kPages; ++p) data[p * kIntsPerPage] = p + 1;
        }
        rt.barrier();
        double sum = 0;
        if (rt.rank() == 1)
          for (int p = 0; p < kPages; ++p) sum += data[p * kIntsPerPage];
        return sum;
      });
  ASSERT_EQ(r.procs.size(), 2u);
  EXPECT_DOUBLE_EQ(r.procs[1].checksum, kPages * (kPages + 1) / 2.0);
  const runner::ctr::Block& reader = r.procs[1].ctrs;
  EXPECT_EQ(reader[Id::kPageFaults], 0u);
  EXPECT_EQ(reader[Id::kPushHits], std::uint64_t{kPages});
  EXPECT_LE(reader[Id::kHostMprotectCalls], 8u);
}

// A dirty page that a lock grant invalidates must stay PROT_NONE when
// its interval closes, although the dirty pages around it go back to
// PROT_READ in the same close: re-reading all eight pages then takes
// exactly one read fault, and that fetch merges the lock holder's words
// into the page.
TEST(TmkRuntime, LockInvalidatedDirtyPageStaysProtectedAcrossClose) {
  constexpr int kPages = 8;
  constexpr int kShared = 3;  // the page both ranks write
  constexpr int kHalf = kIntsPerPage / 2;
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* data = rt.alloc<std::int32_t>(kPages * kIntsPerPage);
    std::int32_t* shared = data + kShared * kIntsPerPage;
    if (rt.rank() == 1) rt.lock_acquire(0);
    rt.barrier();
    if (rt.rank() == 1) {
      for (int i = kHalf; i < kIntsPerPage; ++i) shared[i] = 2;
      rt.lock_release(0);
      rt.barrier();
      return 0.0;
    }
    for (int p = 0; p < kPages; ++p)
      for (int i = 0; i < kHalf; ++i) data[p * kIntsPerPage + i] = 1;
    rt.lock_acquire(0);  // the grant invalidates dirty page kShared
    rt.lock_release(0);  // closes the run of dirty pages 0..7
    const std::uint64_t before = count(rt, Id::kPageFaults);
    asm volatile("" ::: "memory");
    const auto* v = static_cast<volatile const std::int32_t*>(data);
    std::int64_t sum = 0;
    for (int k = 0; k < kPages * kIntsPerPage; ++k) sum += v[k];
    asm volatile("" ::: "memory");
    const std::uint64_t faults = count(rt, Id::kPageFaults) - before;
    bool merged = sum == kPages * kHalf + 2 * kHalf;
    for (int i = 0; i < kIntsPerPage; ++i)
      merged = merged && shared[i] == (i < kHalf ? 1 : 2);
    rt.barrier();
    return merged ? static_cast<double>(faults) : -1.0;
  });
  EXPECT_DOUBLE_EQ(r.procs[0].checksum, 1.0);
}

// Fork/join message count: 2(n-1) per parallel loop (§2.3).
TEST(TmkRuntime, ForkJoinCosts2NMinus1Messages) {
  auto r = runner::spawn(8, fast_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    if (rt.rank() == 0) {
      for (int loop = 0; loop < 5; ++loop) {
        rt.fork_broadcast(0, {});
        rt.join_master();
      }
      rt.fork_broadcast(99, {});
    } else {
      for (;;) {
        auto w = rt.wait_fork();
        if (w.func_id == 99) break;
        rt.join_worker();
      }
    }
    return 0.0;
  });
  // 5 loops * 2(n-1) + final dismissal fork (n-1).
  EXPECT_EQ(r.messages(mpl::Layer::kTmk), 5u * 2u * 7u + 7u);
  // A write-free fork is seq, func_id, args length, clock and interval
  // count (16 + 4 * 8 = 48 bytes); a join is seq, clock and count (40).
  EXPECT_EQ(tmk_bytes(r), 5u * 7u * (48u + 40u) + 7u * 48u);
}

// A fork right after a barrier sends only the loop-control block and
// the clock: the barrier's departs already delivered every interval,
// and the master's per-worker clocks record that. Each rank writes its
// own page before the barrier, so a fork that went by stale clocks
// would resend those intervals.
TEST(TmkRuntime, ForkAfterBarrierResendsNoInterval) {
  for (const int n : {2, 4}) {
    SCOPED_TRACE(n);
    auto r = runner::spawn(n, fast_options(), [](runner::ChildContext& c) {
      tmk::Runtime rt(c);
      auto* data = rt.alloc<std::int32_t>(
          static_cast<std::size_t>(kIntsPerPage) *
          static_cast<std::size_t>(rt.nprocs()));
      data[rt.rank() * kIntsPerPage] = rt.rank() + 1;
      rt.barrier();
      c.endpoint.mark_measurement_start();
      if (rt.rank() == 0) {
        rt.fork_broadcast(0, {});
        c.endpoint.mark_measurement_end();
        rt.join_master();
      } else {
        (void)rt.wait_fork();
        c.endpoint.mark_measurement_end();
        rt.join_worker();
      }
      return 0.0;
    });
    // The write-free fork: seq, func_id, args length, interval count
    // (16) and an n-entry clock, to each of the n - 1 workers.
    const auto workers = static_cast<std::uint64_t>(n - 1);
    EXPECT_EQ(r.messages(mpl::Layer::kTmk), workers);
    EXPECT_EQ(tmk_bytes(r), workers * (16u + 4u * static_cast<unsigned>(n)));
  }
}

// Two Runtimes in turn on each rank: destroying the first clears the
// thread's instance(), so the second takes its own write faults and its
// writes reach the peer; a third Runtime while the second is alive is
// refused. Every Runtime starts from a zeroed heap: the first one's
// writes (one rank's own, so the ranks' heaps differ) are gone, and the
// second reads zeros there before it writes.
TEST(TmkRuntime, SecondRuntimeOnARankTakesItsOwnFaults) {
  constexpr int kPages = 8;
  auto r = runner::spawn(2, fast_options(), [](runner::ChildContext& c) {
    {
      tmk::Runtime first(c);
      auto* data = first.alloc<std::int32_t>(2 * kPages * kIntsPerPage);
      const int me = first.rank();
      for (int p = 0; p < kPages; ++p)
        data[(me * kPages + p) * kIntsPerPage] = -(100 * me + p + 1);
      first.barrier();
    }
    tmk::Runtime rt(c);
    bool refused = false;
    try {
      tmk::Runtime third(c);
    } catch (const common::Error&) {
      refused = true;
    }
    auto* data = rt.alloc<std::int32_t>(2 * kPages * kIntsPerPage);
    const int me = rt.rank();
    bool zeroed = true;
    for (int p = 0; p < kPages; ++p)
      if (data[(me * kPages + p) * kIntsPerPage] != 0) zeroed = false;
    for (int p = 0; p < kPages; ++p)
      data[(me * kPages + p) * kIntsPerPage] = 100 * me + p + 1;
    const bool faulted = count(rt, Id::kPageFaults) >= kPages;
    rt.barrier();
    const int peer = 1 - me;
    bool peer_seen = true;
    for (int p = 0; p < kPages; ++p)
      if (data[(peer * kPages + p) * kIntsPerPage] != 100 * peer + p + 1)
        peer_seen = false;
    rt.barrier();
    return (refused ? 1.0 : 0.0) + (faulted ? 2.0 : 0.0) +
           (peer_seen ? 4.0 : 0.0) + (zeroed ? 8.0 : 0.0);
  });
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, 15.0) << "rank " << p.rank;
}

// The counter fold at shutdown. Each rank runs `runtimes` Runtimes in
// turn; each writes its own page, and reads the peer's after a barrier,
// so every rank takes faults, twins, makes and fetches diffs and holds
// protocol state. The counters() snapshot each Runtime shows after
// shutdown() reaches the test through a MAP_SHARED mapping made before
// the spawn, which forked ranks share too. Returns the run and the
// snapshots, rank-major.
std::pair<runner::RunResult, std::vector<runner::ctr::Block>>
run_and_snapshot(int runtimes) {
  constexpr int kRanks = 2;
  const std::size_t bytes = sizeof(runner::ctr::Block) * kRanks * runtimes;
  void* shared = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  COMMON_CHECK(shared != MAP_FAILED);
  auto* snaps = static_cast<runner::ctr::Block*>(shared);
  auto r = runner::spawn(
      kRanks, fast_options(), [snaps, runtimes](runner::ChildContext& c) {
        const int me = c.endpoint.rank();
        bool seen = true;
        for (int k = 0; k < runtimes; ++k) {
          tmk::Runtime rt(c);
          auto* data = rt.alloc<std::int32_t>(kRanks * kIntsPerPage);
          data[me * kIntsPerPage] = 100 * k + me + 1;
          rt.barrier();
          const int peer = 1 - me;
          seen = seen && data[peer * kIntsPerPage] == 100 * k + peer + 1;
          rt.barrier();
          rt.shutdown();
          snaps[me * runtimes + k] = rt.counters();
        }
        return seen ? 1.0 : -1.0;
      });
  std::vector<runner::ctr::Block> out(snaps, snaps + kRanks * runtimes);
  munmap(shared, bytes);
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, 1.0) << "rank " << p.rank;
  return {std::move(r), std::move(out)};
}

// run_rank sets these two cells from the rank's Endpoint; every other
// cell of a DSM rank's report is its Runtimes' fold.
bool endpoint_cell(Id id) {
  return id == Id::kHostSendCalls || id == Id::kHostFutexWakes;
}

TEST(TmkRuntime, TwoRuntimesInTurnReportTheFoldOfTheirCounters) {
  const auto [r, snaps] = run_and_snapshot(2);
  for (std::size_t p = 0; p < r.procs.size(); ++p) {
    const runner::ctr::Block& a = snaps[2 * p];
    const runner::ctr::Block& b = snaps[2 * p + 1];
    // Nonzero in both, so a sum could not pass for the fold's max.
    EXPECT_GT(a[Id::kProtocolRssBytes], 0u);
    EXPECT_GT(b[Id::kProtocolRssBytes], 0u);
    for (const Id id : {Id::kPageFaults, Id::kTwinsCreated, Id::kDiffsCreated,
                        Id::kDiffsFetched, Id::kHostMprotectCalls})
      EXPECT_GT(b[id], 0u) << "rank " << p << " cell " << static_cast<int>(id);
    for (const runner::ctr::Desc& d : runner::ctr::kRegistry) {
      if (endpoint_cell(d.id)) continue;
      const std::uint64_t want = d.agg == runner::ctr::Agg::kSum
                                     ? a[d.id] + b[d.id]
                                     : std::max(a[d.id], b[d.id]);
      EXPECT_EQ(r.procs[p].ctrs[d.id], want)
          << "rank " << p << " counter " << d.json_key;
    }
  }
}

TEST(TmkRuntime, OneRuntimeReportsExactlyItsCounters) {
  const auto [r, snaps] = run_and_snapshot(1);
  for (std::size_t p = 0; p < r.procs.size(); ++p) {
    EXPECT_GT(snaps[p][Id::kPageFaults], 0u) << "rank " << p;
    for (const runner::ctr::Desc& d : runner::ctr::kRegistry) {
      if (endpoint_cell(d.id)) continue;
      EXPECT_EQ(r.procs[p].ctrs[d.id], snaps[p][d.id])
          << "rank " << p << " counter " << d.json_key;
    }
  }
}

// ---- apply order across writers ----------------------------------------

// A remote diff must not land on a page that still holds unflushed own
// intervals. Rank A writes word 1 and rank B word 0 in epoch 1; in epoch
// 2 A rewrites word 0, and its write fault applies B's diff while A's
// epoch-1 interval is unflushed. Were A's two intervals then one flush
// blob, reader R would apply it at A's epoch-1 place and B's diff after
// it (equal vc weight, ordered by creator whenever A < B), reading 20.
struct RankOrder {
  int a;
  int b;
  int r;
  tmk::UpdateMode mode;

  // The test-name suffix, and what gtest lists as the parameter (its raw
  // bytes, padding included, otherwise).
  [[nodiscard]] std::string name() const {
    return "A" + std::to_string(a) + "B" + std::to_string(b) + "R" +
           std::to_string(r) + "_" + tmk::to_string(mode);
  }
  friend void PrintTo(const RankOrder& o, std::ostream* os) {
    *os << o.name();
  }
};

std::vector<RankOrder> rank_orders() {
  std::vector<RankOrder> v;
  for (const tmk::UpdateMode mode :
       {tmk::UpdateMode::kOff, tmk::UpdateMode::kHybrid}) {
    int p[3] = {0, 1, 2};
    do {
      v.push_back({p[0], p[1], p[2], mode});
    } while (std::next_permutation(p, p + 3));
  }
  return v;
}

class OwnFlushBeforeRemoteDiff : public ::testing::TestWithParam<RankOrder> {};

TEST_P(OwnFlushBeforeRemoteDiff, ReaderSeesTheNewestWrite) {
  const RankOrder o = GetParam();
  auto r = runner::spawn(3, mode_options(o.mode), [o](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* page = rt.alloc<std::int32_t>(kIntsPerPage);
    if (rt.rank() == o.a) page[1] = 10;
    if (rt.rank() == o.b) page[0] = 20;
    rt.barrier();
    if (rt.rank() == o.a) page[0] = 30;
    rt.barrier();
    return rt.rank() == o.r ? static_cast<double>(page[0]) : 0.0;
  });
  EXPECT_DOUBLE_EQ(r.procs[static_cast<std::size_t>(o.r)].checksum, 30.0);
}

INSTANTIATE_TEST_SUITE_P(
    RankOrders, OwnFlushBeforeRemoteDiff, ::testing::ValuesIn(rank_orders()),
    [](const ::testing::TestParamInfo<RankOrder>& i) {
      return i.param.name();
    });

// A remote diff can land on a page whose twin is still the zero image:
// the page held no data when its open interval first wrote it, and a
// lock grant delivers another writer's notice before that interval
// closes. The diff must go to a private copy of the twin, so the
// acquirer's interval exports its own words only. Writer W holds lock 0
// across a barrier, then writes word 0 = 10 and releases. Acquirer A
// writes word 1 = 20 on the fresh page, acquires lock 0 (the grant
// carries W's interval) and writes word 2 = 30, whose fault fetches W's
// diff. Once that fetch made W flush, W writes word 0 = 40 outside the
// lock. A's interval and W's second are concurrent and write disjoint
// words, so reader R must read 40, 20 and 30 whatever order it applies
// them in; had A's diff carried W's 10, R would read 10 whenever W < A.
struct LockOrder {
  int w;
  int a;
  int r;
  tmk::UpdateMode mode;
  runner::Backend backend;

  [[nodiscard]] std::string name() const {
    return "W" + std::to_string(w) + "A" + std::to_string(a) + "R" +
           std::to_string(r) + "_" + tmk::to_string(mode) + "_" +
           runner::to_string(backend);
  }
  friend void PrintTo(const LockOrder& o, std::ostream* os) {
    *os << o.name();
  }
};

std::vector<LockOrder> lock_orders() {
  std::vector<LockOrder> v;
  for (const runner::Backend backend :
       {runner::Backend::kProcess, runner::Backend::kThread})
    for (const RankOrder& o : rank_orders())
      v.push_back({o.a, o.b, o.r, o.mode, backend});
  return v;
}

class ZeroTwinBeforeFirstClose : public ::testing::TestWithParam<LockOrder> {};

TEST_P(ZeroTwinBeforeFirstClose, ReaderSeesEveryWord) {
  const LockOrder o = GetParam();
  runner::SpawnOptions opts = mode_options(o.mode);
  opts.backend = o.backend;
  auto r = runner::spawn(3, opts, [o](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* page = rt.alloc<std::int32_t>(kIntsPerPage);
    if (rt.rank() == o.w) rt.lock_acquire(0);
    rt.barrier();
    if (rt.rank() == o.w) {
      page[0] = 10;
      rt.lock_release(0);
      while (count(rt, Id::kDiffsCreated) == 0) std::this_thread::yield();
      page[0] = 40;
    } else if (rt.rank() == o.a) {
      page[1] = 20;
      rt.lock_acquire(0);
      page[2] = 30;
      rt.lock_release(0);
    }
    rt.barrier();
    return rt.rank() == o.r ? page[0] + 100.0 * page[1] + 10000.0 * page[2]
                            : 0.0;
  });
  EXPECT_DOUBLE_EQ(r.procs[static_cast<std::size_t>(o.r)].checksum,
                   40 + 100.0 * 20 + 10000.0 * 30);
}

INSTANTIATE_TEST_SUITE_P(
    RankOrders, ZeroTwinBeforeFirstClose, ::testing::ValuesIn(lock_orders()),
    [](const ::testing::TestParamInfo<LockOrder>& i) {
      return i.param.name();
    });

// A push carries exactly one flush blob. Ranks 0 and 1 take turns under
// lock 0 on page P, which both declare rank 2 reads: rank 0 writes
// P[0] = 1; rank 1 writes P[0] = 2, and its write fault makes rank 0
// flush; rank 0 then writes P[1] = 3. Rank 0's barrier-time span is two
// flush blobs. Merged into one and applied at rank 0's newest interval,
// after rank 1's diff, they would bring back P[0] = 1.
TEST(TmkRuntime, HybridPushSpanningTwoFlushBlobsIsPulledInstead) {
  auto r = runner::spawn(
      3, mode_options(tmk::UpdateMode::kHybrid), [](runner::ChildContext& c) {
        tmk::Runtime rt(c);
        auto* p = rt.alloc<std::int32_t>(kIntsPerPage);
        auto* turn = rt.alloc<std::int32_t>(kIntsPerPage);
        if (rt.rank() < 2) rt.hint_consumers(p, common::kPageSize, 2);
        rt.barrier();
        // Spins under the lock until it is turn t, then writes and passes
        // the turn on.
        const auto take_turn = [&](int t, auto write) {
          for (bool mine = false; !mine;) {
            rt.lock_acquire(0);
            mine = *turn == t;
            if (mine) {
              write();
              *turn = t + 1;
            }
            rt.lock_release(0);
          }
        };
        if (rt.rank() == 0) {
          take_turn(0, [p] { p[0] = 1; });
          take_turn(2, [p] { p[1] = 3; });
        } else if (rt.rank() == 1) {
          take_turn(1, [p] { p[0] = 2; });
        }
        rt.barrier();
        return rt.rank() == 2 ? p[0] + 100.0 * p[1] : 0.0;
      });
  EXPECT_DOUBLE_EQ(r.procs[2].checksum, 2 + 100.0 * 3);
}

// A stashed blob that covers two pending intervals of a page lands once,
// also when another creator's interval sits between them. Ranks 1 and 2
// push page P to rank 0; rank 3 writes P unpredicted, so P stays pending
// past the barrier and lands at rank 0's fault. Rank 2 writes P[1] and
// hands lock 1 to rank 1, which writes P[0] and hands lock 2 to rank 0:
// that grant leaves [rank 1's interval, rank 2's] pending, and the
// barrier adds rank 1's later write of P[2], which shares the first one's
// blob, then rank 3's P[3]. Rank 3 first closes an interval on page Q, so
// its P interval also sorts between rank 1's two in the apply order.
// With only diff applies charged, rank 0's read costs three: rank 1's
// blob, rank 2's, and rank 3's pulled one.
TEST(TmkRuntime, HybridStashedBlobLandsOnceAcrossAnotherCreator) {
  constexpr std::uint64_t kApplyNs = 1'000'000;
  runner::SpawnOptions o = mode_options(tmk::UpdateMode::kHybrid);
  o.model.cpu_scale = 0.0;
  o.model.diff_apply_ns = kApplyNs;
  o.tmk_config->epoch_gc = false;  // a GC round would land P at the barrier
  auto r = runner::spawn(4, o, [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    auto* p = rt.alloc<std::int32_t>(kIntsPerPage);
    auto* q = rt.alloc<std::int32_t>(kIntsPerPage);
    if (rt.rank() == 1 || rt.rank() == 2)
      rt.hint_consumers(p, common::kPageSize, 0);
    if (rt.rank() == 1) rt.lock_acquire(2);
    if (rt.rank() == 2) rt.lock_acquire(1);
    rt.barrier();
    if (rt.rank() == 0) {
      rt.lock_acquire(2);
      rt.lock_release(2);
    } else if (rt.rank() == 1) {
      rt.lock_acquire(1);
      p[0] = 1;
      rt.lock_release(1);
      rt.lock_release(2);
      p[2] = 3;
    } else if (rt.rank() == 2) {
      p[1] = 2;
      rt.lock_release(1);
    } else {
      rt.lock_acquire(3);
      q[0] = 5;
      rt.lock_release(3);
      p[3] = 4;
    }
    rt.barrier();
    if (rt.rank() != 0) return 0.0;
    simx::VirtualClock& clock = c.endpoint.clock();
    const std::uint64_t before = clock.now();
    asm volatile("" ::: "memory");
    const bool ok = p[0] == 1 && p[1] == 2 && p[2] == 3 && p[3] == 4;
    asm volatile("" ::: "memory");
    const std::uint64_t after = clock.now();
    return ok ? static_cast<double>(after - before) / kApplyNs : -1.0;
  });
  EXPECT_DOUBLE_EQ(r.procs[0].checksum, 3.0);
  EXPECT_EQ(r.procs[0].ctrs[Id::kPushHits], 2u);
}

// Seeded word-ownership churn: both rules above matter only when a
// word's writer changes between epochs on a falsely shared page. Every
// epoch, a PRNG seeded alike on every rank gives about a quarter of the
// words of two pages one writer each, then all ranks meet at a barrier.
// The ranks only write until the end (a read would fetch, and the fetch
// would make the writer flush), then each compares every word with the
// model.
struct ChurnCase {
  int nprocs;
  tmk::UpdateMode mode;
  std::uint64_t seed;

  [[nodiscard]] std::string name() const {
    return "n" + std::to_string(nprocs) + "_" + tmk::to_string(mode) +
           "_seed" + std::to_string(seed);
  }
  friend void PrintTo(const ChurnCase& k, std::ostream* os) {
    *os << k.name();
  }
};

std::vector<ChurnCase> churn_cases() {
  std::vector<ChurnCase> v;
  for (const int n : {4, 8})
    for (const tmk::UpdateMode mode :
         {tmk::UpdateMode::kOff, tmk::UpdateMode::kHybrid})
      for (std::uint64_t seed = 1; seed <= 3; ++seed)
        v.push_back({n, mode, seed});
  return v;
}

class OwnershipChurn : public ::testing::TestWithParam<ChurnCase> {};

TEST_P(OwnershipChurn, EveryRankReadsTheLastWriteOfEveryWord) {
  constexpr int kWords = 2 * kIntsPerPage;
  constexpr int kEpochs = 40;
  const ChurnCase k = GetParam();
  auto r = runner::spawn(
      k.nprocs, mode_options(k.mode), [k](runner::ChildContext& c) {
        tmk::Runtime rt(c);
        auto* words = rt.alloc<std::int32_t>(kWords);
        std::vector<std::int32_t> model(kWords, 0);
        common::SplitMix64 g(k.seed);
        for (int e = 1; e <= kEpochs; ++e) {
          for (int w = 0; w < kWords; ++w) {
            if (g.next_below(4) != 0) continue;
            const auto writer = static_cast<int>(
                g.next_below(static_cast<std::uint64_t>(rt.nprocs())));
            model[static_cast<std::size_t>(w)] = e * kWords + w;
            if (writer == rt.rank()) words[w] = e * kWords + w;
          }
          rt.barrier();
        }
        int stale = 0;
        for (int w = 0; w < kWords; ++w)
          if (words[w] != model[static_cast<std::size_t>(w)]) ++stale;
        return static_cast<double>(stale);
      });
  for (const auto& p : r.procs)
    EXPECT_EQ(p.checksum, 0.0) << "stale words read by rank " << p.rank;
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, OwnershipChurn, ::testing::ValuesIn(churn_cases()),
    [](const ::testing::TestParamInfo<ChurnCase>& i) {
      return i.param.name();
    });

// ---- integer knobs (config.hpp) ---------------------------------------

// An integer knob outside [lo, INT_MAX] warns and keeps its default
// instead of wrapping through the int cast: 2^32 + 1 once made every
// barrier a GC round, and -1 or 2^32 silently stored no race reports.
TEST(TmkConfig, IntegerKnobsOutsideTheIntRangeKeepTheirDefaults) {
  const tmk::Config dflt{};
  const auto interval = [](const char* v) {
    const test::EnvGuard g("TMK_EPOCH_GC_INTERVAL", v);
    return tmk::Config::from_env().epoch_gc_interval;
  };
  const auto max_reports = [](const char* v) {
    const test::EnvGuard g("TMK_RACECHECK_MAX_REPORTS", v);
    return tmk::Config::from_env().racecheck_max_reports;
  };
  for (const char* v : {"4294967297", "2147483648", "0", "-1"})
    EXPECT_EQ(interval(v), dflt.epoch_gc_interval) << v;
  EXPECT_EQ(interval("1"), 1);
  EXPECT_EQ(interval("2147483647"), 2147483647);
  for (const char* v : {"-1", "4294967296", "2147483648"})
    EXPECT_EQ(max_reports(v), dflt.racecheck_max_reports) << v;
  EXPECT_EQ(max_reports("0"), 0);
  EXPECT_EQ(max_reports("2147483647"), 2147483647);
}

// A fault outside the rank's own heap is not the DSM's: the runtime
// names the rank, the address and its heap range in one `tmk:` line on
// stderr, and the signal then kills the rank. Pinned to the process
// backend: on the thread backend the signal would end the test binary.
TEST(TmkRuntime, FaultOutsideTheHeapIsNamedOnStderr) {
  runner::SpawnOptions o = fast_options();
  o.backend = runner::Backend::kProcess;
  // Mapped before the fork, so the rank inherits it at this address.
  void* wild = mmap(nullptr, common::kPageSize, PROT_NONE,
                    MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  ASSERT_NE(wild, MAP_FAILED);
  char line[64];
  std::snprintf(line, sizeof(line), "tmk: rank 0: fault at %p outside", wild);
  const runner::ChildFn write_wild = [wild](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    const rlimit no_core{0, 0};
    setrlimit(RLIMIT_CORE, &no_core);
    *static_cast<volatile std::int32_t*>(wild) = 1;
    return 0.0;
  };
  testing::internal::CaptureStderr();
  EXPECT_THROW(runner::spawn(1, o, write_wild), common::Error);
  const std::string err = testing::internal::GetCapturedStderr();
  munmap(wild, common::kPageSize);
  EXPECT_NE(err.find(line), std::string::npos) << err;
}

}  // namespace
