// Multi-process TreadMarks consistency tests: real forked processes, real
// SIGSEGV-driven page faults, the full lazy-release-consistency protocol.
#include <gtest/gtest.h>

#include <cstring>

#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

namespace {

runner::SpawnOptions fast_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.shared_heap_bytes = 64ull << 20;
  o.timeout_sec = 120;
  return o;
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
      const std::uint64_t before = rt.stats().diff_requests;
      double sum = 0;
      for (int i = 0; i < kInts; ++i) sum += data[i];
      const std::uint64_t after = rt.stats().diff_requests;
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
      const std::uint64_t faults_before = rt.stats().read_faults;
      double sum = 0;
      for (int i = 0; i < 1024; ++i) sum += data[i];
      const std::uint64_t faults_after = rt.stats().read_faults;
      rt.barrier();
      // The barrier's write notice was pre-applied: no fault, no fetch.
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
      // for rank 1's read before sampling the stats.
      rt.barrier();
      return static_cast<double>(rt.stats().twins_created +
                                 rt.stats().diffs_created * 100);
    }
    rt.barrier();
    // Volatile read so the fault is not optimized away; compiler fence so
    // the stats loads below are not hoisted above the faulting read.
    const double x = *static_cast<volatile std::int32_t*>(data);
    asm volatile("" ::: "memory");
    const double result =
        static_cast<double>(rt.stats().read_faults +
                            rt.stats().diffs_fetched * 100) *
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
// must flush, ship, and apply correctly, and the creator's stats must
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
      const std::uint64_t bytes = rt.stats().diff_bytes_created;
      const std::uint64_t diffs = rt.stats().diffs_created;
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

// Barrier message count: 2(n-1) per barrier (§2.2). The paper variants
// run the default (flat, centralized-manager) shape, whose modelled
// cost must stay exactly the paper's.
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

// ---- packed write-notice keys (types.hpp) ----------------------------

// Exhaustive round-trip over every creator the 7-bit field admits,
// crossed with boundary seq and page values.
TEST(PackPreapplied, RoundTripsEveryCreatorAndBoundaryValues) {
  const tmk::Seq seqs[] = {1, 2, 1000, tmk::kPackMaxSeq - 1,
                           tmk::kPackMaxSeq};
  const tmk::PageIndex pages[] = {0, 1, 4095, tmk::kPackMaxPage - 1,
                                  tmk::kPackMaxPage};
  for (int creator = 0; creator < mpl::kMaxProcs; ++creator) {
    for (tmk::Seq seq : seqs) {
      for (tmk::PageIndex page : pages) {
        const auto id = static_cast<tmk::ProcId>(creator);
        const std::uint64_t key = tmk::pack_preapplied(id, seq, page);
        EXPECT_EQ(tmk::preapplied_creator(key), id);
        EXPECT_EQ(tmk::preapplied_seq(key), seq);
        EXPECT_EQ(tmk::preapplied_page(key), page);
        EXPECT_EQ(tmk::preapplied_prefix(key),
                  tmk::pack_preapplied(id, seq, 0) >> tmk::kPackPageBits);
      }
    }
  }
  static_assert(mpl::kMaxProcs <= (1 << tmk::kPackCreatorBits));
}

// The packing is ordering-preserving: keys compare exactly like the
// (creator, seq, page) tuples they encode. Prefix erasure relies on the
// (creator, seq) identity occupying the contiguous high bits, so a
// neighbouring seq or creator must never alias into the page field.
TEST(PackPreapplied, PreservesTupleOrderingForPrefixErasure) {
  struct T {
    tmk::ProcId c;
    tmk::Seq s;
    tmk::PageIndex p;
  };
  const T ts[] = {
      {0, 1, 0},
      {0, 1, tmk::kPackMaxPage},
      {0, 2, 0},
      {0, tmk::kPackMaxSeq, tmk::kPackMaxPage},
      {1, 1, 0},
      {63, 7, 123},
      {63, 7, 124},
      {63, 8, 0},
      {64, 1, 0},
      {127, tmk::kPackMaxSeq, tmk::kPackMaxPage},
  };
  for (std::size_t i = 0; i + 1 < std::size(ts); ++i) {
    const std::uint64_t a = tmk::pack_preapplied(ts[i].c, ts[i].s, ts[i].p);
    const std::uint64_t b =
        tmk::pack_preapplied(ts[i + 1].c, ts[i + 1].s, ts[i + 1].p);
    EXPECT_LT(a, b) << "entry " << i;
    // Same (creator, seq) <=> same prefix.
    const bool same_id =
        ts[i].c == ts[i + 1].c && ts[i].s == ts[i + 1].s;
    EXPECT_EQ(tmk::preapplied_prefix(a) == tmk::preapplied_prefix(b),
              same_id)
        << "entry " << i;
  }
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
    // only; the reply's blob covers s1..s2 and the gap seq s2 is
    // recorded as pre-applied. Our own words must survive the apply.
    for (int i = 768; i < 1024; ++i) a[i] = 9;
    if (a[0] != 1 || a[256] != 2) return -2.0;  // baked-in writes visible
    const std::uint64_t before = rt.stats().diff_requests;
    rt.barrier();  // s2's write notice arrives; pre-applied, no refetch
    double sum = 0;
    for (int i = 0; i < 1024; ++i) sum += a[i];
    if (rt.stats().diff_requests != before) return -3.0;  // refetched!
    if (a[900] != 9) return -4.0;  // stale blob clobbered local writes
    rt.barrier();
    return sum;
  });
  const double expect = 256.0 * 1 + 256.0 * 2 + 256.0 * 9;
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, expect);
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
}

}  // namespace
