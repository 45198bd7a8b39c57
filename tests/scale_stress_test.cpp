// High-rank stress suite: the configurations that pin kMaxProcs == 128.
//
// Everything here runs on the thread backend — ranks as threads of this
// process on the inproc ring mesh — which is what makes 64 and 128 rank
// configurations affordable (no fork, no fd mesh) and visible to
// ThreadSanitizer as one program: the TSan CI leg runs this binary as
// its 64-rank barrier/fault stress target. The suite covers the
// barrier and the structures the 32 -> 128 widening replaced:
//
//   - the centralized barrier manager at 2..128 ranks,
//   - the binary-search fault dispatch (concurrent SIGSEGV storm at 64
//     ranks),
//   - the 7-bit creator packing (128 concurrent writers publishing
//     write notices through one barrier).
#include <gtest/gtest.h>

#include <cstdint>

#include "apps/registry.hpp"
#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

namespace {

runner::SpawnOptions thread_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  // Small per-rank heaps: 128 ranks map 128 of these, and the TSan /
  // ASan legs shadow every touched page.
  o.shared_heap_bytes = 8ull << 20;
  o.timeout_sec = 300;
  o.backend = runner::Backend::kThread;
  o.transport = mpl::TransportKind::kInproc;
  return o;
}

// Barrier correctness across the full rank range: each rank publishes
// a page before the barrier and checks a rotating peer's page after it,
// so every arrival carries real write notices and every depart must
// tailor the worker's lacking set correctly.
TEST(ScaleStress, BarriersUpTo128Ranks) {
  for (int n : {2, 3, 5, 17, 33, 64, 128}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    constexpr int kRounds = 3;
    auto r = runner::spawn(
        n, thread_options(), [](runner::ChildContext& c) {
          tmk::Runtime rt(c);
          const int np = rt.nprocs();
          auto* data = rt.alloc<std::int32_t>(1024 * np);  // page per rank
          rt.barrier();
          double ok = 1.0;
          for (int round = 0; round < kRounds; ++round) {
            data[1024 * rt.rank()] = 1000 * round + rt.rank();
            rt.barrier();
            const int peer = (rt.rank() + 1 + round) % np;
            if (data[1024 * peer] != 1000 * round + peer) ok = -1.0;
            rt.barrier();
          }
          return ok;
        });
    for (const auto& p : r.procs)
      EXPECT_DOUBLE_EQ(p.checksum, 1.0) << "rank " << p.rank;
  }
}

// 128 concurrent writers of one barrier interval: every rank's write
// notice carries a distinct 7-bit creator, and every rank integrates
// all 127 others — the widest packing and vector-clock configuration
// the system admits.
TEST(ScaleStress, AllCreatorsVisibleAt128Ranks) {
  const int n = mpl::kMaxProcs;
  auto r = runner::spawn(n, thread_options(), [](runner::ChildContext& c) {
    tmk::Runtime rt(c);
    const int np = rt.nprocs();
    auto* data = rt.alloc<std::int32_t>(1024 * np);
    rt.barrier();
    data[1024 * rt.rank()] = rt.rank() + 1;
    rt.barrier();
    // Sparse cross-check: each rank reads 8 spread-out peers, so the
    // 128-rank suite stays wall-clock-affordable under sanitizers
    // while every rank's notice is read somewhere.
    double sum = 0;
    for (int k = 1; k <= 8; ++k) {
      const int peer = (rt.rank() + k * 16 + 1) % np;
      sum += data[1024 * peer] - (peer + 1);
    }
    rt.barrier();
    return sum;
  });
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, 0.0) << "rank " << p.rank;
}

// Fault storm at 64 ranks: every rank takes write faults on its own
// heap concurrently with 63 others, so the process-wide handler's
// binary-search dispatch (Runtime::owner_of) resolves 64 live heap
// ranges under continuous concurrent faulting — while runtimes of a
// previous run have been torn down and re-registered, which is what
// churns the sorted index.
TEST(ScaleStress, ConcurrentFaultStormAt64Ranks) {
  constexpr int kRanks = 64;
  constexpr int kPages = 8;
  auto r = runner::spawn(
      kRanks, thread_options(), [](runner::ChildContext& c) {
        tmk::Runtime rt(c);
        const int np = rt.nprocs();
        const int me = rt.rank();
        auto* mine = rt.alloc<std::int32_t>(
            static_cast<std::size_t>(np) * kPages * 1024);
        // No barrier before the storm: all ranks fault at once, during
        // and after peer Runtime construction.
        for (int pg = 0; pg < kPages; ++pg)
          mine[(me * kPages + pg) * 1024] = me * 1000 + pg;
        const std::uint64_t faults = rt.stats().write_faults;
        rt.barrier();
        const int peer = (me + 1) % np;
        double ok = faults >= kPages ? 1.0 : -2.0;
        for (int pg = 0; pg < kPages; ++pg)
          if (mine[(peer * kPages + pg) * 1024] != peer * 1000 + pg)
            ok = -1.0;
        rt.barrier();
        return ok;
      });
  for (const auto& p : r.procs)
    EXPECT_DOUBLE_EQ(p.checksum, 1.0) << "rank " << p.rank;
}

// More ranks than rows: shallow's reduced grid spreads 97 rows over
// 128 ranks — every active rank owns exactly one row and a trailing
// run of ranks owns nothing. Regression for two bugs only reachable
// past 32 ranks: (1) the neighbour exchange and row-n wrap deadlocked
// against an empty last rank (an active rank blocked on a halo its
// empty upper neighbour never sends; rank 0 blocked on the row-n wrap
// the empty last rank never ships); (2) with a one-row rank 0, the
// halo was shipped BEFORE the row-0 wrap rewrote it, handing rank 1 a
// stale boundary. The DSM variant had the same one-row hole: its
// merged-wrap trick let rank 1 read row 0 with no synchronization
// after the master's wrap. The checksum must match the sequential run
// to the variant's (zero) tolerance.
TEST(ScaleStress, ShallowVariantsHandleOneRowAndEmptyTailRanksAt128) {
  const apps::Workload& w = apps::find_workload("shallow");
  runner::SpawnOptions o = thread_options();
  o.shared_heap_bytes = 16ull << 20;  // the DSM leg allocates full grids
  const auto seq =
      apps::run_workload(w, apps::System::kSeq, 1, o, apps::Preset::kReduced);
  for (apps::System sys :
       {apps::System::kPvme, apps::System::kXhpf, apps::System::kTmk}) {
    const auto r = apps::run_workload(w, sys, mpl::kMaxProcs, o,
                                      apps::Preset::kReduced);
    EXPECT_NEAR(r.checksum, seq.checksum,
                w.find(sys)->tolerance + 1e-6 * std::abs(seq.checksum))
        << apps::to_string(sys);
  }
}

}  // namespace
