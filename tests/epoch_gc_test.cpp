// Epoch-based reclamation (TMK_EPOCH_GC) contracts.
//
// Five surfaces:
//   - the epoch_soak workload keeps its sequential checksum while the
//     collector reclaims (the per-rank accounting invariant — records
//     created == reclaimed + live — is asserted inside the variant on
//     every rank of every run, both GC settings);
//   - the unbounded-growth contract: with the collector off the
//     protocol footprint grows with the epoch count, with it on the
//     phase-aligned footprint stays flat (asserted in-child) and far
//     below the off run's;
//   - pool hygiene at barrier time: a one-epoch twin spike returns to
//     the OS once quiet barriers follow (high-water-mark trim), and
//     fully-consumed per-page extensions fold back to nullptr;
//   - the wire cost of a GC round: one vector clock on each barrier
//     depart, nothing on the arrivals, no extra messages;
//   - the CI soak (64 ranks, thousands of barrier epochs) — skipped
//     unless TMK_SOAK is set, so tier-1 ctest stays fast.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <tuple>

#include "apps/epoch_soak.hpp"
#include "apps/registry.hpp"
#include "common/check.hpp"
#include "env_guard.hpp"
#include "mpl/transport.hpp"
#include "runner/counters.hpp"
#include "runner/runner.hpp"
#include "tmk/config.hpp"
#include "tmk/runtime.hpp"

namespace {

using runner::ctr::Id;

// Snapshot config instead of env vars: pins the collector's knobs AND
// insulates these tests from the CI matrix legs (update-mode, racecheck)
// that export TMK_* globally.
tmk::Config gc_config(bool on, int interval) {
  tmk::Config c;
  c.epoch_gc = on;
  c.epoch_gc_interval = interval;
  return c;
}

runner::SpawnOptions fast_options(bool gc_on, int gc_interval) {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.shared_heap_bytes = 64ull << 20;
  o.timeout_sec = 300;
  o.tmk_config = gc_config(gc_on, gc_interval);
  return o;
}

const apps::Workload& soak() { return apps::find_workload("epoch_soak"); }

// ---- registration ----------------------------------------------------

TEST(EpochSoak, RegisteredInTheSyntheticSection) {
  EXPECT_EQ(soak().name, "Epoch Soak");
  for (const apps::Workload& w : apps::all_workloads())
    EXPECT_NE(w.key, "epoch_soak");
}

// ---- checksum + reclamation under GC ---------------------------------

TEST(EpochSoak, ChecksumMatchesSequentialWhileReclaiming) {
  const apps::Workload& w = soak();
  const auto& params = w.params(apps::Preset::kReduced);
  const double expect = w.seq(params, nullptr);
  // Interval 8 on 96 epochs: ~12 GC rounds, ~11 reclaim passes. The
  // in-variant accounting invariant rides along on every rank.
  for (int np : {2, 4, 8}) {
    const auto r = apps::run_workload(w, apps::System::kTmk, np,
                                      fast_options(true, 8), params);
    EXPECT_DOUBLE_EQ(r.checksum, expect) << "nprocs=" << np;
    EXPECT_GT(r.ctr(Id::kIntervalsReclaimed), 0u) << "nprocs=" << np;
    EXPECT_GT(r.ctr(Id::kProtocolRssBytes), 0u) << "nprocs=" << np;
  }
}

TEST(EpochSoak, GcOffReclaimsNothingAndKeepsTheChecksum) {
  const apps::Workload& w = soak();
  const auto& params = w.params(apps::Preset::kReduced);
  const double expect = w.seq(params, nullptr);
  const auto r = apps::run_workload(w, apps::System::kTmk, 4,
                                    fast_options(false, 8), params);
  EXPECT_DOUBLE_EQ(r.checksum, expect);
  EXPECT_EQ(r.ctr(Id::kIntervalsReclaimed), 0u);
}

// ---- accounting invariant: both backends, all three transports -------

class EpochGcAccounting
    : public ::testing::TestWithParam<
          std::tuple<runner::Backend, mpl::TransportKind, bool>> {};

TEST_P(EpochGcAccounting, BalancesOnEveryRank) {
  const auto& [backend, transport, gc_on] = GetParam();
  const apps::Workload& w = soak();
  const auto& params = w.params(apps::Preset::kReduced);
  const double expect = w.seq(params, nullptr);
  runner::SpawnOptions opts = fast_options(gc_on, 8);
  opts.backend = backend;
  opts.transport = transport;
  // The variant asserts records_created == records_reclaimed + live on
  // every rank in-child — an imbalance fails the spawn. Here: the
  // aggregated counter direction and the checksum contract.
  const auto r = apps::run_workload(w, apps::System::kTmk, 4, opts, params);
  EXPECT_DOUBLE_EQ(r.checksum, expect);
  if (gc_on)
    EXPECT_GT(r.ctr(Id::kIntervalsReclaimed), 0u);
  else
    EXPECT_EQ(r.ctr(Id::kIntervalsReclaimed), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    BackendsTransports, EpochGcAccounting,
    ::testing::Values(
        std::make_tuple(runner::Backend::kProcess,
                        mpl::TransportKind::kSocket, true),
        std::make_tuple(runner::Backend::kProcess, mpl::TransportKind::kShm,
                        true),
        std::make_tuple(runner::Backend::kThread, mpl::TransportKind::kInproc,
                        true),
        std::make_tuple(runner::Backend::kProcess,
                        mpl::TransportKind::kSocket, false),
        std::make_tuple(runner::Backend::kProcess, mpl::TransportKind::kShm,
                        false),
        std::make_tuple(runner::Backend::kThread, mpl::TransportKind::kInproc,
                        false)),
    [](const auto& info) {
      return std::string(runner::to_string(std::get<0>(info.param))) + "_" +
             std::string(mpl::to_string(std::get<1>(info.param))) +
             (std::get<2>(info.param) ? "_on" : "_off");
    });

// ---- growth with GC off, flat with GC on -----------------------------

TEST(EpochGcGrowth, OffGrowsOnStaysFlat) {
  apps::EpochSoakParams p;
  p.epochs = 384;
  p.pages = 8;
  const double expect = apps::epoch_soak_seq(p, nullptr);

  // GC on, interval 16: 24 GC rounds over the run; the variant samples
  // the footprint at phase-aligned points and asserts flatness in-child.
  apps::EpochSoakParams flat = p;
  flat.assert_flat_rss = true;
  const auto on = apps::run_workload(soak(), apps::System::kTmk, 4,
                                     fast_options(true, 16), std::any(flat));
  EXPECT_DOUBLE_EQ(on.checksum, expect);
  EXPECT_GT(on.ctr(Id::kIntervalsReclaimed), 0u);

  // GC off: nothing is reclaimed — 384 epochs of interval records,
  // pending notices, and stashed diffs pile up (the in-variant
  // accounting check pins created == live). The direct footprint
  // comparison lives in OffFootprintDwarfsOnFootprint below.
  const auto off = apps::run_workload(soak(), apps::System::kTmk, 4,
                                      fast_options(false, 16), std::any(p));
  EXPECT_DOUBLE_EQ(off.checksum, expect);
  EXPECT_EQ(off.ctr(Id::kIntervalsReclaimed), 0u);
}

// Direct footprint comparison through rt.mem_stats(): same schedule,
// the GC-off run must end holding a protocol footprint far above the
// GC-on run's (the headline leak this PR exists to fix).
TEST(EpochGcGrowth, OffFootprintDwarfsOnFootprint) {
  auto run = [&](bool gc_on) {
    runner::SpawnOptions opts = fast_options(gc_on, 16);
    return runner::spawn(4, opts, [](runner::ChildContext& ctx) {
      apps::EpochSoakParams p;
      p.epochs = 256;
      p.pages = 8;
      tmk::Runtime rt(ctx);
      auto* heap = rt.alloc<std::uint64_t>(
          static_cast<std::size_t>(p.pages) * 512);
      rt.barrier();
      const int n = rt.nprocs();
      const int me = rt.rank();
      for (int e = 0; e < p.epochs; ++e) {
        for (int q = 0; q < p.pages; ++q)
          if (me == (e + q) % n) heap[q * 512 + (e % 512)] = 1;
        rt.barrier();
      }
      return static_cast<double>(rt.mem_stats().protocol_rss_bytes);
    });
  };
  const auto on = run(true);
  const auto off = run(false);
  for (int r = 0; r < 4; ++r) {
    const double rss_on = on.procs[static_cast<std::size_t>(r)].checksum;
    const double rss_off = off.procs[static_cast<std::size_t>(r)].checksum;
    EXPECT_GT(rss_off, 2.0 * rss_on) << "rank " << r;
  }
}

// ---- pool hygiene: spike-return and PageExt fold ---------------------

TEST(EpochGcPools, TwinSpikeReturnsAndPageExtFoldsAfterQuietBarriers) {
  constexpr int kPages = 32;
  runner::SpawnOptions opts = fast_options(true, 4);
  const auto r = runner::spawn(2, opts, [](runner::ChildContext& ctx) {
    tmk::Runtime rt(ctx);
    auto* heap = rt.alloc<std::uint64_t>(kPages * 512);
    rt.barrier();
    // Spike epoch: rank 0 dirties every page — one twin per page.
    if (rt.rank() == 0)
      for (int q = 0; q < kPages; ++q) heap[q * 512] = q + 1;
    rt.barrier();
    const auto spike = rt.mem_stats();
    if (rt.rank() == 0)
      COMMON_CHECK_MSG(spike.twins_live == kPages,
                       "expected one live twin per dirtied page, got "
                           << spike.twins_live);
    // Quiet epochs: GC rounds (interval 4) validate rank 1's pending
    // notices, drain rank 0's unflushed intervals, retire the twins,
    // and the high-water-mark trim (zero takes per epoch) returns the
    // pooled frames. Fully-consumed extensions fold back to nullptr.
    for (int e = 0; e < 16; ++e) rt.barrier();
    const auto end = rt.mem_stats();
    COMMON_CHECK_MSG(end.twins_live == 0, "rank " << rt.rank() << ": "
                                                  << end.twins_live
                                                  << " twins still live");
    COMMON_CHECK_MSG(end.twin_pool_pages == 0,
                     "rank " << rt.rank() << ": twin pool kept "
                             << end.twin_pool_pages
                             << " frames after quiet barriers");
    COMMON_CHECK_MSG(end.page_ext_live == 0,
                     "rank " << rt.rank() << ": " << end.page_ext_live
                             << " page extensions not folded");
    COMMON_CHECK(end.records_created ==
                 end.records_reclaimed + end.records_live);
    rt.barrier();
    return 1.0;
  });
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, 1.0);
  EXPECT_GT(r.ctr(Id::kIntervalsReclaimed), 0u);
}

// ---- wire cost of a GC round ------------------------------------------

// The manager already reads every worker's arrival clock, so the
// horizon costs one vector clock (4n bytes) on each of its n-1 departs
// and nothing else. With no writes there is nothing to validate, so the
// GC-on and GC-off runs send the same messages and differ by exactly
// those clocks.
TEST(EpochGcWire, HorizonRidesTheDepartsOnly) {
  constexpr int kRanks = 4;
  constexpr int kBarriers = 8;
  constexpr int kInterval = 2;  // GC rounds at barriers 2, 4, 6 and 8
  auto run = [](bool gc_on) {
    return runner::spawn(kRanks, fast_options(gc_on, kInterval),
                         [](runner::ChildContext& ctx) {
                           tmk::Runtime rt(ctx);
                           for (int b = 0; b < kBarriers; ++b) rt.barrier();
                           return 0.0;
                         });
  };
  const auto on = run(true);
  const auto off = run(false);
  const auto tmk = static_cast<std::size_t>(mpl::Layer::kTmk);
  EXPECT_EQ(on.total.messages[tmk], off.total.messages[tmk]);
  constexpr std::uint64_t kRounds = kBarriers / kInterval;
  constexpr std::uint64_t kClockBytes = kRanks * sizeof(tmk::Seq);
  EXPECT_EQ(on.total.bytes[tmk] - off.total.bytes[tmk],
            kRounds * (kRanks - 1) * kClockBytes);  // 4 * 3 * 16 = 192
}

// ---- race-report cap (TMK_RACECHECK_MAX_REPORTS) ---------------------

TEST(EpochGcRaceCap, StoredReportsAreCappedAndDropsCounted) {
  // Two ranks race on many pages: each planted ww race yields one
  // report per rank. Cap storage at 3 and count the overflow.
  runner::SpawnOptions opts = fast_options(true, 64);
  tmk::Config cfg = gc_config(true, 64);
  cfg.racecheck = tmk::RaceCheckMode::kSummary;
  cfg.racecheck_max_reports = 3;
  opts.tmk_config = cfg;
  constexpr int kRacyPages = 8;
  const auto r = runner::spawn(2, opts, [](runner::ChildContext& ctx) {
    tmk::Runtime rt(ctx);
    auto* heap = rt.alloc<std::uint64_t>(kRacyPages * 512);
    rt.barrier();
    // Both ranks store the same value to the same cell of every page
    // in the same epoch: kRacyPages ww races, deterministic content.
    for (int q = 0; q < kRacyPages; ++q) heap[q * 512] = 7;
    rt.barrier();
    COMMON_CHECK_MSG(rt.race_reports().size() == 3,
                     "rank " << rt.rank() << ": cap not enforced, stored "
                             << rt.race_reports().size());
    rt.barrier();
    return 1.0;
  });
  for (const auto& p : r.procs) EXPECT_DOUBLE_EQ(p.checksum, 1.0);
  // Every race is still counted even when its report is dropped.
  EXPECT_EQ(r.ctr(Id::kRaceReports), 2u * kRacyPages);
  EXPECT_EQ(r.ctr(Id::kRaceReportsDropped), 2u * (kRacyPages - 3));
}

// ---- CI soak: 64 ranks, thousands of barrier epochs ------------------

// Heavy by design (2560 barrier epochs at 64 ranks): run by the CI soak
// job with TMK_SOAK=1 (and by hand), skipped in tier-1 ctest.
TEST(EpochGcSoak64, FlatFootprintOverThousandsOfEpochs) {
  if (std::getenv("TMK_SOAK") == nullptr)
    GTEST_SKIP() << "set TMK_SOAK=1 to run the 64-rank soak";
  const apps::Workload& w = soak();
  const auto& params = w.params(apps::Preset::kFull);  // assert_flat_rss on
  const double expect = w.seq(params, nullptr);
  runner::SpawnOptions opts;
  opts.model = simx::MachineModel::zero_cost();
  opts.backend = runner::Backend::kThread;
  opts.transport = mpl::TransportKind::kInproc;
  opts.shared_heap_bytes = 4ull << 20;  // 64 rank heaps in one process
  opts.timeout_sec = 540;
  opts.tmk_config = gc_config(true, 64);
  const auto r = apps::run_workload(w, apps::System::kTmk, 64, opts, params);
  EXPECT_DOUBLE_EQ(r.checksum, expect);
  EXPECT_GT(r.ctr(Id::kIntervalsReclaimed), 0u);
}

}  // namespace
