// Update-mode equivalence suite (TMK_UPDATE_MODE).
//
// The hybrid update protocol changes HOW diffs travel (pushed at
// barrier departure vs pulled on fault) but must not change WHAT any
// process observes: the lazy-release-consistency contract — checksums,
// final vector clocks, and every modelled data value — is identical in
// both modes. This suite asserts that contract three ways:
//
//  - `off` is byte-identical to an unset TMK_UPDATE_MODE: same
//    checksums, virtual times, and per-layer message/byte counters on
//    a deterministic controlled schedule. The mode gate must be a true
//    no-op, not merely result-equivalent.
//  - Across modes {off, hybrid}, a controlled producer/consumer
//    schedule yields identical per-process data checksums AND identical
//    final vector clocks (pushed diffs carry the same intervals a pull
//    would have).
//  - On registry workloads with barrier-phased neighbor sharing
//    (Jacobi, Shallow) at >= 32 ranks, hybrid mode strictly reduces
//    both Tmk-layer messages and Tmk-layer bytes while both modes'
//    checksums equal the sequential checksum bit for bit — the perf
//    claim of the protocol, asserted as a regression floor rather than
//    a benchmark.
#include <gtest/gtest.h>

#include <any>
#include <cstdint>
#include <optional>
#include <ostream>
#include <string>

#include "apps/registry.hpp"
#include "env_guard.hpp"
#include "mpl/frame.hpp"
#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

namespace {

// Deterministic model: SP/2 communication constants, measured host CPU
// scaled to zero — virtual times depend only on the protocol event
// sequence, so the off-vs-unset comparison can be bit-exact.
runner::SpawnOptions det_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::sp2();
  o.model.cpu_scale = 0.0;
  o.shared_heap_bytes = 64ull << 20;
  o.timeout_sec = 120;
  return o;
}

constexpr int kProcs = 8;
constexpr int kRounds = 6;  // enough for the learned predictor to arm

// Fixed producer/consumer schedule with a stable access pattern: each
// rank owns one page, writes a slice per round, and reads its left
// neighbor's page after the barrier. Round after round the same
// consumer pulls the same page, so hybrid mode's learned predictor
// starts pushing after the first pull (the schedule declares no hints)
// — every transfer thereafter exercises the push path. The returned
// digest folds the data checksum together with the final vector clock,
// so a mode that delivered different intervals (or dropped one) shows
// up as a digest mismatch, not just a data race.
double controlled_schedule(runner::ChildContext& c) {
  tmk::Runtime rt(c);
  const int me = rt.rank();
  const int n = rt.nprocs();
  auto* data = rt.alloc<std::int32_t>(1024 * n);  // one page per rank
  rt.barrier();
  double sum = 0;
  for (int round = 0; round < kRounds; ++round) {
    for (int i = 0; i < 64; ++i)
      data[1024 * me + 64 * round + i] = 100 * me + round;
    rt.barrier();
    const int left = (me + n - 1) % n;
    for (int i = 0; i < 64; ++i)
      sum += data[1024 * left + 64 * round + i];
    rt.barrier();
  }
  const tmk::VectorClock vc = rt.clock_snapshot();
  double clock = 0;
  for (int p = 0; p < n; ++p)
    clock = 257.0 * clock + static_cast<double>(vc.get(p));
  return sum + 1e7 * clock;
}

// Runs `fn` (the controlled schedule unless given) with the update mode
// pinned in the run's Config, or with the Config resolved from the
// environment when `mode` is empty.
runner::RunResult run_controlled(std::optional<tmk::UpdateMode> mode,
                                 int nprocs = kProcs,
                                 const runner::ChildFn& fn =
                                     controlled_schedule) {
  runner::SpawnOptions o = det_options();
  if (mode.has_value()) {
    tmk::Config cfg = tmk::Config::from_env();
    cfg.update_mode = *mode;
    o.tmk_config = cfg;
  }
  return runner::spawn(nprocs, o, fn);
}

// ---- off must be a true no-op ----------------------------------------

TEST(UpdateMode, OffIsByteIdenticalToUnset) {
  // Explicit Config{kOff} on one side; genuinely-unset env on the
  // other. With the CI matrix exporting TMK_UPDATE_MODE globally, the
  // unset guard is what makes this compare default-vs-off rather than
  // ci-mode-vs-off.
  test::EnvGuard unset("TMK_UPDATE_MODE");
  const auto off = run_controlled(tmk::UpdateMode::kOff);
  const auto dflt = run_controlled(std::nullopt);
  // Virtual times are deliberately not compared: DSM interrupt charges
  // land at host-timing-dependent virtual moments even under the
  // deterministic model (same reason the transport suite restricts
  // Tmk vt comparisons). Message/byte counters on this lock-free
  // barrier-phased schedule ARE bit-stable, and the checksum folds the
  // final vector clock.
  for (std::size_t l = 0; l < off.total.messages.size(); ++l) {
    EXPECT_EQ(off.total.messages[l], dflt.total.messages[l]) << "layer " << l;
    EXPECT_EQ(off.total.bytes[l], dflt.total.bytes[l]) << "layer " << l;
  }
  for (int p = 0; p < kProcs; ++p)
    EXPECT_DOUBLE_EQ(off.procs[static_cast<std::size_t>(p)].checksum,
                     dflt.procs[static_cast<std::size_t>(p)].checksum)
        << "proc " << p;
  EXPECT_EQ(off.ctr(runner::ctr::Id::kDiffPush), 0u);
  EXPECT_EQ(dflt.ctr(runner::ctr::Id::kDiffPush), 0u);
}

// The retired mode names are unknown values now: warned about once and
// resolved to the default, like any other typo.
TEST(UpdateMode, RetiredModeNamesResolveToOff) {
  for (const char* name : {"adaptive", "hint"}) {
    test::EnvGuard env("TMK_UPDATE_MODE", name);
    EXPECT_FALSE(tmk::parse_update_mode(name).has_value()) << name;
    EXPECT_EQ(tmk::Config::from_env().update_mode, tmk::UpdateMode::kOff)
        << name;
  }
}

// ---- data + clock equivalence across both modes ----------------------

TEST(UpdateMode, ChecksumsAndFinalClocksIdenticalAcrossModes) {
  const auto off = run_controlled(tmk::UpdateMode::kOff);
  const auto hybrid = run_controlled(tmk::UpdateMode::kHybrid);
  for (int p = 0; p < kProcs; ++p)
    EXPECT_DOUBLE_EQ(off.procs[static_cast<std::size_t>(p)].checksum,
                     hybrid.procs[static_cast<std::size_t>(p)].checksum)
        << "proc " << p;
}

// The schedule declares no hints, so every push hybrid makes here comes
// from the predictor it learned from observed pulls.
TEST(UpdateMode, AdaptivePredictorActuallyPushes) {
  const auto off = run_controlled(tmk::UpdateMode::kOff);
  const auto hybrid = run_controlled(tmk::UpdateMode::kHybrid);
  // The result records the Config the ranks ran with.
  EXPECT_EQ(off.config.update_mode, tmk::UpdateMode::kOff);
  EXPECT_EQ(hybrid.config.update_mode, tmk::UpdateMode::kHybrid);
  EXPECT_EQ(off.ctr(runner::ctr::Id::kDiffPush), 0u);
  EXPECT_EQ(off.ctr(runner::ctr::Id::kPushHits), 0u);
  // The stable pattern means pushes happen AND land: hits, not waste.
  EXPECT_GT(hybrid.ctr(runner::ctr::Id::kDiffPush), 0u);
  EXPECT_GT(hybrid.ctr(runner::ctr::Id::kPushHits), 0u);
  // A pushed page satisfies the would-be pull, so requests drop.
  EXPECT_LT(hybrid.ctr(runner::ctr::Id::kDiffRequests), off.ctr(runner::ctr::Id::kDiffRequests));
}

// Each rank rewrites only its own page, so no rank ever pulls a diff
// and the predictor never predicts a consumer. Hybrid then pushes
// nothing, and its barriers must cost exactly off's messages and
// bytes: nothing about the push protocol rides the barrier messages.
double own_page_rewrites(runner::ChildContext& c) {
  tmk::Runtime rt(c);
  auto* data = rt.alloc<std::int32_t>(1024 * rt.nprocs());  // a page each
  for (int round = 0; round < 8; ++round) {
    data[1024 * rt.rank() + round] = round + 1;
    rt.barrier();
  }
  return 0.0;
}

TEST(UpdateMode, IdlePredictorSendsTheOffBytes) {
  const auto off = run_controlled(tmk::UpdateMode::kOff, 4, own_page_rewrites);
  const auto hybrid =
      run_controlled(tmk::UpdateMode::kHybrid, 4, own_page_rewrites);
  const auto tmk_l = static_cast<std::size_t>(mpl::Layer::kTmk);
  EXPECT_EQ(hybrid.total.messages[tmk_l], off.total.messages[tmk_l]);
  EXPECT_EQ(hybrid.total.bytes[tmk_l], off.total.bytes[tmk_l]);
  EXPECT_EQ(hybrid.ctr(runner::ctr::Id::kDiffPush), 0u);
}

// ---- registry workloads: traffic strictly drops at scale -------------

// gtest prints a parameter without PrintTo as its raw bytes into the
// listed test name; the string's heap pointer would change them per run.
struct DropCase {
  std::string key;
  int nprocs;

  friend void PrintTo(const DropCase& c, std::ostream* os) {
    *os << c.key << '/' << c.nprocs;
  }
};

const std::any& scale_params(const apps::Workload& w) {
  return w.scale_params.has_value() ? w.scale_params
                                    : w.params(apps::Preset::kReduced);
}

class UpdateModeDrop : public ::testing::TestWithParam<DropCase> {};

TEST_P(UpdateModeDrop, HybridReducesTrafficWithChecksumsUnchanged) {
  const DropCase dc = GetParam();
  const apps::Workload* w = nullptr;
  for (const apps::Workload& cand : apps::all_workloads())
    if (cand.key == dc.key) w = &cand;
  ASSERT_NE(w, nullptr) << dc.key;
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.backend = runner::Backend::kThread;  // 32+ ranks without 32 forks
  o.timeout_sec = 300;
  const std::any& params = scale_params(*w);
  auto run = [&](const char* mode) {
    test::EnvGuard env("TMK_UPDATE_MODE", mode);
    return apps::run_workload(*w, apps::System::kTmk, dc.nprocs, o, params);
  };
  const auto off = run("off");
  const auto hybrid = run("hybrid");
  // Bit for bit against sequential (EXPECT_DOUBLE_EQ would allow 4 ULPs).
  const double seq = w->seq(params, nullptr);
  EXPECT_EQ(off.checksum, seq) << dc.key << " off";
  EXPECT_EQ(hybrid.checksum, seq) << dc.key << " hybrid";
  for (int p = 0; p < dc.nprocs; ++p)
    EXPECT_DOUBLE_EQ(off.procs[static_cast<std::size_t>(p)].checksum,
                     hybrid.procs[static_cast<std::size_t>(p)].checksum)
        << dc.key << " proc " << p;
  const auto tmk_l = mpl::Layer::kTmk;
  EXPECT_LT(hybrid.messages(tmk_l), off.messages(tmk_l)) << dc.key;
  EXPECT_LT(hybrid.kbytes(tmk_l), off.kbytes(tmk_l)) << dc.key;
  // Pushed pages arrive before the fault would have happened.
  EXPECT_LT(hybrid.ctr(runner::ctr::Id::kPageFaults), off.ctr(runner::ctr::Id::kPageFaults)) << dc.key;
}

INSTANTIATE_TEST_SUITE_P(Registry, UpdateModeDrop,
                         // Jacobi at 64: at 32 ranks its byte totals
                         // sit at parity (headers offset the saved
                         // replies); the margin opens with scale.
                         ::testing::Values(DropCase{"jacobi", 64},
                                           DropCase{"shallow", 32}),
                         [](const auto& info) {
                           return info.param.key + "_" +
                                  std::to_string(info.param.nprocs);
                         });

}  // namespace
