// Chaos suite: deterministic fault injection (TMK_FAULT_INJECT),
// deadline-aware protocol waits (TMK_WAIT_DEADLINE_MS), and rank-death
// blame quality. Every scenario here must resolve in seconds — the
// whole point of the failure-handling layer is that a dead or wedged
// rank surfaces as a prompt, named diagnostic, never as a global
// watchdog timeout (the ctest TIMEOUT for this binary is deliberately
// tight).
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/check.hpp"
#include "env_guard.hpp"
#include "mpl/fault_inject.hpp"
#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

runner::SpawnOptions chaos_options(runner::Backend b) {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.shared_heap_bytes = 16ull << 20;
  o.timeout_sec = 90;  // far beyond any acceptable unwind time
  o.backend = b;
  return o;
}

/// A small multi-barrier DSM workload: every rank writes its own slice,
/// everyone reads all of it, four times. Deterministic checksum and
/// modelled counters; crosses enough barriers and sends for every fault
/// plan in this file to fire.
double barrier_workload(runner::ChildContext& c) {
  tmk::Runtime rt(c);
  constexpr int kPer = 512;
  auto* data = rt.alloc<std::int32_t>(
      static_cast<std::size_t>(kPer) * static_cast<std::size_t>(rt.nprocs()));
  double sum = 0;
  for (int it = 0; it < 4; ++it) {
    for (int i = 0; i < kPer; ++i)
      data[rt.rank() * kPer + i] = rt.rank() + it;
    rt.barrier();
    sum = 0;
    for (int i = 0; i < kPer * rt.nprocs(); ++i) sum += data[i];
    rt.barrier();
  }
  return sum;
}

// ---- fault-plan grammar ----------------------------------------------

TEST(FaultPlan, ParsesFullSpec) {
  const auto p = mpl::FaultPlan::parse(
      "seed=7,rank=3,crash-at-send=100,delay-before-publish=50@10,"
      "exit-at-barrier=2,hard=1");
  EXPECT_EQ(p.seed, 7u);
  EXPECT_EQ(p.rank, 3);
  EXPECT_FALSE(p.any_rank);
  EXPECT_EQ(p.crash_at_send, 100u);
  EXPECT_EQ(p.delay_ms, 50u);
  EXPECT_EQ(p.delay_before_send, 10u);
  EXPECT_EQ(p.exit_at_barrier, 2u);
  EXPECT_TRUE(p.hard);
  EXPECT_EQ(p.victim(8), 3);
}

TEST(FaultPlan, AnyRankVictimIsSeedModNprocs) {
  const auto p = mpl::FaultPlan::parse("seed=13,rank=any");
  EXPECT_TRUE(p.any_rank);
  EXPECT_EQ(p.victim(8), 5);
  EXPECT_EQ(p.victim(4), 1);
  // Default seed is 1, so "rank=any" alone deterministically kills
  // rank 1 on any mesh with more than one rank.
  EXPECT_EQ(mpl::FaultPlan::parse("rank=any").victim(32), 1);
}

TEST(FaultPlan, RejectsTyposInsteadOfRunningFaultFree) {
  const auto parse = [](const char* spec) {
    (void)mpl::FaultPlan::parse(spec);
  };
  EXPECT_THROW(parse("rank=1,frobnicate=3"), common::Error);
  EXPECT_THROW(parse("rank=banana"), common::Error);
  EXPECT_THROW(parse("crash-at-send=5"), common::Error);
  EXPECT_THROW(parse("rank=1,crash-at-send=0"), common::Error);
  EXPECT_THROW(parse("rank=1,exit-at-barrier=0"), common::Error);
  EXPECT_THROW(parse("rank=1,delay-before-publish=50"), common::Error);
  EXPECT_THROW(parse("rank"), common::Error);
}

// ---- seeded rank death mid-barrier -----------------------------------

/// Kills the plan's victim entering its second barrier on a 32-rank
/// mesh and requires: spawn throws promptly (survivors unwound by
/// poison, not the 90 s watchdog) and the diagnostic names the victim.
void expect_death_blamed(runner::Backend b, const char* plan,
                         const std::string& victim_label) {
  test::EnvGuard fault("TMK_FAULT_INJECT", plan);
  const auto t0 = Clock::now();
  try {
    runner::spawn(32, chaos_options(b), barrier_workload);
    FAIL() << "spawn should have thrown under plan " << plan;
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(victim_label), std::string::npos) << msg;
  }
  EXPECT_LT(seconds_since(t0), 45.0)
      << "survivors were not unwound within the poison grace";
}

TEST(Chaos, DeathMidBarrierShmProcess) {
  expect_death_blamed(runner::Backend::kProcess,
                      "seed=21,rank=any,exit-at-barrier=2,hard=1", "proc 21");
}

TEST(Chaos, DeathMidBarrierInprocThread) {
  // Threads share the process, so the victim unwinds (soft) instead of
  // _exit; the run's error must be the victim's own injected fault, not
  // a poisoned survivor's.
  test::EnvGuard fault("TMK_FAULT_INJECT", "rank=11,exit-at-barrier=2");
  const auto t0 = Clock::now();
  try {
    runner::spawn(32, chaos_options(runner::Backend::kThread),
                  barrier_workload);
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 11"), std::string::npos) << msg;
    EXPECT_NE(msg.find("injected fault"), std::string::npos) << msg;
    EXPECT_NE(msg.find("exit-at-barrier"), std::string::npos) << msg;
  }
  EXPECT_LT(seconds_since(t0), 45.0);
}

// ---- death with the hybrid update protocol active --------------------

// Under TMK_UPDATE_MODE=hybrid every rank sends its diff pushes at
// barrier entry, before its arrival, and collects them after the
// depart; a rank dying mid-protocol leaves consumers holding stashed
// pushes and a barrier whose depart never comes. That state must
// unwind exactly like a plain death — named blame within the poison
// grace — not wedge a survivor waiting on the dead rank.
TEST(Chaos, DeathMidBarrierWithHybridPushesStaged) {
  // By barrier 3 of barrier_workload (everyone reads every slice, so
  // every page's consumer set is all peers) the predictor has armed and
  // the victim's peers hold its earlier pushes, some of them stashed.
  test::EnvGuard mode("TMK_UPDATE_MODE", "hybrid");
  expect_death_blamed(runner::Backend::kProcess,
                      "seed=17,rank=any,exit-at-barrier=3,hard=1", "proc 17");
}

TEST(Chaos, CrashDuringPushSendsHybridProcess) {
  // crash-at-send lands among the barrier-entry push frames once the
  // protocol reaches steady state (15 pushes per barrier on this mesh
  // dwarf the one arrive frame), so the victim dies with its pushes
  // half-sent and its arrival unsent. Survivors' stashes and pushes
  // left pending under that barrier's tag must not stall the unwind.
  test::EnvGuard mode("TMK_UPDATE_MODE", "hybrid");
  test::EnvGuard fault("TMK_FAULT_INJECT", "rank=3,crash-at-send=40,hard=1");
  const auto t0 = Clock::now();
  try {
    runner::spawn(16, chaos_options(runner::Backend::kProcess),
                  barrier_workload);
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("proc 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("status 86"), std::string::npos) << msg;
  }
  EXPECT_LT(seconds_since(t0), 30.0);
}

TEST(Chaos, CrashDuringPushSendsThreadBackend) {
  // Soft variant: the victim unwinds in-process and its own injected
  // fault must be the run's error even with pushes in flight.
  test::EnvGuard mode("TMK_UPDATE_MODE", "hybrid");
  test::EnvGuard fault("TMK_FAULT_INJECT", "rank=5,crash-at-send=40");
  try {
    runner::spawn(16, chaos_options(runner::Backend::kThread),
                  barrier_workload);
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 5"), std::string::npos) << msg;
    EXPECT_NE(msg.find("crash-at-send"), std::string::npos) << msg;
  }
}

// ---- other plan shapes -----------------------------------------------

TEST(Chaos, CrashAtNthSendShmProcess) {
  test::EnvGuard fault("TMK_FAULT_INJECT", "rank=1,crash-at-send=3,hard=1");
  const auto t0 = Clock::now();
  try {
    runner::spawn(4, chaos_options(runner::Backend::kProcess),
                  barrier_workload);
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("proc 1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("status 86"), std::string::npos) << msg;
  }
  EXPECT_LT(seconds_since(t0), 30.0);
}

TEST(Chaos, CrashAtNthSendThreadBackend) {
  test::EnvGuard fault("TMK_FAULT_INJECT", "rank=2,crash-at-send=5");
  try {
    runner::spawn(4, chaos_options(runner::Backend::kThread),
                  barrier_workload);
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 2"), std::string::npos) << msg;
    EXPECT_NE(msg.find("crash-at-send"), std::string::npos) << msg;
  }
}

TEST(Chaos, DelayBeforePublishStragglesButMatchesCleanRun) {
  const auto opts = chaos_options(runner::Backend::kThread);
  const auto clean = runner::spawn(4, opts, barrier_workload);
  test::EnvGuard fault("TMK_FAULT_INJECT",
                       "rank=1,delay-before-publish=150@2");
  const auto delayed = runner::spawn(4, opts, barrier_workload);
  // A straggler is not a death: the run completes, and the delay is
  // host-side only — the modelled world is bit-identical.
  EXPECT_DOUBLE_EQ(delayed.checksum, clean.checksum);
  EXPECT_EQ(delayed.total.messages, clean.total.messages);
  EXPECT_EQ(delayed.total.bytes, clean.total.bytes);
}

TEST(Chaos, PlanForAbsentRankLeavesModelledResultsUntouched) {
  const auto opts = chaos_options(runner::Backend::kThread);
  const auto base = runner::spawn(4, opts, barrier_workload);
  // Victim rank 99 is outside this 4-rank mesh: injection is compiled
  // in and the plan parses, but nobody installs an injector — the
  // modelled counters and checksum must be bit-identical.
  test::EnvGuard fault("TMK_FAULT_INJECT", "rank=99,exit-at-barrier=1,hard=1");
  const auto r = runner::spawn(4, opts, barrier_workload);
  EXPECT_DOUBLE_EQ(r.checksum, base.checksum);
  EXPECT_EQ(r.total.messages, base.total.messages);
  EXPECT_EQ(r.total.bytes, base.total.bytes);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(r.procs[static_cast<std::size_t>(i)].vt_ns > 0,
              base.procs[static_cast<std::size_t>(i)].vt_ns > 0);
}

// ---- deadline blame quality ------------------------------------------

/// Rank 1 wedges (sleeps) instead of reaching the barrier; rank 0's
/// fan-in wait must expire at TMK_WAIT_DEADLINE_MS and the error must
/// carry the blocked rank's id and the wait site on either backend.
void expect_barrier_wedge_blamed(runner::Backend b) {
  test::EnvGuard deadline("TMK_WAIT_DEADLINE_MS", "1500");
  const auto t0 = Clock::now();
  try {
    runner::spawn(2, chaos_options(b), [](runner::ChildContext& c) {
      tmk::Runtime rt(c);
      if (rt.rank() == 1)
        std::this_thread::sleep_for(std::chrono::seconds(5));
      rt.barrier();
      return 0.0;
    });
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("barrier 0 fan-in"), std::string::npos) << msg;
    EXPECT_NE(msg.find("deadline"), std::string::npos) << msg;
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "deadline did not bound the wait";
}

TEST(ChaosBlame, BarrierWedgeProcessBackend) {
  expect_barrier_wedge_blamed(runner::Backend::kProcess);
}

TEST(ChaosBlame, BarrierWedgeThreadBackend) {
  expect_barrier_wedge_blamed(runner::Backend::kThread);
}

/// Rank 1 takes the lock and sits on it; rank 0's acquire must expire
/// at the deadline naming the lock, its manager, and the blocked rank.
void expect_lock_wedge_blamed(runner::Backend b) {
  test::EnvGuard deadline("TMK_WAIT_DEADLINE_MS", "1500");
  const auto t0 = Clock::now();
  try {
    runner::spawn(2, chaos_options(b), [](runner::ChildContext& c) {
      tmk::Runtime rt(c);
      if (rt.rank() == 1) {
        rt.lock_acquire(0);
        rt.barrier();
        std::this_thread::sleep_for(std::chrono::seconds(5));
        rt.lock_release(0);
      } else {
        rt.barrier();  // rank 1 holds the lock beyond this point
        rt.lock_acquire(0);
        rt.lock_release(0);
      }
      return 0.0;
    });
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("rank 0"), std::string::npos) << msg;
    EXPECT_NE(msg.find("lock 0 acquire (manager 0)"), std::string::npos)
        << msg;
    EXPECT_NE(msg.find("deadline"), std::string::npos) << msg;
  }
  EXPECT_LT(seconds_since(t0), 30.0) << "deadline did not bound the wait";
}

TEST(ChaosBlame, LockWedgeProcessBackend) {
  expect_lock_wedge_blamed(runner::Backend::kProcess);
}

TEST(ChaosBlame, LockWedgeThreadBackend) {
  expect_lock_wedge_blamed(runner::Backend::kThread);
}

// ---- application exception blame -------------------------------------

/// Rank 1 throws an ordinary exception between two barriers while rank
/// 0 waits in the second. The thrower's ~Runtime must skip the shutdown
/// rendezvous, so its failure reaches the runner, which poisons the mesh
/// and names rank 1 within seconds rather than at the watchdog (on the
/// thread backend the watchdog would end the test binary).
void expect_application_exception_blamed(runner::Backend b) {
  runner::SpawnOptions opts = chaos_options(b);
  opts.timeout_sec = 60;
  const auto t0 = Clock::now();
  try {
    runner::spawn(2, opts, [](runner::ChildContext& c) {
      tmk::Runtime rt(c);
      rt.barrier();
      if (rt.rank() == 1)
        throw std::runtime_error("application failure on rank 1");
      rt.barrier();
      return 0.0;
    });
    FAIL() << "spawn should have thrown";
  } catch (const common::Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find(" 1 failed"), std::string::npos) << msg;
    EXPECT_NE(msg.find("application failure on rank 1"), std::string::npos)
        << msg;
  }
  EXPECT_LT(seconds_since(t0), 10.0) << "the throwing rank was not blamed";
}

TEST(ChaosBlame, ApplicationExceptionProcessBackend) {
  expect_application_exception_blamed(runner::Backend::kProcess);
}

TEST(ChaosBlame, ApplicationExceptionThreadBackend) {
  expect_application_exception_blamed(runner::Backend::kThread);
}

}  // namespace
