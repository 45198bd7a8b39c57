// Cross-transport invariance suite.
//
// The point of the Transport split is that the interconnect is
// invisible to the modelled system: what the paper reports — checksums,
// message and byte counts, modelled execution times — must not depend
// on where the ring mesh lives. There are two placements, and the
// runner backend picks one: a MAP_SHARED region the process backend's
// forked ranks inherit (shm), or a process-private region the thread
// backend's rank threads share (inproc). This suite runs every registry
// workload, at its first checksum size, on both placements under a
// deterministic model (communication constants from the SP/2 model,
// compute scaled to zero so host timing noise cannot enter the virtual
// clock) and asserts the strongest invariant each protocol admits:
//
//  - Message-passing variants (kPvme) have a FIXED communication
//    schedule, so everything is asserted bit-identical: checksums,
//    per-layer message/byte counters, and per-process virtual times.
//  - TreadMarks variants are asserted checksum-identical. Their full
//    traffic totals are NOT compared bit-wise: lazy diff flushing
//    makes them schedule-dependent on any transport (one flush covers
//    every interval closed before the first request arrives, so a
//    request racing the writer's next barrier can save or cost a
//    message run-to-run), and lock-using workloads (fft, igrid, nbf)
//    additionally order their reductions by contention order — for
//    those the checksum contract against the sequential baseline
//    (tolerance from the variant table) is the invariant.
//
// Because the placement follows the backend, backend_equivalence_test
// makes the same shm-vs-inproc comparison on selected workloads, plus
// the controlled tmk protocol run and the active epoch collector.
#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "apps/registry.hpp"
#include "common/checksum.hpp"
#include "env_guard.hpp"
#include "mpl/transport.hpp"
#include "runner/counters.hpp"
#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

namespace {

/// Deterministic model: all communication/protocol charges are the
/// SP/2 constants, but measured host CPU is multiplied by zero — the
/// virtual clock then depends only on the protocol event sequence. The
/// backend that places the mesh on `t` runs the ranks.
runner::SpawnOptions det_options(mpl::TransportKind t) {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::sp2();
  o.model.cpu_scale = 0.0;
  o.shared_heap_bytes = 256ull << 20;
  o.timeout_sec = 300;
  o.backend = t == mpl::TransportKind::kInproc ? runner::Backend::kThread
                                               : runner::Backend::kProcess;
  return o;
}

// Plain bytes with the workload key inline, as in
// backend_equivalence_test: gtest prints an unprintable parameter as
// its raw bytes into the listed test name, and a pointer's bytes change
// with the heap layout.
struct Case {
  char key[8] = {};
  apps::System system = apps::System::kSeq;
  int nprocs = 0;
  /// Checksum tolerance vs the sequential baseline (variant table).
  double tolerance = 0.0;
};

const apps::Workload& workload(const Case& c) {
  return apps::find_workload(c.key);
}

/// Lock-order-dependent reductions: checksums differ run-to-run by
/// reassociation, so only the vs-sequential contract transfers.
bool lock_dependent(const Case& c) {
  for (const char* k : {"fft", "igrid", "nbf"})
    if (std::strcmp(c.key, k) == 0) return true;
  return false;
}

std::string case_name(const Case& c) {
  std::string s = std::string(c.key) + "_";
  for (const char* p = apps::to_string(c.system); *p != '\0'; ++p)
    if (std::isalnum(static_cast<unsigned char>(*p)))
      s += static_cast<char>(std::tolower(static_cast<unsigned char>(*p)));
  return s + "_" + std::to_string(c.nprocs);
}

/// Every registry workload's `system` variant (or its first variant
/// when it has none) at that variant's first checksum size.
std::vector<Case> registry_cases(apps::System system, bool fallback) {
  std::vector<Case> cases;
  for (const apps::Workload& w : apps::all_workloads()) {
    const apps::Variant* v = w.find(system);
    if (v == nullptr && fallback) v = &w.variants.front();
    if (v == nullptr || v->checksum_nprocs.empty()) continue;
    Case c{};
    std::strncpy(c.key, w.key.c_str(), sizeof(c.key) - 1);
    c.system = v->system;
    c.nprocs = v->checksum_nprocs.front();
    c.tolerance = v->tolerance;
    cases.push_back(c);
  }
  return cases;
}

runner::RunResult run_case(const Case& c, mpl::TransportKind t) {
  const apps::Workload& w = workload(c);
  const runner::RunResult r = apps::run_workload(
      w, c.system, c.nprocs, det_options(t), w.params(w.test_preset));
  EXPECT_EQ(r.transport, t) << c.key;
  return r;
}

/// Lock-dependent DSM runs: each checksum must meet the vs-sequential
/// contract on its own.
void expect_matches_sequential(const Case& c, const runner::RunResult& r) {
  const apps::Workload& w = workload(c);
  const double expect = w.seq(w.params(w.test_preset), nullptr);
  if (c.tolerance > 0)
    EXPECT_TRUE(common::checksum_close(r.checksum, expect, c.tolerance))
        << c.key << ": " << r.checksum << " vs " << expect;
  else
    EXPECT_DOUBLE_EQ(r.checksum, expect) << c.key;
}

void expect_same_checksums(const Case& c, const runner::RunResult& a,
                           const runner::RunResult& b) {
  for (int p = 0; p < c.nprocs; ++p)
    EXPECT_DOUBLE_EQ(a.procs[static_cast<std::size_t>(p)].checksum,
                     b.procs[static_cast<std::size_t>(p)].checksum)
        << c.key << " proc " << p;
}

void expect_bit_identical(const Case& c, const runner::RunResult& a,
                          const runner::RunResult& b) {
  EXPECT_DOUBLE_EQ(a.checksum, b.checksum) << c.key;
  EXPECT_EQ(a.max_vt_ns, b.max_vt_ns) << c.key;
  for (std::size_t l = 0; l < a.total.messages.size(); ++l) {
    EXPECT_EQ(a.total.messages[l], b.total.messages[l])
        << c.key << " layer " << l;
    EXPECT_EQ(a.total.bytes[l], b.total.bytes[l]) << c.key << " layer " << l;
  }
  for (int p = 0; p < c.nprocs; ++p)
    EXPECT_EQ(a.procs[static_cast<std::size_t>(p)].vt_ns,
              b.procs[static_cast<std::size_t>(p)].vt_ns)
        << c.key << " proc " << p;
  expect_same_checksums(c, a, b);
}

// ---- DSM variants: checksum invariance -------------------------------

std::vector<Case> dsm_cases() {
  return registry_cases(apps::System::kTmk, /*fallback=*/true);
}

class CrossTransportDsm : public ::testing::TestWithParam<Case> {};

TEST_P(CrossTransportDsm, ChecksumsAreTransportInvariant) {
  const Case c = GetParam();
  const auto shm = run_case(c, mpl::TransportKind::kShm);
  const auto inproc = run_case(c, mpl::TransportKind::kInproc);
  if (lock_dependent(c)) {
    expect_matches_sequential(c, shm);
    expect_matches_sequential(c, inproc);
    return;
  }
  expect_same_checksums(c, shm, inproc);
}

INSTANTIATE_TEST_SUITE_P(Registry, CrossTransportDsm,
                         ::testing::ValuesIn(dsm_cases()),
                         [](const auto& info) {
                           return case_name(info.param);
                         });

// ---- message-passing variants: full bit-equality ---------------------

std::vector<Case> mp_cases() {
  return registry_cases(apps::System::kPvme, /*fallback=*/false);
}

class CrossTransportMp : public ::testing::TestWithParam<Case> {};

TEST_P(CrossTransportMp, ModelledResultsAreBitIdentical) {
  const Case c = GetParam();
  expect_bit_identical(c, run_case(c, mpl::TransportKind::kShm),
                       run_case(c, mpl::TransportKind::kInproc));
}

INSTANTIATE_TEST_SUITE_P(Registry, CrossTransportMp,
                         ::testing::ValuesIn(mp_cases()),
                         [](const auto& info) {
                           return case_name(info.param);
                         });

// ---- epoch-GC wire invariance ----------------------------------------

// Barrier-phased ring producer/consumer with a fresh slice per round
// (same shape as the racecheck off-identity suite): each round's pull
// fetches exactly one closed unflushed interval, so message and byte
// counts are bit-stable run to run — the strongest schedule to pin the
// collector's wire behaviour against.
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

// TMK_EPOCH_GC=off must be bit-identical to a collector that never
// fires: an enabled collector whose first GC round lies beyond the run
// (default interval 64, the ring runs 13 barriers) adds nothing to the
// wire — same message AND byte counts at every layer, same DSM
// counters, same per-rank checksums. This is the machine-checkable
// half of the off==pre-GC contract: every non-GC barrier is
// byte-identical to the GC-off protocol. The inproc leg is
// EpochGcIdleIdentity.OffIsBitIdenticalToIdleCollectorOnThreadMesh in
// backend_equivalence_test.
class EpochGcIdleIdentity
    : public ::testing::TestWithParam<mpl::TransportKind> {};

TEST_P(EpochGcIdleIdentity, OffIsBitIdenticalToIdleCollector) {
  runner::RunResult on, off;
  {
    const test::EpochGcEnv guard(true);
    on = runner::spawn(8, det_options(GetParam()), gc_ring_schedule);
  }
  {
    const test::EpochGcEnv guard(false);
    off = runner::spawn(8, det_options(GetParam()), gc_ring_schedule);
  }
  EXPECT_EQ(on.transport, GetParam());
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

INSTANTIATE_TEST_SUITE_P(Transports, EpochGcIdleIdentity,
                         ::testing::Values(mpl::TransportKind::kShm),
                         [](const auto& info) {
                           return std::string(mpl::to_string(info.param));
                         });

}  // namespace
