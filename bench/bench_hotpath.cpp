// Hot-path microbenchmarks: diff creation/application, the ring-mesh
// fabric round trip, barrier-heavy end-to-end DSM loops, and the write
// fault with and without a twin copy.
//
// Unlike the figure/table benches, which report *modelled* SP/2 time,
// every row here is host wall-clock: this binary measures the cost of
// the simulation harness itself, the thing that bounds how large a
// problem the paper-reproduction benches can afford. Rows accumulate in
// BENCH_results.json (app "hotpath:<path>") so the host-side perf
// trajectory is tracked across PRs alongside the modelled results.
//
// Run ./bench_hotpath from the repository root so rows land in the
// tracked BENCH_results.json; --benchmark_min_time=0.01s gives a quick
// smoke run (used by CI to catch hot-path regressions loudly).
#include <benchmark/benchmark.h>

#include <any>
#include <chrono>
#include <cstring>
#include <iostream>
#include <map>
#include <utility>

#include "apps/registry.hpp"
#include "bench_common.hpp"
#include "bench_opts.hpp"
#include "common/checksum.hpp"
#include "common/page.hpp"
#include "common/prng.hpp"
#include "mpl/fabric.hpp"
#include "tmk/diff.hpp"
#include "tmk/runtime.hpp"

namespace {

using Page = std::array<std::byte, common::kPageSize>;
using Clock = std::chrono::steady_clock;

Page random_page(std::uint64_t seed) {
  Page p;
  common::SplitMix64 g(seed);
  for (auto& b : p) b = static_cast<std::byte>(g.next());
  return p;
}

/// Sparse writer: `words` isolated single-word stores, the page-fault
/// pattern of a boundary row in Jacobi or a pivot column in MGS.
Page sparse_mutation(const Page& twin, int words, std::uint64_t seed) {
  Page cur = twin;
  common::SplitMix64 g(seed);
  for (int i = 0; i < words; ++i) {
    const auto w = g.next_below(tmk::kWordsPerPage);
    std::uint32_t v = static_cast<std::uint32_t>(g.next()) | 1u;
    std::uint32_t old;
    std::memcpy(&old, cur.data() + w * tmk::kDiffWord, sizeof(old));
    v ^= old ? 0 : 1;  // guarantee the word actually changes
    if (v == old) v += 1;
    std::memcpy(cur.data() + w * tmk::kDiffWord, &v, sizeof(v));
  }
  return cur;
}

/// google-benchmark re-invokes each function while calibrating the
/// iteration count; keep only the final (longest, most accurate) run
/// per (path, variant).
std::map<std::pair<std::string, std::string>, bench::Row>& final_rows() {
  static std::map<std::pair<std::string, std::string>, bench::Row> rows;
  return rows;
}

/// Records one wall-clock row; micro rows carry per-op seconds.
void add_row(const std::string& path, const std::string& variant,
             double seconds, double checksum, int nprocs = 1,
             mpl::TransportKind transport = mpl::TransportKind::kShm) {
  bench::Row row;
  row.app = "hotpath:" + path;
  row.system = variant;
  row.size = "wall-clock";
  row.transport = mpl::to_string(transport);
  row.nprocs = nprocs;
  row.seconds = seconds;
  row.checksum = checksum;
  final_rows()[{row.app, row.system}] = row;
}

// ---- diff creation ----------------------------------------------------

void bm_make_diff(benchmark::State& state, const char* variant,
                  const Page& twin, const Page& cur) {
  std::size_t bytes = 0;
  const auto t0 = Clock::now();
  for (auto _ : state) {
    auto d = tmk::make_diff(twin.data(), cur.data());
    bytes = d.size();
    benchmark::DoNotOptimize(d);
  }
  const auto t1 = Clock::now();
  const double per_op =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(state.iterations());
  state.counters["diff_bytes"] = static_cast<double>(bytes);
  add_row("make_diff", variant, per_op, static_cast<double>(bytes));
}

void BM_MakeDiffSparse(benchmark::State& state) {
  const Page twin = random_page(1);
  const Page cur = sparse_mutation(twin, 16, 2);
  bm_make_diff(state, "sparse16", twin, cur);
}
BENCHMARK(BM_MakeDiffSparse);

void BM_MakeDiffDense(benchmark::State& state) {
  const Page twin = random_page(3);
  const Page cur = random_page(4);
  bm_make_diff(state, "dense", twin, cur);
}
BENCHMARK(BM_MakeDiffDense);

void BM_MakeDiffUnchanged(benchmark::State& state) {
  const Page twin = random_page(5);
  bm_make_diff(state, "unchanged", twin, twin);
}
BENCHMARK(BM_MakeDiffUnchanged);

// ---- diff application -------------------------------------------------

void BM_ApplyDiffSparse(benchmark::State& state) {
  const Page twin = random_page(6);
  const Page cur = sparse_mutation(twin, 16, 7);
  const auto d = tmk::make_diff(twin.data(), cur.data());
  Page target = twin;
  const auto t0 = Clock::now();
  for (auto _ : state) {
    tmk::apply_diff(d, target.data());
    benchmark::DoNotOptimize(target);
  }
  const auto t1 = Clock::now();
  const double per_op =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(state.iterations());
  add_row("apply_diff", "sparse16", per_op, static_cast<double>(d.size()));
}
BENCHMARK(BM_ApplyDiffSparse);

// ---- fabric round trip ------------------------------------------------

// Loopback send_app + wait_app through the real transport: frame
// encode, the datagram hop (a ring push/pop with no syscalls),
// reassembly, and the pending-queue predicate scan — everything but
// the wire: the per-message host cost of the fabric.
void bm_fabric(benchmark::State& state, const char* variant,
               std::size_t payload_bytes) {
  mpl::Fabric fabric(1);
  mpl::Endpoint ep(fabric, 0, simx::MachineModel::zero_cost());
  std::vector<std::byte> payload(payload_bytes, std::byte{0x5a});
  const auto t0 = Clock::now();
  for (auto _ : state) {
    ep.send_app(0, mpl::FrameKind::kTestPing, 0, 1, payload);
    auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
    benchmark::DoNotOptimize(f);
  }
  const auto t1 = Clock::now();
  const double per_op =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(state.iterations());
  add_row("fabric_roundtrip", variant, per_op,
          static_cast<double>(payload_bytes));
}

void BM_FabricRoundTrip64Shm(benchmark::State& state) {
  bm_fabric(state, "64B-shm", 64);
}
BENCHMARK(BM_FabricRoundTrip64Shm);

void BM_FabricRoundTrip4KShm(benchmark::State& state) {
  bm_fabric(state, "4KiB-shm", common::kPageSize);
}
BENCHMARK(BM_FabricRoundTrip4KShm);

// ---- end-to-end: barrier-heavy DSM inner loops ------------------------

// Wall-clock of a full reduced-preset run (fork, fault, twin, diff,
// barrier, join) with the zero-cost model: all that remains is the
// harness's own hot-path cost.
runner::SpawnOptions e2e_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.shared_heap_bytes = 256ull << 20;
  o.timeout_sec = 300;
  return o;
}

// Aborts on a run whose checksum is not the sequential one, so a row
// never records a broken run. (No benchmark::DoNotOptimize on the
// double: GCC has handed back a value nobody stored through it.)
void bm_workload(benchmark::State& state, const char* key, int nprocs,
                 const char* variant) {
  const apps::Workload& w = apps::find_workload(key);
  const std::any& params = w.params(apps::Preset::kReduced);
  const double expect = w.seq(params, nullptr);
  const double tolerance = w.find(apps::System::kTmk)->tolerance;
  double checksum = 0.0;
  const auto t0 = Clock::now();
  for (auto _ : state) {
    const auto r = apps::run_workload(w, apps::System::kTmk, nprocs,
                                      e2e_options(), params);
    checksum = r.checksum;
    if (tolerance > 0 ? !common::checksum_close(checksum, expect, tolerance)
                      : checksum != expect) {
      std::cerr << "FATAL: e2e_" << key << "_tmk read " << checksum
                << ", sequential " << expect << "\n";
      std::abort();
    }
  }
  const auto t1 = Clock::now();
  const double per_run =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(state.iterations());
  add_row(std::string("e2e_") + key + "_tmk", variant, per_run, checksum,
          nprocs);
}

void BM_JacobiTmkReducedShm(benchmark::State& state) {
  bm_workload(state, "jacobi", 4, "reduced-shm");
}
BENCHMARK(BM_JacobiTmkReducedShm)->Unit(benchmark::kMillisecond);

void BM_MgsTmkReducedShm(benchmark::State& state) {
  bm_workload(state, "mgs", 4, "reduced-shm");
}
BENCHMARK(BM_MgsTmkReducedShm)->Unit(benchmark::kMillisecond);

// ---- twin creation: write faults on pristine and filled pages ---------

// Host seconds per write fault: the SIGSEGV round trip, the twin and the
// read-write upgrade. In each spawn rank 0 first writes one word of each
// of kPages pages no rank ever wrote (state kZero: the twin is the zero
// image), then, after rank 1's reads made rank 0 flush and free those
// twins, writes the same pages again; they now hold data, so each twin
// is a 4 KiB copy. Rank 0 times each loop alone. Thread backend, so the
// ranks' loop times reach the bench through a capture.
void BM_WriteFault(benchmark::State& state) {
  constexpr int kPages = 1024;
  constexpr std::size_t kWordsPerPage = common::kPageSize / sizeof(double);
  auto opts = e2e_options();
  opts.backend = runner::Backend::kThread;
  opts.shared_heap_bytes = 16ull << 20;
  double pristine_s = 0.0, filled_s = 0.0, checksum = 0.0;
  for (auto _ : state) {
    const auto r = runner::spawn(2, opts, [&](runner::ChildContext& c) {
      tmk::Runtime rt(c);
      auto* data = rt.alloc<double>(kPages * kWordsPerPage);
      const auto write_all = [&](double v) {
        const auto t0 = Clock::now();
        for (std::size_t q = 0; q < kPages; ++q) data[q * kWordsPerPage] = v;
        benchmark::DoNotOptimize(data);
        benchmark::ClobberMemory();
        return std::chrono::duration<double>(Clock::now() - t0).count();
      };
      if (rt.rank() == 0) pristine_s += write_all(1.0);
      rt.barrier();
      double sum = 0.0;
      if (rt.rank() == 1)
        for (std::size_t q = 0; q < kPages; ++q) sum += data[q * kWordsPerPage];
      rt.barrier();
      if (rt.rank() == 0) filled_s += write_all(2.0);
      rt.barrier();
      return sum;
    });
    checksum = r.procs[1].checksum;
    if (checksum != kPages) {
      std::cerr << "FATAL: write_fault read " << checksum << ", want "
                << kPages << "\n";
      std::abort();
    }
  }
  const double faults =
      static_cast<double>(kPages) * static_cast<double>(state.iterations());
  add_row("write_fault", "pristine", pristine_s / faults, checksum, 2,
          mpl::TransportKind::kInproc);
  add_row("write_fault", "filled", filled_s / faults, checksum, 2,
          mpl::TransportKind::kInproc);
}
BENCHMARK(BM_WriteFault)->Unit(benchmark::kMillisecond);

// ---- fault machinery: disabled-path parity ----------------------------

// The fault-injection layer is compiled in unconditionally; its
// disabled cost must stay one null-pointer check per send. This leg
// runs a barrier-heavy DSM workload twice — plain, then with
// TMK_FAULT_INJECT parsed but inert (the plan's victim is not in the
// mesh, so no injector installs) — asserts the modelled counters,
// checksum, AND host send-call count are bit-identical, and records
// both wall times in BENCH_results.json so the disabled path's host
// cost is tracked across PRs. Runs on the inproc/thread mesh: the one
// configuration whose counters are bit-reproducible run-to-run (the
// fork backends' lazy diff fetches race, so their per-run byte totals
// legitimately vary — see the chaos suite's parity tests).
double parity_workload(runner::ChildContext& c) {
  tmk::Runtime rt(c);
  constexpr int kPer = 512;
  auto* data = rt.alloc<std::int32_t>(static_cast<std::size_t>(kPer) *
                                      static_cast<std::size_t>(rt.nprocs()));
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

void BM_FaultMachineryDisabledParity(benchmark::State& state) {
  auto opts = e2e_options();
  opts.backend = runner::Backend::kThread;
  opts.shared_heap_bytes = 16ull << 20;
  const auto plain = runner::spawn(4, opts, parity_workload);
  setenv("TMK_FAULT_INJECT", "rank=99,exit-at-barrier=1,hard=1", 1);
  double wall_plain = 0.0, checksum = 0.0;
  const auto t0 = Clock::now();
  for (auto _ : state) {
    const auto r = runner::spawn(4, opts, parity_workload);
    checksum = r.checksum;
    wall_plain = plain.host_wall_s;
    if (r.checksum != plain.checksum ||
        r.total.messages != plain.total.messages ||
        r.total.bytes != plain.total.bytes ||
        r.ctr(runner::ctr::Id::kHostSendCalls) !=
            plain.ctr(runner::ctr::Id::kHostSendCalls)) {
      std::cerr << "FATAL: fault machinery perturbed an injection-disabled "
                   "run (checksum/counter/send-call mismatch vs plain run)\n";
      std::abort();
    }
  }
  const auto t1 = Clock::now();
  unsetenv("TMK_FAULT_INJECT");
  const double per_run =
      std::chrono::duration<double>(t1 - t0).count() /
      static_cast<double>(state.iterations());
  add_row("fault_machinery", "plain", wall_plain, checksum, 4,
          mpl::TransportKind::kInproc);
  add_row("fault_machinery", "armed-inert", per_run, checksum, 4,
          mpl::TransportKind::kInproc);
}
BENCHMARK(BM_FaultMachineryDisabledParity)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_opts(argc, argv);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  for (const auto& [key, row] : final_rows())
    bench::Report::instance().add(row);
  std::cout << "\n=== hot-path wall-clock (host seconds, not modelled) ==="
            << "\n";
  common::TextTable t;
  t.header({"path", "variant", "seconds/op"});
  for (const auto& r : bench::Report::instance().rows())
    t.row({r.app, r.system, common::TextTable::num(r.seconds, 9)});
  t.print(std::cout);
  bench::Report::instance().write_json();
  return 0;
}
