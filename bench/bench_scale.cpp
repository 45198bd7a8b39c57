// Scale sweeps beyond the paper's 8 processors.
//
// The paper's Figures 1-2 stop at 8 nodes because the SP/2 did. The
// modelled results are computed above the transport, so what actually
// bounds larger configurations is the *host-side* cost of the
// simulation harness. This binary sweeps every registry variant that
// opts into scaling (Variant::scale_nprocs: Jacobi, Shallow, MGS, 3-D
// FFT — both the TreadMarks and the hand-coded message-passing
// variants — at 2..32) on one backend, and records per row both the
// modelled speedup and the host wall/CPU cost, so BENCH_results.json
// tracks two trajectories at once: how the modelled systems scale past
// the paper, and what simulating them costs the host.
//
//   ./bench_scale                          # forked ranks on the shm mesh
//   ./bench_scale --backend=thread         # rank threads on the inproc mesh
//   ./bench_scale --nprocs-list=16,32      # override the sweep points
//
// Sizes follow the registry's scale preset (test-scale dimensions with
// amplified iteration counts, so messaging cost — not spawn or raw
// compute — dominates); export TMK_FULL_SIZES=1 for paper sizes.
#include <benchmark/benchmark.h>

#include <iostream>
#include <vector>

#include "bench_common.hpp"
#include "bench_opts.hpp"

namespace {

const std::any& scale_params(const apps::Workload& w) {
  if (bench::full_sizes()) return w.params(apps::Preset::kFull);
  if (w.scale_params.has_value()) return w.scale_params;
  return w.params(apps::Preset::kReduced);
}

void sweep_workload(const apps::Workload& w, const apps::Variant& v) {
  const std::any& params = scale_params(w);
  const std::string size = w.describe(params);
  const runner::SpawnOptions opts = bench::paper_options();

  const std::vector<int>& nprocs_list = bench::opts().nprocs_list.empty()
                                            ? v.scale_nprocs
                                            : bench::opts().nprocs_list;
  // The sequential baseline runs on the sweep's backend too, so every
  // row's host-side columns stay self-consistent.
  const runner::RunResult seq =
      apps::run_workload(w, apps::System::kSeq, 1, opts, params);
  bench::record(w.name, apps::System::kSeq, 1, seq.seconds(), seq, size);
  for (int np : nprocs_list) {
    const runner::RunResult r =
        apps::run_workload(w, v.system, np, opts, params);
    bench::record(w.name, v.system, np, seq.seconds(), r, size);
  }
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_bench_opts(argc, argv);
  benchmark::Initialize(&argc, argv);
  for (const apps::Workload& w : apps::all_workloads()) {
    for (const apps::Variant& v : w.variants) {
      if (v.scale_nprocs.empty()) continue;
      const std::string name =
          w.key + "/" + apps::to_string(v.system);
      benchmark::RegisterBenchmark(name.c_str(),
                                   [&w, &v](benchmark::State& state) {
                                     for (auto _ : state)
                                       sweep_workload(w, v);
                                   })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  benchmark::RunSpecifiedBenchmarks();

  std::cout << "\n=== scale sweep (modelled speedup and host cost) ===\n";
  common::TextTable t;
  t.header({"application", "system", "transport", "backend", "update",
            "nprocs", "speedup", "time(s)", "host wall(s)", "host cpu(s)",
            "sends", "futex wakes", "faults", "pulls", "push hit/waste"});
  for (const bench::Row& r : bench::Report::instance().rows()) {
    if (r.nprocs < 2) continue;  // seq baseline rows
    t.row({r.app, r.system, r.transport, r.backend, r.update_mode,
           std::to_string(r.nprocs),
           common::TextTable::num(r.speedup, 2),
           common::TextTable::num(r.seconds, 3),
           common::TextTable::num(r.host_wall_s, 3),
           common::TextTable::num(r.host_cpu_s, 3),
           std::to_string(r.ctr(runner::ctr::Id::kHostSendCalls)),
           std::to_string(r.ctr(runner::ctr::Id::kHostFutexWakes)),
           std::to_string(r.ctr(runner::ctr::Id::kPageFaults)),
           std::to_string(r.ctr(runner::ctr::Id::kDiffRequests)),
           std::to_string(r.ctr(runner::ctr::Id::kPushHits)) + "/" +
               std::to_string(r.ctr(runner::ctr::Id::kPushWaste))});
  }
  t.print(std::cout);
  bench::Report::instance().write_json();
  benchmark::Shutdown();
  return 0;
}
