// Four-systems shootout on one workload.
//
// Runs the paper's comparison end-to-end for a single registry workload
// chosen on the command line: sequential baseline, SPF/TreadMarks,
// hand-coded TreadMarks, XHPF message passing, and hand-coded PVMe,
// printing the speedups and traffic the way Figures 1-2 and Tables 2-3
// do. The workload list and every variant come from the registry — this
// file names no application.
//
//   ./examples/four_systems [jacobi|shallow|mgs|fft|igrid|nbf] [nprocs]
//                           [default|reduced|full]
//
// The header names the ring mesh the run used (shm for forked ranks,
// inproc under TMK_BACKEND=thread); the printed speedups, messages, and
// checksums are computed above it and do not depend on it.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "apps/registry.hpp"
#include "common/check.hpp"
#include "common/table.hpp"

namespace {

apps::Preset parse_preset(const std::string& s) {
  if (s == "reduced") return apps::Preset::kReduced;
  if (s == "full") return apps::Preset::kFull;
  return apps::Preset::kDefault;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string key = (argc > 1) ? argv[1] : "igrid";
  const int nprocs = (argc > 2) ? std::atoi(argv[2]) : 8;
  const apps::Preset preset =
      parse_preset((argc > 3) ? argv[3] : "default");

  const apps::Workload* workload = nullptr;
  try {
    workload = &apps::find_workload(key);
  } catch (const common::Error&) {
    std::fprintf(stderr, "unknown workload '%s'; available:", key.c_str());
    for (const apps::Workload& w : apps::all_workloads())
      std::fprintf(stderr, " %s", w.key.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }
  const apps::Workload& w = *workload;
  const std::any& params = w.params(preset);

  runner::SpawnOptions options;
  options.model = simx::MachineModel::sp2();
  options.shared_heap_bytes = 512ull << 20;

  const auto seq =
      apps::run_workload(w, apps::System::kSeq, 1, options, params);
  std::printf(
      "%s (%s, %s, %s transport): sequential model time %.3f s "
      "(checksum %.6g)\n\n",
      w.name.c_str(), w.describe(params).c_str(), apps::to_string(w.cls),
      mpl::to_string(seq.transport), seq.seconds(), seq.checksum);

  common::TextTable t;
  t.header({"system", "speedup", "time(s)", "messages", "data(KB)",
            "checksum ok"});
  for (apps::System s : w.paper_systems()) {
    const auto r = apps::run_workload(w, s, nprocs, options, params);
    const auto layer = (s == apps::System::kXhpf || s == apps::System::kPvme)
                           ? mpl::Layer::kPvme
                           : mpl::Layer::kTmk;
    const bool ok =
        std::abs(r.checksum - seq.checksum) <=
        1e-6 * std::max(1.0, std::abs(seq.checksum));
    t.row({apps::to_string(s),
           common::TextTable::num(seq.seconds() / r.seconds(), 2),
           common::TextTable::num(r.seconds(), 3),
           std::to_string(r.messages(layer)),
           common::TextTable::num(r.kbytes(layer), 0), ok ? "yes" : "NO"});
  }
  t.print(std::cout);
  return 0;
}
