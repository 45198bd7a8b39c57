// Shared plumbing for the paper-reproduction benchmark binaries.
//
// Each binary regenerates one table or figure from the paper by looping
// over the workload registry (apps/registry.hpp) — no per-application
// code here. Every experiment is registered both as a google-benchmark
// case (so standard tooling sees per-run wall time and the modelled
// speedup as a counter) and as a row of the paper-style summary table
// printed after the run; the same rows are appended to a machine-
// readable BENCH_results.json so the perf trajectory can be tracked
// across PRs.
//
// Problem sizes default to reduced versions of the paper's (fewer
// iterations at the paper's dimensions); export TMK_FULL_SIZES=1 for the
// paper's full iteration counts, and TMK_CPU_SCALE to pin the
// host-to-SP/2 compute scale instead of calibrating per workload.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <ctime>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "apps/registry.hpp"
#include "bench_opts.hpp"
#include "common/env.hpp"
#include "common/table.hpp"
#include "runner/counters.hpp"
#include "runner/runner.hpp"
#include "tmk/config.hpp"

namespace bench {

inline constexpr int kProcs = 8;  // the paper's 8-node SP/2

inline runner::SpawnOptions paper_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::sp2();
  o.shared_heap_bytes = 512ull << 20;
  o.timeout_sec = 1200;
  o.backend = opts().backend;  // --backend / TMK_BACKEND
  return o;
}

inline bool full_sizes() {
  return common::env::flag_knob("TMK_FULL_SIZES", false);
}

/// The parameter preset the bench binaries run at.
inline apps::Preset bench_preset() {
  return full_sizes() ? apps::Preset::kFull : apps::Preset::kDefault;
}

/// One measured configuration, in paper terms.
struct Row {
  std::string app;
  std::string system;
  std::string size;  // params label, e.g. "2048^2 x 10"
  std::string transport;      // ring placement ("shm"/"inproc")
  std::string backend;        // rank execution ("process"/"thread")
  int nprocs = 0;
  double speedup = 0.0;       // vs the same app's sequential virtual time
  double seconds = 0.0;       // modelled parallel seconds
  double host_wall_s = 0.0;   // real wall time of the run (harness cost)
  double host_cpu_s = 0.0;    // summed main-thread CPU across processes
  std::uint64_t messages = 0;
  double kbytes = 0.0;
  // Which update protocol the run used ("off" unless TMK_UPDATE_MODE
  // selected a push mode) — rows for the same (app, system, nprocs)
  // key differ across modes only in traffic/fault counters, so the
  // mode must be a column or the comparison is unreadable. Same for
  // the race-detection mode (TMK_RACECHECK).
  std::string update_mode = "off";
  std::string racecheck = "off";
  // Registry-declared counters (runner/counters.hpp): host-side
  // interconnect cost and DSM protocol observables flow through as one
  // block; the JSON writer emits them per layer, so a new counter is a
  // registry row, not another hand-threaded field here.
  runner::ctr::Block ctrs;
  double checksum = 0.0;

  [[nodiscard]] std::uint64_t ctr(runner::ctr::Id id) const noexcept {
    return ctrs[id];
  }
};

/// Collects rows across benchmark registrations; printed from main().
class Report {
 public:
  static Report& instance() {
    static Report r;
    return r;
  }

  void add(Row row) { rows_.push_back(std::move(row)); }

  void print_speedups(const std::string& title) const {
    std::cout << "\n=== " << title << " ===\n";
    common::TextTable t;
    t.header({"application", "system", "speedup", "time(s)"});
    for (const Row& r : rows_)
      t.row({r.app, r.system, common::TextTable::num(r.speedup, 2),
             common::TextTable::num(r.seconds, 3)});
    t.print(std::cout);
  }

  void print_traffic(const std::string& title) const {
    std::cout << "\n=== " << title << " ===\n";
    common::TextTable t;
    t.header({"application", "system", "messages", "data(KB)"});
    for (const Row& r : rows_)
      t.row({r.app, r.system, std::to_string(r.messages),
             common::TextTable::num(r.kbytes, 0)});
    t.print(std::cout);
  }

  /// Appends this binary's rows to a JSON array on disk (creating it if
  /// absent), so one full bench run accumulates every figure/table row
  /// in a single machine-readable file.
  void write_json(const std::string& path = "BENCH_results.json") const {
    if (rows_.empty()) return;
    std::string existing;
    if (std::ifstream in(path); in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      existing = buf.str();
    }
    // One marker per bench-binary invocation, so rows accumulated
    // across runs/PRs stay distinguishable.
    const std::string run_id =
        std::to_string(std::time(nullptr)) + "-" + std::to_string(getpid());
    std::ostringstream body;
    // Full round-trip precision: the checksum column is a bit-exactness
    // record, not a display value.
    body.precision(std::numeric_limits<double>::max_digits10);
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      const Row& r = rows_[i];
      body << "  {\"run\": \"" << run_id << "\", \"app\": \""
           << json_escape(r.app) << "\", \"system\": \""
           << json_escape(r.system) << "\", \"size\": \""
           << json_escape(r.size) << "\", \"transport\": \""
           << json_escape(r.transport) << "\", \"backend\": \""
           << json_escape(r.backend) << "\", \"nprocs\": " << r.nprocs
           << ", \"speedup\": " << r.speedup
           << ", \"seconds\": " << r.seconds
           << ", \"host_wall_s\": " << r.host_wall_s
           << ", \"host_cpu_s\": " << r.host_cpu_s;
      // Registry-driven columns, grouped by layer to preserve the
      // historical key order: host costs right after host_cpu_s, DSM
      // observables after the mode labels.
      for (const runner::ctr::Desc& d : runner::ctr::kRegistry)
        if (d.layer == runner::ctr::Layer::kHost)
          body << ", \"" << d.json_key << "\": " << r.ctrs[d.id];
      body << ", \"messages\": " << r.messages
           << ", \"kbytes\": " << r.kbytes
           << ", \"update_mode\": \"" << json_escape(r.update_mode)
           << "\", \"racecheck\": \"" << json_escape(r.racecheck) << "\"";
      for (const runner::ctr::Desc& d : runner::ctr::kRegistry)
        if (d.layer == runner::ctr::Layer::kDsm)
          body << ", \"" << d.json_key << "\": " << r.ctrs[d.id];
      body << ", \"checksum\": " << r.checksum << "}";
      if (i + 1 < rows_.size()) body << ",\n";
    }
    std::string out;
    const std::size_t close = existing.rfind(']');
    if (close != std::string::npos) {
      // Merge: drop the closing bracket, append after the last row.
      std::string head = existing.substr(0, close);
      while (!head.empty() &&
             (head.back() == '\n' || head.back() == ' ' ||
              head.back() == '\t'))
        head.pop_back();
      const bool empty_array = !head.empty() && head.back() == '[';
      out = head + (empty_array ? "\n" : ",\n") + body.str() + "\n]\n";
    } else {
      out = "[\n" + body.str() + "\n]\n";
    }
    std::ofstream of(path, std::ios::trunc);
    of << out;
  }

  [[nodiscard]] const std::vector<Row>& rows() const { return rows_; }

 private:
  static std::string json_escape(const std::string& s) {
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      out.push_back(c);
    }
    return out;
  }

  std::vector<Row> rows_;
};

/// Messages/bytes counted for a run: DSM traffic for the shared-memory
/// systems, PVMe traffic for the message-passing ones.
inline void fill_traffic(Row& row, apps::System system,
                         const runner::RunResult& r) {
  const mpl::Layer layer = (system == apps::System::kXhpf ||
                            system == apps::System::kPvme)
                               ? mpl::Layer::kPvme
                               : mpl::Layer::kTmk;
  row.messages = r.messages(layer);
  row.kbytes = r.kbytes(layer);
}

/// Records one completed (app, system) run; `seq_seconds` is the app's
/// sequential baseline in modelled seconds.
inline Row record(const std::string& app, apps::System system, int nprocs,
                  double seq_seconds, const runner::RunResult& r,
                  const std::string& size = {}) {
  Row row;
  row.app = app;
  row.system = apps::to_string(system);
  row.size = size;
  row.transport = mpl::to_string(r.transport);
  row.backend = runner::to_string(r.backend);
  row.nprocs = nprocs;
  row.seconds = r.seconds();
  row.speedup = (r.seconds() > 0) ? seq_seconds / r.seconds() : 0.0;
  row.host_wall_s = r.host_wall_s;
  row.host_cpu_s = static_cast<double>(r.total_cpu_ns) * 1e-9;
  row.ctrs = r.total_ctrs;
  row.checksum = r.checksum;
  // Mode labels come from the snapshot the run's ranks consumed
  // (normalized spelling; garbage values label as the "off" the run
  // actually used).
  row.update_mode = tmk::to_string(r.config.update_mode);
  row.racecheck = tmk::to_string(r.config.racecheck);
  fill_traffic(row, system, r);
  Report::instance().add(row);
  return row;
}

/// "Jacobi 6.99/7.13/7.39/7.55 (SPF/Tmk, Tmk, XHPF, PVMe)" — the paper's
/// reference speedups for the systems the workload implements.
inline std::string paper_reference_line(const apps::Workload& w,
                                        const std::vector<apps::System>& systems) {
  std::string values = w.name + " ";
  std::string names;
  bool first = true;
  for (apps::System s : systems) {
    if (!first) {
      values += '/';
      names += ", ";
    }
    first = false;
    const apps::Workload::PaperSpeedup* v = w.find_paper_speedup(s);
    if (v == nullptr) {
      values += '?';
    } else {
      if (v->estimated) values += '~';  // read off a figure, not printed
      values += common::TextTable::num(v->speedup, 2);
    }
    names += apps::to_string(s);
  }
  return values + " (" + names + ")";
}

/// Footer shared by the speedup benches: one reference line per workload
/// of the class, straight from the registry.
inline void print_paper_reference(apps::WorkloadClass cls) {
  std::cout << "\npaper reference (8 processors):\n";
  for (const apps::Workload& w : apps::all_workloads())
    if (w.cls == cls)
      std::cout << "  " << paper_reference_line(w, w.paper_systems()) << "\n";
}

}  // namespace bench
