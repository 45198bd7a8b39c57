// tmkbench: the repository benchmark.
//
// Four workloads, each isolating one access pattern of the system (see
// README.md for why each was chosen and its baseline numbers), all at a
// fixed setup: 4 ranks on the process backend over the shm transport,
// the SP/2 machine model with compute charged at zero, and the default
// tmk::Config. The benchmark measures defaults only, so it refuses to
// start when any TMK_* variable is set.
//
// One workload run: warm-up reps, then timed reps until the time budget
// is spent, with a set-up sample (a 4-rank spawn that builds a
// tmk::Runtime, passes one barrier and shuts down) before every fourth.
// Each timed rep and set-up sample is followed by the host reference
// kernel, and end-to-end times are reported at the reference's nominal
// speed (see kReferenceNominalS). With --trace the run also takes
// traced reps, reps under a model that charges compute, and the unit-cost probe kernels (probes.hpp), and
// writes every span as Chrome trace-event JSON. The sequential checksum
// is computed last and every rep's checksum is checked against it
// within the registry tolerance.
//
// Output: one "metric <workload> <name> <value> <unit> n=<samples>"
// line per metric, printed after the last spawn, then one JSON object
// on the last line: {"correct", "attempted", "failed", "metrics"}.
// The JSON carries the end-to-end metrics, or with --trace the
// per-layer ones. Exits 1 when any run failed or missed its checksum.
//
//   tmkbench [--workload NAME] [--seed N] [--seconds S]
//            [--trace 0|1|PATH] [--reps N]
#include <malloc.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <any>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "apps/fft3d.hpp"
#include "apps/jacobi.hpp"
#include "apps/mgs.hpp"
#include "apps/registry.hpp"
#include "common/checksum.hpp"
#include "common/cpu_clock.hpp"
#include "probes.hpp"
#include "tmk/runtime.hpp"
#include "trace.hpp"

extern "C" char** environ;  // NOLINT(readability-redundant-declaration)

namespace {

using common::wall_ns;
using tmkbench::SharedArea;
using tmkbench::SpanName;

constexpr int kRanks = 4;
/// A VM can hand out CPUs slowly after idling (on the 4-vCPU VM of the
/// README baselines a 4-thread loop ran at a quarter of its speed for
/// its first second), so the warm-up is timed as well as counted.
constexpr int kWarmupReps = 3;
constexpr double kWarmupSeconds = 2.0;
/// p90 then has at least 10 samples beyond it.
constexpr int kMinTimedReps = 100;
constexpr int kMinTracedReps = 10;
constexpr int kMinSimReps = 5;
constexpr int kSetupEvery = 4;
/// Compute scale of the traced run's modelled-time reps: the paper's
/// numbers need compute charged, but scaled host CPU is too noisy to
/// gate, so these are reported only.
constexpr double kSimCpuScale = 80.0;

double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(wall_ns() - t0_ns) * 1e-9;
}

// ---- host speed --------------------------------------------------------

/// The speed of a shared VM drifts: on the 4-vCPU VM of the README
/// baselines, the wall p50 of ten runs of the same code ranged over a
/// factor of 2.2 within minutes, with almost no steal time to show for
/// it. So every timed launch is followed by a reference kernel of the
/// benchmark's own, and an end-to-end time is reported as measured ×
/// kReferenceNominalS ÷ the reference's time right after it: seconds
/// at the speed at which the reference takes 10 ms (9.5-13.3 ms on that
/// VM). No DSM code runs in the reference, so a change to the DSM
/// cannot move it.
constexpr double kReferenceNominalS = 0.010;
constexpr int kReferenceSweeps = 40;

/// The reference kernel: kRanks forked processes each allocate 512 KiB
/// and run the same stencil sweeps over it, and the time is from the
/// first fork to the last one reaped, so it slows with the host's
/// per-core speed and with how many of its cores the host hands out.
/// The buffer lives only in the children: pages the benchmark process
/// touches would count in the resident set of every rank it forks.
double reference_s() {
  const std::uint64_t t0 = wall_ns();
  std::vector<pid_t> pids;
  for (int i = 0; i < kRanks; ++i) {
    const pid_t pid = fork();
    if (pid == 0) {
      std::vector<double> buf(std::size_t{1} << 16, 1.0);
      double acc = 0;
      for (int k = 0; k < kReferenceSweeps; ++k)
        for (std::size_t j = 1; j + 1 < buf.size(); ++j) {
          buf[j] = 0.5 * buf[j] + 0.25 * (buf[j - 1] + buf[j + 1]);
          acc += buf[j];
        }
      _exit(std::isfinite(acc) ? 0 : 1);
    }
    if (pid < 0) break;
    pids.push_back(pid);
  }
  bool ok = pids.size() == static_cast<std::size_t>(kRanks);
  for (const pid_t pid : pids) {
    int status = 0;
    ok = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0 && ok;
  }
  if (!ok) {
    std::fprintf(stderr, "tmkbench: the host reference kernel failed\n");
    std::exit(1);
  }
  return seconds_since(t0);
}

/// `measured_s` at the reference's nominal speed.
double at_reference_speed(double measured_s, double reference_s) {
  return measured_s * kReferenceNominalS / reference_s;
}

// ---- workloads ---------------------------------------------------------

struct BenchWorkload {
  const char* name;
  const char* key;  // apps registry key
  apps::System system;
  mpl::Layer traffic;  // layer whose messages and kbytes are reported
  std::any (*params)(std::uint64_t seed);
};

std::any jacobi_spf_params(std::uint64_t /*seed*/) {
  apps::JacobiParams p;  // the paper's fixed boundary problem: no seed
  p.n = 2048;
  p.iters = 1;
  p.warmup_iters = 1;
  return p;
}

/// One FFT problem for both systems, so fft-spf and fft-pvme compare the
/// DSM with message passing on the same inputs, as the paper does.
std::any fft_params(std::uint64_t seed) {
  apps::FftParams p;
  p.nx = 128;
  p.ny = 128;
  p.nz = 64;
  p.iters = 1;
  p.warmup_iters = 0;
  p.seed = seed;
  return p;
}

/// 63 steps put the run's only epoch-GC round (barrier 64) on the last
/// step, after which no rank writes. A GC round inside the step loop
/// force-fetches vectors their owners are orthogonalizing, which races
/// with the lazy diff flush and loses writes (README.md, caveats).
std::any mgs_tmk_params(std::uint64_t seed) {
  apps::MgsParams p;
  p.n = 63;
  p.m = 4096;
  p.seed = seed;
  return p;
}

// jacobi-spf: compiler-generated code, write-fault/twin dominated.
// fft-spf: all-to-all transpose, read/fetch dominated. The hand-coded
//   Tmk variant is left out: its one page of per-rank partial sums has
//   four writers, and a lazy diff flush of that page can let a rank read
//   it stale (README.md, caveats).
// mgs-tmk: one barrier and one one-to-all pivot page-in per step.
// fft-pvme: fft-spf's problem as pure message passing; every tmk change
//   should leave it be. The latency-bound PVMe Jacobi (120,000 small
//   messages per run) is left out: its run-to-run spread went past the
//   wall-time bound (README.md, caveats).
const BenchWorkload kWorkloads[] = {
    {"jacobi-spf", "jacobi", apps::System::kSpf, mpl::Layer::kTmk,
     &jacobi_spf_params},
    {"fft-spf", "fft", apps::System::kSpf, mpl::Layer::kTmk, &fft_params},
    {"mgs-tmk", "mgs", apps::System::kTmk, mpl::Layer::kTmk, &mgs_tmk_params},
    {"fft-pvme", "fft", apps::System::kPvme, mpl::Layer::kPvme, &fft_params},
};

// ---- arguments ---------------------------------------------------------

struct Args {
  std::vector<const BenchWorkload*> workloads;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int reps = 0;  // > 0: fixed rep counts in place of the time budget
  bool trace = false;
  std::string trace_path;  // empty: next to the binary
};

[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr,
               "tmkbench: %s\nusage: tmkbench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace 0|1|PATH] [--reps N]\nworkloads:",
               msg.c_str());
  for (const BenchWorkload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double parse_number(const std::string& flag, const std::string& v) {
  char* end = nullptr;
  const double d = std::strtod(v.c_str(), &end);
  if (v.empty() || *end != '\0' || !(d >= 0))
    usage_error("bad value for " + flag + ": '" + v + "'");
  return d;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    std::string value;
    if (const auto eq = flag.find('='); eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag.resize(eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      usage_error("missing value for " + flag);
    }
    if (flag == "--workload") {
      const BenchWorkload* found = nullptr;
      for (const BenchWorkload& w : kWorkloads)
        if (value == w.name) found = &w;
      if (found == nullptr) usage_error("unknown workload '" + value + "'");
      a.workloads.push_back(found);
    } else if (flag == "--seed") {
      a.seed = static_cast<std::uint64_t>(parse_number(flag, value));
    } else if (flag == "--seconds") {
      a.seconds = parse_number(flag, value);
    } else if (flag == "--reps") {
      a.reps = static_cast<int>(parse_number(flag, value));
    } else if (flag == "--trace") {
      a.trace = value != "0";
      if (value != "0" && value != "1") a.trace_path = value;
    } else {
      usage_error("unknown argument '" + flag + "'");
    }
  }
  if (a.workloads.empty())
    for (const BenchWorkload& w : kWorkloads) a.workloads.push_back(&w);
  return a;
}

/// Address-space randomization places every process's mappings anew,
/// which changes how many pages the ranks touch (a PVMe Jacobi rank's
/// 2 MiB RSS moved by up to 7% between runs), so the benchmark executes
/// itself again once with it off. Failing that, it runs as it is.
void fix_address_layout(char** argv) {
  const int persona = personality(0xffffffff);
  if (persona == -1 || (persona & ADDR_NO_RANDOMIZE) != 0) return;
  if (personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) ==
      -1)
    return;
  execv("/proc/self/exe", argv);
  std::perror("tmkbench: running with address randomization; re-exec");
}

/// The benchmark measures the defaults: a TMK_* knob would silently
/// change what every number means.
void refuse_tmk_environment() {
  for (char** e = environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (!kv.starts_with("TMK_")) continue;
    std::fprintf(stderr,
                 "tmkbench: refusing to run with %.*s set; the benchmark "
                 "measures defaults only (unset it)\n",
                 static_cast<int>(kv.find('=')), kv.data());
    std::exit(2);
  }
}

// ---- statistics --------------------------------------------------------

/// Linear-interpolation quantile (numpy's default); NaN when empty.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  if (lo + 1 >= v.size()) return v.back();
  return v[lo] + (pos - static_cast<double>(lo)) * (v[lo + 1] - v[lo]);
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double iqr_frac(const std::vector<double>& v) {
  return (quantile(v, 0.75) - quantile(v, 0.25)) / quantile(v, 0.5);
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// ---- spawning ----------------------------------------------------------

runner::SpawnOptions spawn_options(double cpu_scale) {
  runner::SpawnOptions o;
  o.model = simx::MachineModel{};  // SP/2 constants; no env override
  o.model.cpu_scale = cpu_scale;
  o.backend = runner::Backend::kProcess;
  o.transport = mpl::TransportKind::kShm;
  o.tmk_config = tmk::Config{};
  o.timeout_sec = 60;
  return o;
}

struct Launch {
  bool ok = false;
  runner::RunResult result;
  std::uint64_t t0 = 0;
  std::uint64_t t1 = 0;
  std::uint32_t run = 0;
  [[nodiscard]] double wall_s() const {
    return static_cast<double>(t1 - t0) * 1e-9;
  }
};

/// Launches runs and keeps the books: run ids, attempted and failed
/// counts, and (traced) the run span of each launch.
class Launcher {
 public:
  Launcher(SharedArea& area, bool trace) : area_(area), trace_(trace) {}

  /// Runs `fn(run_id)`, which spawns ranks. Stdio is flushed first: a
  /// forked rank flushes its inherited stdio buffers when it exits, so
  /// any unflushed output would be printed once per rank.
  Launch launch(const std::string& label,
                const std::function<runner::RunResult(std::uint32_t)>& fn) {
    Launch l;
    l.run = static_cast<std::uint32_t>(labels_.size());
    labels_.push_back(label);
    std::fflush(nullptr);
    l.t0 = wall_ns();
    try {
      l.result = fn(l.run);
      l.ok = true;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "tmkbench: %s failed: %s\n", label.c_str(),
                   e.what());
    }
    l.t1 = wall_ns();
    ++attempted_;
    if (!l.ok) ++failed_;
    if (trace_) area_.record(l.run, SpanName::kRun, -1, l.t0, l.t1);
    return l;
  }

  /// Counts a launch that ran but produced a wrong result.
  void mark_wrong(const std::string& what) {
    std::fprintf(stderr, "tmkbench: wrong output: %s\n", what.c_str());
    ++failed_;
  }

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& labels() const {
    return labels_;
  }

 private:
  SharedArea& area_;
  bool trace_;
  std::vector<std::string> labels_;  // indexed by run id
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// ---- one workload ------------------------------------------------------

/// What one rep of a workload measured.
struct Rep {
  double wall_s = 0;
  double cpu_s = 0;
  double reference_s = 0;  // timed reps: the reference kernel after it
  double vt_s = 0;
  double vt_skew = 0;
  double messages = 0;
  double kbytes = 0;
  double rank_rss_mib = 0;
  double transport_s = 0;
  runner::ctr::Block ctrs{};
  // Traced reps only: per-rank spans averaged over the ranks.
  double spawn_s = 0;
  double rank_run_s = 0;
  double teardown_s = 0;
  double rank_skew = 0;
};

template <typename F>
std::vector<double> column(const std::vector<Rep>& reps, F f) {
  std::vector<double> out;
  out.reserve(reps.size());
  for (const Rep& r : reps) out.push_back(f(r));
  return out;
}

template <typename F>
double median_of(const std::vector<Rep>& reps, F f) {
  return median(column(reps, f));
}

double counter(const Rep& r, runner::ctr::Id id) {
  return static_cast<double>(r.ctrs[id]);
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::size_t n;
};

struct WorkloadResult {
  const BenchWorkload* w = nullptr;
  std::string size;
  double seq_checksum = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;
};

std::uint64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

double setup_kernel(runner::ChildContext& ctx) {
  tmk::Runtime rt(ctx);
  rt.barrier();
  rt.shutdown();
  return 1.0;
}

class WorkloadRunner {
 public:
  WorkloadRunner(const Args& args, const BenchWorkload& bw, SharedArea& area,
                 Launcher& launcher)
      : args_(args),
        bw_(bw),
        area_(area),
        launcher_(launcher),
        w_(apps::find_workload(bw.key)),
        variant_(*w_.find(bw.system)),
        params_(bw.params(args.seed)) {}

  WorkloadResult run() {
    const runner::SpawnOptions timed = spawn_options(0.0);
    const std::uint64_t warm0 = wall_ns();
    for (int i = 0; i < kWarmupReps ||
                    (args_.reps == 0 && seconds_since(warm0) < kWarmupSeconds);
         ++i)
      (void)rep(timed, false);

    // Untraced reps get the whole budget, or 30% of it beside the
    // traced, compute-charging and probe phases of a traced run.
    untraced_ =
        args_.trace
            ? reps_for(timed, false, args_.seconds * 0.3, kMinTracedReps, true)
            : reps_for(timed, false, args_.seconds, kMinTimedReps, true);
    if (args_.trace) {
      traced_ = reps_for(timed, true, args_.seconds * 0.3, kMinTracedReps,
                         false);
      const runner::SpawnOptions sim = spawn_options(kSimCpuScale);
      sim_ = reps_for(sim, false, args_.seconds * 0.2, kMinSimReps, false);
      const Launch seq = launcher_.launch("seq", [&](std::uint32_t) {
        return apps::run_workload(w_, apps::System::kSeq, 1, sim, params_);
      });
      if (seq.ok) {
        checksums_.push_back(seq.result.checksum);
        sim_seq_s_ = seq.result.seconds();
      }
      run_probes();
    }

    // The sequential reference runs last, in this process, and hands its
    // memory back: ranks forked after it would inherit its footprint.
    const std::uint64_t seq_t0 = wall_ns();
    seq_checksum_ = w_.seq(params_, nullptr);
    seq_s_ = seconds_since(seq_t0);
    malloc_trim(0);
    for (const double c : checksums_) {
      if (checksum_ok(c)) continue;
      char buf[160];
      std::snprintf(buf, sizeof(buf), "%s checksum %.17g, sequential %.17g",
                    bw_.name, c, seq_checksum_);
      launcher_.mark_wrong(buf);
    }

    WorkloadResult res;
    res.w = &bw_;
    res.size = w_.describe(params_);
    res.seq_checksum = seq_checksum_;
    res.end_to_end = end_to_end();
    res.info = info();
    if (args_.trace) res.per_layer = per_layer();
    return res;
  }

 private:
  void setup_sample() {
    const runner::SpawnOptions o = spawn_options(0.0);
    const Launch l = launcher_.launch("setup", [&](std::uint32_t) {
      return runner::spawn(kRanks, o, setup_kernel);
    });
    if (!l.ok) return;
    if (l.result.checksum != 1.0) {
      launcher_.mark_wrong("setup spawn");
      return;
    }
    setup_s_.push_back(at_reference_speed(l.wall_s(), reference_s()));
  }

  bool checksum_ok(double got) const {
    return variant_.tolerance == 0.0
               ? got == seq_checksum_
               : common::checksum_close(got, seq_checksum_,
                                        variant_.tolerance);
  }

  /// One workload run through Variant::run; its checksum is checked
  /// once the sequential one is known. Traced reps stamp each rank's
  /// entry to and exit from Variant::run.
  std::optional<Rep> rep(const runner::SpawnOptions& opts, bool traced) {
    area_.clear_slots();
    const Launch l = launcher_.launch(bw_.name, [&](std::uint32_t) {
      return runner::spawn(kRanks, opts, [&](runner::ChildContext& ctx) {
        SharedArea::RankSlot& slot = area_.slot(ctx.endpoint.rank());
        if (traced) slot.start_ns.store(wall_ns(), std::memory_order_relaxed);
        const double sum = variant_.run(ctx, params_);
        if (traced) slot.end_ns.store(wall_ns(), std::memory_order_relaxed);
        slot.rss_kib.store(peak_rss_kib(), std::memory_order_relaxed);
        return sum;
      });
    });
    if (!l.ok) return std::nullopt;
    const runner::RunResult& r = l.result;
    checksums_.push_back(r.checksum);
    Rep out;
    out.wall_s = l.wall_s();
    out.cpu_s = static_cast<double>(r.total_cpu_ns) * 1e-9;
    out.vt_s = r.seconds();
    out.messages = static_cast<double>(r.messages(bw_.traffic));
    out.kbytes = r.kbytes(bw_.traffic);
    out.transport_s = static_cast<double>(r.total_host_transport_ns) * 1e-9;
    out.ctrs = r.total_ctrs;
    std::uint64_t vt_min = UINT64_MAX, vt_max = 0, rss_max = 0;
    for (const runner::ProcReport& p : r.procs) {
      vt_min = std::min(vt_min, p.vt_ns);
      vt_max = std::max(vt_max, p.vt_ns);
      rss_max = std::max(rss_max, area_.slot(static_cast<int>(p.rank))
                                      .rss_kib.load(std::memory_order_relaxed));
    }
    out.vt_skew =
        ratio(static_cast<double>(vt_max), static_cast<double>(vt_min));
    out.rank_rss_mib = static_cast<double>(rss_max) / 1024.0;
    if (traced) add_rank_spans(l, out);
    return out;
  }

  /// Splits a traced rep's wall at each rank's Variant::run entry and
  /// exit: spawn + rank_run + teardown is the run's wall on every rank.
  void add_rank_spans(const Launch& l, Rep& out) {
    double run_min = INFINITY, run_max = 0;
    for (int rank = 0; rank < kRanks; ++rank) {
      const SharedArea::RankSlot& s = area_.slot(rank);
      const std::uint64_t start = s.start_ns.load(std::memory_order_relaxed);
      const std::uint64_t end = s.end_ns.load(std::memory_order_relaxed);
      area_.record(l.run, SpanName::kSpawn, rank, l.t0, start);
      area_.record(l.run, SpanName::kRankRun, rank, start, end);
      area_.record(l.run, SpanName::kTeardown, rank, end, l.t1);
      const double run_s = static_cast<double>(end - start) * 1e-9;
      out.spawn_s += static_cast<double>(start - l.t0) * 1e-9 / kRanks;
      out.rank_run_s += run_s / kRanks;
      out.teardown_s += static_cast<double>(l.t1 - end) * 1e-9 / kRanks;
      run_min = std::min(run_min, run_s);
      run_max = std::max(run_max, run_s);
    }
    out.rank_skew = ratio(run_max, run_min);
  }

  /// Reps until `budget_s` has passed and `min_reps` are done (exactly
  /// --reps of them when given). The reps the end-to-end metrics come
  /// from (`timed`) are each followed by the host reference kernel, and
  /// a set-up sample comes before every kSetupEvery-th, so set-up is
  /// sampled across the same stretch of time as the reps.
  std::vector<Rep> reps_for(const runner::SpawnOptions& opts, bool traced,
                            double budget_s, int min_reps, bool timed) {
    std::vector<Rep> reps;
    const std::uint64_t start = wall_ns();
    for (int i = 0;; ++i) {
      const bool done = args_.reps > 0 ? i >= args_.reps
                                       : i >= min_reps &&
                                             seconds_since(start) >= budget_s;
      if (done) break;
      if (timed && i % kSetupEvery == 0) setup_sample();
      if (auto r = rep(opts, traced)) {
        if (timed) r->reference_s = reference_s();
        reps.push_back(*r);
      }
    }
    return reps;
  }

  std::vector<Metric> end_to_end() const {
    const std::vector<Rep>& reps = untraced_;
    const std::size_t n = reps.size();
    const auto walls = column(reps, [](const Rep& r) {
      return at_reference_speed(r.wall_s, r.reference_s);
    });
    return {
        {"wall_p50_s", quantile(walls, 0.5), "s", n},
        {"wall_p90_s", quantile(walls, 0.9), "s", n},
        {"host_cpu_s", median_of(reps, [](const Rep& r) {
           return at_reference_speed(r.cpu_s, r.reference_s);
         }),
         "s", n},
        {"messages", median_of(reps, [](const Rep& r) { return r.messages; }),
         "count", n},
        {"kbytes", median_of(reps, [](const Rep& r) { return r.kbytes; }),
         "KiB", n},
        {"rank_rss_mib",
         median_of(reps, [](const Rep& r) { return r.rank_rss_mib; }), "MiB",
         n},
        {"setup_s", median(setup_s_), "s", setup_s_.size()},
    };
  }

  /// Printed but not part of the JSON result. The modelled time with
  /// compute charged at zero (protocol plus communication on the
  /// critical path) is a pure function of the message pattern on PVMe,
  /// so it repeats bit for bit there and cannot pass as a measured time.
  /// The wall time as measured and the reference kernel's time show how
  /// fast the host was during the run.
  std::vector<Metric> info() const {
    const std::size_t n = untraced_.size();
    return {
        {"modelled_overhead_s",
         median_of(untraced_, [](const Rep& r) { return r.vt_s; }), "s", n},
        {"wall_measured_p50_s",
         median_of(untraced_, [](const Rep& r) { return r.wall_s; }), "s",
         n},
        {"host_reference_s",
         median_of(untraced_, [](const Rep& r) { return r.reference_s; }),
         "s", n},
    };
  }

  std::vector<Metric> per_layer() const {
    using runner::ctr::Id;
    std::vector<Rep> all = untraced_;
    all.insert(all.end(), traced_.begin(), traced_.end());
    const std::size_t nt = traced_.size();
    const std::size_t na = all.size();
    std::vector<Metric> m;

    // Runner and apps: the traced reps' per-rank spans.
    const double rank_run_s =
        median_of(traced_, [](const Rep& r) { return r.rank_run_s; });
    m.push_back({"runner.spawn_s",
                 median_of(traced_, [](const Rep& r) { return r.spawn_s; }),
                 "s", nt});
    m.push_back({"runner.teardown_s",
                 median_of(traced_, [](const Rep& r) { return r.teardown_s; }),
                 "s", nt});
    m.push_back({"apps.rank_run_s", rank_run_s, "s", nt});
    m.push_back({"apps.rank_skew",
                 median_of(traced_, [](const Rep& r) { return r.rank_skew; }),
                 "ratio", nt});

    // tmk and mpl counts from every rep's RunResult.
    auto ctr = [&](Id id) {
      return median_of(all, [id](const Rep& r) { return counter(r, id); });
    };
    const double faults = ctr(Id::kPageFaults);
    const double requests = ctr(Id::kDiffRequests);
    m.push_back({"tmk.page_faults", faults, "count", na});
    m.push_back({"tmk.diff_requests", requests, "count", na});
    m.push_back({"tmk.fetch_per_fault", median_of(all, [](const Rep& r) {
                   return ratio(counter(r, Id::kDiffRequests),
                                counter(r, Id::kPageFaults));
                 }),
                 "ratio", na});
    m.push_back({"tmk.intervals_reclaimed", ctr(Id::kIntervalsReclaimed),
                 "count", na});
    m.push_back({"tmk.protocol_rss_mib",
                 ctr(Id::kProtocolRssBytes) / (1024.0 * 1024.0), "MiB", na});
    m.push_back({"tmk.diff_push", ctr(Id::kDiffPush), "count", na});
    m.push_back({"tmk.push_hit_ratio", median_of(all, [](const Rep& r) {
                   return ratio(counter(r, Id::kPushHits),
                                counter(r, Id::kDiffPush));
                 }),
                 "ratio", na});
    m.push_back({"mpl.host_send_calls", ctr(Id::kHostSendCalls), "count", na});
    m.push_back({"mpl.host_futex_wakes", ctr(Id::kHostFutexWakes), "count",
                 na});
    m.push_back({"mpl.host_transport_s",
                 median_of(all, [](const Rep& r) { return r.transport_s; }),
                 "s", na});

    // Unit costs: p50 over each probe's spans.
    auto unit = [&](const char* name, SpanName span, double scale,
                    const char* u) {
      const std::vector<double> us = probe_us(span);
      m.push_back({name, median(us) * scale, u, us.size()});
      return m.back().value;
    };
    const double write_fault_us =
        unit("tmk.write_fault_us", SpanName::kWriteFault, 1, "us");
    unit("tmk.read_fault_us", SpanName::kReadFault, 1, "us");
    unit("tmk.validate_page_us", SpanName::kValidate64,
         1.0 / tmkbench::kValidatePages, "us");
    unit("tmk.barrier_us", SpanName::kBarrier, 1, "us");
    unit("tmk.barrier_dirty64_us", SpanName::kBarrierDirty64, 1, "us");
    const std::vector<double> gc = probe_us(SpanName::kGcBarrier);
    m.push_back({"tmk.gc_barrier_us",
                 median(gc) - median(probe_us(SpanName::kPreGcBarrier)), "us",
                 gc.size()});
    unit("tmk.lock_handoff_us", SpanName::kLockAcquire, 1, "us");
    unit("tmk.diff_make_ns", SpanName::kDiffMake, 1e3 / tmkbench::kDiffBatch,
         "ns");
    unit("tmk.diff_apply_ns", SpanName::kDiffApply,
         1e3 / tmkbench::kDiffBatch, "ns");
    unit("spf.parallel_us", SpanName::kSpfParallel, 1, "us");
    const double rt64_us =
        unit("mpl.roundtrip_64b_us", SpanName::kRoundtrip64, 1, "us");
    const double rt4k_us =
        unit("mpl.roundtrip_4k_us", SpanName::kRoundtrip4k, 1, "us");

    const auto vts = column(sim_, [](const Rep& r) { return r.vt_s; });
    const std::size_t ns = sim_.size();
    m.push_back({"sim.modelled_s", median(vts), "s", ns});
    m.push_back({"sim.modelled_iqr_frac", iqr_frac(vts), "ratio", ns});
    m.push_back({"sim.speedup", ratio(sim_seq_s_, median(vts)), "ratio", ns});
    m.push_back({"sim.vt_skew",
                 median_of(sim_, [](const Rep& r) { return r.vt_skew; }),
                 "ratio", ns});

    // Layer costs that should add up to the ranks' busy time: the
    // sequential compute, every fault at the write-fault cost, every
    // diff request as a 4 KiB round trip, and every other message as
    // half a 64 B round trip.
    const double messages =
        median_of(all, [](const Rep& r) { return r.messages; });
    const double accounted_s =
        seq_s_ + (faults * write_fault_us + requests * rt4k_us +
                  std::max(0.0, messages - 2 * requests) * rt64_us / 2) *
                     1e-6;
    m.push_back({"layers.accounted_frac",
                 ratio(accounted_s, kRanks * rank_run_s), "ratio", nt});

    auto wall_p50 = [](const std::vector<Rep>& v) {
      return median_of(v, [](const Rep& r) { return r.wall_s; });
    };
    m.push_back({"trace.overhead_frac",
                 ratio(wall_p50(traced_), wall_p50(untraced_)), "ratio", nt});
    return m;
  }

  void run_probes() {
    const runner::SpawnOptions o = spawn_options(0.0);
    auto probe = [&](const char* label, int nprocs,
                     double (*kernel)(runner::ChildContext&, SharedArea&,
                                      std::uint32_t)) {
      const Launch l = launcher_.launch(label, [&](std::uint32_t run) {
        return runner::spawn(nprocs, o, [&](runner::ChildContext& ctx) {
          return kernel(ctx, area_, run);
        });
      });
      if (l.ok && l.result.checksum != 1.0) launcher_.mark_wrong(label);
      probe_runs_.push_back(l.run);
    };
    probe("probe:tmk", kRanks, &tmkbench::tmk_probe);
    probe("probe:spf", kRanks, &tmkbench::spf_probe);
    probe("probe:mpl", tmkbench::kPingPongRanks, &tmkbench::mpl_probe);
    const Launch l = launcher_.launch("probe:diff", [&](std::uint32_t run) {
      runner::RunResult r;
      r.checksum = tmkbench::diff_probe(area_, run, args_.seed);
      return r;
    });
    if (l.ok && l.result.checksum != 1.0) launcher_.mark_wrong("probe:diff");
    probe_runs_.push_back(l.run);
  }

  /// Durations (us) of this workload's probe spans of one kind.
  std::vector<double> probe_us(SpanName name) const {
    std::vector<double> us;
    for (const tmkbench::Span& s : area_.spans())
      if (s.name == name &&
          std::find(probe_runs_.begin(), probe_runs_.end(), s.run) !=
              probe_runs_.end())
        us.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3);
    return us;
  }

  const Args& args_;
  const BenchWorkload& bw_;
  SharedArea& area_;
  Launcher& launcher_;
  const apps::Workload& w_;
  const apps::Variant& variant_;
  const std::any params_;
  std::vector<Rep> untraced_;
  std::vector<Rep> traced_;
  std::vector<Rep> sim_;
  std::vector<double> setup_s_;
  std::vector<double> checksums_;  // every rep's, checked at the end
  std::vector<std::uint32_t> probe_runs_;
  double sim_seq_s_ = 0;
  double seq_checksum_ = 0;
  double seq_s_ = 0;
};

// ---- output ------------------------------------------------------------

std::string default_trace_path(const Args& args) {
  const std::string name =
      args.workloads.size() == 1 ? args.workloads[0]->name : "all";
  return (std::filesystem::read_symlink("/proc/self/exe").parent_path() /
          ("trace-" + name + ".json"))
      .string();
}

/// Chrome trace-event JSON: one complete ("X") event per span, the
/// benchmark process on tid 0 and rank r on tid r + 1. Every span but a
/// run names its parent, and all spans of one spawn carry its run id.
bool write_trace(const std::string& path, const SharedArea& area,
                 const std::vector<std::string>& labels) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t origin = UINT64_MAX;
  for (const tmkbench::Span& s : area.spans())
    origin = std::min(origin, s.t0_ns);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const tmkbench::Span& s : area.spans()) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"run\":%u,",
                 first ? "" : ",", tmkbench::to_string(s.name), s.rank + 1,
                 static_cast<double>(s.t0_ns - origin) * 1e-3,
                 static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3, s.run);
    if (s.name == SpanName::kRun)
      std::fprintf(f, "\"label\":\"%s\"}}", labels[s.run].c_str());
    else
      std::fprintf(f, "\"parent\":\"run\",\"rank\":%d}}", s.rank);
    first = false;
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void append_json_metric(std::string& out, const std::string& key,
                        const Metric& m) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                out.empty() ? "" : ", ", key.c_str(), m.value, m.unit.c_str());
  out += buf;
}

}  // namespace

int main(int argc, char** argv) {
  refuse_tmk_environment();
  const Args args = parse_args(argc, argv);
  fix_address_layout(argv);
  const tmk::Config cfg{};
  std::printf(
      "# tmkbench ranks=%d backend=process transport=shm model=sp2 "
      "cpu_scale=0 seed=%llu %s=%g trace=%s\n",
      kRanks, static_cast<unsigned long long>(args.seed),
      args.reps > 0 ? "reps" : "seconds",
      args.reps > 0 ? static_cast<double>(args.reps) : args.seconds,
      args.trace ? "on" : "off");
  std::printf(
      "# tmk::Config update_mode=%s racecheck=%s epoch_gc=%s "
      "epoch_gc_interval=%d barrier_arity=%s push_credits=%d\n",
      tmk::to_string(cfg.update_mode), tmk::to_string(cfg.racecheck),
      cfg.epoch_gc ? "on" : "off", cfg.epoch_gc_interval,
      cfg.barrier_arity == 0 ? "flat"
                             : std::to_string(cfg.barrier_arity).c_str(),
      cfg.push_credits);

  SharedArea area;
  Launcher launcher(area, args.trace);
  std::vector<WorkloadResult> results;
  for (const BenchWorkload* bw : args.workloads)
    results.push_back(WorkloadRunner(args, *bw, area, launcher).run());

  // Every spawn is done: only now is it safe to print the results.
  std::string json;
  for (const WorkloadResult& r : results) {
    std::printf("# workload %s: %s %s %s, sequential checksum %.17g\n",
                r.w->name, apps::find_workload(r.w->key).name.c_str(),
                apps::to_string(r.w->system), r.size.c_str(), r.seq_checksum);
    for (const auto* list : {&r.end_to_end, &r.info, &r.per_layer})
      for (const Metric& m : *list)
        std::printf("metric %s %s %.9g %s n=%zu\n", r.w->name, m.name.c_str(),
                    m.value, m.unit.c_str(), m.n);
    const std::string prefix =
        results.size() == 1 ? "" : std::string(r.w->name) + ".";
    for (const Metric& m : args.trace ? r.per_layer : r.end_to_end)
      if (std::isfinite(m.value)) append_json_metric(json, prefix + m.name, m);
  }
  std::printf("metric all failed_frac %.9g ratio n=%llu\n",
              ratio(static_cast<double>(launcher.failed()),
                    static_cast<double>(launcher.attempted())),
              static_cast<unsigned long long>(launcher.attempted()));

  bool trace_ok = true;
  if (args.trace) {
    const std::string path =
        args.trace_path.empty() ? default_trace_path(args) : args.trace_path;
    trace_ok =
        area.dropped() == 0 && write_trace(path, area, launcher.labels());
    std::printf("# trace %s: %zu spans%s\n", path.c_str(),
                area.spans().size(),
                trace_ok ? "" : " (not written, or spans dropped)");
  }

  const bool correct = launcher.failed() == 0 && trace_ok;
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      correct ? "true" : "false",
      static_cast<unsigned long long>(launcher.attempted()),
      static_cast<unsigned long long>(launcher.failed()), json.c_str());
  return correct ? 0 : 1;
}
