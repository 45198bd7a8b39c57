// Bench-smoke: the 2 -> 128 thread-backend scale sweep is an acceptance
// surface, not just a reporting convenience — this test drives the real
// bench_scale binary over the high-rank points and asserts the rows it
// appends to BENCH_results.json carry the backend/transport columns the
// perf-trajectory tooling keys on. Skips (rather than fails) when the
// bench binaries are not part of the build (sanitizer CI configures
// with TMK_BUILD_BENCHES=OFF).
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

std::string self_dir() {
  return fs::read_symlink("/proc/self/exe").parent_path().string();
}

TEST(BenchSmoke, ScaleSweepAppends64And128RowsWithBackendColumns) {
  const fs::path bench = fs::path(self_dir()) / "bench_scale";
  if (!fs::exists(bench))
    GTEST_SKIP() << "bench_scale not built (TMK_BUILD_BENCHES=OFF)";

  // Fresh working directory so the rows land in a file this test owns.
  const fs::path dir =
      fs::temp_directory_path() /
      ("tmk_bench_smoke." + std::to_string(::getpid()));
  fs::create_directories(dir);
  // Scrub the suite's own TMK_BACKEND (the ctest legs set it): the sweep
  // under test is the thread backend's, whatever the leg's backend.
  const std::string cmd =
      "cd '" + dir.string() + "' && env -u TMK_BACKEND '" +
      bench.string() +
      "' --backend=thread --nprocs-list=64,128"
      " --benchmark_filter='jacobi/Tmk' > bench.log 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_EQ(rc, 0) << "bench_scale failed; see " << (dir / "bench.log");

  std::ifstream in(dir / "BENCH_results.json");
  ASSERT_TRUE(in.good()) << "bench_scale wrote no BENCH_results.json";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // One row per swept nprocs, each carrying the backend and transport
  // fields the thread-backend sweep runs on.
  for (const char* frag :
       {"\"nprocs\": 64", "\"nprocs\": 128", "\"backend\": \"thread\"",
        "\"transport\": \"inproc\"", "\"app\": \"Jacobi\"",
        "\"system\": \"Tmk\"", "\"host_wall_s\": ",
        "\"host_send_calls\": ", "\"host_futex_wakes\": "}) {
    EXPECT_NE(json.find(frag), std::string::npos)
        << "missing " << frag << " in:\n"
        << json;
  }
  fs::remove_all(dir);
}

// The keys of one JSON row, in emission order: a quoted token directly
// followed by ':' is a key; any other quoted token is a string value.
std::vector<std::string> row_keys(const std::string& row) {
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] != '"') continue;
    const std::size_t end = row.find('"', i + 1);
    if (end == std::string::npos) break;
    std::size_t after = end + 1;
    while (after < row.size() && row[after] == ' ') ++after;
    if (after < row.size() && row[after] == ':')
      keys.push_back(row.substr(i + 1, end - i - 1));
    i = end;
  }
  return keys;
}

TEST(BenchSmoke, JsonRowColumnOrderIsPinned) {
  // The BENCH_results.json schema is an external surface: the perf
  // trajectory tooling diffs rows across PRs positionally. The counter
  // registry (runner/counters.hpp) generates the column blocks, so this
  // pin is what turns "someone reordered kRegistry" from a silent
  // downstream breakage into a test failure.
  const fs::path bench = fs::path(self_dir()) / "bench_scale";
  if (!fs::exists(bench))
    GTEST_SKIP() << "bench_scale not built (TMK_BUILD_BENCHES=OFF)";

  const fs::path dir =
      fs::temp_directory_path() /
      ("tmk_bench_cols." + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string cmd =
      "cd '" + dir.string() + "' && env -u TMK_BACKEND '" +
      bench.string() +
      "' --backend=thread --nprocs-list=2"
      " --benchmark_filter='jacobi/Tmk' > bench.log 2>&1";
  const int rc = std::system(cmd.c_str());
  ASSERT_EQ(rc, 0) << "bench_scale failed; see " << (dir / "bench.log");

  std::ifstream in(dir / "BENCH_results.json");
  ASSERT_TRUE(in.good()) << "bench_scale wrote no BENCH_results.json";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  const std::size_t open = json.find('{');
  const std::size_t close = json.find('}', open);
  ASSERT_NE(open, std::string::npos);
  ASSERT_NE(close, std::string::npos);

  const std::vector<std::string> golden = {
      "run",           "app",
      "system",        "size",
      "transport",     "backend",
      "nprocs",        "speedup",
      "seconds",       "host_wall_s",
      "host_cpu_s",    "host_send_calls",
      "host_futex_wakes", "host_mprotect_calls", "messages",
      "kbytes",        "update_mode",
      "racecheck",     "diff_requests",
      "diff_replies",  "diff_push",
      "push_hits",     "push_waste",
      "page_faults",   "race_reports",
      "race_reports_dropped", "intervals_reclaimed",
      "protocol_rss_bytes", "twins_created",
      "diffs_created", "diff_bytes_created",
      "diffs_fetched", "checksum"};
  EXPECT_EQ(row_keys(json.substr(open, close - open + 1)), golden);
  fs::remove_all(dir);
}

}  // namespace
