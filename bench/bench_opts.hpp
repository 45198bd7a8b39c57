// Command-line options shared by every bench binary.
//
//   --backend={process,thread} execution backend for the ranks
//                              (overrides TMK_BACKEND; default process;
//                              the backend picks the ring mesh's
//                              placement, shm or inproc)
//   --nprocs-list=2,4,8,16,32  process counts for binaries that sweep
//                              process counts (bench_scale); others
//                              ignore it
//
// Call parse_bench_opts(argc, argv) BEFORE benchmark::Initialize: the
// recognized flags are consumed (removed from argv), everything else is
// left for google-benchmark. Unknown values exit with a usage message.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "mpl/frame.hpp"
#include "runner/runner.hpp"

namespace bench {

struct Opts {
  runner::Backend backend = runner::backend_from_env();
  std::vector<int> nprocs_list;  // empty = the binary's default sweep
};

inline Opts& opts() {
  static Opts o;
  return o;
}

[[noreturn]] inline void bench_opts_usage(const char* binary,
                                          const std::string& complaint) {
  std::fprintf(stderr,
               "%s: %s\n"
               "usage: %s [--backend={process,thread}]"
               " [--nprocs-list=N1,N2,...]   (1 <= N <= %d)\n"
               "       plus any google-benchmark flags\n",
               binary, complaint.c_str(), binary, mpl::kMaxProcs);
  std::exit(2);
}

inline void parse_bench_opts(int& argc, char** argv) {
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--backend=", 10) == 0) {
      const auto b = runner::parse_backend(arg + 10);
      if (!b)
        bench_opts_usage(argv[0], std::string("unknown backend '") +
                                      (arg + 10) + "'");
      opts().backend = *b;
      continue;
    }
    if (std::strncmp(arg, "--nprocs-list=", 14) == 0) {
      std::vector<int> list;
      const char* p = arg + 14;
      while (*p != '\0') {
        char* end = nullptr;
        const long v = std::strtol(p, &end, 10);
        if (end == p || v < 1 || v > mpl::kMaxProcs ||
            (*end != ',' && *end != '\0'))
          bench_opts_usage(argv[0], std::string("bad --nprocs-list '") +
                                        (arg + 14) + "'");
        list.push_back(static_cast<int>(v));
        p = (*end == ',') ? end + 1 : end;
      }
      if (list.empty())
        bench_opts_usage(argv[0], "--nprocs-list needs at least one count");
      opts().nprocs_list = std::move(list);
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  argv[argc] = nullptr;
}

}  // namespace bench
