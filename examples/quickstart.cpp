// Quickstart: the TreadMarks API in one page.
//
// Spawns four processes sharing one DSM heap, has each fill its block of
// a shared array, synchronizes with a barrier, uses a lock-guarded shared
// cell for a global reduction, and prints the result with the protocol
// counters — the whole public surface in ~70 lines. Exits 1 if the sum
// is wrong.
//
//   ./examples/quickstart [nprocs]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "runner/counters.hpp"
#include "runner/runner.hpp"
#include "tmk/runtime.hpp"

int main(int argc, char** argv) {
  const int nprocs = (argc > 1) ? std::atoi(argv[1]) : 4;
  constexpr std::size_t kPerProc = 4096;
  // Every value is a small integer, so the sum is exact in double.
  const double expected = kPerProc * (nprocs * (nprocs + 1)) / 2.0;

  runner::SpawnOptions options;
  options.model = simx::MachineModel::sp2();
  options.shared_heap_bytes = 64ull << 20;

  const runner::RunResult result = runner::spawn(
      nprocs, options, [expected](runner::ChildContext& ctx) -> double {
        tmk::Runtime tmk(ctx);

        // Every process performs the identical allocation sequence
        // (the Fortran-common-block discipline): same addresses
        // everywhere.
        double* values = tmk.alloc<double>(
            kPerProc * static_cast<std::size_t>(tmk.nprocs()));
        double* total = tmk.alloc<double>(1);

        // Phase 1: each process writes its own block. The first write to
        // each page takes a SIGSEGV, makes a twin, and proceeds at
        // memory speed.
        const std::size_t lo = kPerProc * static_cast<std::size_t>(tmk.rank());
        for (std::size_t i = 0; i < kPerProc; ++i)
          values[lo + i] = static_cast<double>(tmk.rank() + 1);

        // The barrier publishes the writes: everyone learns which pages
        // changed (write notices); data moves later, on demand.
        tmk.barrier();

        // Phase 2: a lock-guarded reduction into one shared cell. The
        // lock grant carries the consistency information, so the next
        // holder sees the previous holder's update.
        double local = 0.0;
        for (std::size_t i = 0; i < kPerProc; ++i) local += values[lo + i];
        tmk.lock_acquire(0);
        *total += local;
        tmk.lock_release(0);
        tmk.barrier();

        if (tmk.rank() == 0) {
          std::printf("sum = %.0f (expected %.0f)\n", *total, expected);
          // The same counters the runner sums into RunResult::total_ctrs.
          using runner::ctr::Id;
          const runner::ctr::Block c = tmk.counters();
          std::printf("rank 0 protocol: %llu page faults, %llu twins, "
                      "%llu diffs fetched\n",
                      static_cast<unsigned long long>(c[Id::kPageFaults]),
                      static_cast<unsigned long long>(c[Id::kTwinsCreated]),
                      static_cast<unsigned long long>(c[Id::kDiffsFetched]));
        }
        return *total;
      });

  std::printf("modelled parallel time: %.3f ms; %llu protocol messages, "
              "%.1f KB\n",
              result.seconds() * 1e3,
              static_cast<unsigned long long>(
                  result.messages(mpl::Layer::kTmk)),
              result.kbytes(mpl::Layer::kTmk));
  return result.checksum == expected ? 0 : 1;
}
