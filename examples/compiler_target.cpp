// Compiler-target example: what SPF-generated code looks like.
//
// The paper's central object of study is compiler-generated shared-memory
// code: every parallel loop is outlined into a subroutine, dispatched to
// workers through the improved fork-join interface (§2.3), with scalar
// reductions through a lock-guarded shared cell (§2.1). This example is a
// hand-written specimen of that generated shape: a dot product over two
// shared vectors. Exits 1 if the dot product is wrong.
//
//   ./examples/compiler_target [nprocs]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "runner/runner.hpp"
#include "spf/runtime.hpp"

namespace {

struct Shared {
  float* x = nullptr;
  float* y = nullptr;
  double* dot = nullptr;
  std::size_t n = 0;
};
// The compiler's "common block": per rank, so thread_local — under the
// thread backend every rank binds pointers into its OWN heap.
thread_local Shared g;

struct LoopArgs {
  std::uint64_t n;
};

// "Each parallel loop is encapsulated by SPF into a new subroutine."
void init_loop(spf::Runtime& rt, const void* argp) {
  LoopArgs a;
  std::memcpy(&a, argp, sizeof(a));
  const auto r = rt.own_block(a.n);
  for (std::int64_t i = r.lo; i < r.hi; ++i) {
    g.x[i] = 0.5f + static_cast<float>(i % 7);
    g.y[i] = 2.0f - static_cast<float>(i % 3);
  }
}

void dot_loop(spf::Runtime& rt, const void* argp) {
  LoopArgs a;
  std::memcpy(&a, argp, sizeof(a));
  const auto r = rt.own_block(a.n);
  double local = 0;
  for (std::int64_t i = r.lo; i < r.hi; ++i)
    local += static_cast<double>(g.x[i]) * static_cast<double>(g.y[i]);
  // §2.1: private partial first, then a lock-guarded shared update.
  rt.reduce_add(/*lock_id=*/0, g.dot, local);
}

}  // namespace

int main(int argc, char** argv) {
  const int nprocs = (argc > 1) ? std::atoi(argv[1]) : 4;
  constexpr std::size_t kN = 1 << 18;

  runner::SpawnOptions options;
  options.model = simx::MachineModel::sp2();
  options.shared_heap_bytes = 64ull << 20;

  const auto result = runner::spawn(
      nprocs, options, [](runner::ChildContext& ctx) -> double {
        spf::Runtime rt(ctx);
        g = Shared{};
        g.n = kN;
        g.x = rt.tmk().alloc<float>(kN);
        g.y = rt.tmk().alloc<float>(kN);
        g.dot = rt.tmk().alloc<double>(1);
        const auto init = rt.register_loop(init_loop);
        const auto dot = rt.register_loop(dot_loop);

        // rank 0 runs the "sequential program"; workers serve loops.
        return rt.run([&] {
          const LoopArgs args{kN};
          rt.parallel(init, args);
          *g.dot = 0.0;
          rt.parallel(dot, args);
          return *g.dot;
        });
      });

  // Every product is a multiple of 0.5 and the total stays far below
  // 2^52, so the sum is exact in double in any order.
  double expect = 0;
  for (std::size_t i = 0; i < kN; ++i)
    expect += (0.5 + static_cast<double>(i % 7)) *
              (2.0 - static_cast<double>(i % 3));
  std::printf("dot = %.1f (expected %.1f)\n", result.checksum, expect);
  std::printf("fork-join traffic: %llu messages (2(n-1) per parallel "
              "loop)\n",
              static_cast<unsigned long long>(
                  result.messages(mpl::Layer::kTmk)));
  return result.checksum == expect ? 0 : 1;
}
