// Unit-cost probe kernels of the traced run.
//
// Each kernel drives one layer through its public calls only and
// records one span per operation into the SharedArea; tmkbench turns
// the spans into p50 unit costs. The kernels run inside ranks the
// benchmark spawns itself (tmk_probe and spf_probe at 4 ranks,
// mpl_probe at 2), except diff_probe, which runs in the benchmark
// process. Each checks the data its operations moved, throws on a
// mismatch, and returns 1.0 (on rank 0) when every check passed.
#pragma once

#include <cstddef>
#include <cstdint>

#include "runner/runner.hpp"
#include "trace.hpp"

namespace tmkbench {

/// Pages one probe validate() call fetches (kValidate64 spans).
inline constexpr std::size_t kValidatePages = 64;
/// Diff operations per kDiffMake / kDiffApply span.
inline constexpr int kDiffBatch = 16;
/// Ranks of the mpl ping-pong spawn.
inline constexpr int kPingPongRanks = 2;

/// tmk::Runtime kernel: write faults, read faults (fault + diff fetch),
/// aggregated validate, plain barriers, barriers closing 64 dirty pages
/// per rank, epoch-GC round barriers next to the barrier before them,
/// and lock acquires with every rank contending for one lock.
double tmk_probe(runner::ChildContext& ctx, SharedArea& area,
                 std::uint32_t run);

/// spf::Runtime kernel: the master times empty parallel loops (one
/// fork/join of the improved interface each).
double spf_probe(runner::ChildContext& ctx, SharedArea& area,
                 std::uint32_t run);

/// mpl::Endpoint kernel: rank 0 times send_app + wait_app_kind round
/// trips of 64 B and 4 KiB to rank 1, which echoes each message.
double mpl_probe(runner::ChildContext& ctx, SharedArea& area,
                 std::uint32_t run);

/// tmk::make_diff_into / apply_diff on a page whose every word changed
/// (a stencil sweep rewrites each element), in batches of kDiffBatch.
/// Returns 0.0 when the patched page does not match.
double diff_probe(SharedArea& area, std::uint32_t run, std::uint64_t seed);

}  // namespace tmkbench
