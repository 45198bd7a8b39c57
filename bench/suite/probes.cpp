#include "probes.hpp"

#include <array>
#include <cstring>
#include <vector>

#include "common/check.hpp"
#include "common/cpu_clock.hpp"
#include "common/page.hpp"
#include "common/prng.hpp"
#include "mpl/fabric.hpp"
#include "spf/runtime.hpp"
#include "tmk/diff.hpp"
#include "tmk/runtime.hpp"

namespace tmkbench {

namespace {

using common::kPageSize;
using common::wall_ns;

// Operation counts: every unit cost is a p50 over at least 200 ops.
constexpr std::size_t kOwnPages = 64;  // pages each rank writes
constexpr int kFaultRounds = 4;        // x 64 pages x 4 ranks = 1024 ops
constexpr int kValidateRounds = 50;    // x 4 ranks = 200 ops
constexpr int kPlainBarriers = 256;    // x 4 ranks
constexpr int kDirtyRounds = 64;       // x 4 ranks
constexpr int kGcRounds = 50;          // x 4 ranks = 200 GC barriers
constexpr int kLockRounds = 64;        // x 4 ranks
constexpr int kParallelOps = 256;
constexpr int kRoundtrips = 512;
constexpr int kDiffBatches = 256;

static_assert(kOwnPages == kValidatePages);

/// Every `interval`-th barrier of a tmk::Runtime is an epoch-GC round
/// (tmk::Config::epoch_gc_interval); the probe runs the default Config.
constexpr int kGcInterval = tmk::Config{}.epoch_gc_interval;

}  // namespace

double tmk_probe(runner::ChildContext& ctx, SharedArea& area,
                 std::uint32_t run) {
  tmk::Runtime rt(ctx);
  const int me = rt.rank();
  const int n = rt.nprocs();
  auto* heap = static_cast<std::byte*>(rt.alloc_bytes(
      static_cast<std::size_t>(n) * kOwnPages * kPageSize));
  auto word = [heap](int owner, std::size_t page) {
    return reinterpret_cast<volatile std::uint32_t*>(
        heap + (static_cast<std::size_t>(owner) * kOwnPages + page) *
                   kPageSize);
  };
  auto timed = [&](SpanName name, auto&& op) {
    const std::uint64_t t0 = wall_ns();
    op();
    area.record(run, name, me, t0, wall_ns());
  };
  int barriers = 0;  // tmk::Runtime numbers its barriers from construction
  auto sync = [&] {
    rt.barrier();
    ++barriers;
  };
  // A GC-round barrier force-fetches every pending write notice, each
  // rank before it returns, so a rank can leave it while peers are still
  // fetching its diffs. A write to such a page races with the lazy diff
  // flush serving the fetch and can be lost, so every GC round is
  // followed by a second barrier before anyone writes again.
  auto settle = [&] {
    if (barriers % kGcInterval == 0) sync();
  };
  auto barrier = [&] {
    sync();
    settle();
  };
  std::uint32_t stamp = 1;
  auto write_own = [&](bool time_each) {
    for (std::size_t i = 0; i < kOwnPages; ++i) {
      if (time_each)
        timed(SpanName::kWriteFault, [&] { *word(me, i) = stamp; });
      else
        *word(me, i) = stamp;
    }
    ++stamp;
  };

  for (int r = 0; r < kFaultRounds; ++r) {
    write_own(true);
    barrier();
  }

  // A neighbour's pages written in this epoch are invalid here after the
  // barrier, so each first read faults and fetches the neighbour's diff.
  const int src = (me + 1) % n;
  for (int r = 0; r < kFaultRounds; ++r) {
    write_own(false);
    barrier();
    std::uint32_t seen = 0;
    for (std::size_t i = 0; i < kOwnPages; ++i) {
      timed(SpanName::kReadFault, [&] { seen = *word(src, i); });
      COMMON_CHECK_MSG(seen == stamp - 1, "read fault fetched a stale page "
                                              << i << " of rank " << src);
    }
    barrier();
  }

  const std::byte* src_pages =
      heap + static_cast<std::size_t>(src) * kOwnPages * kPageSize;
  for (int r = 0; r < kValidateRounds; ++r) {
    write_own(false);
    barrier();
    timed(SpanName::kValidate64,
          [&] { rt.validate(src_pages, kOwnPages * kPageSize); });
    for (std::size_t i = 0; i < kOwnPages; ++i)
      COMMON_CHECK_MSG(*word(src, i) == stamp - 1,
                       "validate left page " << i << " of rank " << src
                                             << " stale");
    barrier();
  }

  for (int r = 0; r < kPlainBarriers; ++r) {
    timed(SpanName::kBarrier, sync);
    settle();
  }

  for (int r = 0; r < kDirtyRounds; ++r) {
    write_own(false);
    timed(SpanName::kBarrierDirty64, sync);
    settle();
  }

  // One own page dirtied per epoch gives every GC round intervals to
  // reclaim; the barrier just before each GC round is its plain twin.
  for (int gc_rounds = 0; gc_rounds < kGcRounds;) {
    *word(me, 0) = stamp++;
    const int next = barriers + 1;
    if (next % kGcInterval == 0) {
      timed(SpanName::kGcBarrier, sync);
      ++gc_rounds;
    } else if ((next + 1) % kGcInterval == 0) {
      timed(SpanName::kPreGcBarrier, sync);
    } else {
      sync();
    }
    settle();
  }

  for (int r = 0; r < kLockRounds; ++r) {
    timed(SpanName::kLockAcquire, [&] { rt.lock_acquire(0); });
    rt.lock_release(0);
  }
  barrier();
  return 1.0;
}

namespace {
void empty_loop(spf::Runtime& /*rt*/, const void* /*args*/) {}
}  // namespace

double spf_probe(runner::ChildContext& ctx, SharedArea& area,
                 std::uint32_t run) {
  spf::Runtime rt(ctx);
  const std::uint32_t loop = rt.register_loop(&empty_loop);
  return rt.run([&] {
    for (int i = 0; i < kParallelOps; ++i) {
      const std::uint64_t t0 = wall_ns();
      rt.parallel(loop, nullptr, 0);
      area.record(run, SpanName::kSpfParallel, 0, t0, wall_ns());
    }
    return 1.0;
  });
}

double mpl_probe(runner::ChildContext& ctx, SharedArea& area,
                 std::uint32_t run) {
  mpl::Endpoint& ep = ctx.endpoint;
  const std::array<std::pair<std::size_t, SpanName>, 2> sizes = {
      {{64, SpanName::kRoundtrip64}, {kPageSize, SpanName::kRoundtrip4k}}};
  for (const auto& [size, name] : sizes) {
    const std::vector<std::byte> payload(size, std::byte{0x5a});
    for (int i = 0; i < kRoundtrips; ++i) {
      const auto id = static_cast<std::uint32_t>(i);
      if (ep.rank() == 0) {
        const std::uint64_t t0 = wall_ns();
        ep.send_app(1, mpl::FrameKind::kTestPing, 0, id, payload);
        mpl::Frame f = ep.wait_app_kind(mpl::FrameKind::kTestPong);
        area.record(run, name, 0, t0, wall_ns());
        COMMON_CHECK_MSG(f.payload == payload && f.req_id == id,
                         "ping-pong echo " << id << " came back altered");
        ep.recycle_buffer(std::move(f.payload));
      } else {
        mpl::Frame f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
        ep.send_app(0, mpl::FrameKind::kTestPong, 0, id, f.payload);
        ep.recycle_buffer(std::move(f.payload));
      }
    }
  }
  return 1.0;
}

double diff_probe(SharedArea& area, std::uint32_t run, std::uint64_t seed) {
  alignas(64) std::array<std::byte, kPageSize> twin{};
  alignas(64) std::array<std::byte, kPageSize> page{};
  common::SplitMix64 g(seed);
  for (std::size_t w = 0; w < kPageSize / 4; ++w) {
    const auto v = static_cast<std::uint32_t>(g.next());
    const std::uint32_t changed = v + 1;
    std::memcpy(twin.data() + w * 4, &v, 4);
    std::memcpy(page.data() + w * 4, &changed, 4);
  }
  std::vector<std::byte> diff;
  for (int b = 0; b < kDiffBatches; ++b) {
    const std::uint64_t t0 = wall_ns();
    for (int k = 0; k < kDiffBatch; ++k)
      tmk::make_diff_into(twin.data(), page.data(), diff);
    area.record(run, SpanName::kDiffMake, -1, t0, wall_ns());
  }
  std::array<std::byte, kPageSize> target = twin;
  for (int b = 0; b < kDiffBatches; ++b) {
    const std::uint64_t t0 = wall_ns();
    for (int k = 0; k < kDiffBatch; ++k) tmk::apply_diff(diff, target.data());
    area.record(run, SpanName::kDiffApply, -1, t0, wall_ns());
  }
  return target == page ? 1.0 : 0.0;
}

}  // namespace tmkbench
