// SPSC ring unit tests: record framing, wrap-boundary handling with
// randomized message sizes, capacity behaviour, and a two-thread
// producer/consumer stress (the shape mpl::Transport uses it in).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <thread>
#include <vector>

#include "common/prng.hpp"
#include "mpl/spsc_ring.hpp"
#include "mpl/transport.hpp"

namespace {

/// A ring over 64-byte-aligned heap memory (control block + data).
class RingStorage {
 public:
  explicit RingStorage(std::uint32_t capacity) {
    const std::size_t bytes = sizeof(mpl::RingCtrl) + capacity;
    mem_ = static_cast<std::byte*>(std::aligned_alloc(64, (bytes + 63) & ~63ul));
    std::memset(mem_, 0, bytes);
    ring_ = mpl::SpscRing(new (mem_) mpl::RingCtrl,
                          mem_ + sizeof(mpl::RingCtrl), capacity);
  }
  ~RingStorage() { std::free(mem_); }
  RingStorage(const RingStorage&) = delete;
  RingStorage& operator=(const RingStorage&) = delete;

  [[nodiscard]] mpl::SpscRing& ring() { return ring_; }

 private:
  std::byte* mem_ = nullptr;
  mpl::SpscRing ring_;
};

mpl::FrameHeader header_for(std::uint32_t seq, std::uint32_t len) {
  mpl::FrameHeader h{};
  h.magic = mpl::kFrameMagic;
  h.kind = static_cast<std::uint16_t>(mpl::FrameKind::kTestPing);
  h.src = 0;
  h.tag = static_cast<std::int32_t>(seq);
  h.req_id = seq;
  h.chunk_len = len;
  h.orig_len = len;
  return h;
}

std::vector<std::byte> payload_for(std::uint32_t seq, std::size_t len) {
  common::SplitMix64 g(0x5eed0000ull + seq);
  std::vector<std::byte> v(len);
  for (auto& b : v) b = static_cast<std::byte>(g.next());
  return v;
}

TEST(SpscRing, RecordGeometry) {
  // Record = 8-byte record header + 40-byte frame header + payload,
  // padded to 8.
  EXPECT_EQ(mpl::SpscRing::record_bytes(0), 48u);
  EXPECT_EQ(mpl::SpscRing::record_bytes(1), 56u);
  EXPECT_EQ(mpl::SpscRing::record_bytes(8), 56u);
  EXPECT_EQ(mpl::SpscRing::record_bytes(9), 64u);
  // The configured capacity admits the largest datagram.
  EXPECT_GE(mpl::kShmRingBytes, mpl::SpscRing::min_capacity(mpl::kMaxChunk));
}

TEST(SpscRing, PushPopRoundTrip) {
  RingStorage s(4096);
  const auto p = payload_for(1, 100);
  ASSERT_TRUE(s.ring().try_push(header_for(1, 100), p));
  EXPECT_FALSE(s.ring().empty());
  std::size_t seen = 0;
  const std::size_t n = s.ring().drain(
      [&](const mpl::FrameHeader& h, std::span<const std::byte> chunk) {
        EXPECT_EQ(h.req_id, 1u);
        ASSERT_EQ(chunk.size(), p.size());
        EXPECT_EQ(std::memcmp(chunk.data(), p.data(), p.size()), 0);
        ++seen;
      });
  EXPECT_EQ(n, 1u);
  EXPECT_EQ(seen, 1u);
  EXPECT_TRUE(s.ring().empty());
}

TEST(SpscRing, FullRingRejectsThenAcceptsAfterDrain) {
  RingStorage s(1024);
  const auto p = payload_for(2, 200);  // record = 256 bytes
  int pushed = 0;
  while (s.ring().try_push(header_for(2, 200), p)) ++pushed;
  EXPECT_EQ(pushed, 4);  // 4 x 256 fills 1024 exactly
  auto discard = [](const mpl::FrameHeader&, std::span<const std::byte>) {};
  EXPECT_EQ(s.ring().drain(discard), 4u);
  EXPECT_TRUE(s.ring().try_push(header_for(2, 200), p));
}

// Progress guarantee at the wrap: an EMPTY ring of min_capacity must
// accept a maximum-size record at EVERY cursor offset. (Regression: a
// 57 KiB diff-reply record at an unlucky offset of a 64 KiB ring could
// never be pushed — contig + record exceeded the capacity — wedging
// the channel forever; min_capacity now demands two records' worth.)
TEST(SpscRing, MaxRecordFitsEmptyRingAtEveryOffset) {
  constexpr std::uint32_t kChunk = 1000;
  const std::uint32_t cap = mpl::SpscRing::min_capacity(kChunk);
  const auto big = payload_for(9, kChunk);
  auto discard = [](const mpl::FrameHeader&, std::span<const std::byte>) {};
  // Walk the cursor through every 8-byte offset with minimal records.
  RingStorage s(cap);
  for (std::uint32_t off = 0; off < cap; off += 48) {
    ASSERT_TRUE(s.ring().try_push(header_for(9, kChunk), big))
        << "wedged at offset " << off;
    s.ring().drain(discard);
    // Advance the cursor by one minimal (empty-payload) record.
    ASSERT_TRUE(s.ring().try_push(header_for(0, 0), {}));
    s.ring().drain(discard);
  }
}

// Randomized sizes with interleaved push/drain so the write position
// crosses the wrap boundary many times at varying offsets; every
// payload must come back bit-exact and in order.
TEST(SpscRing, RandomizedSizesAcrossWrapBoundary) {
  constexpr std::uint32_t kCap = 8192;
  RingStorage s(kCap);
  common::SplitMix64 g(42);
  std::uint32_t next_push = 0;
  std::uint32_t next_pop = 0;
  std::uint64_t pushed_bytes = 0;
  while (next_pop < 3000) {
    // Burst of pushes with sizes biased to make records land on many
    // different wrap offsets (including zero-length datagrams).
    const int burst = 1 + static_cast<int>(g.next_below(5));
    for (int i = 0; i < burst; ++i) {
      const std::size_t len = g.next_below(1500);
      const auto p = payload_for(next_push, len);
      if (!s.ring().try_push(header_for(next_push, static_cast<std::uint32_t>(len)),
                             p))
        break;  // full: drain below, retry next round
      ++next_push;
      pushed_bytes += len;
    }
    s.ring().drain(
        [&](const mpl::FrameHeader& h, std::span<const std::byte> chunk) {
          ASSERT_EQ(h.req_id, next_pop) << "datagrams reordered";
          const auto expect = payload_for(h.req_id, h.chunk_len);
          ASSERT_EQ(chunk.size(), expect.size());
          // Zero-length datagrams are legal; memcmp(nullptr,...) is not.
          ASSERT_TRUE(chunk.empty() ||
                      std::memcmp(chunk.data(), expect.data(),
                                  chunk.size()) == 0)
              << "payload corrupted at seq " << h.req_id;
          ++next_pop;
        });
  }
  EXPECT_GT(pushed_bytes, 2u * kCap);  // the cursor really wrapped often
}

// Burst staging: staged records are invisible to the consumer until
// publish() makes the whole burst visible with one tail store.
TEST(SpscRing, StagedRecordsInvisibleUntilPublish) {
  RingStorage s(4096);
  for (std::uint32_t seq = 0; seq < 5; ++seq) {
    const auto p = payload_for(seq, 64);
    ASSERT_TRUE(s.ring().stage(header_for(seq, 64), p));
    EXPECT_TRUE(s.ring().empty()) << "staged record leaked at seq " << seq;
  }
  EXPECT_TRUE(s.ring().has_staged());
  s.ring().publish();
  EXPECT_FALSE(s.ring().has_staged());
  EXPECT_FALSE(s.ring().empty());
  std::uint32_t next = 0;
  s.ring().drain([&](const mpl::FrameHeader& h,
                     std::span<const std::byte> chunk) {
    EXPECT_EQ(h.req_id, next);
    const auto expect = payload_for(h.req_id, h.chunk_len);
    ASSERT_EQ(chunk.size(), expect.size());
    EXPECT_EQ(std::memcmp(chunk.data(), expect.data(), chunk.size()), 0);
    ++next;
  });
  EXPECT_EQ(next, 5u);
  EXPECT_TRUE(s.ring().empty());
}

// A burst whose records cross the wrap boundary: the wrap marker is
// written as part of staging, so one publish hands the consumer records
// on both sides of the wrap, bit-exact and in order.
TEST(SpscRing, BurstAcrossWrapBoundary) {
  constexpr std::uint32_t kCap = 2048;
  RingStorage s(kCap);
  auto discard = [](const mpl::FrameHeader&, std::span<const std::byte>) {};
  // Park the cursor near the end so a multi-record burst must wrap.
  ASSERT_TRUE(s.ring().try_push(header_for(0, 1500), payload_for(0, 1500)));
  ASSERT_EQ(s.ring().drain(discard), 1u);
  std::uint32_t seq = 1;
  for (; seq <= 4; ++seq)
    ASSERT_TRUE(s.ring().stage(header_for(seq, 200), payload_for(seq, 200)));
  EXPECT_TRUE(s.ring().empty());
  s.ring().publish();
  std::uint32_t next = 1;
  s.ring().drain([&](const mpl::FrameHeader& h,
                     std::span<const std::byte> chunk) {
    ASSERT_EQ(h.req_id, next) << "burst reordered across the wrap";
    const auto expect = payload_for(h.req_id, h.chunk_len);
    ASSERT_EQ(chunk.size(), expect.size());
    EXPECT_EQ(std::memcmp(chunk.data(), expect.data(), chunk.size()), 0);
    ++next;
  });
  EXPECT_EQ(next, 5u);
}

// Backpressure mid-burst: when stage() fails on a full ring, what is
// already staged stays staged; publishing it lets the consumer drain
// and the burst continue — the transport's recovery path.
TEST(SpscRing, FullRingBackpressureInsideBurst) {
  RingStorage s(1024);
  const auto p = payload_for(3, 200);  // record = 256 bytes
  std::uint32_t seq = 0;
  for (; seq < 4; ++seq)  // 4 x 256 fills 1024 exactly
    ASSERT_TRUE(s.ring().stage(header_for(seq, 200), p));
  EXPECT_FALSE(s.ring().stage(header_for(seq, 200), p));
  EXPECT_TRUE(s.ring().has_staged());  // earlier records survive the miss
  EXPECT_TRUE(s.ring().empty());
  s.ring().publish();
  auto discard = [](const mpl::FrameHeader&, std::span<const std::byte>) {};
  EXPECT_EQ(s.ring().drain(discard), 4u);
  ASSERT_TRUE(s.ring().stage(header_for(seq, 200), p));
  s.ring().publish();
  EXPECT_EQ(s.ring().drain(discard), 1u);
}

// Two real threads with bursts: the producer stages batches and
// publishes once per batch (spilling mid-burst on a full ring exactly
// as the transport does); the consumer concurrently drains. Runs under
// the TSan CI leg, so the deferred-tail release/acquire pairing is
// race-checked, not just logic-checked.
TEST(SpscRing, TwoThreadBurstStress) {
  constexpr std::uint32_t kCap = 4096;
  constexpr std::uint32_t kMessages = 20000;
  RingStorage s(kCap);
  std::thread producer([&] {
    common::SplitMix64 g(11);
    std::uint32_t seq = 0;
    while (seq < kMessages) {
      const std::uint32_t burst =
          std::min(kMessages - seq, 1 + static_cast<std::uint32_t>(g.next_below(8)));
      for (std::uint32_t i = 0; i < burst; ++i) {
        const std::size_t len = g.next_below(400);
        const auto p = payload_for(seq, len);
        while (!s.ring().stage(header_for(seq, static_cast<std::uint32_t>(len)),
                               p)) {
          // Full mid-burst: publish what is staged so the consumer can
          // make room, then wait for space.
          s.ring().publish();
          s.ring().wait_space(/*timeout_ms=*/1);
        }
        ++seq;
      }
      s.ring().publish();
    }
  });
  std::uint32_t next_pop = 0;
  bool ok = true;
  while (next_pop < kMessages) {
    std::size_t got = s.ring().drain(
        [&](const mpl::FrameHeader& h, std::span<const std::byte> chunk) {
          if (h.req_id != next_pop) ok = false;
          const auto expect = payload_for(h.req_id, h.chunk_len);
          if (chunk.size() != expect.size() ||
              (!chunk.empty() &&
               std::memcmp(chunk.data(), expect.data(), chunk.size()) != 0))
            ok = false;
          ++next_pop;
        });
    if (got == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(s.ring().empty());
}

// Two real threads, the transport's deployment shape. The producer
// blocks on a full ring via the futex path (wait_space), the consumer
// drains with occasional pauses so the full/empty transitions and the
// writer wake-up path all get exercised.
TEST(SpscRing, TwoThreadStress) {
  constexpr std::uint32_t kCap = 4096;
  constexpr std::uint32_t kMessages = 20000;
  RingStorage s(kCap);
  std::thread producer([&] {
    common::SplitMix64 g(7);
    for (std::uint32_t seq = 0; seq < kMessages; ++seq) {
      const std::size_t len = g.next_below(600);
      const auto p = payload_for(seq, len);
      while (!s.ring().try_push(header_for(seq, static_cast<std::uint32_t>(len)),
                                p))
        s.ring().wait_space(/*timeout_ms=*/1);
    }
  });
  std::uint32_t next_pop = 0;
  bool ok = true;
  while (next_pop < kMessages) {
    std::size_t got = s.ring().drain(
        [&](const mpl::FrameHeader& h, std::span<const std::byte> chunk) {
          if (h.req_id != next_pop) ok = false;
          const auto expect = payload_for(h.req_id, h.chunk_len);
          if (chunk.size() != expect.size() ||
              (!chunk.empty() &&
               std::memcmp(chunk.data(), expect.data(), chunk.size()) != 0))
            ok = false;
          ++next_pop;
        });
    if (got == 0) std::this_thread::yield();
  }
  producer.join();
  EXPECT_TRUE(ok);
  EXPECT_TRUE(s.ring().empty());
}

}  // namespace
