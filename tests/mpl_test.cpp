// Transport tests: framing, chunking/reassembly, counters, and
// multi-process delivery through the forked runner.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <numeric>

#include "common/prng.hpp"
#include "mpl/fabric.hpp"
#include "mpl/transport.hpp"
#include "runner/runner.hpp"

namespace {

runner::SpawnOptions fast_options() {
  runner::SpawnOptions o;
  o.model = simx::MachineModel::zero_cost();
  o.shared_heap_bytes = 1 << 20;
  o.timeout_sec = 120;
  return o;
}

std::vector<std::byte> make_payload(std::size_t n, std::uint64_t seed) {
  common::SplitMix64 g(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(g.next());
  return v;
}

TEST(Frame, LayerClassification) {
  EXPECT_EQ(mpl::layer_of(mpl::FrameKind::kPvmeData), mpl::Layer::kPvme);
  EXPECT_EQ(mpl::layer_of(mpl::FrameKind::kDiffRequest), mpl::Layer::kTmk);
  EXPECT_EQ(mpl::layer_of(mpl::FrameKind::kBarrierArrive), mpl::Layer::kTmk);
  EXPECT_EQ(mpl::layer_of(mpl::FrameKind::kShutdownArrive),
            mpl::Layer::kOther);
  EXPECT_EQ(mpl::layer_of(mpl::FrameKind::kTestPing), mpl::Layer::kOther);
}

TEST(Counters, AccumulateByLayer) {
  mpl::Counters c;
  c.count(mpl::FrameKind::kPvmeData, 100);
  c.count(mpl::FrameKind::kDiffRequest, 50);
  c.count(mpl::FrameKind::kPvmeData, 10);
  EXPECT_EQ(c.messages[static_cast<int>(mpl::Layer::kPvme)], 2u);
  EXPECT_EQ(c.bytes[static_cast<int>(mpl::Layer::kPvme)], 110u);
  EXPECT_EQ(c.messages[static_cast<int>(mpl::Layer::kTmk)], 1u);
  EXPECT_EQ(c.total_messages(), 3u);
  EXPECT_EQ(c.total_bytes(), 160u);
}

TEST(Counters, PlusEquals) {
  mpl::Counters a, b;
  a.count(mpl::FrameKind::kPvmeData, 5);
  b.count(mpl::FrameKind::kPvmeData, 7);
  b.count(mpl::FrameKind::kDiffReply, 3);
  a += b;
  EXPECT_EQ(a.total_messages(), 3u);
  EXPECT_EQ(a.total_bytes(), 15u);
}

// ---- multi-process transport behaviour -------------------------------

/// Every multi-process transport test runs on both ring placements:
/// the MAP_SHARED region forked ranks inherit (shm) and the private
/// region rank threads share (inproc). The delivery contract (framing,
/// ordering, reassembly, counters, virtual time) must hold on each.
class EndpointTest : public ::testing::TestWithParam<mpl::TransportKind> {
 protected:
  [[nodiscard]] runner::SpawnOptions popts() const {
    runner::SpawnOptions o = fast_options();
    o.transport = GetParam();
    // Pin the backend each placement exists on: otherwise a
    // TMK_BACKEND=thread environment would coerce the shm leg to inproc
    // and this suite would test one placement twice while its test
    // names claim otherwise.
    o.backend = o.transport == mpl::TransportKind::kInproc
                    ? runner::Backend::kThread
                    : runner::Backend::kProcess;
    return o;
  }
};

INSTANTIATE_TEST_SUITE_P(
    Transports, EndpointTest,
    ::testing::Values(mpl::TransportKind::kShm, mpl::TransportKind::kInproc),
    [](const ::testing::TestParamInfo<mpl::TransportKind>& info) {
      return std::string(mpl::to_string(info.param));
    });

TEST_P(EndpointTest, PingPongSmall) {
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    const auto payload = make_payload(64, 1);
    if (ep.rank() == 0) {
      ep.send_app(1, mpl::FrameKind::kTestPing, 7, 1, payload);
      auto f = ep.wait_app_kind(mpl::FrameKind::kTestPong);
      return f.payload == payload ? 1.0 : 0.0;
    }
    auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
    if (f.tag != 7 || f.src != 0) return 0.0;
    ep.send_app(0, mpl::FrameKind::kTestPong, 7, 1, f.payload);
    return 1.0;
  });
  EXPECT_DOUBLE_EQ(result.checksum, 1.0);
}

TEST_P(EndpointTest, LargeMessageChunksReassemble) {
  // 1 MiB >> kMaxChunk forces multi-chunk reassembly.
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    const std::size_t n = (1 << 20) + 12345;
    const auto payload = make_payload(n, 2);
    if (ep.rank() == 0) {
      ep.send_app(1, mpl::FrameKind::kTestPing, 0, 1, payload);
      return 1.0;
    }
    auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
    return f.payload == payload ? 1.0 : 0.0;
  });
  for (const auto& p : result.procs) EXPECT_EQ(p.ok, 1u);
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

// Chunk-boundary property: payloads straddling the datagram chunk
// limit — one byte under/at/over kMaxChunk and multi-chunk sizes —
// must reassemble bit-exactly on the app channel.
TEST_P(EndpointTest, ChunkBoundaryPayloadsReassemble) {
  const std::size_t sizes[] = {mpl::kMaxChunk - 1, mpl::kMaxChunk,
                               mpl::kMaxChunk + 1, 2 * mpl::kMaxChunk,
                               2 * mpl::kMaxChunk + 17};
  auto result =
      runner::spawn(2, popts(), [&sizes](runner::ChildContext& c) {
        auto& ep = c.endpoint;
        double ok = 1.0;
        std::uint32_t req = 1;
        for (const std::size_t n : sizes) {
          const auto payload = make_payload(n, 100 + n);
          if (ep.rank() == 0) {
            ep.send_app(1, mpl::FrameKind::kTestPing, 0, req, payload);
            auto f = ep.wait_app_kind(mpl::FrameKind::kTestPong);
            if (f.payload != payload || f.req_id != req) ok = 0.0;
          } else {
            auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
            if (f.payload != payload) ok = 0.0;
            ep.send_app(0, mpl::FrameKind::kTestPong, 0, f.req_id, f.payload);
          }
          ++req;
        }
        return ok;
      });
  EXPECT_DOUBLE_EQ(result.procs[0].checksum, 1.0);
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

// Same boundary sizes through the service channel: requests straddling
// several datagrams must reassemble before the handler sees them.
TEST_P(EndpointTest, SvcChannelMultiChunkRequestsReassemble) {
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    const std::size_t n = 3 * mpl::kMaxChunk + 5;
    const auto payload = make_payload(n, 9);
    if (ep.rank() == 1) {
      std::atomic<bool> stop{false};
      auto f = ep.next_svc_request(stop);
      if (!f || f->payload != payload) return 0.0;
      ep.send_app_stamped(f->src, mpl::FrameKind::kTestPong, 0, f->req_id,
                          f->payload, f->vt_arrival + 1);
      return 1.0;
    }
    ep.send_svc(1, mpl::FrameKind::kTestPing, 0, 77, payload);
    auto f = ep.wait_app([](const mpl::Frame& fr) {
      return fr.kind == mpl::FrameKind::kTestPong && fr.req_id == 77;
    });
    return f.payload == payload ? 1.0 : 0.0;
  });
  EXPECT_DOUBLE_EQ(result.procs[0].checksum, 1.0);
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

TEST_P(EndpointTest, SimultaneousLargeSendsDoNotDeadlock) {
  // Both ranks send 4 MiB at each other before receiving; the pumping
  // send path must drain to make progress.
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    const std::size_t n = 4 << 20;
    const auto mine = make_payload(n, 10 + static_cast<unsigned>(ep.rank()));
    const auto theirs =
        make_payload(n, 10 + static_cast<unsigned>(1 - ep.rank()));
    ep.send_app(1 - ep.rank(), mpl::FrameKind::kTestPing, 0, 1, mine);
    auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
    return f.payload == theirs ? 1.0 : 0.0;
  });
  EXPECT_DOUBLE_EQ(result.procs[0].checksum, 1.0);
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

TEST_P(EndpointTest, PendingQueueFiltersByKind) {
  // Rank 0 sends PING then PONG; rank 1 waits for PONG first — the PING
  // must remain queued and be delivered afterwards.
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    if (ep.rank() == 0) {
      const auto a = make_payload(16, 3);
      const auto b = make_payload(16, 4);
      ep.send_app(1, mpl::FrameKind::kTestPing, 0, 1, a);
      ep.send_app(1, mpl::FrameKind::kTestPong, 0, 2, b);
      return 1.0;
    }
    auto pong = ep.wait_app_kind(mpl::FrameKind::kTestPong);
    auto ping = ep.wait_app_kind(mpl::FrameKind::kTestPing);
    return (pong.payload == make_payload(16, 4) &&
            ping.payload == make_payload(16, 3))
               ? 1.0
               : 0.0;
  });
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

TEST_P(EndpointTest, TagFifoPerSource) {
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    if (ep.rank() == 0) {
      for (int i = 0; i < 50; ++i) {
        std::int32_t v = i;
        ep.send_app(1, mpl::FrameKind::kTestPing, 5,
                    static_cast<std::uint32_t>(i),
                    {reinterpret_cast<const std::byte*>(&v), sizeof(v)});
      }
      return 1.0;
    }
    for (int i = 0; i < 50; ++i) {
      auto f = ep.wait_app([](const mpl::Frame& fr) {
        return fr.kind == mpl::FrameKind::kTestPing && fr.tag == 5;
      });
      std::int32_t v;
      std::memcpy(&v, f.payload.data(), sizeof(v));
      if (v != i) return 0.0;  // order violated
    }
    return 1.0;
  });
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

// The transport contract's causal clause, which the hybrid update
// protocol's barrier-time pushes rely on: the origin publishes X to
// rank 2 before it sends Y to the relay, and the relay sends Z to rank
// 2 only after receiving Y, so once rank 2 holds Z a single poll_app
// must find X. Ranks 0 and 1 swap the two roles every round, so X's
// ring is drained both before and after Z's in a drain pass.
TEST_P(EndpointTest, PollAppFindsFramesACausalChainPublishedEarlier) {
  constexpr int kRounds = 64;
  auto result = runner::spawn(3, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    const std::byte x{0x58};
    for (int round = 0; round < kRounds; ++round) {
      const int origin = round % 2 == 0 ? 1 : 0;
      const int relay = 1 - origin;
      const auto is = [round](mpl::FrameKind kind) {
        return [round, kind](const mpl::Frame& f) {
          return f.kind == kind && f.tag == round;
        };
      };
      if (ep.rank() == origin) {
        ep.send_app(2, mpl::FrameKind::kTestPing, round, 0, {&x, 1});
        ep.send_app(relay, mpl::FrameKind::kTestPing, round, 0, {});
      } else if (ep.rank() == relay) {
        (void)ep.wait_app(is(mpl::FrameKind::kTestPing));
        ep.send_app(2, mpl::FrameKind::kTestPong, round, 0, {});
      } else {
        (void)ep.wait_app(is(mpl::FrameKind::kTestPong));
        const auto got = ep.poll_app(is(mpl::FrameKind::kTestPing));
        if (!got.has_value() || got->src != origin || got->payload.size() != 1)
          return 0.0;
      }
    }
    return 1.0;
  });
  for (const auto& p : result.procs) EXPECT_DOUBLE_EQ(p.checksum, 1.0);
}

TEST_P(EndpointTest, CountersCountLogicalMessagesOnce) {
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    const std::size_t n = 200 * 1024;  // forces chunking
    if (ep.rank() == 0) {
      ep.send_app(1, mpl::FrameKind::kTestPing, 0, 1, make_payload(n, 5));
    } else {
      (void)ep.wait_app_kind(mpl::FrameKind::kTestPing);
    }
    return 0.0;
  });
  const auto other = static_cast<int>(mpl::Layer::kOther);
  EXPECT_EQ(result.procs[0].counters.messages[other], 1u);
  EXPECT_EQ(result.procs[0].counters.bytes[other], 200u * 1024u);
  EXPECT_EQ(result.procs[1].counters.messages[other], 0u);  // recv free
}

// One message is one publish (one release store, one doorbell bump),
// however many chunks it spans: a two-chunk message that fits an empty
// ring and a one-chunk message each raise the sender's send_calls by
// exactly 1. Each message is answered before the next one leaves, so
// rank 0's own sends are the only ones it counts. Rank 0 returns the
// two increments as the tens and units digits of its checksum.
TEST_P(EndpointTest, EachMessageIsOnePublish) {
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    const std::size_t sizes[] = {mpl::kMaxChunk + 1, 64};
    double digits = 0;
    for (const std::size_t n : sizes) {
      if (ep.rank() == 0) {
        const std::uint64_t before = ep.host_stats().send_calls;
        ep.send_app(1, mpl::FrameKind::kTestPing, 0, 1, make_payload(n, 11));
        digits = digits * 10 +
                 static_cast<double>(ep.host_stats().send_calls - before);
        (void)ep.wait_app_kind(mpl::FrameKind::kTestPong);
      } else {
        const auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
        if (f.payload.size() != n) return 0.0;
        ep.send_app(0, mpl::FrameKind::kTestPong, 0, 1, {});
      }
    }
    return ep.rank() == 0 ? digits : 1.0;
  });
  EXPECT_DOUBLE_EQ(result.procs[0].checksum, 11.0);
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

TEST_P(EndpointTest, SelfMessagesUncounted) {
  auto result = runner::spawn(1, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    ep.send_app(0, mpl::FrameKind::kTestPing, 0, 1, make_payload(32, 6));
    auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
    return f.payload.size() == 32 ? 1.0 : 0.0;
  });
  EXPECT_DOUBLE_EQ(result.checksum, 1.0);
  EXPECT_EQ(result.total.total_messages(), 0u);
}

TEST_P(EndpointTest, ManyToOneFanIn) {
  constexpr int kProcs = 8;
  auto result =
      runner::spawn(kProcs, popts(), [](runner::ChildContext& c) {
        auto& ep = c.endpoint;
        if (ep.rank() == 0) {
          double sum = 0;
          for (int i = 1; i < ep.nprocs(); ++i) {
            auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
            double v;
            std::memcpy(&v, f.payload.data(), sizeof(v));
            sum += v;
          }
          return sum;
        }
        const double v = ep.rank();
        ep.send_app(0, mpl::FrameKind::kTestPing, 0, 1,
                    {reinterpret_cast<const std::byte*>(&v), sizeof(v)});
        return 0.0;
      });
  EXPECT_DOUBLE_EQ(result.checksum, 1.0 + 2 + 3 + 4 + 5 + 6 + 7);
}

TEST_P(EndpointTest, ServiceThreadRequestReply) {
  // Rank 1 runs a service thread answering one request; rank 0 sends a
  // svc request and waits for the stamped reply.
  auto result = runner::spawn(2, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    if (ep.rank() == 1) {
      std::atomic<bool> stop{false};
      auto f = ep.next_svc_request(stop);
      if (!f || f->kind != mpl::FrameKind::kTestPing) return 0.0;
      ep.send_app_stamped(f->src, mpl::FrameKind::kTestPong, 0, f->req_id,
                          f->payload, f->vt_arrival + 10);
      return 1.0;
    }
    const auto payload = make_payload(100, 8);
    ep.send_svc(1, mpl::FrameKind::kTestPing, 0, 42, payload);
    auto f = ep.wait_app([](const mpl::Frame& fr) {
      return fr.kind == mpl::FrameKind::kTestPong && fr.req_id == 42;
    });
    return f.payload == payload ? 1.0 : 0.0;
  });
  EXPECT_DOUBLE_EQ(result.procs[0].checksum, 1.0);
  EXPECT_DOUBLE_EQ(result.procs[1].checksum, 1.0);
}

// Virtual time: a two-hop relay should accumulate latency at each hop.
TEST_P(EndpointTest, VirtualTimeAccumulatesAlongChain) {
  runner::SpawnOptions opts = popts();
  opts.model.latency_ns = 1'000'000;  // 1 ms
  opts.model.send_overhead_ns = 0;
  opts.model.recv_overhead_ns = 0;
  auto result = runner::spawn(3, opts, [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    std::byte b{1};
    if (ep.rank() == 0) {
      ep.send_app(1, mpl::FrameKind::kTestPing, 0, 1, {&b, 1});
    } else if (ep.rank() == 1) {
      (void)ep.wait_app_kind(mpl::FrameKind::kTestPing);
      ep.send_app(2, mpl::FrameKind::kTestPing, 0, 1, {&b, 1});
    } else {
      (void)ep.wait_app_kind(mpl::FrameKind::kTestPing);
    }
    return 0.0;
  });
  // Rank 2 received after two hops: >= 2 ms of modelled latency.
  EXPECT_GE(result.procs[2].vt_ns, 2'000'000u);
  // And the maximum is what the run reports.
  EXPECT_EQ(result.max_vt_ns,
            std::max({result.procs[0].vt_ns, result.procs[1].vt_ns,
                      result.procs[2].vt_ns}));
}


// Full-width fan-in: kMaxProcs (128) ranks on either placement — 128
// rank threads on the inproc mesh, or 128 forked processes on the shm
// mesh.
TEST_P(EndpointTest, ManyToOneFanInMaxProcs) {
  const int n = mpl::kMaxProcs;
  auto result = runner::spawn(n, popts(), [](runner::ChildContext& c) {
    auto& ep = c.endpoint;
    if (ep.rank() == 0) {
      double sum = 0;
      for (int i = 1; i < ep.nprocs(); ++i) {
        auto f = ep.wait_app_kind(mpl::FrameKind::kTestPing);
        double v;
        std::memcpy(&v, f.payload.data(), sizeof(v));
        sum += v;
      }
      return sum;
    }
    const double v = ep.rank();
    ep.send_app(0, mpl::FrameKind::kTestPing, 0, 1,
                {reinterpret_cast<const std::byte*>(&v), sizeof(v)});
    return 0.0;
  });
  EXPECT_DOUBLE_EQ(result.checksum, static_cast<double>(n) *
                                        static_cast<double>(n - 1) / 2.0);
}

}  // namespace
