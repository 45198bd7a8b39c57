// Wire format of the process-mesh transport.
//
// Named `mpl` after IBM's user-level Message Passing Library, which both
// TreadMarks and the XHPF runtime used on the SP/2 (§3 of the paper).
// Every logical message is split into one or more datagram chunks; every
// chunk carries the full header. Chunks of one logical message are pushed
// back-to-back by one sending thread into one ring, so per-key reassembly
// never sees reordering.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mpl {

// 128 covers the scale sweeps far past the paper's 8 on either runner
// backend. Everything sized by this constant is either lazily
// materialized (ring mesh pages, per-page protocol state) or
// O(kMaxProcs) small (vector clocks, dispatch tables, the ring region's
// two poison words), so raising it costs idle configurations almost
// nothing.
inline constexpr int kMaxProcs = 128;

/// Largest payload per datagram chunk. The ring capacity (kShmRingBytes,
/// transport.hpp) is sized from it so one maximum-size chunk can always
/// be pushed.
inline constexpr std::size_t kMaxChunk = 56 * 1024;

inline constexpr std::uint32_t kFrameMagic = 0x544d4b31;  // "TMK1"

/// Every distinct protocol message in the system. The transport does not
/// interpret these beyond routing; a single registry avoids collisions
/// between layers.
enum class FrameKind : std::uint16_t {
  // ---- pvme (message-passing library) ----
  kPvmeData = 1,
  kPvmeBarrierArrive,
  kPvmeBarrierDepart,
  // ---- tmk (DSM protocol) ----
  kDiffRequest,
  kDiffReply,
  kLockRequest,   // acquirer -> manager (service)
  kLockForward,   // manager (service) -> last holder (service)
  kLockGrant,     // holder (service or main) -> acquirer (main)
  kBarrierArrive, // member (main) -> manager (main)
  kBarrierDepart, // manager (main) -> member (main)
  kForkWork,      // master (main) -> worker (main): improved interface §2.3
  kJoinDone,      // worker (main) -> master (main)
  kPushData,      // tmk extension: push()/bcast() data (Dwarkadas et al. [7])
  kDiffPush,      // hybrid update protocol: barrier-time pushed diffs;
                  // tag = the barrier's sequence number
  // ---- harness (uncounted) ----
  kShutdownArrive,  // final rendezvous before service threads stop
  kShutdownDepart,
  // ---- test-only ----
  kTestPing,
  kTestPong,
};

/// Which accounting bucket a message belongs to. The paper's Tables 2 and
/// 3 report DSM-system traffic and message-passing traffic separately
/// (they are different columns of the same table); control traffic of the
/// harness itself is never counted.
enum class Layer : std::uint8_t { kTmk = 0, kPvme = 1, kOther = 2 };

[[nodiscard]] constexpr Layer layer_of(FrameKind k) noexcept {
  switch (k) {
    case FrameKind::kPvmeData:
    case FrameKind::kPvmeBarrierArrive:
    case FrameKind::kPvmeBarrierDepart:
      return Layer::kPvme;
    case FrameKind::kShutdownArrive:
    case FrameKind::kShutdownDepart:
    case FrameKind::kTestPing:
    case FrameKind::kTestPong:
      return Layer::kOther;
    default:
      return Layer::kTmk;
  }
}

/// On-wire chunk header; 40 bytes, host byte order (single-host mesh).
struct FrameHeader {
  std::uint32_t magic;
  std::uint16_t kind;
  std::uint16_t src;
  std::uint64_t vt_arrival;  // modelled arrival time at the destination
  std::int32_t tag;
  std::uint32_t req_id;
  std::uint32_t chunk_len;  // payload bytes in this chunk
  std::uint32_t orig_len;   // payload bytes in the logical message
  std::uint32_t offset;     // this chunk's offset into the payload
  std::uint32_t reserved;
};
static_assert(sizeof(FrameHeader) == 40);

/// A fully reassembled logical message.
struct Frame {
  FrameKind kind{};
  int src = -1;
  std::int32_t tag = 0;
  std::uint32_t req_id = 0;
  std::uint64_t vt_arrival = 0;
  std::vector<std::byte> payload;
};

}  // namespace mpl
