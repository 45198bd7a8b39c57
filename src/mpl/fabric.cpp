#include "mpl/fabric.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "common/check.hpp"
#include "common/cpu_clock.hpp"
#include "common/env.hpp"

namespace mpl {

namespace {

// Bound on pooled receive buffers per side; beyond this, freed payloads
// are simply released to the allocator.
constexpr std::size_t kMaxPooledBuffers = 32;

/// Pops a pooled buffer (capacity reuse) or default-constructs one.
std::vector<std::byte> take_buffer(BufferPool& pool) {
  if (pool.empty()) return {};
  std::vector<std::byte> buf = std::move(pool.back());
  pool.pop_back();
  buf.clear();
  return buf;
}

void give_buffer(BufferPool& pool, std::vector<std::byte>&& buf) {
  if (pool.size() < kMaxPooledBuffers && buf.capacity() > 0)
    pool.push_back(std::move(buf));
}

}  // namespace

Endpoint::Endpoint(const Fabric& fabric, int rank, simx::MachineModel model)
    : rank_(rank),
      nprocs_(fabric.nprocs()),
      clock_(model),
      transport_(fabric.region(), fabric.nprocs(), rank, fabric.kind()) {
  wait_deadline_ms_ =
      std::max(0ll, common::env::int_knob("TMK_WAIT_DEADLINE_MS").value_or(0));
  last_frame_kind_.assign(static_cast<std::size_t>(nprocs_), 0xffff);
}

void Endpoint::set_wait_site(const char* site) noexcept {
  std::strncpy(wait_site_, site, sizeof(wait_site_) - 1);
  wait_site_[sizeof(wait_site_) - 1] = '\0';
}

void Endpoint::check_wait_health(std::uint64_t start_ns) {
  if (transport_.self_dead()) {
    const char* cause = transport_.self_death_cause();
    std::string msg = "rank " + std::to_string(rank_) +
                      " unwinding after injected fault";
    if (cause[0] != '\0') msg += std::string(": ") + cause;
    throw common::Error(msg + " (at " + wait_site_ + ")");
  }
  const int dead = transport_.poisoned_peer();
  if (dead >= 0) fail_wait("peer-death", dead, start_ns);
  if (wait_deadline_ms_ > 0 &&
      common::wall_ns() - start_ns >
          static_cast<std::uint64_t>(wait_deadline_ms_) * 1'000'000ull)
    fail_wait("deadline", -1, start_ns);
}

void Endpoint::fail_wait(const char* reason, int dead_rank,
                         std::uint64_t start_ns) {
  const std::uint64_t waited_ms = (common::wall_ns() - start_ns) / 1'000'000u;
  // One machine-readable line: everything a post-mortem needs to assign
  // blame without the rank's full log. All embedded free text (the wait
  // site, describe_channels, the forensics writer) is quote-free by
  // contract, so the line stays valid JSON.
  std::ostringstream os;
  os << "{\"rank\":" << rank_ << ",\"site\":\"" << wait_site_
     << "\",\"reason\":\"" << reason << "\"";
  if (dead_rank >= 0) os << ",\"dead_rank\":" << dead_rank;
  os << ",\"waited_ms\":" << waited_ms
     << ",\"deadline_ms\":" << wait_deadline_ms_
     << ",\"pending_frames\":" << pending_.size();
  os << ",\"last_frame_kind\":{";
  bool first = true;
  for (int src = 0; src < nprocs_; ++src) {
    const std::uint16_t k = last_frame_kind_[static_cast<std::size_t>(src)];
    if (k == 0xffff) continue;
    os << (first ? "" : ",") << "\"" << src << "\":" << k;
    first = false;
  }
  os << "},\"channels\":\"";
  transport_.describe_channels(os);
  os << "\"";
  if (forensics_writer_ != nullptr) {
    os << ",\"protocol\":\"";
    forensics_writer_(forensics_ctx_, os);
    os << "\"";
  }
  os << "}";
  std::fprintf(stderr, "TMK_CRASH_REPORT %s\n", os.str().c_str());
  std::fflush(stderr);
  // The throw itself stays short: it must survive the runner's bounded
  // per-rank error field, and the full state is already on stderr.
  std::ostringstream err;
  err << "rank " << rank_ << " gave up waiting at " << wait_site_ << " ("
      << reason;
  if (dead_rank >= 0) err << ": rank " << dead_rank << " died";
  err << " after " << waited_ms << " ms)";
  throw common::Error(err.str());
}

void Endpoint::count_if_remote(int dst, FrameKind kind,
                               std::size_t bytes) noexcept {
  if (dst != rank_) counters_.count(kind, bytes);
}

void Endpoint::send_chunks(Lane lane, int dst, bool pump_while_blocked,
                           FrameKind kind, std::int32_t tag,
                           std::uint32_t req_id,
                           std::span<const std::byte> payload,
                           std::uint64_t vt_arrival) {
  // The payload bytes travel straight from the caller's buffer (often
  // the shared page image itself) into the transport; no staging copy.
  const std::size_t total = payload.size();
  std::size_t offset = 0;
  std::uint64_t blocked_since = 0;
  do {
    const std::size_t len = std::min(kMaxChunk, total - offset);
    FrameHeader h{};
    h.magic = kFrameMagic;
    h.kind = static_cast<std::uint16_t>(kind);
    h.src = static_cast<std::uint16_t>(rank_);
    h.tag = tag;
    h.req_id = req_id;
    h.chunk_len = static_cast<std::uint32_t>(len);
    h.orig_len = static_cast<std::uint32_t>(total);
    h.offset = static_cast<std::uint32_t>(offset);
    h.vt_arrival = vt_arrival;

    while (!transport_.try_send(lane, dst, h, payload.subspan(offset, len))) {
      // Receiver has not drained yet. If we are the main thread, drain
      // our own inbound app traffic so the peer (possibly blocked on a
      // send toward us) can make progress; then wait for space. The
      // health re-check bounds a send wedged on a dead peer's full
      // channel. (Service-thread sends skip it: poll_poison is a
      // main-thread affair, and the service thread is unwound through
      // its stop flag when the main thread aborts.)
      if (pump_while_blocked) {
        pump();
        if (blocked_since == 0) blocked_since = common::wall_ns();
        check_wait_health(blocked_since);
      }
      transport_.wait_send(lane, dst, pump_while_blocked ? 2 : -1);
    }
    offset += len;
  } while (offset < total);
}

void Endpoint::send_app(int dst, FrameKind kind, std::int32_t tag,
                        std::uint32_t req_id,
                        std::span<const std::byte> payload) {
  const std::uint64_t arrival = clock_.on_send(payload.size(), dst == rank_);
  count_if_remote(dst, kind, payload.size());
  send_chunks(Lane::kApp, dst, /*pump_while_blocked=*/true, kind, tag, req_id,
              payload, arrival);
  // The syscall/copy time is covered by the modelled send cost.
  clock_.skip_transport();
}

void Endpoint::send_svc(int dst, FrameKind kind, std::int32_t tag,
                        std::uint32_t req_id,
                        std::span<const std::byte> payload) {
  const std::uint64_t arrival = clock_.on_send(payload.size(), dst == rank_);
  count_if_remote(dst, kind, payload.size());
  send_chunks(Lane::kSvc, dst, /*pump_while_blocked=*/true, kind, tag, req_id,
              payload, arrival);
  clock_.skip_transport();
}

void Endpoint::send_app_stamped(int dst, FrameKind kind, std::int32_t tag,
                                std::uint32_t req_id,
                                std::span<const std::byte> payload,
                                std::uint64_t vt_arrival) {
  count_if_remote(dst, kind, payload.size());
  send_chunks(Lane::kApp, dst, /*pump_while_blocked=*/false, kind, tag,
              req_id, payload, vt_arrival);
}

void Endpoint::send_svc_stamped(int dst, FrameKind kind, std::int32_t tag,
                                std::uint32_t req_id,
                                std::span<const std::byte> payload,
                                std::uint64_t vt_arrival) {
  count_if_remote(dst, kind, payload.size());
  send_chunks(Lane::kSvc, dst, /*pump_while_blocked=*/false, kind, tag,
              req_id, payload, vt_arrival);
}

std::optional<Frame> Endpoint::Assembler::feed(
    const FrameHeader& h, std::span<const std::byte> chunk,
    BufferPool& pool) {
  COMMON_CHECK_MSG(h.magic == kFrameMagic, "corrupt frame header");
  if (h.chunk_len == h.orig_len && h.offset == 0) {
    // Single-datagram message: complete without touching the map.
    Frame f;
    f.kind = static_cast<FrameKind>(h.kind);
    f.src = h.src;
    f.tag = h.tag;
    f.req_id = h.req_id;
    f.vt_arrival = h.vt_arrival;
    f.payload = take_buffer(pool);
    f.payload.assign(chunk.begin(), chunk.end());
    return f;
  }
  const Key key{
      (static_cast<std::uint64_t>(h.src) << 16) | h.kind,
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(h.tag)) << 32) |
          h.req_id};
  auto it = partial.find(key);
  if (it == partial.end()) {
    COMMON_CHECK_MSG(h.offset == 0, "chunk stream started mid-message");
    Frame f;
    f.kind = static_cast<FrameKind>(h.kind);
    f.src = h.src;
    f.tag = h.tag;
    f.req_id = h.req_id;
    f.vt_arrival = h.vt_arrival;
    f.payload = take_buffer(pool);
    f.payload.reserve(h.orig_len);
    it = partial.emplace(key, std::move(f)).first;
  }
  Frame& f = it->second;
  COMMON_CHECK_MSG(f.payload.size() == h.offset, "chunk out of order");
  f.payload.insert(f.payload.end(), chunk.begin(), chunk.end());
  if (f.payload.size() == h.orig_len) {
    Frame done = std::move(f);
    partial.erase(it);
    return done;
  }
  return std::nullopt;
}

void Endpoint::drain_app(bool block) {
  bool got_any = false;
  // ChunkSink is non-owning: the lambda must outlive it.
  const auto on_chunk =
      [this, &got_any](const FrameHeader& h, std::span<const std::byte> chunk) {
        last_frame_kind_[h.src] = h.kind;
        if (auto done = app_assembler_.feed(h, chunk, app_buffer_pool_)) {
          pending_.push_back(std::move(*done));
          got_any = true;
        }
      };
  const ChunkSink sink(on_chunk);
  std::uint64_t start_ns = 0;
  for (;;) {
    // Token before the drain: anything arriving after the drain misses
    // it bumps the token, so the wait below cannot sleep through it.
    const std::uint32_t token = transport_.recv_token(Lane::kApp);
    transport_.drain(Lane::kApp, sink);
    if (got_any || !block) return;
    // Health check strictly AFTER an empty drain: datagrams that were
    // delivered before a peer died (or before poison landed) are always
    // consumed first, so a rank that can still finish its protocol
    // exchange does so instead of aborting spuriously.
    if (start_ns == 0) start_ns = common::wall_ns();
    check_wait_health(start_ns);
    transport_.wait_recv(Lane::kApp, token);
  }
}

void Endpoint::pump() { drain_app(/*block=*/false); }

void Endpoint::recycle_buffer(std::vector<std::byte>&& buf) {
  give_buffer(app_buffer_pool_, std::move(buf));
}

void Endpoint::recycle_svc_buffer(std::vector<std::byte>&& buf) {
  give_buffer(svc_buffer_pool_, std::move(buf));
}

Frame Endpoint::wait_app(FramePredicate pred) {
  // Fold real application compute before any transport work; everything
  // between here and the matching frame is waiting/draining, which
  // on_recv discards in favour of the modelled costs.
  clock_.fold_compute();
  for (;;) {
    if (std::optional<Frame> f = take_pending(pred)) return std::move(*f);
    drain_app(/*block=*/true);
  }
}

std::optional<Frame> Endpoint::poll_app(FramePredicate pred) {
  clock_.fold_compute();
  if (std::optional<Frame> f = take_pending(pred)) return f;
  drain_app(/*block=*/false);
  return take_pending(pred);
}

std::optional<Frame> Endpoint::take_pending(FramePredicate pred) {
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (!pred(*it)) continue;
    Frame f = std::move(*it);
    pending_.erase(it);
    clock_.on_recv(f.vt_arrival, f.src == rank_);
    return f;
  }
  return std::nullopt;
}

Frame Endpoint::wait_app_kind(FrameKind kind) {
  return wait_app([kind](const Frame& f) { return f.kind == kind; });
}

Frame Endpoint::wait_app_kind_from(FrameKind kind, int src) {
  return wait_app(
      [kind, src](const Frame& f) { return f.kind == kind && f.src == src; });
}

std::optional<Frame> Endpoint::next_svc_request(
    const std::atomic<bool>& stop) {
  const auto on_chunk =
      [this](const FrameHeader& h, std::span<const std::byte> chunk) {
        if (auto done = svc_assembler_.feed(h, chunk, svc_buffer_pool_))
          svc_pending_.push_back(std::move(*done));
      };
  const ChunkSink sink(on_chunk);
  for (;;) {
    if (!svc_pending_.empty()) {
      Frame f = std::move(svc_pending_.front());
      svc_pending_.pop_front();
      return f;
    }
    const std::uint32_t token = transport_.recv_token(Lane::kSvc);
    if (stop.load(std::memory_order_acquire) || transport_.self_dead())
      return std::nullopt;
    transport_.drain(Lane::kSvc, sink);
    if (!svc_pending_.empty()) continue;
    // The token predates both the stop check and the drain: a request
    // or a wake_service() landing after either makes this return
    // immediately instead of sleeping through it.
    transport_.wait_recv(Lane::kSvc, token);
  }
}

void Endpoint::wake_service() { transport_.wake_service(); }

}  // namespace mpl
