#include "mpl/transport.hpp"

namespace mpl {

Transport::Transport(int rank, int nprocs)
    : rank_(rank),
      nprocs_(nprocs),
      fault_(fault_injector_from_env(rank, nprocs)) {}

bool Transport::try_send(Lane lane, int dst, const FrameHeader& h,
                         std::span<const std::byte> chunk) {
  if (fault_ != nullptr) {
    // A rank whose fault already fired is unwinding: report the send as
    // done without delivering, so it cannot wedge in a full channel or
    // keep completing protocol exchanges (e.g. the shutdown rendezvous)
    // as if it were healthy.
    if (fault_->dead()) return true;
    fault_->before_send();
  }
  const bool sent = do_try_send(lane, dst, h, chunk);
  if (sent && fault_ != nullptr) fault_->after_send();
  return sent;
}

void Transport::wait_send(Lane lane, int dst, int timeout_ms) {
  if (self_dead()) return;
  const int slice = (timeout_ms < 0 || timeout_ms > kMaxWaitSliceMs)
                        ? kMaxWaitSliceMs
                        : timeout_ms;
  do_wait_send(lane, dst, slice);
}

std::size_t Transport::drain(Lane lane, const ChunkSink& sink) {
  return do_drain(lane, sink);
}

std::uint32_t Transport::recv_token(Lane lane) {
  return do_recv_token(lane);
}

void Transport::wait_recv(Lane lane, std::uint32_t token) {
  if (self_dead()) return;
  do_wait_recv(lane, token, kMaxWaitSliceMs);
}

void Transport::wake_service() { do_wake_service(); }

}  // namespace mpl
