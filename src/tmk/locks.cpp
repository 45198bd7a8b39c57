// Lock protocol (§2.2).
//
// "Each lock has a statically assigned manager. The manager records which
//  processor has most recently requested the lock. All lock acquire
//  requests are directed to the manager, and, if necessary, forwarded to
//  the processor that last requested the lock. A lock release does not
//  cause any communication."
//
// The grant carries the write notices of every interval the acquirer has
// not yet seen (lazy release consistency) — this is the "combined
// synchronization and data transfer" the message-passing comparison in §5
// credits to the MP programs, which DSM achieves only at lock grants.
#include "tmk/runtime.hpp"

#include <algorithm>
#include <cstdio>

#include "common/check.hpp"

namespace tmk {

void Runtime::lock_acquire(int lock_id) {
  COMMON_CHECK(lock_id >= 0 && lock_id < kNumLocks);
  simx::ProtocolSection protocol(ep_.clock());
  if (nprocs_ == 1) {
    locks_[static_cast<std::size_t>(lock_id)].held = true;
    return;
  }

  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(lock_id));
  {
    std::lock_guard<std::mutex> g(mu_);
    w.put_vc(vc_, nprocs_);
  }
  const std::uint32_t req_id = next_req_id_++;
  ep_.send_svc(lock_manager(lock_id), mpl::FrameKind::kLockRequest, lock_id,
               req_id, w.bytes());

  char site[64];
  std::snprintf(site, sizeof(site), "lock %d acquire (manager %d)", lock_id,
                lock_manager(lock_id));
  ep_.set_wait_site(site);
  mpl::Frame f = ep_.wait_app([lock_id](const mpl::Frame& fr) {
    return fr.kind == mpl::FrameKind::kLockGrant && fr.tag == lock_id;
  });
  ByteReader r(f.payload);
  const auto granted_lock = r.get<std::uint32_t>();
  COMMON_CHECK(granted_lock == static_cast<std::uint32_t>(lock_id));
  VectorClock granter_vc = r.get_vc(nprocs_);
  {
    std::lock_guard<std::mutex> g(mu_);
    read_intervals(r);
    vc_.merge(granter_vc);
    LockState& st = locks_[static_cast<std::size_t>(lock_id)];
    COMMON_CHECK(!st.held);
    st.held = true;
    st.released_here = false;
  }
  ep_.recycle_buffer(std::move(f.payload));
  race_maybe_throw();
}

void Runtime::lock_release(int lock_id) {
  COMMON_CHECK(lock_id >= 0 && lock_id < kNumLocks);
  simx::ProtocolSection protocol(ep_.clock());
  if (nprocs_ == 1) {
    locks_[static_cast<std::size_t>(lock_id)].held = false;
    return;
  }
  close_interval();

  std::optional<std::pair<ProcId, VectorClock>> successor;
  {
    std::lock_guard<std::mutex> g(mu_);
    LockState& st = locks_[static_cast<std::size_t>(lock_id)];
    COMMON_CHECK_MSG(st.held, "releasing a lock not held");
    st.held = false;
    // Outgoing sync edge: reads before this release are ordered before
    // every write the successor chain performs after acquiring — and a
    // read-only rank closes no interval that could ever say so. Prune
    // by epoch instead of false-reporting when such a write's notice
    // arrives later (detection may miss a genuinely concurrent old
    // notice that arrives after this point; it never false-reports).
    ++race_epoch_;
    if (st.successor.has_value()) {
      successor = std::move(st.successor);
      st.successor.reset();
      st.released_here = false;  // ownership passes on immediately
    } else {
      st.released_here = true;   // silent release
    }
  }
  if (successor.has_value()) {
    send_lock_grant(lock_id, successor->first, successor->second,
                    /*from_service=*/false, /*base_vt=*/0);
  }
}

void Runtime::send_lock_grant(int lock_id, ProcId requester,
                              const VectorClock& req_vc, bool from_service,
                              std::uint64_t base_vt) {
  ByteWriter w;
  w.put<std::uint32_t>(static_cast<std::uint32_t>(lock_id));
  {
    std::lock_guard<std::mutex> g(mu_);
    w.put_vc(vc_, nprocs_);
    serialize_intervals_lacking(w, req_vc);
    if (pushing() && requester != rank_) {
      // Adaptive predictor feed: the successor is about to invalidate
      // (and likely pull) every page our unseen-by-them intervals wrote
      // — treat the grant like an observed request for those pages.
      const Seq lo = req_vc.get(static_cast<ProcId>(rank_));
      const Seq hi = vc_.get(static_cast<ProcId>(rank_));
      const auto& own = intervals_[static_cast<std::size_t>(rank_)];
      for (Seq s = std::max(lo, own.base) + 1; s <= hi && s <= own.hi(); ++s) {
        for (PageIndex page : own.at(s)->pages) {
          PageExt& px = ext(page);
          px.adaptive_consumers.set(requester);
          px.push_budget = Config::push_credits;
        }
      }
    }
  }
  if (from_service) {
    const std::uint64_t arrival = ep_.stamp_reply(base_vt, requester,
                                              w.size());
    ep_.send_app_stamped(requester, mpl::FrameKind::kLockGrant, lock_id, 0,
                         w.bytes(), arrival);
  } else {
    // Grant plus piggybacked write notices as one message to the
    // successor — the "combined synchronization and data transfer" unit.
    ep_.send_app(requester, mpl::FrameKind::kLockGrant, lock_id, 0,
                 w.bytes());
  }
}

// ---- service-thread handlers ----------------------------------------

void Runtime::serve_lock_request(const mpl::Frame& f) {
  const auto& m = ep_.clock().model();
  const std::uint64_t handler = m.handler_cost(1);
  ep_.clock().charge_interrupt(m.recv_overhead_ns + handler +
                               m.send_overhead_ns);
  ByteReader r(f.payload);
  const auto lock_id = r.get<std::uint32_t>();
  VectorClock req_vc = r.get_vc(nprocs_);
  COMMON_CHECK(lock_manager(static_cast<int>(lock_id)) == rank_);

  ProcId last;
  {
    std::lock_guard<std::mutex> g(mu_);
    last = lock_last_requester_[lock_id];
    lock_last_requester_[lock_id] = static_cast<ProcId>(f.src);
  }

  // Forward to the previous requester (possibly ourselves).
  ByteWriter w;
  w.put<std::uint32_t>(lock_id);
  w.put<ProcId>(static_cast<ProcId>(f.src));
  w.put_vc(req_vc, nprocs_);
  const std::uint64_t base = f.vt_arrival + m.recv_overhead_ns + handler;
  const std::uint64_t arrival = ep_.stamp_reply(base, last, w.size());
  ep_.send_svc_stamped(last, mpl::FrameKind::kLockForward,
                       static_cast<std::int32_t>(lock_id), f.req_id,
                       w.bytes(), arrival);
}

void Runtime::serve_lock_forward(const mpl::Frame& f) {
  const auto& m = ep_.clock().model();
  const std::uint64_t handler = m.handler_cost(1);
  ep_.clock().charge_interrupt(m.recv_overhead_ns + handler +
                               m.send_overhead_ns);
  ByteReader r(f.payload);
  const auto lock_id = r.get<std::uint32_t>();
  const auto requester = r.get<ProcId>();
  VectorClock req_vc = r.get_vc(nprocs_);

  bool grant_now = false;
  {
    std::lock_guard<std::mutex> g(mu_);
    LockState& st = locks_[lock_id];
    if (st.released_here) {
      st.released_here = false;
      grant_now = true;
    } else {
      // Still held (or we are ourselves waiting for the grant): park the
      // requester; the release path will grant. The manager's chaining
      // guarantees at most one parked successor.
      COMMON_CHECK(!st.successor.has_value());
      st.successor = std::make_pair(requester, req_vc);
    }
  }
  if (grant_now) {
    send_lock_grant(static_cast<int>(lock_id), requester, req_vc,
                    /*from_service=*/true,
                    f.vt_arrival + m.recv_overhead_ns + handler);
  }
}

}  // namespace tmk
