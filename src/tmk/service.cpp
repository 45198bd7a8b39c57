// Service thread: answers diff fetches and lock traffic while the main
// thread computes. TreadMarks used SIGIO interrupts for this; a dedicated
// thread produces the same message pattern, and its handler cost is
// charged to the process's virtual clock as interrupt overhead.
#include "tmk/runtime.hpp"

#include <cstdio>
#include <exception>

#include "common/check.hpp"

namespace tmk {

void Runtime::service_loop() {
  try {
    while (auto f = ep_.next_svc_request(stop_)) {
      switch (f->kind) {
        case mpl::FrameKind::kDiffRequest:
          serve_diff_request(*f);
          break;
        case mpl::FrameKind::kLockRequest:
          serve_lock_request(*f);
          break;
        case mpl::FrameKind::kLockForward:
          serve_lock_forward(*f);
          break;
        default:
          COMMON_CHECK_MSG(false, "unexpected service frame kind "
                                      << static_cast<int>(f->kind));
      }
      // The handlers only read the payload; recycle its capacity for the
      // next receive.
      ep_.recycle_svc_buffer(std::move(f->payload));
    }
  } catch (const std::exception& e) {
    // An injected fault (or a peer's death) can surface here while the
    // main thread is computing; an escaped exception would std::terminate
    // the whole process with no blame line. Log and fall off — the main
    // thread's own waits hit the same condition and unwind with the full
    // crash report.
    std::fprintf(stderr, "tmk: rank %d service thread failed: %s\n", rank_,
                 e.what());
    std::fflush(stderr);
  }
}

// Reply entry whose length is this marker shares the previous entry's
// bytes (one lazy flush covers several intervals of a page).
inline constexpr std::uint32_t kSameAsPrevious = 0xffffffffu;

void Runtime::serve_diff_request(const mpl::Frame& f) {
  const auto& m = ep_.clock().model();
  ByteReader r(f.payload);
  const auto n = r.get<std::uint32_t>();
  std::uint64_t handler = m.handler_cost(n);

  ByteWriter& w = svc_reply_writer_;  // service thread only; reused
  w.clear();
  w.put<std::uint32_t>(n);
  // tag 1 marks epoch-GC validation fetches: forced traffic that says
  // nothing about what the requester reads, so it must not arm the
  // adaptive push predictor (learning from it turns every GC round
  // into a run-long mispredicted-push storm).
  const bool learning = pushing() && f.tag == 0;
  {
    std::lock_guard<std::mutex> g(mu_);
    const DiffRec* prev = nullptr;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto page = r.get<PageIndex>();
      const auto seq = r.get<Seq>();
      if (learning) {
        // Adaptive predictor feed: this rank PULLED this page, so it is
        // a likely consumer of our next barrier's diff. Re-arm the
        // credit budget — a request proves the prediction is live.
        PageExt& px = ext(page);
        px.adaptive_consumers.set(f.src);
        px.push_budget = Config::push_credits;
      }
      const auto key = (static_cast<std::uint64_t>(page) << 32) | seq;
      const DiffRec* rec = nullptr;
      {
        std::lock_guard<std::mutex> dg(diff_mu_);
        if (auto it = diffs_.find(key); it != diffs_.end()) rec = &it->second;
      }
      if (rec == nullptr) {
        // Lazy flush: create the diff(s) for this page now.
        handler += flush_page_diff(page);
        std::lock_guard<std::mutex> dg(diff_mu_);
        auto it = diffs_.find(key);
        COMMON_CHECK_MSG(it != diffs_.end(),
                         "diff request for unknown diff: page "
                             << page << " seq " << seq);
        rec = &it->second;
      }
      w.put<PageIndex>(page);
      w.put<Seq>(seq);
      w.put<Seq>(rec->covered_up_to);
      if (prev != nullptr && prev->blob == rec->blob) {
        w.put<std::uint32_t>(kSameAsPrevious);
      } else {
        w.put<std::uint32_t>(static_cast<std::uint32_t>(rec->blob->size()));
        w.put_bytes(*rec->blob);
      }
      prev = rec;
    }
  }
  stats_.diff_replies.fetch_add(1, std::memory_order_relaxed);
  ep_.clock().charge_interrupt(m.recv_overhead_ns + handler +
                               m.send_overhead_ns);
  const std::uint64_t base = f.vt_arrival + m.recv_overhead_ns + handler;
  const std::uint64_t arrival = ep_.stamp_reply(base, f.src, w.size());
  ep_.send_app_stamped(f.src, mpl::FrameKind::kDiffReply, 0, f.req_id,
                       w.bytes(), arrival);
}

}  // namespace tmk
