// Deterministic fault injection for chaos runs (TMK_FAULT_INJECT).
//
// A fault plan is a comma-separated key=value list parsed once per
// transport construction, e.g.
//
//   TMK_FAULT_INJECT="rank=3,exit-at-barrier=2,hard=1"
//   TMK_FAULT_INJECT="seed=7,rank=any,crash-at-send=100"
//   TMK_FAULT_INJECT="rank=1,delay-before-publish=50@10"
//
// Keys:
//   seed=<u64>                  selects the victim when rank=any
//                               (victim = seed % nprocs); default 1
//   rank=<k>|any                the victim rank; a plan whose victim is
//                               not this rank installs nothing, so the
//                               disabled path costs one null check
//   crash-at-send=<N>           die immediately before publishing the
//                               Nth datagram (1-based, both threads)
//   delay-before-publish=<MS>@<N>  park MS milliseconds before datagram
//                               N leaves, once — a straggler, not a death
//   exit-at-barrier=<K>         die on entering the Kth tmk barrier
//   hard=1                      die by _exit(86) instead of unwinding
//                               (process backend only: under the thread
//                               backend _exit takes every rank with it)
//
// Unknown keys throw at parse time. The plan is interpreted by the
// Transport's public methods (transport.hpp), above the ring layout, so
// both runner backends observe identical fault semantics by
// construction.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string_view>

namespace mpl {

struct FaultPlan {
  std::uint64_t seed = 1;
  int rank = -1;                        // explicit victim; -1 with
  bool any_rank = false;                // any_rank: seed % nprocs
  std::uint64_t crash_at_send = 0;      // 1-based datagram index; 0 = off
  std::uint64_t delay_before_send = 0;  // 1-based datagram index; 0 = off
  std::uint32_t delay_ms = 0;
  std::uint32_t exit_at_barrier = 0;    // 1-based barrier count; 0 = off
  bool hard = false;                    // _exit(86) instead of throwing

  /// Parses a plan spec; throws common::Error on unknown keys or
  /// malformed values (a typoed plan must not silently run fault-free).
  [[nodiscard]] static FaultPlan parse(std::string_view spec);

  /// The rank this plan kills for an nprocs-rank mesh (may be out of
  /// range for an explicit rank=<k>; then nobody is the victim).
  [[nodiscard]] int victim(int nprocs) const noexcept {
    if (any_rank) return static_cast<int>(seed % static_cast<std::uint64_t>(nprocs));
    return rank;
  }
};

/// The victim rank's live fault state, owned by its Transport. Both
/// sending threads (main + service) drive the send counter, so the
/// counters are atomics; `dead()` is checked by the transport wrappers
/// after a fault fired so a dying rank drops further sends instead of
/// completing protocol exchanges.
class FaultInjector {
 public:
  FaultInjector(const FaultPlan& plan, int rank) : plan_(plan), rank_(rank) {}

  /// Called immediately before a datagram publish attempt: applies the
  /// delay plan (once) and fires crash-at-send — prints the fault to
  /// stderr, then _exit(86)s (hard) or throws common::Error (soft).
  void before_send();

  /// Called after a successfully published datagram.
  void after_send() noexcept {
    sends_.fetch_add(1, std::memory_order_relaxed);
  }

  /// Called when the runtime enters a barrier; fires exit-at-barrier.
  void on_barrier();

  [[nodiscard]] bool dead() const noexcept {
    return dead_.load(std::memory_order_acquire);
  }

  /// The fault description recorded by die(), or "" if the fault has
  /// not fired (or the recording thread has not finished writing it
  /// yet). Lets the *other* thread of a dying rank blame the concrete
  /// plan key — the service thread may be the one that hits
  /// crash-at-send while the main thread merely observes dead().
  [[nodiscard]] const char* cause() const noexcept {
    return cause_ready_.load(std::memory_order_acquire) ? cause_ : "";
  }

 private:
  void die(const char* what);

  FaultPlan plan_;
  int rank_;
  std::atomic<std::uint64_t> sends_{0};
  std::atomic<std::uint32_t> barriers_{0};
  std::atomic<bool> delay_done_{false};
  std::atomic<bool> dead_{false};
  std::atomic<bool> cause_ready_{false};
  char cause_[96] = {};
};

/// Builds this rank's injector from TMK_FAULT_INJECT, or null when the
/// variable is unset/empty or the plan's victim is a different rank —
/// the common case, so a fault-free run pays one getenv at construction
/// and a null-pointer check per send.
[[nodiscard]] std::unique_ptr<FaultInjector> fault_injector_from_env(
    int rank, int nprocs);

}  // namespace mpl
