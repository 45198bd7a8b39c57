// Core protocol types for the TreadMarks reproduction: vector clocks,
// interval identities, and byte-stream serialization helpers.
//
// Terminology (Keleher's lazy release consistency, as implemented by
// TreadMarks §2.2):
//   - an *interval* is the slice of one processor's execution between two
//     consecutive release operations (lock release or barrier arrival);
//   - a *write notice* says "interval (creator, seq) modified page p";
//   - a *vector clock* VC[q] = highest seq of q's intervals whose write
//     notices this processor has seen (and invalidated against).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "common/check.hpp"
#include "common/page.hpp"
#include "mpl/frame.hpp"

namespace tmk {

using ProcId = std::uint16_t;
using Seq = std::uint32_t;       // per-processor interval sequence number
using PageIndex = std::uint32_t;

/// Vector clock over at most kMaxProcs processors. Entries beyond nprocs
/// stay zero.
class VectorClock {
 public:
  [[nodiscard]] Seq get(ProcId p) const noexcept { return v_[p]; }
  void set(ProcId p, Seq s) noexcept { v_[p] = s; }

  void merge(const VectorClock& o) noexcept {
    for (std::size_t i = 0; i < v_.size(); ++i)
      v_[i] = std::max(v_[i], o.v_[i]);
  }

  /// Element-wise minimum (the epoch GC's horizon fold).
  void meet(const VectorClock& o) noexcept {
    for (std::size_t i = 0; i < v_.size(); ++i)
      v_[i] = std::min(v_[i], o.v_[i]);
  }

  /// Componentwise <=: this happened-before-or-equals other.
  [[nodiscard]] bool dominated_by(const VectorClock& o) const noexcept {
    for (std::size_t i = 0; i < v_.size(); ++i)
      if (v_[i] > o.v_[i]) return false;
    return true;
  }

  /// Sum of components: a linear extension of happens-before for
  /// intervals (used to order diff application in fetch_and_apply).
  [[nodiscard]] std::uint64_t weight() const noexcept {
    std::uint64_t s = 0;
    for (Seq x : v_) s += x;
    return s;
  }

  [[nodiscard]] bool operator==(const VectorClock&) const = default;

 private:
  std::array<Seq, mpl::kMaxProcs> v_{};
};

/// Fixed-size rank bitmask: the consumer sets of the hybrid update
/// protocol (one bit per rank that is predicted to read a page).
class ProcMask {
 public:
  void set(int p) noexcept {
    w_[static_cast<std::size_t>(p) >> 6] |= std::uint64_t{1} << (p & 63);
  }
  void clear(int p) noexcept {
    w_[static_cast<std::size_t>(p) >> 6] &= ~(std::uint64_t{1} << (p & 63));
  }
  [[nodiscard]] bool test(int p) const noexcept {
    return ((w_[static_cast<std::size_t>(p) >> 6] >> (p & 63)) & 1) != 0;
  }
  [[nodiscard]] bool any() const noexcept {
    for (const std::uint64_t x : w_)
      if (x != 0) return true;
    return false;
  }
  void reset() noexcept { w_.fill(0); }
  void merge(const ProcMask& o) noexcept {
    for (std::size_t i = 0; i < w_.size(); ++i) w_[i] |= o.w_[i];
  }
  [[nodiscard]] bool operator==(const ProcMask&) const = default;

 private:
  std::array<std::uint64_t, (mpl::kMaxProcs + 63) / 64> w_{};
};

/// Identity of one interval.
struct IntervalKey {
  ProcId creator = 0;
  Seq seq = 0;
  [[nodiscard]] bool operator==(const IntervalKey&) const = default;
};

/// Race-detection access mask: one bit per 4-byte word of a page
/// (4 KiB = 1024 words = sixteen mask words) — the DSM's own diff word
/// (diff.hpp kDiffWord), i.e. the protocol's definition of false
/// sharing. Granularity matters: the legal concurrent writes the
/// multiple-writer protocol exists to support land on distinct diff
/// words of shared pages — often inside the SAME 8-byte word
/// (neighboring ranks writing adjacent floats across a row boundary in
/// Shallow, whose 97-float rows are not 8-byte multiples) — so any
/// coarser mask reports that false sharing as a race. Elements are
/// >= 4 bytes naturally aligned throughout; sub-diff-word false
/// sharing cannot occur.
struct RaceMask {
  static constexpr std::size_t kWordBytes = 4;  // == tmk::kDiffWord
  static constexpr std::size_t kWords = common::kPageSize / kWordBytes;
  std::array<std::uint64_t, kWords / 64> v{};

  /// Mask of the single page word covering byte `offset_in_page`.
  [[nodiscard]] static RaceMask word_at(std::size_t offset_in_page) noexcept {
    const std::size_t word = offset_in_page / kWordBytes;
    RaceMask m;
    m.v[word / 64] = std::uint64_t{1} << (word % 64);
    return m;
  }
  [[nodiscard]] bool any() const noexcept {
    for (const std::uint64_t w : v)
      if (w != 0) return true;
    return false;
  }
  RaceMask& operator|=(const RaceMask& o) noexcept {
    for (std::size_t i = 0; i < v.size(); ++i) v[i] |= o.v[i];
    return *this;
  }
  [[nodiscard]] friend RaceMask operator&(const RaceMask& a,
                                          const RaceMask& b) noexcept {
    RaceMask m;
    for (std::size_t i = 0; i < m.v.size(); ++i) m.v[i] = a.v[i] & b.v[i];
    return m;
  }
  /// this & ~o — the watermark subtraction of the cumulative-twin scan.
  [[nodiscard]] RaceMask minus(const RaceMask& o) const noexcept {
    RaceMask m;
    for (std::size_t i = 0; i < m.v.size(); ++i) m.v[i] = v[i] & ~o.v[i];
    return m;
  }
  [[nodiscard]] auto operator<=>(const RaceMask&) const = default;

  /// Compact hex rendering of the 1024-bit value, leading zeros trimmed
  /// (highest mask word first) — the TMK_RACE_REPORT "words" field.
  [[nodiscard]] std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string out;
    bool significant = false;
    for (std::size_t i = v.size(); i-- > 0;) {
      for (int shift = 60; shift >= 0; shift -= 4) {
        const auto d = static_cast<std::size_t>((v[i] >> shift) & 0xF);
        if (d != 0) significant = true;
        if (significant) out.push_back(kDigits[d]);
      }
    }
    if (out.empty()) out.push_back('0');
    return out;
  }
};

/// Metadata of one interval as shipped in write notices: who, when (its
/// creator's vector time at close), and which pages it dirtied.
/// `vc_weight` caches vc.weight(): the fetch path sorts fetched diffs by
/// it, and recomputing a kMaxProcs-wide sum per comparison would scale
/// with the widened clock instead of staying O(1).
struct IntervalMeta {
  IntervalKey id;
  VectorClock vc;
  std::uint64_t vc_weight = 0;
  std::vector<PageIndex> pages;
  // Race detection only (TMK_RACECHECK != off): one word-granular
  // RaceMask per entry of `pages`. Shipped with the write notice so
  // the receiver's write/write checks never alias distinct words —
  // page- or block-granular checks would flag the legal concurrent
  // same-page disjoint writes the multiple-writer protocol exists to
  // support. Empty when detection is off: the wire format and memory
  // footprint are unchanged.
  std::vector<RaceMask> write_masks;
};

// ---------------------------------------------------------------------
// Byte-stream serialization. All traffic stays on one host, so host byte
// order is fine; bounds are checked on the read side.
// ---------------------------------------------------------------------

class ByteWriter {
 public:
  template <typename T>
  void put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    const auto* p = reinterpret_cast<const std::byte*>(&v);
    buf_.insert(buf_.end(), p, p + sizeof(T));
  }

  void put_bytes(std::span<const std::byte> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  void put_vc(const VectorClock& vc, int nprocs) {
    for (int i = 0; i < nprocs; ++i) put<Seq>(vc.get(static_cast<ProcId>(i)));
  }

  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return buf_;
  }
  [[nodiscard]] std::vector<std::byte> take() noexcept {
    return std::move(buf_);
  }
  [[nodiscard]] std::size_t size() const noexcept { return buf_.size(); }

  /// Drops the contents but keeps the capacity: hot paths reuse one
  /// writer across messages instead of allocating per send.
  void clear() noexcept { buf_.clear(); }
  void reserve(std::size_t n) { buf_.reserve(n); }

 private:
  std::vector<std::byte> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::byte> b) noexcept : buf_(b) {}

  template <typename T>
  [[nodiscard]] T get() {
    static_assert(std::is_trivially_copyable_v<T>);
    COMMON_CHECK_MSG(pos_ + sizeof(T) <= buf_.size(),
                     "message underflow reading " << sizeof(T) << " bytes");
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  [[nodiscard]] std::span<const std::byte> get_bytes(std::size_t n) {
    COMMON_CHECK_MSG(pos_ + n <= buf_.size(), "message underflow");
    auto s = buf_.subspan(pos_, n);
    pos_ += n;
    return s;
  }

  [[nodiscard]] VectorClock get_vc(int nprocs) {
    VectorClock vc;
    for (int i = 0; i < nprocs; ++i)
      vc.set(static_cast<ProcId>(i), get<Seq>());
    return vc;
  }

  [[nodiscard]] bool done() const noexcept { return pos_ == buf_.size(); }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return buf_.size() - pos_;
  }

 private:
  std::span<const std::byte> buf_;
  std::size_t pos_ = 0;
};

}  // namespace tmk
