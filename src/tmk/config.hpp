// Typed snapshot of every TMK_* knob the DSM runtime consumes.
//
// Config is the one way to configure the protocol. The harness builds
// one snapshot per spawn (runner::spawn resolves
// SpawnOptions::tmk_config, defaulting to Config::from_env()) and hands
// it to every rank through ChildContext; tmk::Runtime reads its knobs
// from there and nowhere else. So (a) all ranks of a run see the same
// values even if a test mutates the environment mid-run, and (b) adding
// a knob is one field plus one line in from_env() — parsing, validation,
// and the warn-once-on-garbage behavior all live in common/env.hpp.
// Code that needs a non-default protocol sets SpawnOptions::tmk_config.
//
// Header-only and dependency-free below common/: runner (which sits
// under tmk) carries a Config without linking the DSM.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "common/env.hpp"

namespace tmk {

/// Hybrid invalidate/update protocol mode (TMK_UPDATE_MODE). `kOff` is
/// the paper's pure invalidate protocol, byte-identical to the runtime
/// before the protocol existed. `kHybrid` pushes barrier-time diffs to
/// predicted consumers: the union of explicit decomposition hints
/// (hint_consumers) and the learned history of which ranks fetched
/// each page.
enum class UpdateMode : std::uint8_t {
  kOff = 0,
  kHybrid = 1,
};

[[nodiscard]] constexpr const char* to_string(UpdateMode m) noexcept {
  switch (m) {
    case UpdateMode::kOff: return "off";
    case UpdateMode::kHybrid: return "hybrid";
  }
  return "?";
}

/// Parses a TMK_UPDATE_MODE value; nullopt on anything unrecognized.
[[nodiscard]] constexpr std::optional<UpdateMode> parse_update_mode(
    std::string_view name) noexcept {
  if (name == "off") return UpdateMode::kOff;
  if (name == "hybrid") return UpdateMode::kHybrid;
  return std::nullopt;
}

/// Online race detection mode (TMK_RACECHECK). `kOff` records nothing
/// and is byte-identical — wire format, modelled counters, checksums —
/// to a runtime without the detector. The checking modes record
/// per-interval access summaries and compare incoming write notices
/// against them under the vector-clock happens-before order at every
/// integration point (barrier fan-in/departure, lock grant, fork,
/// join); they differ in what they track: `kSummary` checks
/// write/write pairs only, `kPrecise` additionally records read
/// faults (per 4-byte diff word) and reports read/write pairs. Write
/// summaries are per-word in both modes — they fall out of the
/// twin-vs-page diff scan for free, and any coarser check (page- or
/// cache-line-granular, for writes or reads) would flag the legal
/// concurrent same-page disjoint accesses the multiple-writer
/// protocol exists to allow; that is also why summary mode does not
/// attempt page-granular read tracking.
enum class RaceCheckMode : std::uint8_t {
  kOff = 0,
  kSummary = 1,
  kPrecise = 2,
};

[[nodiscard]] constexpr const char* to_string(RaceCheckMode m) noexcept {
  switch (m) {
    case RaceCheckMode::kOff: return "off";
    case RaceCheckMode::kSummary: return "summary";
    case RaceCheckMode::kPrecise: return "precise";
  }
  return "?";
}

/// Parses a TMK_RACECHECK value; nullopt on anything unrecognized.
[[nodiscard]] constexpr std::optional<RaceCheckMode> parse_racecheck(
    std::string_view name) noexcept {
  if (name == "off") return RaceCheckMode::kOff;
  if (name == "summary") return RaceCheckMode::kSummary;
  if (name == "precise") return RaceCheckMode::kPrecise;
  return std::nullopt;
}

/// One immutable knob snapshot, shared by every rank of a run. All
/// fields carry their built-in defaults, so a default-constructed
/// Config equals an empty environment.
struct Config {
  UpdateMode update_mode = UpdateMode::kOff;
  /// Adaptive-predictor credit budget: consecutive barriers a learned
  /// consumer stays in a page's push set without a confirming request.
  static constexpr int push_credits = 16;
  /// The barrier is always the paper's centralized manager at rank 0
  /// (§2.2); 0 names that flat shape in reports.
  static constexpr int barrier_arity = 0;
  RaceCheckMode racecheck = RaceCheckMode::kOff;
  /// TMK_RACECHECK_THROW: when set, the first TMK_RACE_REPORT also
  /// throws common::Error once the integration that found it returns.
  bool racecheck_throw = false;
  /// TMK_RACECHECK_MAX_REPORTS: cap on RaceReport records a rank keeps
  /// in memory (each holds two full vector clocks). Reports past the
  /// cap still print their TMK_RACE_REPORT line and count toward the
  /// race_reports counter but are dropped from storage, bumping
  /// race_reports_dropped instead. 0 means keep nothing.
  int racecheck_max_reports = 4096;
  /// TMK_EPOCH_GC: epoch-based reclamation of protocol state (interval
  /// records, diff blobs, consumed notices/pendings, stashed pushes,
  /// race metadata) below the global vector-clock horizon computed on
  /// barrier fan-in. `off` is bit-identical to a runtime without the
  /// collector in every counter and every modelled byte.
  bool epoch_gc = true;
  /// TMK_EPOCH_GC_INTERVAL: barrier epochs between GC rounds. Only GC
  /// rounds carry the horizon piggyback on the barrier wire, so the
  /// other (interval - 1) of every interval barriers stay byte-identical
  /// to the GC-off protocol.
  int epoch_gc_interval = 64;

  /// Resolves the snapshot from the environment, warning once per
  /// process on unparsable values (and taking the default instead).
  [[nodiscard]] static Config from_env() {
    Config c;
    namespace env = common::env;
    if (const char* v = env::raw("TMK_UPDATE_MODE");
        v != nullptr && *v != '\0') {
      if (const auto m = parse_update_mode(v); m.has_value())
        c.update_mode = *m;
      else
        env::detail::warn_value("TMK_UPDATE_MODE", v,
                                "expected off|hybrid");
    }
    if (const char* v = env::raw("TMK_RACECHECK"); v != nullptr && *v != '\0') {
      if (const auto m = parse_racecheck(v); m.has_value())
        c.racecheck = *m;
      else
        env::detail::warn_value("TMK_RACECHECK", v,
                                "expected off|summary|precise");
    }
    c.racecheck_throw = env::flag_knob("TMK_RACECHECK_THROW", false);
    if (const auto n = env::int_knob("TMK_RACECHECK_MAX_REPORTS");
        n.has_value())
      c.racecheck_max_reports = static_cast<int>(*n);
    if (const char* v = env::raw("TMK_EPOCH_GC"); v != nullptr && *v != '\0') {
      const std::string_view s(v);
      if (s == "on" || s == "1" || s == "true")
        c.epoch_gc = true;
      else if (s == "off" || s == "0" || s == "false")
        c.epoch_gc = false;
      else
        env::detail::warn_value("TMK_EPOCH_GC", v, "expected off|on");
    }
    if (const auto n = env::int_knob("TMK_EPOCH_GC_INTERVAL"); n.has_value()) {
      if (*n > 0)
        c.epoch_gc_interval = static_cast<int>(*n);
      else
        env::detail::warn_value("TMK_EPOCH_GC_INTERVAL",
                                env::raw("TMK_EPOCH_GC_INTERVAL"),
                                "expected a value > 0");
    }
    return c;
  }
};

}  // namespace tmk
