// Consolidated TMK_* environment parsing.
//
// Every knob the system reads from the environment goes through this
// header: one authoritative list of known names (typo detection via
// warn_unrecognized_once), validated parsing that warns once on garbage
// instead of silently ignoring it, and per-call reads — never cached
// process-wide — so tests can toggle knobs between spawns under the
// thread backend.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

extern "C" char** environ;  // NOLINT(readability-redundant-declaration)

namespace common::env {

/// Every TMK_-prefixed variable the system understands (build-time
/// options TMK_TSAN / TMK_ASAN are CMake cache names, listed so an
/// exported copy in the environment is not flagged as a typo).
inline constexpr std::string_view kKnown[] = {
    "TMK_TRANSPORT",         // mpl: socket|shm|inproc
    "TMK_BACKEND",           // runner: process|thread
    "TMK_FABRIC_BURST",      // mpl: 0 disables per-peer send bursts
    "TMK_CPU_SCALE",         // sim: compute scaling factor (> 0)
    "TMK_FULL_SIZES",        // bench: run paper-size problem presets
    "TMK_UPDATE_MODE",       // tmk: off|hybrid barrier-time diff pushing
    "TMK_RACECHECK",         // tmk: off|summary|precise race detection
    "TMK_RACECHECK_THROW",   // tmk: throw on the first detected race
    "TMK_RACECHECK_MAX_REPORTS",  // tmk: stored RaceReport cap (0 = none)
    "TMK_EPOCH_GC",          // tmk: off|on epoch reclamation of state
    "TMK_EPOCH_GC_INTERVAL",  // tmk: barrier epochs per GC round
    "TMK_FAULT_INJECT",      // mpl: deterministic fault plan (chaos runs)
    "TMK_WAIT_DEADLINE_MS",  // mpl: per-wait budget before a loud abort
    "TMK_TSAN",              // cmake: ThreadSanitizer build
    "TMK_ASAN",              // cmake: AddressSanitizer/UBSan build
};

namespace detail {

/// True the first time `key` is seen in this process — parsing happens
/// per construction, so a bad value would otherwise warn per spawn.
inline bool first_time(const std::string& key) {
  static std::mutex mu;
  static std::vector<std::string> seen;
  const std::lock_guard<std::mutex> g(mu);
  for (const auto& s : seen)
    if (s == key) return false;
  seen.push_back(key);
  return true;
}

inline void warn_value(const char* name, const char* value,
                       const char* expect) {
  if (!first_time(std::string(name) + '=' + value)) return;
  std::fprintf(stderr, "tmk: ignoring %s=%s (%s)\n", name, value, expect);
}

}  // namespace detail

/// Raw lookup for string-valued knobs (TMK_TRANSPORT, TMK_FAULT_INJECT);
/// validation lives with the parser that understands the value.
[[nodiscard]] inline const char* raw(const char* name) noexcept {
  return std::getenv(name);
}

/// Presence switch (TMK_FULL_SIZES, TMK_CPU_SCALE override detection).
[[nodiscard]] inline bool is_set(const char* name) noexcept {
  return std::getenv(name) != nullptr;
}

/// On/off knob: unset -> fallback; set -> a leading '0' disables,
/// anything else enables (the TMK_FABRIC_BURST contract).
[[nodiscard]] inline bool flag_knob(const char* name, bool fallback) noexcept {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  return v[0] != '0';
}

/// Integer knob: nullopt when unset; warns once and returns nullopt on
/// non-numeric text instead of silently reading it as 0.
[[nodiscard]] inline std::optional<long long> int_knob(const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  char* end = nullptr;
  const long long n = std::strtoll(v, &end, 10);
  if (end == v || *end != '\0') {
    detail::warn_value(name, v, "expected an integer");
    return std::nullopt;
  }
  return n;
}

/// Positive-double knob (TMK_CPU_SCALE): nullopt when unset, malformed,
/// or not > 0 — a non-positive scale was always silently inert, now it
/// warns once.
[[nodiscard]] inline std::optional<double> positive_double_knob(
    const char* name) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return std::nullopt;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0') {
    detail::warn_value(name, v, "expected a number");
    return std::nullopt;
  }
  if (d <= 0) {
    detail::warn_value(name, v, "expected a value > 0");
    return std::nullopt;
  }
  return d;
}

/// Scans the environment for TMK_-prefixed names outside kKnown and
/// warns once per name: a typoed knob (TMK_TRANSPRT=shm) fails loud
/// instead of silently doing nothing. Called from runner::spawn.
inline void warn_unrecognized_once() {
  for (char** e = ::environ; e != nullptr && *e != nullptr; ++e) {
    const std::string_view kv(*e);
    if (!kv.starts_with("TMK_")) continue;
    const std::string_view name = kv.substr(0, kv.find('='));
    bool known = false;
    for (const std::string_view k : kKnown)
      if (k == name) known = true;
    if (known || !detail::first_time(std::string(name))) continue;
    std::fprintf(stderr,
                 "tmk: unrecognized environment variable %.*s "
                 "(possible typo; see the TMK_* table in README.md)\n",
                 static_cast<int>(name.size()), name.data());
  }
}

}  // namespace common::env
