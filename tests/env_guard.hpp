// Scoped environment-variable override for tests that toggle runtime
// knobs (e.g. TMK_EPOCH_GC) between spawns. Restores the prior
// value — including "unset" — on scope exit. Not safe to construct
// while rank threads are running: setenv/getenv are not synchronized,
// so set the guard up BEFORE runner::spawn and let it outlive the run.
#pragma once

#include <cstdlib>
#include <string>

namespace test {

class EnvGuard {
 public:
  EnvGuard(const char* name, const char* value) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::setenv(name, value, 1);
  }
  /// Unset variant: guarantees the variable is absent for the guard's
  /// lifetime (e.g. to pin a knob's built-in default under a CI job
  /// that exports it globally).
  explicit EnvGuard(const char* name) : name_(name) {
    const char* prev = std::getenv(name);
    had_prev_ = prev != nullptr;
    if (had_prev_) prev_ = prev;
    ::unsetenv(name);
  }
  ~EnvGuard() {
    if (had_prev_)
      ::setenv(name_.c_str(), prev_.c_str(), 1);
    else
      ::unsetenv(name_.c_str());
  }
  EnvGuard(const EnvGuard&) = delete;
  EnvGuard& operator=(const EnvGuard&) = delete;

 private:
  std::string name_;
  std::string prev_;
  bool had_prev_ = false;
};

/// TMK_RACECHECK=<mode> ("off"/"summary"/"precise") for the guard's
/// lifetime; the default constructor guarantees it is unset (pinning
/// the detector's built-in off default under a racecheck CI leg).
class RacecheckEnv : public EnvGuard {
 public:
  explicit RacecheckEnv(const char* mode) : EnvGuard("TMK_RACECHECK", mode) {}
  RacecheckEnv() : EnvGuard("TMK_RACECHECK") {}
};

/// TMK_EPOCH_GC=on/off for the guard's lifetime; the default
/// constructor guarantees it is unset (pinning the collector's
/// built-in on default under a CI job that exports it globally).
class EpochGcEnv : public EnvGuard {
 public:
  explicit EpochGcEnv(bool on) : EnvGuard("TMK_EPOCH_GC", on ? "on" : "off") {}
  EpochGcEnv() : EnvGuard("TMK_EPOCH_GC") {}
};

}  // namespace test
