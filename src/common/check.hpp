// Error-handling primitives shared by every module.
//
// The runtime spans a mesh of ranks connected by message rings; when an
// invariant breaks we want a loud, location-tagged failure in the rank
// that detected it rather than a silent wedge of the whole mesh.
#pragma once

#include <cerrno>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>

namespace common {

/// Error thrown by all modules in this project on broken invariants or
/// failed system calls. Carries a formatted, location-tagged message.
class Error : public std::runtime_error {
 public:
  explicit Error(std::string what) : std::runtime_error(std::move(what)) {}
};

namespace detail {

[[noreturn]] inline void fail(const char* file, int line, const char* expr,
                              const std::string& msg) {
  std::ostringstream os;
  os << file << ':' << line << ": check failed: " << expr;
  if (!msg.empty()) os << " — " << msg;
  throw Error(os.str());
}

[[noreturn]] inline void fail_errno(const char* file, int line,
                                    const char* expr) {
  const int saved = errno;
  std::ostringstream os;
  os << file << ':' << line << ": syscall failed: " << expr << " — "
     << std::strerror(saved) << " (errno " << saved << ')';
  throw Error(os.str());
}

}  // namespace detail

}  // namespace common

/// Always-on invariant check (not compiled out in release builds: the
/// protocol state machines are cheap to verify relative to page copying).
#define COMMON_CHECK(expr)                                              \
  do {                                                                  \
    if (!(expr)) ::common::detail::fail(__FILE__, __LINE__, #expr, ""); \
  } while (0)

/// Invariant check with a context message (streamed into a string).
#define COMMON_CHECK_MSG(expr, msg)                            \
  do {                                                         \
    if (!(expr)) {                                             \
      std::ostringstream os_;                                  \
      os_ << msg; /* NOLINT */                                 \
      ::common::detail::fail(__FILE__, __LINE__, #expr, os_.str()); \
    }                                                          \
  } while (0)

/// Wraps a syscall that signals failure with a negative return; throws
/// with errno text. Returns the (non-negative) result.
#define COMMON_SYSCALL(expr)                                       \
  ([&]() {                                                         \
    const auto r_ = (expr);                                        \
    if (r_ < 0) ::common::detail::fail_errno(__FILE__, __LINE__, #expr); \
    return r_;                                                     \
  }())
