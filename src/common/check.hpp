// Lightweight precondition / invariant checking for capmem.
//
// CAPMEM_CHECK is always on (argument validation on public API boundaries,
// following I.5/I.6 of the C++ Core Guidelines: state preconditions and check
// them where cheap). CAPMEM_DCHECK compiles out in NDEBUG builds and is used
// on hot simulator paths for protocol invariants.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

namespace capmem {

/// Thrown when a checked precondition or invariant fails.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : std::logic_error(what) {}
};

/// How a retrying executor (capmem::exec) must treat a failure.
/// Deterministic failures reproduce on any same-seed retry (quarantine the
/// job, keep its repro); transient failures are host-side (allocation,
/// system resources) and may succeed on retry; timeouts are watchdog-budget
/// exhaustion — retrying the same budget just burns it again.
enum class FailureClass { kDeterministic, kTransient, kTimeout };

inline const char* to_string(FailureClass c) {
  switch (c) {
    case FailureClass::kDeterministic: return "deterministic";
    case FailureClass::kTransient: return "transient";
    case FailureClass::kTimeout: return "timeout";
  }
  return "?";
}

/// Mixin for exceptions that know their own FailureClass (sim::SimAbort
/// implements it). Executors catch by this base to classify without
/// depending on the throwing layer.
class ClassifiedFailure {
 public:
  virtual ~ClassifiedFailure() = default;
  virtual FailureClass failure_class() const = 0;
};

namespace detail {
// Both failure paths are cold and never inlined: a check in a hot loop
// costs its compare and one call, and its message formatting stays out of
// the caller's code (and out of link-time inlining budgets).
[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed(
    const char* cond, const char* file, int line, std::string_view msg) {
  std::ostringstream os;
  os << "CHECK failed: " << cond << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str());
}

/// CAPMEM_CHECK_MSG's failure path: `write` streams the message operands
/// (with `ctx` as its captures), so the ostringstream is built here only.
[[noreturn, gnu::cold, gnu::noinline]] inline void check_failed_msg(
    const char* cond, const char* file, int line,
    void (*write)(std::ostream&, const void*), const void* ctx) {
  std::ostringstream os;
  write(os, ctx);
  check_failed(cond, file, line, os.str());
}
}  // namespace detail

}  // namespace capmem

#define CAPMEM_CHECK(cond)                                              \
  do {                                                                  \
    if (!(cond))                                                        \
      ::capmem::detail::check_failed(#cond, __FILE__, __LINE__, {});    \
  } while (0)

#define CAPMEM_CHECK_MSG(cond, msg)                                     \
  do {                                                                  \
    if (!(cond)) {                                                      \
      const auto write_ = [&](std::ostream& os_) { os_ << msg; };       \
      ::capmem::detail::check_failed_msg(                               \
          #cond, __FILE__, __LINE__,                                    \
          [](std::ostream& os_, const void* w_) {                       \
            (*static_cast<decltype(write_)*>(w_))(os_);                 \
          },                                                            \
          &write_);                                                     \
    }                                                                   \
  } while (0)

#ifdef NDEBUG
#define CAPMEM_DCHECK(cond) \
  do {                      \
  } while (0)
#else
#define CAPMEM_DCHECK(cond) CAPMEM_CHECK(cond)
#endif
