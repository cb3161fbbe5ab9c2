// Lightweight runtime-check macros used across the library.
//
// REPRO_CHECK is always on (invariants whose violation means the data
// structure is corrupt); REPRO_DCHECK compiles away in release builds and is
// used on hot paths.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <string>

namespace repro {

/// Thrown when a REPRO_CHECK fails. Carries the failing expression and
/// location so tests can assert on failure modes.
class CheckError : public std::logic_error {
 public:
  explicit CheckError(const std::string& what) : CheckError(what, what) {}
  CheckError(const std::string& what, const std::string& reason)
      : std::logic_error(what), reason_(reason) {}
  /// what() without the source location: the check's message, or the
  /// failed expression when it has none. The same bytes in every build, so
  /// it is what a server may send to clients.
  const std::string& reason() const { return reason_; }

 private:
  std::string reason_;
};

namespace detail {
[[noreturn]] inline void check_fail(const char* expr, const char* file,
                                    int line, const std::string& msg) {
  std::ostringstream os;
  os << "CHECK failed: " << expr << " at " << file << ':' << line;
  if (!msg.empty()) os << " — " << msg;
  throw CheckError(os.str(),
                   msg.empty() ? std::string("CHECK failed: ") + expr : msg);
}
}  // namespace detail

}  // namespace repro

#define REPRO_CHECK(expr)                                               \
  do {                                                                  \
    if (!(expr)) ::repro::detail::check_fail(#expr, __FILE__, __LINE__, \
                                             std::string());            \
  } while (0)

#define REPRO_CHECK_MSG(expr, msg)                                      \
  do {                                                                  \
    if (!(expr)) ::repro::detail::check_fail(#expr, __FILE__, __LINE__, \
                                             (msg));                   \
  } while (0)

#ifdef NDEBUG
#define REPRO_DCHECK(expr) \
  do {                     \
  } while (0)
#else
#define REPRO_DCHECK(expr) REPRO_CHECK(expr)
#endif
