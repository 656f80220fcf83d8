#ifndef LIFTING_COMMON_ASSERT_HPP
#define LIFTING_COMMON_ASSERT_HPP

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

/// Invariant / precondition checking for the LiFTinG library.
///
/// LIFTING_ASSERT is an always-on invariant check (the simulator is the
/// ground truth for the paper's claims, so internal consistency must hold in
/// release builds too). Configuration errors raise exceptions instead — see
/// lifting::require.

#define LIFTING_ASSERT(cond, msg)                                          \
  do {                                                                     \
    if (!(cond)) {                                                         \
      std::fprintf(stderr, "LIFTING_ASSERT failed at %s:%d: %s\n",         \
                   __FILE__, __LINE__, (msg));                             \
      std::abort();                                                        \
    }                                                                      \
  } while (false)

namespace lifting {

/// Validates a user-supplied configuration value; throws on violation.
/// Use for anything reachable from public configuration structs.
inline void require(bool condition, const std::string& message) {
  if (!condition) {
    throw std::invalid_argument(message);
  }
}
/// The literal-message form: no std::string is built unless the check
/// fails (every node validates its parameters when it is built).
inline void require(bool condition, const char* message) {
  if (!condition) {
    throw std::invalid_argument(message);
  }
}

}  // namespace lifting

#endif  // LIFTING_COMMON_ASSERT_HPP
