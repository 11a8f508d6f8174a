//===- support/Error.h - Fatal errors and assertion helpers ----*- C++ -*-===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Fatal-error reporting and assertion macros used across the ALTER
/// libraries. Library code never throws; invariant violations abort with a
/// diagnostic, mirroring LLVM's programmatic-error conventions.
///
//===----------------------------------------------------------------------===//

#ifndef ALTER_SUPPORT_ERROR_H
#define ALTER_SUPPORT_ERROR_H

#include <string>

namespace alter {

/// Emits \p Message to stderr as a structured ALTER_LOG error line (never
/// silenced by the log threshold) and terminates. Used for invariant
/// violations and unrecoverable startup/config failures, never for
/// conditions a caller could handle — resource-exhaustion paths (ring
/// mmap, pipe setup, fork) are demoted to contained outcomes instead.
///
/// In the parent this aborts (core-dumpable, visible to sanitizers). In a
/// forked chunk/template/stage child (markForkedChild) it _exits with
/// ForkedChildFatalExit instead: abort would run parent-inherited atexit
/// handlers and double-flush parent-owned stdio buffers, and the parent
/// already contains any abnormal child exit to the chunk.
[[noreturn]] void fatalError(const std::string &Message);

/// Exit status a forked child dies with when fatalError fires after
/// markForkedChild. Distinct from the wire-protocol exits (11/13/111/112).
constexpr int ForkedChildFatalExit = 113;

/// Declares that this process is a forked worker child (wire chunk child,
/// warm-pool template, or stage replica): from now on fatalError _exits
/// instead of aborting. Called immediately after fork in the child;
/// irreversible for the life of the process.
void markForkedChild() noexcept;

/// Marks a point in the code that must never be reached; aborts with
/// \p Message if it is.
[[noreturn]] void alterUnreachableImpl(const char *Message, const char *File,
                                       unsigned Line);

} // namespace alter

/// Aborts with a diagnostic identifying the unreachable location.
#define ALTER_UNREACHABLE(MSG)                                                 \
  ::alter::alterUnreachableImpl(MSG, __FILE__, __LINE__)

#endif // ALTER_SUPPORT_ERROR_H
