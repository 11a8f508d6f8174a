//===- support/Error.cpp --------------------------------------------------===//
//
// Part of the ALTER reproduction. Distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/Error.h"

#include "support/Trace.h"

#include <cstdlib>
#include <unistd.h>

using namespace alter;

namespace {
/// Plain bool, not atomic: set once immediately after fork, before the
/// child touches any other library code, and each forked child is
/// single-threaded.
bool IsForkedChild = false;
} // namespace

void alter::markForkedChild() noexcept { IsForkedChild = true; }

void alter::fatalError(const std::string &Message) {
  alterLogAlways(LogLevel::Error, "fatal", "msg=\"%s\"", Message.c_str());
  if (IsForkedChild)
    ::_exit(ForkedChildFatalExit);
  std::abort();
}

void alter::alterUnreachableImpl(const char *Message, const char *File,
                                 unsigned Line) {
  alterLogAlways(LogLevel::Error, "fatal", "unreachable=%s:%u msg=\"%s\"",
                 File, Line, Message ? Message : "<no message>");
  std::abort();
}
