#pragma once

/// \file syscall.h
/// EINTR-safe syscall wrapper.
///
/// Every blocking syscall in the fleet layer (`read`, `write`, `poll`,
/// `waitpid`, `accept`, `connect`, ...) can fail spuriously with EINTR when
/// a signal lands mid-call — and the fleet layer *guarantees* signals:
/// SIGCHLD from dying workers, SIGTERM from operators draining a daemon.
/// An unguarded call site turns an unrelated signal into a phantom I/O
/// error, which in a recovery path means a spurious strike, a dropped
/// heartbeat, or a lost response.
///
/// `retry_eintr` retries the wrapped call while it fails with EINTR and is
/// transparent otherwise.  The `eintr` rule of `tools/ash_check.py` fails
/// the build when a bare syscall appears in `src/fleet/` outside this
/// wrapper, so unguarded call sites regress loudly.
///
/// Deliberately NOT wrapped: `close(2)` — POSIX leaves the fd state
/// unspecified after EINTR, and retrying can close a recycled descriptor.

#include <cerrno>
#include <utility>

namespace ash::util {

/// Invoke `call()` until it returns without failing with EINTR; returns the
/// final result.  `call` must follow the POSIX convention of returning a
/// negative value with errno set on failure.
template <class Call>
auto retry_eintr(Call&& call) -> decltype(call()) {
  for (;;) {
    const auto result = call();
    if (result >= 0 || errno != EINTR) return result;
  }
}

}  // namespace ash::util
