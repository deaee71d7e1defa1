// Fixture: a deliberate one-shot write whose EINTR loss is acceptable
// (best-effort diagnostics on the way down) carries the allow() escape.
#include <unistd.h>

void last_gasp(int fd) {
  const char byte = '!';
  (void)::write(fd, &byte, 1);  // ash-check: allow(eintr)
}
