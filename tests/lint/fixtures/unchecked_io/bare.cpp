// Fixture: a deliberate fire-and-forget write (scratch output whose loss
// is harmless) carries the allow() escape on the declaration line.
#include <fstream>

void scribble(const char* path) {
  std::ofstream os(path);  // ash-check: allow(unchecked-io)
  os << "scratch\n";
}
