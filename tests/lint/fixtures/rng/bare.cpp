#include <random>
unsigned draw() {
  std::random_device rd;  // ash-check: allow(rng)
  return rd();
}
