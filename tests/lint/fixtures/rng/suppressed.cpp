#include <random>
unsigned draw() {
  std::random_device rd;  // ash-check: allow(rng): fixture-sanctioned violation
  return rd();
}
