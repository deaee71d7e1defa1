#include <chrono>
double now_s() {
  const auto t = std::chrono::steady_clock::now()  // ash-check: allow(wall-clock)
                     .time_since_epoch();
  return std::chrono::duration<double>(t).count();
}
