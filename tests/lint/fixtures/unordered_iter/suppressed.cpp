#include <string>
#include <unordered_map>
double total(const std::unordered_map<std::string, double>& weights) {
  std::unordered_map<std::string, double> scaled = weights;
  double sum = 0.0;
  // Addition here is order-sensitive in principle, accepted deliberately.
  for (const auto& kv : scaled) sum += kv.second;  // ash-check: allow(unordered-iter): fixture-sanctioned violation
  return sum;
}
