double pack(double x) {
  const float narrowed = static_cast<float>(x);  // ash-lint: allow(float-physics)
  return static_cast<double>(narrowed);
}
double legacy_decay(double x) {
  return expf(x);  // ash-lint: allow(float-physics)
}
double approx_exp_shim(double x) {  // ash-lint: allow(float-physics)
  return 1.0 + x;
}
