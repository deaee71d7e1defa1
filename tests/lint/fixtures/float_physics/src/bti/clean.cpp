double delta_vth_v(double t_s) { return 0.001 * t_s; }
double decay(double x) { return std::exp(x); }
double arrhenius(double x) { return std::exp(-x); }
