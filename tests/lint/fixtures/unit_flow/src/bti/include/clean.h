#pragma once
namespace units {
struct Seconds { double v; };
struct Kelvin { double v; };
}  // namespace units
double free_fn(units::Kelvin temp);
double ramp(double slope_c_per_s);  // a rate has no single base unit
class Model {
 public:
  void evolve(units::Seconds dt);
  units::Seconds delay() const { return units::Seconds{delay_s_}; }
 private:
  void advance(double dt_s);  // private helpers may stay raw
  double delay_s_ = 0.0;  // private data members are out of scope
};
