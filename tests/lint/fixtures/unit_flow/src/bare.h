// Fixture: a raw-double member whose escape omits the mandatory reason.
#pragma once

struct R {
  double delay_s = 0.0;  // ash-check: allow(unit-flow)
};
