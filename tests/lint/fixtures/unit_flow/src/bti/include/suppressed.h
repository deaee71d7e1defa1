#pragma once
// Legacy entry point kept raw for ABI stability.
double free_fn(double temp_k);  // ash-check: allow(unit-flow): fixture-sanctioned violation
