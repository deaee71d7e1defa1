#!/usr/bin/env python3
"""Gate the CI perf-smoke job on the in-library kernel timers.

Compares a fresh ``bench_perf_kernels --json`` run against the checked-in
baseline (bench/baselines/BENCH_kernels.json):

* every kernel present in BOTH files must stay within ``--factor`` of its
  baseline ns/call (2x default absorbs runner-to-runner noise; shared CI
  boxes easily drift +/-50%).  Kernels present in only one file — a name
  added by a newer bench or retired from an older one — are reported and
  skipped, never fatal, so the baseline and the binary can be refreshed in
  either order;
* the primary kernel ``bti.trap_ensemble.evolve`` must exist in both
  files — a run that lost the hot path entirely is a bad input (exit 2),
  not a pass;
* when the current run carries the batch-engine population summary, the
  speedup floor is enforced as a hard gate: ``population_speedup_exact``
  >= 5.0 (the measured margin is >20x, so tripping it means the fused
  sweep degenerated to per-chip work, which no noise factor should
  forgive).

Usage: check_perf_regression.py CURRENT.json [BASELINE.json] [--factor F]
Exit codes: 0 ok, 1 regression, 2 bad input.
"""

import json
import sys

PRIMARY_KERNEL = "bti.trap_ensemble.evolve"
DEFAULT_BASELINE = "bench/baselines/BENCH_kernels.json"
DEFAULT_FACTOR = 2.0
SPEEDUP_FLOORS = {
    "population_speedup_exact": 5.0,
}


def load_doc(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: top level is not a JSON object")
    return doc


def kernel_table(path: str, doc: dict) -> dict:
    """name -> ns/call for every well-formed kernel row; unknown names are
    data, not errors."""
    table = {}
    for k in doc.get("kernels", []):
        name = k.get("name")
        if not isinstance(name, str) or "ns_per_call" not in k:
            continue
        table[name] = float(k["ns_per_call"])
    if PRIMARY_KERNEL not in table:
        raise KeyError(f"{path}: no kernel named {PRIMARY_KERNEL!r}")
    return table


def main(argv: list[str]) -> int:
    args = [a for a in argv[1:] if not a.startswith("--")]
    factor = DEFAULT_FACTOR
    for a in argv[1:]:
        if a.startswith("--factor="):
            factor = float(a.split("=", 1)[1])
    if not args:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    current_path = args[0]
    baseline_path = args[1] if len(args) > 1 else DEFAULT_BASELINE

    try:
        current_doc = load_doc(current_path)
        baseline_doc = load_doc(baseline_path)
        current = kernel_table(current_path, current_doc)
        baseline = kernel_table(baseline_path, baseline_doc)
    except (OSError, ValueError, KeyError) as err:
        print(f"check_perf_regression: {err}", file=sys.stderr)
        return 2

    failed = False
    for name in sorted(set(current) & set(baseline)):
        cur, base = current[name], baseline[name]
        ratio = cur / base if base > 0 else float("inf")
        verdict = "OK" if ratio <= factor else "REGRESSION"
        failed = failed or ratio > factor
        print(
            f"{name}: current {cur:.0f} ns/call, baseline "
            f"{base:.0f} ns/call, ratio {ratio:.2f}x "
            f"(limit {factor:.2f}x) -> {verdict}"
        )
    for name in sorted(set(current) ^ set(baseline)):
        where = "baseline" if name in baseline else "current"
        print(f"{name}: only in {where} -> SKIPPED")

    for key, floor in SPEEDUP_FLOORS.items():
        if key not in current_doc:
            continue
        speedup = float(current_doc[key])
        verdict = "OK" if speedup >= floor else "REGRESSION"
        failed = failed or speedup < floor
        print(f"{key}: {speedup:.2f}x (floor {floor:.2f}x) -> {verdict}")

    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
