"""Timing comparison of the compiled kernels against the pure-Python fallback.

The fallback is selected with FERMIWELL_NO_NUMBA=1; because the backend is
chosen at import time, the fallback pass runs in a subprocess.

Usage: python benchmarks/bench_backends.py [--repeats N]

Exits 2 without a comparison when numba is not installed: both passes would
then run the same plain-Python kernels.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

_WORKLOAD = r"""
import json, sys, time
import fermiwell
from fermiwell import WellParams, solve_spectrum, hbs_scan, oracle_spectrum

repeats = int(sys.argv[1])
p = WellParams(45.3642, 2.0, 1.0)

# Warm-up (numba compilation / cache load happens here).
solve_spectrum(p)
hbs_scan(2.0, 3)
oracle_spectrum(p, grid_points=400)

out = {"using_numba": fermiwell.USING_NUMBA}
for name, fn in [
    ("solve_spectrum", lambda: solve_spectrum(p)),
    ("hbs_scan_n3", lambda: hbs_scan(2.0, 3)),
    ("oracle_spectrum", lambda: oracle_spectrum(p, grid_points=400)),
]:
    best = min(
        (time.perf_counter() - t0)
        for _ in range(repeats)
        if (t0 := time.perf_counter()) or True
        for _ in [fn()]
    )
    out[name] = best
print(json.dumps(out))
"""


def run_pass(no_numba: bool, repeats: int) -> dict:
    env = dict(os.environ)
    if no_numba:
        env["FERMIWELL_NO_NUMBA"] = "1"
    else:
        env.pop("FERMIWELL_NO_NUMBA", None)
    proc = subprocess.run(
        [sys.executable, "-c", _WORKLOAD, str(repeats)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()

    t0 = time.perf_counter()
    fast = run_pass(no_numba=False, repeats=args.repeats)
    print(f"[compiled pass done in {time.perf_counter() - t0:.1f} s, "
          f"using_numba={fast['using_numba']}]")
    if not fast["using_numba"]:
        print("numba is not available, so there is no compiled backend to compare; "
              "install the 'numba' extra to run this comparison", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    slow = run_pass(no_numba=True, repeats=args.repeats)
    print(f"[fallback pass done in {time.perf_counter() - t0:.1f} s, "
          f"using_numba={slow['using_numba']}]")

    print(f"\n{'benchmark':<20} {'compiled':>12} {'fallback':>12} {'speedup':>9}")
    for name in ("solve_spectrum", "hbs_scan_n3", "oracle_spectrum"):
        f, s = fast[name], slow[name]
        print(f"{name:<20} {f * 1e3:>10.1f}ms {s * 1e3:>10.1f}ms {s / f:>8.1f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
