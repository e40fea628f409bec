"""Self-check of the benchmark: its checks pass right answers and reject wrong ones.

    python3 perfbench/selfcheck.py

Runs a few operations of every workload (``run.py --quick`` inputs) in a
worker, checks the outputs as a benchmark run does, then alters one output
at a time and requires the named check to reject it:

  * a level shifted by 1e-3 MeV       -> "bracket" (exact and oracle levels)
  * a level with its parity swapped   -> "bracket"
  * a beta_n shifted by 1e-4          -> "bracket"
  * a count off by one                -> "count" (exact, oracle, beta ladder)

Exit code 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import copy
import sys

import checks
import run

SEED = 0


def _shift_level(r, de):
    r["states"][-1][0] += de


def _swap_parity(r):
    state = r["states"][-1]
    state[1] = "odd" if state[1] == "even" else "even"


def _drop_state(r):
    r["states"].pop()


def _shift_beta(r, d):
    r[-1][1] += d


def _sturm_plus_one(r):
    r["sturm"] += 1


# workload -> [(name, mutate(result), tag the checks must report)]
NEGATIVE = {
    "spectrum": [
        ("level + 1e-3 MeV", lambda r: _shift_level(r, 1e-3), "bracket"),
        ("level - 1e-3 MeV", lambda r: _shift_level(r, -1e-3), "bracket"),
        ("parity swapped", _swap_parity, "bracket"),
        ("count one short", _drop_state, "count"),
    ],
    "critical-beta": [
        ("beta_n + 1e-4", lambda r: _shift_beta(r, 1e-4), "bracket"),
        ("beta_n - 1e-4", lambda r: _shift_beta(r, -1e-4), "bracket"),
        ("count one short", list.pop, "count"),
    ],
    "oracle": [
        ("level + 1e-3 MeV", lambda r: _shift_level(r, 1e-3), "bracket"),
        ("parity swapped", _swap_parity, "bracket"),
        ("Sturm count + 1", _sturm_plus_one, "count"),
    ],
}


def main() -> int:
    if not (run.SRC / "fermiwell" / "__init__.py").is_file():
        print(f"no fermiwell sources under {run.SRC}", file=sys.stderr)
        return 2
    ok = True
    for workload, cases in NEGATIVE.items():
        job, expects = run.make_job(workload, SEED, 0.0, trace=False, quick=True)
        out = run.worker(dict(job, mode="run"))
        ins, results = job["inputs"], out["results"]
        problems = checks.check_round(workload, ins, expects, results)
        good = not problems and not out["errors"]
        ok &= good
        print(f"{'PASS' if good else 'FAIL'} {workload}: {len(results)} operations pass the checks")
        for line in problems + out["errors"]:
            print(f"     {line}")
        for name, mutate, tag in cases:
            bad = copy.deepcopy(results)
            mutate(bad[0])
            found = checks.check_round(workload, ins, expects, bad)
            caught = any(p.startswith(tag + ":") for p in found)
            ok &= caught
            print(f"{'PASS' if caught else 'FAIL'} {workload}: {name} rejected by '{tag}'"
                  f"{'' if caught else f'; got {found}'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
