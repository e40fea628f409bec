"""One workload in a fresh process, as a closed loop on one thread.

Reads a JSON job on stdin and prints one JSON line.  Run by ``run.py``; the
job names the workload, its warm-up input and its inputs.

* ``setup`` mode times ``import fermiwell`` and the warm-up operation.
* ``run`` mode then repeats whole rounds of the inputs, one operation after
  another, until ``seconds`` have passed.  With ``trace`` it next runs as
  many rounds again with every layer wrapped (see ``tracer.py``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import types
from time import perf_counter


def _spectrum_op(fw, x):
    p = fw.core.WellParams(*x)
    rep = fw.spectrum.solve_spectrum(p)
    wkb = fw.semiclassical.wkb_spectrum(p)
    g = fw.semiclassical.g_closed_form(fw.core.to_dimensionless(p))
    return {
        "states": [[s.energy, s.parity, s.nodes] for s in rep.states],
        "g": rep.g_value,
        "g_closed": g,
        "wkb": [[lv.index, lv.energy, lv.f_value] for lv in wkb],
    }


def _critical_beta_op(fw, x):
    alpha, n_max = x
    return [[s.n, s.beta_n, s.g_value] for s in fw.hbs.hbs_scan(alpha, n_max)]


def _oracle_op(fw, x):
    v0, a, b, grid_points = x
    p = fw.core.WellParams(v0, a, b)
    states = fw.oracle.oracle_spectrum(p, grid_points=grid_points)
    return {
        "states": [[s.energy, s.parity, s.nodes] for s in states],
        "sturm": fw.oracle.count_via_zero_energy_nodes(p),
    }


OPS = {"spectrum": _spectrum_op, "critical-beta": _critical_beta_op, "oracle": _oracle_op}


def _rounds(op, inputs, seconds=None, rounds=None):
    """Whole rounds until ``seconds`` have passed, or exactly ``rounds``."""
    times, results, errors = [], [], []
    mismatched = 0
    done = 0
    start = perf_counter()
    while True:
        for i, x in enumerate(inputs):
            t0 = perf_counter()
            try:
                r = op(x)
            except Exception as exc:  # a failed operation is counted, the loop goes on
                r = None
                errors.append(f"input {i} {x}: {type(exc).__name__}: {exc}")
            times.append(perf_counter() - t0)
            if done == 0:
                results.append(r)
            elif r != results[i]:
                mismatched += 1
        done += 1
        if (rounds is not None and done >= rounds) or (rounds is None and perf_counter() - start >= seconds):
            break
    return {"wall_s": perf_counter() - start, "rounds": done, "op_s": times,
            "results": results, "errors": errors, "mismatched": mismatched}


def main() -> int:
    job = json.load(sys.stdin)
    t0 = perf_counter()
    import fermiwell
    from fermiwell import core, hbs, kernels, oracle, semiclassical, special, spectrum, wavefunction
    import_s = perf_counter() - t0
    src = os.path.realpath(job["src"])
    if not os.path.realpath(fermiwell.__file__).startswith(src + os.sep):
        print(f"fermiwell imported from {fermiwell.__file__}, not from {src}", file=sys.stderr)
        return 2
    fw = types.SimpleNamespace(core=core, hbs=hbs, kernels=kernels, oracle=oracle, special=special,
                               semiclassical=semiclassical, spectrum=spectrum, wavefunction=wavefunction,
                               using_numba=bool(fermiwell.USING_NUMBA))
    op_fn = OPS[job["workload"]]

    def op(x):
        return op_fn(fw, x)

    op(job["warmup"])
    setup_s = perf_counter() - t0
    out = {"import_s": import_s, "setup_s": setup_s, "using_numba": fw.using_numba}
    if job["mode"] == "run":
        if job["quick"]:
            run = _rounds(op, job["inputs"], rounds=1)
        else:
            run = _rounds(op, job["inputs"], seconds=job["seconds"])
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if job["trace"]:
            out["trace"] = _traced(fw, op_fn, job, run)
        out.update(run)
    print(json.dumps(out))
    return 0


def _traced(fw, op_fn, job, untraced):
    """Layer metrics from as many rounds again, traced."""
    import tracer

    t = tracer.Tracer()
    tracer.install(t, fw, fw.using_numba)
    op = t.traced("op." + job["workload"], lambda x: op_fn(fw, x))
    run = _rounds(op, job["inputs"], rounds=untraced["rounds"])
    t.remove()
    if job["trace_file"]:
        t.write(job["trace_file"])
    ops = len(run["op_s"])
    values = tracer.layer_values(t, ops)
    values["trace.overhead_s"] = (run["wall_s"] - untraced["wall_s"]) / ops
    values["trace.overhead_pct"] = 100.0 * (run["wall_s"] - untraced["wall_s"]) / untraced["wall_s"]
    if fw.using_numba:
        values = {k: v for k, v in values.items() if not k.startswith(tracer.INNER_KERNEL_PREFIX)}
    return {"values": values, "ops": ops, "errors": run["errors"],
            "mismatched": run["mismatched"] + sum(r != u for r, u in zip(run["results"], untraced["results"]))}


if __name__ == "__main__":
    sys.exit(main())
