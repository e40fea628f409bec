"""Spans and counters recorded around fermiwell's functions, from outside.

``install`` replaces module attributes with timing wrappers.  Calls made
through a module attribute or a module global then pass through the
wrapper; on the plain-Python path that includes the kernels calling each
other inside ``fermiwell.kernels``.  Under numba the compiled kernels call
each other directly, so the inner-kernel layers are not wrapped at all and
their metrics are left out rather than reported as zero.

Every wrapped call records its duration and self time (duration minus the
time of wrapped calls made inside it).  Layer calls also record a span
(id, name, start, end, parent id), kept in memory and written at the end of
the run.  The four inner kernels (lgamma, series, bracket, Numerov) run tens
of thousands of times per operation, so they are aggregated instead: their
calls, counts and self time are summed, and their time is still subtracted
from the enclosing span's self time.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self._stack: list[list] = [[0, 0.0]]  # [span id, seconds in wrapped children]
        self._ids = itertools.count(1)
        self._undo: list[tuple[object, str, object]] = []

    def traced(self, name: str, func, span: bool = True, count=None):
        """``func`` wrapped so that its calls are timed under ``name``.

        ``count(counts, args, result)`` may add to the named counters.
        """
        stack, spans, ids, counts = self._stack, self.spans, self._ids, self.counts
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [next(ids) if span else parent[0], 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                parent[1] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[1]
                if span:
                    spans.append((frame[0], name, t0, t1, parent[0]))
            if count is not None:
                count(counts, args, result)
            return result

        return wrapper

    def patch(self, module, attr: str, name: str, span: bool = True, count=None) -> None:
        func = getattr(module, attr)
        self._undo.append((module, attr, func))
        setattr(module, attr, self.traced(name, func, span, count))

    def remove(self) -> None:
        while self._undo:
            module, attr, func = self._undo.pop()
            setattr(module, attr, func)

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({
                "span_fields": ["id", "name", "start_s", "end_s", "parent_id"],
                "spans": self.spans,
                "stats_fields": ["calls", "total_s", "self_s"],
                "stats": self.stats,
                "counts": dict(self.counts),
            }, fh)


def _add(key, amount):
    def count(counts, args, result):
        counts[key] += amount(args, result)
    return count


def install(tracer: Tracer, fw, using_numba: bool) -> None:
    """Wrap the layers of fermiwell (modules bundled in ``fw``)."""
    if not using_numba:
        z_switch = fw.special.Z_SWITCH
        tracer.patch(fw.kernels, "lgamma_complex_kernel", "kernels.lgamma", span=False)
        tracer.patch(fw.kernels, "hyp2f1_series_kernel", "kernels.series", span=False)
        tracer.patch(fw.kernels, "bound_bracket_kernel", "kernels.bracket", span=False,
                     count=_add("kernels.bracket.connection_calls", lambda a, r: int(a[2] > z_switch)))
        tracer.patch(fw.kernels, "numerov_propagate_kernel", "kernels.numerov", span=False,
                     count=_add("kernels.numerov.steps", lambda a, r: a[0].size - 2))
    tracer.patch(fw.kernels, "shooting_mismatch_kernel", "oracle.mismatch")
    tracer.patch(fw.oracle, "_nodes_at", "oracle.node_check")
    tracer.patch(fw.oracle, "count_via_zero_energy_nodes", "oracle.sturm")
    tracer.patch(fw.oracle, "oracle_spectrum", "oracle.oracle_spectrum",
                 count=_add("oracle.states", lambda a, r: len(r)))
    tracer.patch(fw.spectrum, "solve_spectrum", "spectrum.solve_spectrum",
                 count=_add("spectrum.states", lambda a, r: r.count))
    tracer.patch(fw.spectrum, "_matching_profile", "spectrum.scan",
                 count=_add("spectrum.scan.evals", lambda a, r: a[1].size))
    tracer.patch(fw.spectrum, "_bisect", "spectrum.bisect")
    tracer.patch(fw.spectrum, "matching_function", "spectrum.matching_function")
    tracer.patch(fw.hbs, "hbs_scan", "hbs.hbs_scan", count=_add("hbs.roots", lambda a, r: len(r)))
    tracer.patch(fw.hbs, "_matching_profile", "hbs.scan",
                 count=_add("hbs.scan.evals", lambda a, r: a[1].size))
    tracer.patch(fw.hbs, "_bisect", "hbs.bisect")
    tracer.patch(fw.hbs, "hbs_matching", "hbs.hbs_matching")
    half_samples = _add("wavefunction.verify.samples", lambda a, r: (r[1].size + 1) // 2)
    tracer.patch(fw.wavefunction, "sample_bound_state", "wavefunction.verify", count=half_samples)
    tracer.patch(fw.wavefunction, "sample_hbs", "wavefunction.verify", count=half_samples)
    tracer.patch(fw.wavefunction, "count_nodes", "wavefunction.count_nodes")
    tracer.patch(fw.semiclassical, "f_action", "semiclassical.f_action", span=False)
    tracer.patch(fw.semiclassical, "wkb_spectrum", "semiclassical.wkb")
    tracer.patch(fw.semiclassical, "g_closed_form", "semiclassical.g_closed_form")


# (metric, unit) of the traced run; "per op" values are divided by the
# operations of the traced rounds.
PER_LAYER = [
    ("setup.import_s", "s"),
    ("kernels.lgamma.calls", "count/op"),
    ("kernels.lgamma.self_s", "s/op"),
    ("kernels.series.calls", "count/op"),
    ("kernels.series.self_s", "s/op"),
    ("kernels.bracket.calls", "count/op"),
    ("kernels.bracket.self_s", "s/op"),
    ("kernels.bracket.connection_calls", "count/op"),
    ("kernels.numerov.calls", "count/op"),
    ("kernels.numerov.steps", "count/op"),
    ("kernels.numerov.self_s", "s/op"),
    ("oracle.mismatch.evals", "count/op"),
    ("oracle.mismatch.s", "s/op"),
    ("oracle.node_check.s", "s/op"),
    ("oracle.sturm.s", "s/op"),
    ("oracle.evals_per_state", "evals/state"),
    ("spectrum.scan.evals", "count/op"),
    ("spectrum.scan.s", "s/op"),
    ("spectrum.bisect.evals", "count/op"),
    ("spectrum.bisect.s", "s/op"),
    ("spectrum.evals_per_state", "evals/state"),
    ("hbs.scan.evals", "count/op"),
    ("hbs.scan.s", "s/op"),
    ("hbs.bisect.evals", "count/op"),
    ("hbs.bisect.s", "s/op"),
    ("hbs.evals_per_root", "evals/root"),
    ("wavefunction.verify.samples", "count/op"),
    ("wavefunction.verify.s", "s/op"),
    ("wavefunction.count_nodes.s", "s/op"),
    ("semiclassical.f_action.calls", "count/op"),
    ("semiclassical.wkb.s", "s/op"),
    ("trace.overhead_s", "s/op"),
    ("trace.overhead_pct", "%"),
]
INNER_KERNEL_PREFIX = "kernels."


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(t: Tracer, ops: int) -> dict[str, float]:
    """Per-op values of the layer metrics (all but setup and overhead)."""
    c = t.counts
    scan_evals = c["spectrum.scan.evals"]
    bisect_evals = t.calls("spectrum.matching_function")
    hbs_scan_evals = c["hbs.scan.evals"]
    hbs_bisect_evals = t.calls("hbs.hbs_matching")
    raw = {
        "kernels.lgamma.calls": t.calls("kernels.lgamma"),
        "kernels.lgamma.self_s": t.self_s("kernels.lgamma"),
        "kernels.series.calls": t.calls("kernels.series"),
        "kernels.series.self_s": t.self_s("kernels.series"),
        "kernels.bracket.calls": t.calls("kernels.bracket"),
        "kernels.bracket.self_s": t.self_s("kernels.bracket"),
        "kernels.bracket.connection_calls": c["kernels.bracket.connection_calls"],
        "kernels.numerov.calls": t.calls("kernels.numerov"),
        "kernels.numerov.steps": c["kernels.numerov.steps"],
        "kernels.numerov.self_s": t.self_s("kernels.numerov"),
        "oracle.mismatch.evals": t.calls("oracle.mismatch"),
        "oracle.mismatch.s": t.total_s("oracle.mismatch"),
        "oracle.node_check.s": t.total_s("oracle.node_check"),
        "oracle.sturm.s": t.total_s("oracle.sturm"),
        "spectrum.scan.evals": scan_evals,
        "spectrum.scan.s": t.total_s("spectrum.scan"),
        "spectrum.bisect.evals": bisect_evals,
        "spectrum.bisect.s": t.total_s("spectrum.bisect"),
        "hbs.scan.evals": hbs_scan_evals,
        "hbs.scan.s": t.total_s("hbs.scan"),
        "hbs.bisect.evals": hbs_bisect_evals,
        "hbs.bisect.s": t.total_s("hbs.bisect"),
        "wavefunction.verify.samples": c["wavefunction.verify.samples"],
        "wavefunction.verify.s": t.total_s("wavefunction.verify"),
        "wavefunction.count_nodes.s": t.total_s("wavefunction.count_nodes"),
        "semiclassical.f_action.calls": t.calls("semiclassical.f_action"),
        "semiclassical.wkb.s": t.total_s("semiclassical.wkb"),
    }
    values = {k: v / ops for k, v in raw.items()}
    values["oracle.evals_per_state"] = _ratio(t.calls("oracle.mismatch"), c["oracle.states"])
    values["spectrum.evals_per_state"] = _ratio(scan_evals + bisect_evals, c["spectrum.states"])
    values["hbs.evals_per_root"] = _ratio(hbs_scan_evals + hbs_bisect_evals, c["hbs.roots"])
    return values
