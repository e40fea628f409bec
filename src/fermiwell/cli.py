"""Command-line surface for the Fermi-well solvers.

Subcommands: info, spectrum, hbs, hbs-scan, nuclear, plot-data, reproduce.
Records are emitted as JSON (schema_version "1") or CSV, plot data as TSV
with a single `#` header line.  Exit codes: 0 success, 1 verification or
reproduction failure, 2 usage error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import hbs as hbs_mod
from . import semiclassical, spectrum as spectrum_mod, tables, wavefunction
from .core import DEFAULT_KAPPA2, ODD, DimensionlessWell, WellParams, potential, to_dimensionless
from .errors import (
    BracketCollisionError,
    ConvergenceError,
    DegenerateParameterError,
    DomainError,
    FermiwellError,
    LabelingError,
    NodeMismatchError,
    QuadratureError,
    RootNotFoundError,
)
from .oracle import oracle_spectrum

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_USAGE_ERRORS = (DomainError,)
_VERIFICATION_ERRORS = (
    BracketCollisionError,
    LabelingError,
    NodeMismatchError,
    RootNotFoundError,
)
_NUMERICAL_ERRORS = (ConvergenceError, DegenerateParameterError, QuadratureError)


def _round(value, precision: int):
    """Recursively round floats so output is deterministic and readable."""
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.floating):
        value = float(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, float):
        out = round(value, precision)
        return 0.0 if out == 0.0 else out  # avoid "-0.0"
    if isinstance(value, dict):
        return {k: _round(v, precision) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_round(v, precision) for v in value]
    return value


def _record(command: str, inputs: dict, results: dict, units: dict, precision: int) -> str:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": _round(inputs, precision),
        "results": _round(results, precision),
        "units": units,
    }
    return json.dumps(rec, sort_keys=True, indent=2) + "\n"


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}f}"


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kappa2", type=float, default=DEFAULT_KAPPA2,
                        help="2m/hbar^2 in 1/(MeV fm^2), default 0.048")
    parser.add_argument("--precision", type=int, default=4,
                        help="decimal places in printed numbers (default 4)")
    parser.add_argument("--out", type=str, default=None, help="write output to this path")


def _well_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--v0", type=float, required=True, help="well depth in MeV")
    parser.add_argument("--a", type=float, required=True, help="half width in fm")
    parser.add_argument("--b", type=float, required=True, help="surface diffuseness in fm")


def _make_well(ns) -> WellParams:
    if not (ns.v0 > 0.0 and ns.a > 0.0 and ns.b > 0.0 and ns.kappa2 > 0.0):
        raise DomainError("v0, a, b and kappa2 must all be positive")
    return WellParams(v0=ns.v0, a=ns.a, b=ns.b, kappa2=ns.kappa2)


# ---------------------------------------------------------------- subcommands


def cmd_info(ns) -> int:
    p = _make_well(ns)
    d = to_dimensionless(p)
    g = semiclassical.g_closed_form(d)
    sq = semiclassical.square_well_reference(p.v0, p.a, p.kappa2)
    results = {
        "alpha": d.alpha,
        "beta": d.beta,
        "u0": p.u0,
        "g": g,
        "g_prime": sq.g_prime,
        "w": sq.w,
        "count_bracket": [int(math.floor(g)), int(math.floor(g)) + 1],
    }
    units = {"alpha": "dimensionless", "beta": "dimensionless", "u0": "MeV",
             "g": "dimensionless", "g_prime": "dimensionless", "w": "dimensionless",
             "count_bracket": "levels", "v0": "MeV", "a": "fm", "b": "fm",
             "kappa2": "1/(MeV fm^2)"}
    inputs = {"v0": p.v0, "a": p.a, "b": p.b, "kappa2": p.kappa2}
    _emit(_record("info", inputs, results, units, ns.precision), ns.out)
    return EXIT_OK


def _spectrum_levels(p: WellParams, method: str) -> list[dict]:
    if method == "exact":
        rep = spectrum_mod.solve_spectrum(p)
        return [
            {"index": s.index, "energy": s.energy, "parity": s.parity, "nodes": s.nodes,
             "near_threshold": s.near_threshold}
            for s in rep.states
        ]
    if method == "wkb":
        return [
            {"index": lv.index, "energy": lv.energy, "f_value": lv.f_value}
            for lv in semiclassical.wkb_spectrum(p)
        ]
    if method == "oracle":
        return [
            {"index": i, "energy": st.energy, "parity": st.parity, "nodes": st.nodes}
            for i, st in enumerate(oracle_spectrum(p))
        ]
    raise DomainError(f"unknown method {method!r}")


def cmd_spectrum(ns) -> int:
    p = _make_well(ns)
    levels = _spectrum_levels(p, ns.method)
    inputs = {"v0": p.v0, "a": p.a, "b": p.b, "kappa2": p.kappa2, "method": ns.method}
    if ns.format == "csv":
        buf = io.StringIO()
        fields = list(levels[0].keys()) if levels else ["index", "energy"]
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for row in levels:
            writer.writerow({k: _fmt(v, ns.precision) if isinstance(v, float) else v
                             for k, v in row.items()})
        _emit(buf.getvalue(), ns.out)
        return EXIT_OK
    results = {"count": len(levels), "levels": levels}
    units = {"energy": "MeV", "v0": "MeV", "a": "fm", "b": "fm",
             "kappa2": "1/(MeV fm^2)", "f_value": "dimensionless"}
    _emit(_record("spectrum", inputs, results, units, ns.precision), ns.out)
    return EXIT_OK


def cmd_hbs(ns) -> int:
    if not (ns.alpha > 0.0 and ns.n >= 1):
        raise DomainError("hbs requires alpha > 0 and n >= 1")
    sol = hbs_mod.solve_beta_n(ns.alpha, ns.n)
    check = hbs_mod.verify_criticality(ns.alpha, sol.beta_n, ns.n)
    results = {
        "alpha": sol.alpha,
        "n": sol.n,
        "beta_n": sol.beta_n,
        "g": sol.g_value,
        "verification": {
            "count_below": check.count_below,
            "count_at": check.count_at,
            "count_above": check.count_above,
            "at_near_threshold": check.at_near_threshold,
        },
    }
    units = {"alpha": "dimensionless", "beta_n": "dimensionless", "g": "dimensionless",
             "n": "nodes", "kappa2": "1/(MeV fm^2)"}
    inputs = {"alpha": ns.alpha, "n": ns.n, "kappa2": ns.kappa2}
    _emit(_record("hbs", inputs, results, units, ns.precision), ns.out)
    return EXIT_OK


def cmd_hbs_scan(ns) -> int:
    if not (ns.alpha > 0.0 and ns.n_max >= 1):
        raise DomainError("hbs-scan requires alpha > 0 and n-max >= 1")
    sols = hbs_mod.hbs_scan(ns.alpha, ns.n_max)
    results = {
        "alpha": ns.alpha,
        "rows": [{"n": s.n, "beta_n": s.beta_n, "g": s.g_value} for s in sols],
    }
    units = {"alpha": "dimensionless", "beta_n": "dimensionless", "g": "dimensionless",
             "n": "nodes", "kappa2": "1/(MeV fm^2)"}
    inputs = {"alpha": ns.alpha, "n_max": ns.n_max, "kappa2": ns.kappa2}
    _emit(_record("hbs-scan", inputs, results, units, ns.precision), ns.out)
    return EXIT_OK


def cmd_nuclear(ns) -> int:
    if ns.mass_number < 1:
        raise DomainError("mass number A must be at least 1")
    a = ns.r0 * ns.mass_number ** (1.0 / 3.0)
    p = WellParams(v0=ns.v0, a=a, b=ns.b, kappa2=ns.kappa2)
    rep = spectrum_mod.solve_spectrum(p)
    # Odd-parity levels of the full symmetric well vanish at the origin, so
    # they coincide with the s-wave levels of the radial half-well.
    s_wave = [s.energy for s in rep.states if s.parity == ODD]
    g = rep.g_value
    half = g / 2.0
    results = {
        "a": a,
        "g": g,
        "g_half": half,
        "s_wave_count_bracket": [int(math.floor(half)), int(math.floor(half)) + 1],
        "s_wave_count": len(s_wave),
        "s_wave_levels": s_wave,
        "total_count": rep.count,
    }
    units = {"a": "fm", "g": "dimensionless", "g_half": "dimensionless",
             "s_wave_levels": "MeV", "v0": "MeV", "b": "fm", "r0": "fm",
             "kappa2": "1/(MeV fm^2)"}
    inputs = {"A": ns.mass_number, "v0": ns.v0, "r0": ns.r0, "b": ns.b, "kappa2": ns.kappa2}
    _emit(_record("nuclear", inputs, results, units, ns.precision), ns.out)
    return EXIT_OK


def _tsv(header: list[str], columns: list[np.ndarray], precision: int) -> str:
    lines = ["# " + "\t".join(header)]
    for row in zip(*columns):
        lines.append("\t".join(_fmt(float(v), precision) for v in row))
    return "\n".join(lines) + "\n"


def cmd_plot_data(ns) -> int:
    if ns.points < 2:
        raise DomainError("points must be at least 2")
    if ns.kind == "potential":
        v0 = ns.v0 if ns.v0 is not None else 5.0
        a = ns.a if ns.a is not None else 3.0
        bs = ns.b if ns.b else [0.1, 0.5, 1.0]
        x_max = ns.x_max if ns.x_max is not None else a + 5.0 * max(bs)
        xs = np.linspace(-x_max, x_max, ns.points)
        cols = [xs]
        header = ["x_fm"]
        for b in bs:
            p = WellParams(v0=v0, a=a, b=b, kappa2=ns.kappa2)
            cols.append(np.array([potential(p, x) for x in xs]))
            header.append(f"V_MeV_b={b:g}")
        _emit(_tsv(header, cols, ns.precision), ns.out)
        return EXIT_OK
    if ns.kind == "eigenfunctions":
        if ns.v0 is None or ns.a is None or not ns.b:
            raise DomainError("eigenfunctions plot requires --v0, --a and --b")
        if len(ns.b) != 1:
            raise DomainError("eigenfunctions plot takes a single --b value")
        p = WellParams(v0=ns.v0, a=ns.a, b=ns.b[0], kappa2=ns.kappa2)
        rep = spectrum_mod.solve_spectrum(p)
        x_span = ns.x_max if ns.x_max is not None else p.a + 12.0 * p.b
        half = ns.points // 2 + 1
        xs, vals = wavefunction.sample_bound_state(
            p, np.array([s.energy for s in rep.states]), np.array([s.parity == ODD for s in rep.states]),
            half_points=half, x_span=x_span,
        )
        norms = np.sqrt(np.trapezoid(vals * vals, xs, axis=-1))
        header = ["x_fm"] + [f"psi{s.index}_fm^-1/2" for s in rep.states]
        _emit(_tsv(header, [xs, *(vals / norms[:, None])], ns.precision), ns.out)
        return EXIT_OK
    if ns.kind == "hbs":
        if ns.alpha is None or ns.beta is None:
            raise DomainError("hbs plot requires --alpha and --beta")
        d = DimensionlessWell(alpha=ns.alpha, beta=ns.beta)
        # Node parity of the candidate is read off from the matching
        # condition closest to zero at the origin.
        origin = wavefunction.psi_hbs(d, 0.0)
        odd = abs(origin.psi) < abs(origin.dpsi_dx)
        half = ns.points // 2 + 1
        span = ns.x_max if ns.x_max is not None else d.alpha + 12.0
        xs, vals = wavefunction.sample_hbs(d, odd, half_points=half, x_span_over_b=span)
        _emit(_tsv(["x_over_b", "psi_star"], [xs, vals], ns.precision), ns.out)
        return EXIT_OK
    raise DomainError(f"unknown plot kind {ns.kind!r}")


def _reproduce_table1(kappa2: float) -> list[dict]:
    rows = []
    for g_ref, a, b, v0, count_ref in tables.G_COUNT_ROWS:
        p = WellParams(v0=v0, a=a, b=b, kappa2=kappa2)
        rep = spectrum_mod.solve_spectrum(p)
        g = rep.g_value
        ok = abs(g - g_ref) <= tables.TOL_G and rep.count == count_ref
        rows.append({
            "a": a, "b": b, "v0": v0,
            "g_ref": g_ref, "g": g, "g_diff": abs(g - g_ref),
            "count_ref": count_ref, "count": rep.count, "ok": ok,
        })
    return rows


def _reproduce_table2() -> list[dict]:
    rows = []
    for alpha, entries in sorted(tables.HBS_ROWS.items()):
        sols = hbs_mod.hbs_scan(alpha, max(n for n, _, _ in entries))
        for (n, beta_ref, g_ref), sol in zip(entries, sols):
            ok = (abs(sol.beta_n - beta_ref) <= tables.TOL_BETA
                  and abs(sol.g_value - g_ref) <= tables.TOL_G)
            rows.append({
                "alpha": alpha, "n": n,
                "beta_ref": beta_ref, "beta": sol.beta_n,
                "beta_diff": abs(sol.beta_n - beta_ref),
                "g_ref": g_ref, "g": sol.g_value, "g_diff": abs(sol.g_value - g_ref),
                "ok": ok,
            })
    return rows


def _reproduce_table3(kappa2: float) -> list[dict]:
    rows = []
    for element, mass, g_ref, count_ref in tables.NUCLEAR_ROWS:
        a = tables.NUCLEAR_R0 * mass ** (1.0 / 3.0)
        p = WellParams(v0=tables.NUCLEAR_V0, a=a, b=tables.NUCLEAR_B, kappa2=kappa2)
        rep = spectrum_mod.solve_spectrum(p)
        count = sum(1 for s in rep.states if s.parity == ODD)
        g = rep.g_value
        ok = abs(g - g_ref) <= tables.TOL_G_NUCLEAR and count == count_ref
        rows.append({
            "element": element, "A": mass,
            "g_ref": g_ref, "g": g, "g_diff": abs(g - g_ref),
            "count_ref": count_ref, "count": count,
            "g_half_bracket": [int(math.floor(g / 2.0)), int(math.floor(g / 2.0)) + 1],
            "ok": ok,
        })
    return rows


def cmd_reproduce(ns) -> int:
    if ns.table == 1:
        rows = _reproduce_table1(ns.kappa2)
    elif ns.table == 2:
        rows = _reproduce_table2()
    elif ns.table == 3:
        rows = _reproduce_table3(ns.kappa2)
    else:
        raise DomainError("table must be 1, 2 or 3")
    all_pass = all(r["ok"] for r in rows)
    results = {"table": ns.table, "rows": rows, "all_pass": all_pass,
               "tolerances": {"g": tables.TOL_G, "beta": tables.TOL_BETA,
                              "g_nuclear": tables.TOL_G_NUCLEAR}}
    units = {"a": "fm", "b": "fm", "v0": "MeV", "g": "dimensionless",
             "beta": "dimensionless", "alpha": "dimensionless",
             "kappa2": "1/(MeV fm^2)"}
    inputs = {"table": ns.table, "kappa2": ns.kappa2}
    _emit(_record("reproduce", inputs, results, units, ns.precision), ns.out)
    return EXIT_OK if all_pass else EXIT_VERIFICATION


# ------------------------------------------------------------------- parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermiwell",
        description="Bound states, half bound states and semiclassical counts "
                    "of the symmetric Fermi (Woods-Saxon) well.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_info = sub.add_parser("info", help="well characterization: alpha, beta, G, count bracket")
    _well_args(p_info)
    _add_common(p_info)
    p_info.set_defaults(func=cmd_info)

    p_spec = sub.add_parser("spectrum", help="bound-state levels (exact, WKB or oracle)")
    _well_args(p_spec)
    p_spec.add_argument("--method", choices=["exact", "wkb", "oracle"], default="exact")
    p_spec.add_argument("--format", choices=["json", "csv"], default="json")
    _add_common(p_spec)
    p_spec.set_defaults(func=cmd_spectrum)

    p_hbs = sub.add_parser("hbs", help="critical beta_n at fixed alpha, with verification")
    p_hbs.add_argument("--alpha", type=float, required=True)
    p_hbs.add_argument("--n", type=int, required=True)
    _add_common(p_hbs)
    p_hbs.set_defaults(func=cmd_hbs)

    p_scan = sub.add_parser("hbs-scan", help="table of beta_n, G for n = 1..n_max")
    p_scan.add_argument("--alpha", type=float, required=True)
    p_scan.add_argument("--n-max", type=int, required=True, dest="n_max")
    _add_common(p_scan)
    p_scan.set_defaults(func=cmd_hbs_scan)

    p_nuc = sub.add_parser("nuclear", help="s-wave neutron levels for mass number A")
    p_nuc.add_argument("--mass-number", "-A", type=int, required=True, dest="mass_number")
    p_nuc.add_argument("--v0", type=float, default=tables.NUCLEAR_V0)
    p_nuc.add_argument("--r0", type=float, default=tables.NUCLEAR_R0)
    p_nuc.add_argument("--b", type=float, default=tables.NUCLEAR_B)
    _add_common(p_nuc)
    p_nuc.set_defaults(func=cmd_nuclear)

    p_plot = sub.add_parser("plot-data", help="TSV curves: potential, eigenfunctions or HBS")
    p_plot.add_argument("--kind", choices=["potential", "eigenfunctions", "hbs"], required=True)
    p_plot.add_argument("--v0", type=float, default=None)
    p_plot.add_argument("--a", type=float, default=None)
    p_plot.add_argument("--b", type=float, nargs="+", default=None)
    p_plot.add_argument("--alpha", type=float, default=None)
    p_plot.add_argument("--beta", type=float, default=None)
    p_plot.add_argument("--x-max", type=float, default=None, dest="x_max")
    p_plot.add_argument("--points", type=int, default=801)
    _add_common(p_plot)
    p_plot.set_defaults(func=cmd_plot_data)

    p_rep = sub.add_parser("reproduce", help="recompute a published benchmark table")
    p_rep.add_argument("--table", type=int, choices=[1, 2, 3], required=True)
    _add_common(p_rep)
    p_rep.set_defaults(func=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return ns.func(ns)
    except _USAGE_ERRORS as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _VERIFICATION_ERRORS as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return EXIT_VERIFICATION
    except FermiwellError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
