"""Checks of fermiwell's outputs against ``reference.py``.

Each check returns a list of problems, each tagged ("bracket: ...",
"count: ..."), so that the self-check can show which check rejects a wrong
answer.  An empty list means the output passed.
"""

from __future__ import annotations

import math

import reference as ref


def _problem(tag: str, label: str, text: str) -> str:
    return f"{tag}: [{label}] {text}"


def _levels(label, well, states, counts) -> list[str]:
    """Checks shared by exact and oracle levels: [[E, parity, nodes], ...].

    ``counts`` holds (count, line zero) per parity from
    ``reference.zero_energy_counts``.
    """
    v0 = well[0]
    out = []
    if len(states) < 1:
        out.append(_problem("count", label, "no bound state; every attractive 1D well binds one"))
    for parity, (count, zero) in zip(("even", "odd"), counts):
        found = sum(1 for s in states if s[1] == parity)
        # A state bound by less than the scan can resolve may be missing.
        allowed = (count - 1, count) if ref.below_resolution(zero, well) else (count,)
        if found not in allowed:
            out.append(_problem("count", label, f"{found} {parity} states, zero-energy nodes give {count}"))
    g = ref.g_value(*ref.dimensionless(*well))
    if len(states) not in ref.count_bracket(g):
        out.append(_problem("count", label, f"{len(states)} states outside {ref.count_bracket(g)} for G={g:.6f}"))
    window = ref.level_window(v0)
    prev = -v0
    for idx, (energy, parity, nodes) in enumerate(states):
        want = "even" if idx % 2 == 0 else "odd"
        if parity != want or nodes != idx:
            out.append(_problem("parity", label, f"state {idx} is {parity} with {nodes} nodes; want {want}, {idx}"))
        if not prev < energy < 0.0:
            out.append(_problem("order", label, f"state {idx} at E={energy!r} not in ({prev}, 0)"))
            continue
        prev = energy
        # The upper end stays below 0 for levels within the window of threshold.
        lo, hi = energy - window, min(energy + window, 0.5 * energy)
        if ref.level_matching(well, lo, parity) * ref.level_matching(well, hi, parity) >= 0.0:
            out.append(_problem("bracket", label, f"{parity} matching condition does not change sign "
                                                  f"over E={energy!r} -+ {window:g} MeV"))
    return out


def check_spectrum(well, expect, result, counts) -> list[str]:
    label = expect["label"]
    states = result["states"]
    out = _levels(label, well, states, counts)
    alpha, beta = ref.dimensionless(*well)
    g = ref.g_value(alpha, beta)
    for key in ("g", "g_closed"):
        if not math.isclose(result[key], g, rel_tol=1e-9):
            out.append(_problem("g", label, f"{key}={result[key]!r}, the paper's formula gives {g!r}"))
    if "count" in expect and len(states) != expect["count"]:
        out.append(_problem("count", label, f"{len(states)} states, expected {expect['count']}"))
    if "s_wave" in expect:
        s_wave = sum(1 for s in states if s[1] == "odd")
        if s_wave != expect["s_wave"]:
            out.append(_problem("count", label, f"{s_wave} s-wave states, published {expect['s_wave']}"))
    if "g" in expect and abs(g - expect["g"]) > expect["g_tol"]:
        out.append(_problem("g", label, f"G={g:.5f}, published {expect['g']}"))
    wkb = result["wkb"]
    want = math.floor(g + 0.5)
    if [lv[0] for lv in wkb] != list(range(want)):
        out.append(_problem("wkb", label, f"WKB indices {[lv[0] for lv in wkb]}, expected 0..{want - 1}"))
    for n, energy, f_value in wkb:
        f_ref = ref.wkb_action(well, energy)
        if abs(f_ref - (n + 0.5)) > 1e-6 or abs(f_value - f_ref) > 1e-6:
            out.append(_problem("wkb", label, f"level {n} at E={energy!r}: F={f_value!r}, quadrature {f_ref!r}"))
    if expect.get("demo"):
        for name, got, published in (("exact", [s[0] for s in states], ref.DEMO_EXACT),
                                     ("wkb", [lv[1] for lv in wkb], ref.DEMO_WKB)):
            if len(got) != len(published) or any(abs(x - y) > ref.TOL_PUBLISHED for x, y in zip(got, published)):
                out.append(_problem("published", label, f"{name} levels {got}, published {published}"))
    return out


def check_critical_beta(x, expect, result, counts_below, counts_above) -> list[str]:
    """result: [[n, beta_n, G], ...] for n = 1..n_max."""
    alpha, n_max = x
    label = f"alpha={alpha} {expect['label']}"
    out = []
    if [r[0] for r in result] != list(range(1, n_max + 1)):
        return [_problem("count", label, f"roots {[r[0] for r in result]}, expected 1..{n_max}")]
    prev = 0.0
    for (n, beta, g), below, above in zip(result, counts_below, counts_above):
        if not beta > prev:
            out.append(_problem("order", label, f"beta_{n}={beta!r} not above {prev!r}"))
        prev = beta
        odd = n % 2 == 1
        lo, hi = beta - ref.BETA_WINDOW, beta + ref.BETA_WINDOW
        if ref.hbs_matching(alpha, lo, odd) * ref.hbs_matching(alpha, hi, odd) >= 0.0:
            out.append(_problem("bracket", label, f"{'odd' if odd else 'even'} zero-energy condition does not "
                                                  f"change sign over beta_{n}={beta!r} -+ {ref.BETA_WINDOW:g}"))
        g_ref = ref.g_value(alpha, beta)
        if not math.isclose(g, g_ref, rel_tol=1e-9):
            out.append(_problem("g", label, f"G_{n}={g!r}, the paper's formula gives {g_ref!r}"))
        if n not in ref.count_bracket(g_ref):
            out.append(_problem("count", label, f"a well at beta_{n} holds {n} states, outside "
                                                f"{ref.count_bracket(g_ref)} for G={g_ref:.6f}"))
        if (below, above) != (n, n + 1):
            out.append(_problem("count", label, f"wells at beta_{n} * 0.99, * 1.01 hold {below}, {above} "
                                                f"states, expected {n}, {n + 1}"))
    for n, (beta, g), beta_pub, g_pub in zip(range(1, n_max + 1), (r[1:] for r in result),
                                             expect.get("betas", []), expect.get("gs", [])):
        if abs(beta - beta_pub) > ref.TOL_PUBLISHED or abs(g - g_pub) > 2e-3:
            out.append(_problem("published", label, f"beta_{n}={beta:.6f}, G={g:.5f}; published {beta_pub}, {g_pub}"))
    return out


def check_oracle(well, expect, result, counts) -> list[str]:
    label = f"{well} {expect['label']}"
    out = _levels(label, well, result["states"], counts)
    if result["sturm"] != len(result["states"]):
        out.append(_problem("count", label, f"Sturm count {result['sturm']}, "
                                            f"{len(result['states'])} oracle states"))
    return out


def check_round(workload: str, inputs: list, expects: list[dict], results: list) -> list[str]:
    """All problems of one round of results (None marks a failed operation)."""
    done = [(x, e, r) for x, e, r in zip(inputs, expects, results) if r is not None]
    if not done:
        return []
    if workload == "critical-beta":
        alphas, betas = [], []
        for (alpha, _), _, r in done:
            for _, beta, _ in r:
                alphas += [alpha, alpha]
                betas += [beta * 0.99, beta * 1.01]
        even, odd, _, _ = ref.zero_energy_counts(alphas, betas) if betas else ([], [], None, None)
        totals = iter(list(map(int, even + odd)))
        out = []
        for x, e, r in done:
            pairs = [(next(totals), next(totals)) for _ in r]
            out += check_critical_beta(x, e, r, [p[0] for p in pairs], [p[1] for p in pairs])
        return out
    wells = [tuple(x[:3]) for x, _, _ in done]
    even, odd, zero_even, zero_odd = ref.zero_energy_counts(*zip(*(ref.dimensionless(*w) for w in wells)))
    check = check_spectrum if workload == "spectrum" else check_oracle
    out = []
    for (_, e, r), w, ne, ze, no, zo in zip(done, wells, even, zero_even, odd, zero_odd):
        out += check(w, e, r, ((int(ne), float(ze)), (int(no), float(zo))))
    return out
