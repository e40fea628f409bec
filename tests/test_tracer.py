"""The benchmark's layer tracer still finds every layer it patches.

``perfbench/tracer.py`` wraps fermiwell functions by module attribute name,
so renaming one of them breaks ``perfbench/run.py --trace 1``.  This test
runs the tracer over one operation of each solver so that such a rename
fails here.
"""

import types
from pathlib import Path

from fermiwell import core, hbs, kernels, oracle, semiclassical, special, spectrum, wavefunction

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    # Executed from source, so no bytecode cache is written next to it.
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_tracer_counts_solver_layers(demo_well):
    tracer = _load_tracer()
    fw = types.SimpleNamespace(core=core, hbs=hbs, kernels=kernels, oracle=oracle, special=special,
                               semiclassical=semiclassical, spectrum=spectrum, wavefunction=wavefunction)
    originals = (spectrum._matching_profile, hbs._bisect, wavefunction.sample_hbs)
    t = tracer.Tracer()
    tracer.install(t, fw, False)
    try:
        spectrum.solve_spectrum(demo_well)
        hbs.hbs_scan(2.0, 3)
        oracle.oracle_spectrum(demo_well, grid_points=300)
    finally:
        t.remove()
    assert (spectrum._matching_profile, hbs._bisect, wavefunction.sample_hbs) == originals
    values = tracer.layer_values(t, 3)
    for key in ("spectrum.scan.evals", "hbs.scan.evals", "spectrum.bisect.s", "hbs.bisect.s",
                "wavefunction.verify.samples", "oracle.mismatch.evals", "oracle.node_check.s"):
        assert values[key] > 0, key
