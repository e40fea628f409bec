import numpy as np
import pytest

from fermiwell import WellParams, hbs_scan, oracle_spectrum, solve_spectrum
from fermiwell.tables import DEMO_WELL


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    """Run each solver once so timed tests measure warm runtime."""
    p = WellParams(*DEMO_WELL)
    solve_spectrum(p)
    oracle_spectrum(p, grid_points=300)
    hbs_scan(2.0, 1)


@pytest.fixture(scope="session")
def demo_well():
    return WellParams(*DEMO_WELL)


@pytest.fixture(scope="session")
def demo_report(demo_well):
    return solve_spectrum(demo_well)


@pytest.fixture(scope="session")
def random_wells():
    """Deterministic randomized well sample shared by the property tests."""
    rng = np.random.default_rng(20240815)
    wells = []
    for _ in range(50):
        v0 = rng.uniform(5.0, 80.0)
        a = rng.uniform(1.0, 7.0)
        b = rng.uniform(0.1, 1.5)
        wells.append(WellParams(v0, a, b))
    return wells
