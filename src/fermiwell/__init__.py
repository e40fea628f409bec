"""Bound states, half bound states and semiclassical counts of the
symmetric Fermi (Woods-Saxon) potential well."""

from .core import (
    DEFAULT_KAPPA2,
    DimensionlessWell,
    WellParams,
    from_dimensionless,
    potential,
    to_dimensionless,
)
from .errors import FermiwellError
from .hbs import HbsSolution, hbs_matching, hbs_scan, solve_beta_n, verify_criticality
from .oracle import IntegratorConfig, count_via_zero_energy_nodes, oracle_spectrum
from .semiclassical import (
    WkbLevel,
    f_action,
    g_closed_form,
    g_quadrature,
    square_well_reference,
    wkb_spectrum,
)
from .spectrum import EigenState, SpectrumReport, count_states, matching_function, solve_spectrum
from .special import hyp2f1, hyp2f1_dz, lgamma_complex
from .wavefunction import WaveSample, count_nodes, map_y, psi, psi_hbs, shape_params

__version__ = "0.1.0"

# Every kernel is numpy; kept as False for tools that read it.
USING_NUMBA = False

__all__ = [
    "DEFAULT_KAPPA2",
    "DimensionlessWell",
    "EigenState",
    "FermiwellError",
    "HbsSolution",
    "IntegratorConfig",
    "SpectrumReport",
    "USING_NUMBA",
    "WaveSample",
    "WellParams",
    "WkbLevel",
    "count_nodes",
    "count_states",
    "count_via_zero_energy_nodes",
    "f_action",
    "from_dimensionless",
    "g_closed_form",
    "g_quadrature",
    "hbs_matching",
    "hbs_scan",
    "hyp2f1",
    "hyp2f1_dz",
    "lgamma_complex",
    "map_y",
    "matching_function",
    "oracle_spectrum",
    "potential",
    "psi",
    "psi_hbs",
    "shape_params",
    "solve_beta_n",
    "solve_spectrum",
    "square_well_reference",
    "to_dimensionless",
    "verify_criticality",
    "wkb_spectrum",
]
