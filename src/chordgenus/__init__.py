"""Exact enumeration of chord diagrams by genus.

Chord diagrams, shapes, and macromolecular diagrams are counted three ways
that must always agree: brute-force enumeration, counting recursions, and
closed-form generating functions.  All arithmetic is exact (integers and
fractions); asymptotic statements are certified rational intervals.
"""

__version__ = "0.1.0"

from .asymptotics import (
    AsymptoticEstimate,
    RationalInterval,
    RootIsolation,
    asymptotic_ratio_interval,
    bracket_sqrt,
    diagram_growth_ratio,
    dominant_singularity,
    leading_constant,
    macromolecular_growth_interval,
    macromolecular_growth_ratio,
    smallest_positive_root,
)
from .bruteforce import (
    GenusTable,
    count_by_genus,
    count_by_genus_onechords,
    count_macromolecular,
    count_shapes,
    double_factorial_odd,
    enumerate_chord_diagrams,
    enumerate_partial_diagrams,
)
from .diagrams import ChordDiagram, PartialDiagram
from .genfunc import (
    GenusPolyRecord,
    RationalFunction,
    catalan_series,
    diagram_bivariate,
    genus_polynomial,
    genus_polynomial_direct,
    genus_polynomial_records,
    genus_series,
    genus_series_closed_form,
    macromolecular_series,
    ode_residual,
    q_polynomial,
    reduced_genus_polynomial,
    shape_bivariate,
)
from .recurrences import (
    boundary_polynomial,
    boundary_polynomials,
    boundary_polynomials_independent,
    diagram_count,
    diagram_count_closed_form,
    diagram_count_min_chords,
    diagram_count_table,
    min_chords_egf,
)
from .series import BiSeries, Poly, Series
from .verify import CheckResult, run_suite

__all__ = [
    "__version__",
    "AsymptoticEstimate",
    "BiSeries",
    "CheckResult",
    "ChordDiagram",
    "GenusPolyRecord",
    "GenusTable",
    "PartialDiagram",
    "Poly",
    "RationalFunction",
    "RationalInterval",
    "RootIsolation",
    "Series",
    "asymptotic_ratio_interval",
    "boundary_polynomial",
    "boundary_polynomials",
    "boundary_polynomials_independent",
    "bracket_sqrt",
    "catalan_series",
    "count_by_genus",
    "count_by_genus_onechords",
    "count_macromolecular",
    "count_shapes",
    "diagram_bivariate",
    "diagram_count",
    "diagram_count_closed_form",
    "diagram_count_min_chords",
    "diagram_count_table",
    "diagram_growth_ratio",
    "dominant_singularity",
    "double_factorial_odd",
    "enumerate_chord_diagrams",
    "enumerate_partial_diagrams",
    "genus_polynomial",
    "genus_polynomial_direct",
    "genus_polynomial_records",
    "genus_series",
    "genus_series_closed_form",
    "leading_constant",
    "macromolecular_growth_interval",
    "macromolecular_growth_ratio",
    "macromolecular_series",
    "min_chords_egf",
    "ode_residual",
    "q_polynomial",
    "reduced_genus_polynomial",
    "run_suite",
    "shape_bivariate",
    "smallest_positive_root",
]
