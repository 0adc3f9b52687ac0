"""Exact geometry of non-archimedean norms and toric psh segments.

The package computes, in exact rational arithmetic, the metric geometry
of diagonalizable norms on finite-dimensional vector spaces over a
trivially valued or t-adically valued field (spectra, d_p distances,
geodesics, graded norms), and the induced pluripotential theory of toric
metrics on O(m) over projective space: Fubini-Study and sup-norm
operators, rooftop envelopes, Monge-Ampere energy, Kiselman duals, and
maximal psh segments between metrics.
"""

from .field import INF, TADIC, TRIVIAL, RatFunc, format_fraction, parse_fraction
from .norms import (
    DiagNorm,
    NormError,
    codiagonalize,
    det_norm,
    distance,
    join,
    quotient_norm,
    spectrum,
    sym_power_norm,
    tensor_norm,
    volume,
)
from .geodesics import NormGeodesic, geodesic
from .graded import (
    GradedError,
    GradedNorm,
    SectionRing,
    asymptotic_stats,
    check_submultiplicative,
    generate_degree_one,
    graded_geodesic,
    lattice_points,
    serialize_counterexample,
)
from .plconvex import (
    ConcaveProfile,
    EnvelopeError,
    MaxAffine,
    PLError,
    compare,
    conjugate,
    envelope_constrained,
    integrate_abs_difference,
    integrate_profile,
    marginal_min,
    max_abs_difference,
    moment_simplex,
    prune,
)
from .toric import (
    ConvergenceResult,
    ToricError,
    ToricMetric,
    compare_metrics,
    d1_metric,
    d_infinity_limit,
    energy,
    energy_limit,
    envelope_P,
    fs_from_norm,
    moment_volume,
    reference,
    section_ring,
    sup_graded,
    supnorm,
)
from .segments import (
    FSSegment,
    diagnostics,
    duality_tau_set,
    fs_segment,
    kiselman_dual,
    legendre_segment,
    maximal_segment,
    quantization_levels,
    quantized_segment,
    segment_from_dual,
    tau_critical_set,
)
from .suites import SUITE_NAMES, run_suite
from .config import ConfigError, ExperimentConfig, load_config

__version__ = "0.1.0"

__all__ = [
    "INF", "TADIC", "TRIVIAL", "RatFunc", "format_fraction", "parse_fraction",
    "DiagNorm", "NormError", "codiagonalize", "det_norm", "distance", "join",
    "quotient_norm", "spectrum", "sym_power_norm", "tensor_norm", "volume",
    "NormGeodesic", "geodesic",
    "GradedError", "GradedNorm", "SectionRing", "asymptotic_stats",
    "check_submultiplicative", "generate_degree_one", "graded_geodesic",
    "lattice_points", "serialize_counterexample",
    "ConcaveProfile", "EnvelopeError", "MaxAffine", "PLError", "compare",
    "conjugate", "envelope_constrained", "integrate_abs_difference",
    "integrate_profile", "marginal_min",
    "max_abs_difference", "moment_simplex", "prune",
    "ConvergenceResult", "ToricError", "ToricMetric", "compare_metrics",
    "d1_metric", "d_infinity_limit", "energy", "energy_limit", "envelope_P",
    "fs_from_norm", "moment_volume", "reference", "section_ring",
    "sup_graded", "supnorm",
    "FSSegment", "diagnostics", "duality_tau_set", "fs_segment",
    "kiselman_dual", "legendre_segment", "maximal_segment",
    "quantization_levels", "quantized_segment", "segment_from_dual",
    "tau_critical_set",
    "SUITE_NAMES", "run_suite",
    "ConfigError", "ExperimentConfig", "load_config",
    "__version__",
]
