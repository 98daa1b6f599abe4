"""Exact quadratic optimal transport over locally finite metric trees.

Wasserstein-space machinery specialized to trees: displacement
interpolation, asymptotic measures and the exact asymptotic formula,
boundary flows with the ends-realizability criteria for complete
geodesics, and the perpendicular Radon transform with its inversion.

``import treeot`` loads only the error types.  Every other public name, and
every submodule (``treeot.transport``, ``treeot.cli``, ...), is loaded on
first use, so a CLI subcommand loads only the modules it runs.  A name is
looked up in its submodule on each access and never cached here, so a
wrapper set on the submodule (``monkeypatch.setattr(treeot.transport,
...)``) is what ``treeot.<name>`` returns.
"""

import importlib

from .errors import *  # noqa: F403  (the error types, the one eager import)

# Every public name, by the submodule that defines it.
_EXPORTS = {
    "errors": (
        "ConstantGeodesic", "EqualEnds", "FlagInvalid", "InconsistentData",
        "LeafyTree", "MalformedForRadon", "MalformedTree", "MarginalMismatch",
        "NonFiniteValue", "NonUnitMeasure", "NotAntipodal", "NotDiracBased", "NotRealizable",
        "OutOfInterval", "PlanNotOptimal", "SolverFailure", "TreeOTError",
    ),
    "metric_tree": (
        "MetricTree", "TreeEnd", "TreeGeodesic", "TreePoint", "ValidationReport",
        "gromov_product", "perpendicular", "project_to_geodesic",
    ),
    "transport": (
        "DiscreteMeasure", "MonotonicityCertificate", "TransportPlan",
        "is_cyclically_monotone", "wasserstein2",
    ),
    "dynamics": (
        "DynamicalPlan", "antagonist_pairs", "dirac_interpolation", "extend_from_dirac",
        "interpolate", "is_optimal_dynamical", "lift", "pushforward_at",
        "supported_on_geodesic_test", "validate_complete_plan",
    ),
    "boundary": (
        "ConeMeasure", "asymptotic_formula_check", "asymptotic_measure", "d_infinity",
        "ray_from_asymptotic_measure", "total_variation", "w_infinity",
    ),
    "ends": (
        "BoundaryMeasure", "CombFamily", "FlowTable", "comb_generator", "construct_geodesic",
        "d0_transport", "flow_table", "is_antipodal", "plan_traversal_masses",
        "realizability_sum",
    ),
    "radon": (
        "Flag", "VertexFunction", "combinatorial_radon", "measure_radon_roundtrip",
        "radon_invert", "radon_measure",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

_SUBMODULES = frozenset((*_EXPORTS, "cli", "serialization"))

__all__ = list(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
