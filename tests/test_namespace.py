"""The `treeot` namespace: every public name resolves on first use, and
`import treeot` loads nothing but the error types."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import treeot as T

# Every name the package exports, by the submodule that defines it.
EXPORTS = {
    "errors": [
        "ConstantGeodesic", "EqualEnds", "FlagInvalid", "InconsistentData",
        "LeafyTree", "MalformedForRadon", "MalformedTree", "MarginalMismatch",
        "NonFiniteValue", "NonUnitMeasure", "NotAntipodal", "NotDiracBased", "NotRealizable",
        "OutOfInterval", "PlanNotOptimal", "SolverFailure", "TreeOTError",
    ],
    "metric_tree": [
        "MetricTree", "TreeEnd", "TreeGeodesic", "TreePoint", "ValidationReport",
        "gromov_product", "perpendicular", "project_to_geodesic",
    ],
    "transport": [
        "DiscreteMeasure", "MonotonicityCertificate", "TransportPlan",
        "is_cyclically_monotone", "wasserstein2",
    ],
    "dynamics": [
        "DynamicalPlan", "antagonist_pairs", "dirac_interpolation", "extend_from_dirac",
        "interpolate", "is_optimal_dynamical", "lift", "pushforward_at",
        "supported_on_geodesic_test", "validate_complete_plan",
    ],
    "boundary": [
        "ConeMeasure", "asymptotic_formula_check", "asymptotic_measure", "d_infinity",
        "ray_from_asymptotic_measure", "total_variation", "w_infinity",
    ],
    "ends": [
        "BoundaryMeasure", "CombFamily", "FlowTable", "comb_generator", "construct_geodesic",
        "d0_transport", "flow_table", "is_antipodal", "plan_traversal_masses",
        "realizability_sum",
    ],
    "radon": [
        "Flag", "VertexFunction", "combinatorial_radon", "measure_radon_roundtrip",
        "radon_invert", "radon_measure",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)
SRC = str(Path(__file__).resolve().parent.parent / "src")


def fresh(code: str) -> subprocess.CompletedProcess:
    """code run in a new interpreter that imports treeot from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": SRC},
        capture_output=True,
        text=True,
    )


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_every_export_is_the_submodules_object(module):
    sub = importlib.import_module(f"treeot.{module}")
    for name in EXPORTS[module]:
        assert getattr(T, name) is getattr(sub, name), name


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from treeot import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(T.__all__) == NAMES


def test_dir_lists_every_export():
    assert set(NAMES) <= set(dir(T))
    assert {"transport", "cli", "serialization"} <= set(dir(T))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        T.no_such_name
    assert not hasattr(T, "wasserstein3")


def test_import_loads_only_the_errors():
    out = fresh("import sys, treeot; print(sorted(m for m in sys.modules if m.startswith('treeot')))")
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['treeot', 'treeot.errors']"


def test_submodule_resolves_before_it_is_imported():
    out = fresh(
        "import sys, treeot\n"
        "assert 'treeot.transport' not in sys.modules\n"
        "assert treeot.transport is sys.modules['treeot.transport']\n"
        "assert treeot.transport.wasserstein2 is treeot.wasserstein2\n"
    )
    assert out.returncode == 0, out.stderr


def test_patch_on_the_submodule_is_seen_and_undone(monkeypatch):
    original = T.transport.wasserstein2

    def fake(tree, mu, nu):
        return 0.0, None

    monkeypatch.setattr(T.transport, "wasserstein2", fake)
    assert T.wasserstein2 is fake
    monkeypatch.undo()
    assert T.wasserstein2 is original
    assert "wasserstein2" not in vars(T)
