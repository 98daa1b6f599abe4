"""The printed form of every record type, pinned on small examples.

Each record is made by the library call that returns it; its ``repr`` must
stay byte for byte what it is here, whatever mechanism declares the record.
"""

from types import SimpleNamespace

import pytest

import treeot as T
from treeot.radon import Flag


def _tripod_case(tree, name):
    mu = T.DiscreteMeasure.from_atoms(
        tree, [(tree.vertex_point("a"), 0.5), (tree.edge_point("eb", 0.25), 0.5)]
    )
    nu = T.DiscreteMeasure.from_atoms(tree, [(tree.vertex_point("c"), 1.0)])
    plan = T.wasserstein2(tree, mu, nu).plan
    dyn = T.interpolate(tree, mu, nu)
    if name == "DiscreteMeasure":
        return mu
    if name == "TransportPlan":
        return plan
    if name == "MonotonicityCertificate":
        return T.is_cyclically_monotone(tree, plan)
    if name == "DynamicalPlan":
        return dyn
    if name == "OptimalityCertificate":
        return T.is_optimal_dynamical(tree, dyn)
    if name == "LiftedCoupling":
        half = T.pushforward_at(dyn, 0.5)
        return T.lift(tree, dyn, dyn, T.wasserstein2(tree, half, half).plan, 0.5)
    gamma = tree.geodesic_segment(tree.vertex_point("a"), tree.vertex_point("b"), 0.0, 1.0)
    return T.supported_on_geodesic_test(tree, nu, gamma)


def _star3_case(tree, name):
    r1, r2, r3 = tree.ends()
    plan = T.DynamicalPlan.from_atoms(tree, [
        (tree.geodesic_between_ends(r1, r2), 0.5),
        (tree.geodesic_between_ends(r1, r3, speed=2.0), 0.5),
    ])
    if name == "SpeedCertificate":
        return T.validate_complete_plan(plan)
    return T.asymptotic_measure(plan)


def _barbell_case(tree, name):
    minus = T.BoundaryMeasure.from_atoms(tree, [(tree.end("r1"), 0.5), (tree.end("r2"), 0.5)])
    plus = T.BoundaryMeasure.from_atoms(tree, [(tree.end("r3"), 0.75), (tree.end("r4"), 0.25)])
    if name == "BoundaryMeasure":
        return plus
    if name == "AntipodalityResult":
        return T.is_antipodal(tree, minus, plus)
    if name == "FlowTable":
        return T.flow_table(tree, minus, plus)
    if name == "Flag":
        return Flag.make(tree, "u", "r2", "r1")
    if name == "VertexFunction":
        return T.VertexFunction.from_mapping(tree, {"v": 5, "u": 2.5})
    mu = T.DiscreteMeasure.from_atoms(
        tree, [(tree.vertex_point("u"), 0.5), (tree.edge_point("euv", 0.5), 0.5)]
    )
    return T.measure_radon_roundtrip(tree, mu)


PINS = {
    "TreePoint": (
        lambda t: (t.tripod.vertex_point("a"), t.tripod.edge_point("eb", 0.25)),
        "(TreePoint('a'), TreePoint('eb'@0.25))",
    ),
    "TreeEnd": (lambda t: t.star3.end("r1"), "TreeEnd('r1')"),
    "Edge": (lambda t: t.tripod.edge("ea"), "Edge(id='ea', ends=('o', 'a'), length=1.0)"),
    "ValidationReport": (
        lambda t: t.tripod.report,
        "ValidationReport(connected=True, acyclic=True, leaves=('a', 'b', 'c'), "
        "valency2=(), infinite_edges=())",
    ),
    "DiscreteMeasure": (
        lambda t: _tripod_case(t.tripod, "DiscreteMeasure"),
        "DiscreteMeasure(atoms=((TreePoint('a'), 0.5), (TreePoint('eb'@0.25), 0.5)))",
    ),
    "TransportPlan": (
        lambda t: _tripod_case(t.tripod, "TransportPlan"),
        "TransportPlan(entries=((TreePoint('a'), TreePoint('c'), 0.5), "
        "(TreePoint('eb'@0.25), TreePoint('c'), 0.5)), potentials=((4.0, 1.5625), (0.0,)))",
    ),
    "MonotonicityCertificate": (
        lambda t: _tripod_case(t.tripod, "MonotonicityCertificate"),
        "MonotonicityCertificate(passed=True, max_cycle=2, witness=None, improvement=0.0)",
    ),
    "DynamicalPlan": (
        lambda t: _tripod_case(t.tripod, "DynamicalPlan"),
        "DynamicalPlan(atoms=((TreeGeodesic(TreePoint('a') -> TreePoint('c'), speed=2), 0.5), "
        "(TreeGeodesic(TreePoint('eb'@0.25) -> TreePoint('c'), speed=1.25), 0.5)), "
        "kind='segment', t0=0.0, t1=1.0)",
    ),
    "LiftedCoupling": (
        lambda t: _tripod_case(t.tripod, "LiftedCoupling"),
        "LiftedCoupling(pairs=((0, 0, 0.5), (1, 1, 0.5)), "
        + ", ".join(
            f"{side}=DynamicalPlan(atoms=((TreeGeodesic(TreePoint('a') -> TreePoint('c'), "
            "speed=2), 0.5), (TreeGeodesic(TreePoint('eb'@0.25) -> TreePoint('c'), "
            "speed=1.25), 0.5)), kind='segment', t0=0.0, t1=1.0)"
            for side in ("mu", "sigma")
        )
        + ")",
    ),
    "OptimalityCertificate": (
        lambda t: _tripod_case(t.tripod, "OptimalityCertificate"),
        "OptimalityCertificate(passed=True, witnesses=())",
    ),
    "SupportTestResult": (
        lambda t: _tripod_case(t.tripod, "SupportTestResult"),
        "SupportTestResult(supported=False, witness=(TreePoint('ea'@0.5), "
        "TreePoint('eb'@0.5)), lhs=0.25, rhs=0.75)",
    ),
    "SpeedCertificate": (
        lambda t: _star3_case(t.star3, "SpeedCertificate"),
        "SpeedCertificate(passed=False, speeds=(1.0, 2.0), witness=(0, 1))",
    ),
    "ConeMeasure": (
        lambda t: _star3_case(t.star3, "ConeMeasure"),
        "ConeMeasure(atoms=((TreeEnd('r2'), 1.0, 0.5), (TreeEnd('r3'), 2.0, 0.5)))",
    ),
    "BoundaryMeasure": (
        lambda t: _barbell_case(t.barbell, "BoundaryMeasure"),
        "BoundaryMeasure(atoms=((TreeEnd('r3'), 0.75), (TreeEnd('r4'), 0.25)))",
    ),
    "AntipodalityResult": (
        lambda t: _barbell_case(t.barbell, "AntipodalityResult"),
        "AntipodalityResult(antipodal=True, uniformly_antipodal=True, common_ends=())",
    ),
    "FlowTable": (
        lambda t: _barbell_case(t.barbell, "FlowTable"),
        "FlowTable(edge_flow={'euv': 1.0, 'r1': -0.5, 'r2': -0.5, 'r3': 0.75, 'r4': 0.25}, "
        "vertex_flow={'u': 1.0, 'v': 1.0}, specific_flow={'u': 1.0, 'v': 0.0})",
    ),
    "CombFamily": (
        lambda t: T.comb_generator(8, 3.0).tree.generated_by,
        "CombFamily(mass_exponent=3.0, depth=8)",
    ),
    "Flag": (
        lambda t: _barbell_case(t.barbell, "Flag"),
        "Flag(vertex='u', edges=('r1', 'r2'))",
    ),
    "VertexFunction": (
        lambda t: _barbell_case(t.barbell, "VertexFunction"),
        "VertexFunction(values=(('u', 2.5), ('v', 5.0)), total=7.5)",
    ),
    "RoundtripReport": (
        lambda t: _barbell_case(t.barbell, "RoundtripReport"),
        "RoundtripReport(interior_atoms=((TreePoint('euv'@0.5), 0.5),), "
        "vertex_function=VertexFunction(values=(('u', 0.5), ('v', 0.0)), total=0.5), "
        "reconstructed=DiscreteMeasure(atoms=((TreePoint('euv'@0.5), 0.5), "
        "(TreePoint('u'), 0.5))), max_error=0.0)",
    ),
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_record_repr_is_pinned(name, tripod, star3, barbell):
    make, want = PINS[name]
    record = make(SimpleNamespace(tripod=tripod, star3=star3, barbell=barbell))
    assert repr(record) == want
    sample = record[0] if name == "TreePoint" else record
    assert type(sample).__name__ == name
