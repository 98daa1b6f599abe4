"""Radon tests: the combinatorial transform, exact inversion, the double
counting identity, and full measure reconstruction from projections."""

import math

import numpy as np
import pytest

import treeot as T
from treeot.errors import ConstantGeodesic, InconsistentData, MalformedForRadon, NonFiniteValue
from treeot.radon import geodesic_through_edge, geodesic_through_flag

import helpers


def _flag(tree, x, e, f):
    return T.Flag.make(tree, x, e, f)


# -- combinatorial transform ------------------------------------------------------


def test_barbell_values(barbell):
    h = T.VertexFunction.from_mapping(barbell, {"u": 2.0, "v": 5.0})
    data = T.combinatorial_radon(barbell, h)
    assert data[_flag(barbell, "u", "r1", "r2")] == pytest.approx(7.0)
    assert data[_flag(barbell, "u", "euv", "r1")] == pytest.approx(2.0)
    assert data[_flag(barbell, "u", "euv", "r2")] == pytest.approx(2.0)


def test_zero_function(barbell):
    h = T.VertexFunction.from_mapping(barbell, {})
    assert all(v == 0.0 for v in T.combinatorial_radon(barbell, h).values())


def test_star3_center_value(star3):
    h = T.VertexFunction.from_mapping(star3, {"o": 4.25})
    data = T.combinatorial_radon(star3, h)
    assert len(data) == 3
    assert all(v == pytest.approx(4.25) for v in data.values())


def test_radon_requires_clean_tree(tripod):
    h = T.VertexFunction.from_mapping(tripod, {"o": 1.0})
    with pytest.raises(MalformedForRadon):
        T.combinatorial_radon(tripod, h)


def test_radon_rejects_valency_two():
    tree = T.MetricTree(
        ["a", "b"],
        [
            ("e", ("a", "b"), 1.0),
            ("r1", ("a",), math.inf),
            ("r2", ("b",), math.inf),
            ("r3", ("b",), math.inf),
        ],
        "a",
    )
    h = T.VertexFunction.from_mapping(tree, {"a": 1.0})
    with pytest.raises(MalformedForRadon):
        T.combinatorial_radon(tree, h)


def test_forward_matches_perpendicular_sums():
    """Subtree-sum transform against the set-based sum over each flag's
    perpendicular: equal on integer data, within 1e-12 * (1 + sum |h|) on
    float data (the two sum in different orders)."""
    rng = np.random.default_rng(173)
    for n in (1, 2, 5, 17, 60, 150):
        tree = helpers.random_cubic_tree(rng, n)
        ints = {v: float(rng.integers(-50, 51)) for v in tree.vertices}
        floats = {v: float(rng.normal()) for v in tree.vertices}
        for values, exact in ((ints, True), (floats, False)):
            data = T.combinatorial_radon(tree, T.VertexFunction.from_mapping(tree, values))
            assert len(data) == 3 * n  # three flags at every cubic vertex
            tol = 1e-12 * (1.0 + sum(abs(h) for h in values.values()))
            for flag, got in data.items():
                perp = helpers.perpendicular_set(tree, flag.vertex, *flag.edges)
                want = sum(values[v] for v in perp)
                if exact:
                    assert got == want
                else:
                    assert abs(got - want) <= tol


# -- inversion ----------------------------------------------------------------------


def test_barbell_inversion_arithmetic(barbell):
    # at u: (7 + 2 + 2) / (3 - 1) - (3 - 2) / 2 * 7 = 5.5 - 3.5 = 2
    h = T.VertexFunction.from_mapping(barbell, {"u": 2.0, "v": 5.0})
    data = T.combinatorial_radon(barbell, h)
    back = T.radon_invert(barbell, data, 7.0)
    assert back.as_dict() == {"u": 2.0, "v": 5.0}


def test_zero_inversion(barbell):
    h = T.VertexFunction.from_mapping(barbell, {})
    back = T.radon_invert(barbell, T.combinatorial_radon(barbell, h), 0.0)
    assert all(v == 0.0 for v in back.as_dict().values())


def test_random_integer_round_trip_exact():
    rng = np.random.default_rng(151)
    for _ in range(25):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 20)))
        values = {
            v: float(rng.integers(-50, 51)) for v in tree.vertices
        }
        h = T.VertexFunction.from_mapping(tree, values)
        back = T.radon_invert(tree, T.combinatorial_radon(tree, h), h.total)
        assert back.as_dict() == values  # exact, no tolerance


def test_double_counting_identity():
    rng = np.random.default_rng(157)
    for _ in range(10):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 15)))
        h = T.VertexFunction.from_mapping(
            tree, {v: float(rng.integers(-9, 10)) for v in tree.vertices}
        )
        data = T.combinatorial_radon(tree, h)
        for x in tree.vertices:
            k = tree.valency(x)
            acc = sum(
                val for flag, val in data.items() if flag.vertex == x
            )
            expected = math.comb(k - 1, 2) * h.total + (k - 1) * h.get(x)
            assert acc == pytest.approx(expected, abs=1e-9)


def test_injectivity_separating_flag():
    rng = np.random.default_rng(163)
    for _ in range(10):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 10)))
        hv = {v: float(rng.integers(-9, 10)) for v in tree.vertices}
        lv = dict(hv)
        if len(tree.vertices) < 2:
            continue
        a, b = tree.vertices[0], tree.vertices[1]
        lv[a] += 3.0
        lv[b] -= 3.0  # same total, different function
        h = T.VertexFunction.from_mapping(tree, hv)
        l = T.VertexFunction.from_mapping(tree, lv)
        dh = T.combinatorial_radon(tree, h)
        dl = T.combinatorial_radon(tree, l)
        assert any(abs(dh[f] - dl[f]) > 1e-9 for f in dh)


def test_inversion_rejects_inconsistent_data(barbell):
    h = T.VertexFunction.from_mapping(barbell, {"u": 2.0, "v": 5.0})
    data = T.combinatorial_radon(barbell, h)
    data[_flag(barbell, "u", "r1", "r2")] += 1.0
    with pytest.raises(InconsistentData):
        T.radon_invert(barbell, data, 7.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_inversion_rejects_non_finite_data(barbell, bad):
    h = T.VertexFunction.from_mapping(barbell, {"u": 2.0, "v": 5.0})
    data = T.combinatorial_radon(barbell, h)
    data[_flag(barbell, "u", "r1", "r2")] = bad
    with pytest.raises(InconsistentData):
        T.radon_invert(barbell, data, 7.0)
    with pytest.raises(InconsistentData):
        T.radon_invert(barbell, T.combinatorial_radon(barbell, h), bad)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_vertex_function_rejects_non_finite_value(barbell, bad):
    with pytest.raises(NonFiniteValue):
        T.VertexFunction.from_mapping(barbell, {"u": 2.0, "v": bad})


def test_inversion_rejects_missing_flag(barbell):
    h = T.VertexFunction.from_mapping(barbell, {"u": 2.0, "v": 5.0})
    data = T.combinatorial_radon(barbell, h)
    del data[_flag(barbell, "u", "r1", "r2")]
    with pytest.raises(InconsistentData):
        T.radon_invert(barbell, data, 7.0)


# -- measure projections ----------------------------------------------------------------


def test_radon_measure_identity_on_locus(tripod_completed):
    tc = tripod_completed
    gamma = tc.geodesic_between_ends(tc.end("ra"), tc.end("rb"))
    mu = T.DiscreteMeasure.from_atoms(
        tc, [(tc.edge_point("ea", 0.3), 0.5), (tc.vertex_point("b"), 0.5)]
    )
    assert helpers.measures_close(T.radon_measure(tc, mu, gamma), mu)


def test_radon_measure_branch_projection(tripod_completed):
    tc = tripod_completed
    gamma = tc.geodesic_between_ends(tc.end("ra"), tc.end("rb"))
    mu = T.DiscreteMeasure.dirac(tc, tc.vertex_point("c"))
    assert T.radon_measure(tc, mu, gamma).atoms == ((tc.vertex_point("o"), 1.0),)


def test_radon_measure_mass_preserved_on_locus():
    rng = np.random.default_rng(167)
    for _ in range(8):
        tree = helpers.random_radon_tree(rng, 6)
        eid = sorted(tree.edges)[0]
        gamma = geodesic_through_edge(tree, eid)
        mu = helpers.random_measure(rng, tree, 4)
        proj = T.radon_measure(tree, mu, gamma)
        assert sum(m for _, m in proj.atoms) == pytest.approx(1.0, abs=1e-12)
        for p, _ in proj.atoms:
            assert gamma.arc_of_point(p) is not None


def test_radon_measure_is_w_contraction():
    rng = np.random.default_rng(173)
    tree = helpers.random_radon_tree(rng, 6)
    gamma = geodesic_through_edge(tree, sorted(tree.edges)[0])
    for _ in range(5):
        mu = helpers.random_measure(rng, tree, 3)
        nu = helpers.random_measure(rng, tree, 3)
        w = T.wasserstein2(tree, mu, nu).distance
        wproj = T.wasserstein2(
            tree, T.radon_measure(tree, mu, gamma), T.radon_measure(tree, nu, gamma)
        ).distance
        assert wproj <= w + 1e-9


def test_radon_measure_rejects_constant(tripod_completed):
    tc = tripod_completed
    mu = T.DiscreteMeasure.dirac(tc, tc.vertex_point("o"))
    with pytest.raises(ConstantGeodesic):
        T.radon_measure(tc, mu, tc.constant_geodesic(tc.vertex_point("o")))


def test_geodesic_through_flag_covers_both_edges(barbell):
    flag = _flag(barbell, "u", "euv", "r1")
    gamma = geodesic_through_flag(barbell, flag)
    covered = {eid for eid, *_ in gamma.traversals()}
    assert {"euv", "r1"} <= covered


# -- full reconstruction -------------------------------------------------------------------


def test_roundtrip_vertex_supported(barbell):
    mu = T.DiscreteMeasure.from_atoms(
        barbell, [(barbell.vertex_point("u"), 0.25), (barbell.vertex_point("v"), 0.75)]
    )
    report = T.measure_radon_roundtrip(barbell, mu)
    assert report.exact
    assert helpers.measures_close(report.reconstructed, mu)
    assert report.interior_atoms == ()


def test_roundtrip_edge_interior(barbell):
    mu = T.DiscreteMeasure.from_atoms(
        barbell,
        [(barbell.edge_point("euv", 0.25), 0.5), (barbell.edge_point("r1", 1.5), 0.5)],
    )
    report = T.measure_radon_roundtrip(barbell, mu)
    assert report.exact
    assert helpers.measures_close(report.reconstructed, mu)
    assert all(abs(v) < 1e-12 for v in report.vertex_function.as_dict().values())


def test_roundtrip_mixed_random():
    rng = np.random.default_rng(179)
    for _ in range(8):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 10)))
        mu = helpers.random_measure(rng, tree, int(rng.integers(2, 6)))
        report = T.measure_radon_roundtrip(tree, mu)
        assert report.max_error <= 1e-9
        assert helpers.measures_close(report.reconstructed, mu)


def test_roundtrip_interior_total_adds_in_order(monkeypatch):
    # radon_invert gets 1 minus the interior masses added left to right
    from treeot import radon

    rng = np.random.default_rng(114)
    tree = helpers.random_radon_tree(rng, 6)
    edges = sorted(e for e in tree.edges if not tree.edges[e].infinite)
    offsets = rng.uniform(0.1, 0.9, size=24)
    pts = [tree.edge_point(edges[i % len(edges)], float(o) * tree.edges[edges[i % len(edges)]].length)
           for i, o in enumerate(offsets)]
    pts += [tree.vertex_point(v) for v in tree.vertices]
    mu = T.DiscreteMeasure.from_atoms(tree, zip(pts, helpers.spread_masses(rng, len(pts))))
    totals = []
    invert = radon.radon_invert
    monkeypatch.setattr(radon, "radon_invert", lambda t, data, total: totals.append(total) or invert(t, data, total))
    report = T.measure_radon_roundtrip(tree, mu)
    masses = [m for _, m in report.interior_atoms]
    assert math.fsum(masses) != helpers.add_in_order(masses)
    assert totals == [1.0 - helpers.add_in_order(masses)]


def test_vertex_function_total_adds_in_order():
    rng = np.random.default_rng(127)
    tree = helpers.random_radon_tree(rng, 30)
    values = {v: float(x) for v, x in zip(tree.vertices, rng.normal(size=30))}
    h = T.VertexFunction.from_mapping(tree, values)
    ordered = [values[v] for v in sorted(values)]
    assert math.fsum(ordered) != helpers.add_in_order(ordered)
    assert h.total == helpers.add_in_order(ordered)
