"""Radon tests: the combinatorial transform, exact inversion, the double
counting identity, and full measure reconstruction from projections."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

import treeot as T
from treeot.errors import (
    ConstantGeodesic, FlagInvalid, InconsistentData, MalformedForRadon, MalformedTree, NonFiniteValue,
)
from treeot.radon import all_flags, geodesic_through_edge, geodesic_through_flag
from treeot.transport import DUAL_TOL

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


def test_perpendicular_sums_follow_the_through_masses_bit_for_bit():
    """Each flag value is total - through(x, e) - through(x, f), subtracted
    in this order, through(x, g) being the mass of the component of X minus
    x entered through g; float vertex values and float edge masses, so a
    reordered sum would show in the last bits."""
    from treeot.radon import _perpendicular_sums

    rng = np.random.default_rng(191)
    for n in (1, 2, 5, 17, 60, 150):
        tree = helpers.random_cubic_tree(rng, n)
        vertex_mass = {v: float(rng.normal()) for v in tree.vertices}
        edge_mass = {e: float(rng.normal()) for e in sorted(tree.edges) if rng.random() < 0.5}
        beyond = tree.mass_beyond(vertex_mass, edge_mass)
        total = helpers.add_in_order(vertex_mass.values()) + helpers.add_in_order(edge_mass.values())

        def through(x, g):
            if tree.edges[g].ends[0] == x:
                return beyond[g]
            return total - beyond[g] + edge_mass.get(g, 0.0)

        got = _perpendicular_sums(tree, vertex_mass, edge_mass)
        assert list(got) == all_flags(tree)
        for flag, value in got.items():
            want = total - through(flag.vertex, flag.edges[0]) - through(flag.vertex, flag.edges[1])
            assert value.hex() == want.hex(), flag


@pytest.mark.parametrize("make", [helpers.random_cubic_tree, helpers.random_radon_tree])
def test_all_flags_come_vertex_by_vertex_in_edge_pair_order(make):
    # valencies 3 to 6 on the padded random trees
    tree = make(np.random.default_rng(53), 40)
    want = []
    for x in tree.vertices:
        inc = tree.incident_edges(x)
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                want.append(T.Flag(x, (inc[a], inc[b])))
    got = all_flags(tree)
    assert got == want
    assert all(type(flag) is T.Flag for flag in got)


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


@pytest.mark.parametrize("scale", [1e9, 1e12])
def test_round_trip_at_large_scale(scale):
    # The forward sums round relative to the data, so the re-transform
    # check scales with it: values from U(0, scale) come back within 1e-12
    # of the scale.
    for seed in range(20):
        rng = np.random.default_rng(seed)
        tree = helpers.random_cubic_tree(rng, 40)
        values = {v: float(rng.uniform(0.0, scale)) for v in tree.vertices}
        h = T.VertexFunction.from_mapping(tree, values)
        back = T.radon_invert(tree, T.combinatorial_radon(tree, h), h.total).as_dict()
        assert all(abs(back[v] - x) <= 1e-12 * scale for v, x in values.items()), seed


@pytest.mark.parametrize("scale", [1.0, 1e9, 1e12])
def test_perturbation_of_a_thousandth_of_the_scale_is_caught(scale):
    rng = np.random.default_rng(3)
    tree = helpers.random_cubic_tree(rng, 40)
    h = T.VertexFunction.from_mapping(tree, {v: float(rng.uniform(0.0, scale)) for v in tree.vertices})
    data = T.combinatorial_radon(tree, h)
    data[all_flags(tree)[0]] += 1e-3 * scale
    with pytest.raises(InconsistentData, match="re-transforms to"):
        T.radon_invert(tree, data, h.total)


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


def test_inversion_rejects_foreign_flag(barbell):
    h = T.VertexFunction.from_mapping(barbell, {"u": 2.0, "v": 5.0})
    data = T.combinatorial_radon(barbell, h)
    data[T.Flag("u", ("r1", "r3"))] = 0.0  # r3 is not incident to u
    with pytest.raises(InconsistentData, match=r"Flag\(vertex='u', edges=\('r1', 'r3'\)\) is not a flag"):
        T.radon_invert(barbell, data, 7.0)


def _valency_tree(rng: random.Random, n: int) -> T.MetricTree:
    """Leaf-free tree whose vertices have valencies drawn from 3..6: each
    new vertex hangs off an earlier one with a free slot, and infinite
    edges fill the slots left over."""
    names = [f"x{i:02d}" for i in range(n)]
    want = [rng.randint(3, 6) for _ in range(n)]
    have = [0] * n
    edges = []
    for i in range(1, n):
        parent = rng.choice([j for j in range(i) if have[j] < want[j]])
        have[parent] += 1
        have[i] += 1
        edges.append((f"e{i:02d}", (names[parent], names[i]), 1.0))
    for i in range(n):
        edges += [(f"r{i:02d}{j}", (names[i],), math.inf) for j in range(want[i] - have[i])]
    return T.MetricTree(names, edges, names[0])


def _spread_value(rng: random.Random) -> float:
    kind = rng.randrange(6)
    if kind == 0:
        return float(rng.randint(-60, 60))
    if kind == 1:
        return rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.uniform(-300, 300)
    if kind == 2:
        return rng.choice((-1, 1)) * 5e-324 * rng.randint(1, 1 << 30)  # subnormal
    if kind == 3:
        return rng.uniform(-1.0, 1.0) * 1.7e308
    if kind == 4:
        return 0.0
    return rng.gauss(0.0, 1.0)


def _fraction_inverse(tree, data, total) -> dict[str, float]:
    """h(x) = S/(k-1) - (k-2)/2 * T in Fraction arithmetic, then the same
    re-transform check as radon_invert."""
    values = {}
    for x in tree.vertices:
        inc = tree.incident_edges(x)
        k = len(inc)
        acc = Fraction(0)
        for a in range(k):
            for b in range(a + 1, k):
                flag = T.Flag(x, (inc[a], inc[b]))
                if flag not in data:
                    raise InconsistentData(f"missing flag value for {flag}")
                acc += Fraction(data[flag])
        try:
            values[x] = float(acc / (k - 1) - Fraction(k - 2, 2) * Fraction(total))
        except OverflowError:
            raise NonFiniteValue(x) from None
    back = T.combinatorial_radon(tree, T.VertexFunction.from_mapping(tree, values))
    slack = DUAL_TOL * (1.0 + max(abs(v) for v in (total, *data.values())))
    if any(abs(back[flag] - val) > slack for flag, val in data.items()):
        raise InconsistentData("re-transform")
    return values


def _outcome(invert, tree, data, total):
    try:
        values = invert(tree, data, total)
    except (InconsistentData, NonFiniteValue) as err:
        return type(err), str(err) if str(err).startswith("missing") else None
    if isinstance(values, T.VertexFunction):
        values = values.as_dict()
    return "ok", sorted((v, h.hex()) for v, h in values.items())


def test_inversion_matches_fraction_reference():
    """The integer inverse against Fraction arithmetic on leaf-free trees
    of valencies 3-6 and values spread over 1e-300..1e300: bit-identical
    values, the same error type, and the same missing-flag message."""
    rng = random.Random(2010)
    seen = set()
    for case in range(400):
        tree = _valency_tree(rng, rng.randint(1, 9))
        mode = case % 4
        if mode == 3:  # arbitrary data
            data = {flag: _spread_value(rng) for flag in all_flags(tree)}
            total = _spread_value(rng)
        else:
            if mode == 0:  # integer values, scaled by a power of two
                scale = 2.0 ** rng.randint(-40, 40)
                values = {v: rng.randint(-50, 50) * scale for v in tree.vertices}
            else:
                values = {v: _spread_value(rng) for v in tree.vertices}
            h = T.VertexFunction.from_mapping(tree, values)
            data = T.combinatorial_radon(tree, h)
            total = h.total
            if not all(map(math.isfinite, (total, *data.values()))):
                continue
            if mode == 2:  # one flag perturbed or missing
                flag = rng.choice(sorted(data, key=lambda f: (f.vertex, f.edges)))
                if rng.random() < 0.5:
                    del data[flag]
                else:
                    data[flag] += rng.choice((1e-9, 1e-6, 1.0))
        want = _outcome(_fraction_inverse, tree, data, total)
        assert _outcome(T.radon_invert, tree, data, total) == want, (case, data, total)
        seen.add(want[0])
    assert seen == {"ok", InconsistentData, NonFiniteValue}


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
    # Long edges too: projections onto a geodesic must land on its vertices
    # exactly, or the inverse sees inconsistent flag data.
    for min_len, max_len in [(0.2, 2.0), (1e3, 1e4), (1e6, 1e7)]:
        rng = np.random.default_rng(179)
        for _ in range(8):
            tree = helpers.random_radon_tree(rng, int(rng.integers(2, 10)), min_len, max_len)
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


# -- rejections ----------------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda t: T.Flag.make(t, "u", "r1", "r1"), FlagInvalid, "flag at 'u' needs two distinct edges"),
    (lambda t: T.Flag.make(t, "u", "r1", "r3"), FlagInvalid, "edges 'r1', 'r3' not both incident to 'u'"),
    (lambda t: T.radon_measure(t, T.DiscreteMeasure.dirac(t, t.vertex_point("v")),
                               t.ray_to_end(t.vertex_point("u"), t.end("r1"), 1.0)),
     ConstantGeodesic, "the Radon transform projects onto complete geodesics"),
    (lambda t: T.radon_measure(t, T.DiscreteMeasure.dirac(t, t.vertex_point("v")),
                               t.constant_geodesic(t.vertex_point("u"))),
     ConstantGeodesic, "cannot project onto a constant geodesic"),
    (lambda t: T.VertexFunction.from_mapping(t, {"zz": 1.0}), MalformedTree, "unknown vertex 'zz'"),
])
def test_radon_rejects_what_it_cannot_answer(barbell, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(barbell)
