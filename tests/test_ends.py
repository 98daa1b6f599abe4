"""Ends tests: antipodality, flows, the -D0^2 problem, realizability and
explicit construction of complete geodesics, comb truncations."""

import itertools
import math
import re
import time

import numpy as np
import pytest

import treeot as T
from treeot.ends import _certify_constructed, divergence_verdict, plan_traversal_masses
from treeot.errors import NotAntipodal, NotRealizable, SolverFailure

import helpers


def _bm(tree, *pairs):
    return T.BoundaryMeasure.from_atoms(
        tree, [(tree.end(e), m) for e, m in pairs]
    )


# -- antipodality -----------------------------------------------------------------


def test_star4_uniformly_antipodal(star4):
    res = T.is_antipodal(star4, _bm(star4, ("r1", 0.5), ("r2", 0.5)),
                         _bm(star4, ("r3", 0.5), ("r4", 0.5)))
    assert res.antipodal and res.uniformly_antipodal


def test_equal_diracs_not_antipodal(star4):
    res = T.is_antipodal(star4, _bm(star4, ("r1", 1.0)), _bm(star4, ("r1", 1.0)))
    assert not res.antipodal
    assert res.common_ends == (star4.end("r1"),)


def test_overlapping_supports_not_antipodal(star4):
    res = T.is_antipodal(star4, _bm(star4, ("r1", 0.5), ("r2", 0.5)),
                         _bm(star4, ("r2", 0.5), ("r3", 0.5)))
    assert not res.uniformly_antipodal


# -- flows ---------------------------------------------------------------------------


def test_star4_flow_numbers(star4):
    table = T.flow_table(star4, _bm(star4, ("r1", 0.5), ("r2", 0.5)),
                         _bm(star4, ("r3", 0.5), ("r4", 0.5)))
    assert table.flow("r3") == pytest.approx(0.5)       # outward toward xi3
    assert table.flow("r4") == pytest.approx(0.5)
    assert table.flow("r1") == pytest.approx(-0.5)      # mass arrives from xi1
    assert table.vertex_flow["o"] == pytest.approx(1.0)
    assert table.specific_flow["o"] == pytest.approx(1.0)
    assert table.sign("r3") == "positive"
    assert table.sign("r3", reverse=True) == "negative"


def test_pendant_subtree_edges_neutral(star4):
    tree = T.MetricTree(
        ["o", "p", "q"],
        [(f"r{i}", ("o",), math.inf) for i in (1, 2, 3, 4)]
        + [("ep", ("o", "p"), 1.0), ("eq", ("p", "q"), 1.0)],
        "o",
    )
    table = T.flow_table(tree, _bm(tree, ("r1", 0.5), ("r2", 0.5)),
                         _bm(tree, ("r3", 0.5), ("r4", 0.5)))
    assert table.sign("ep") == "neutral"
    assert table.sign("eq") == "neutral"
    assert table.vertex_flow["p"] == 0.0 == table.specific_flow["p"]


def test_flow_antisymmetry(star4):
    table = T.flow_table(star4, _bm(star4, ("r1", 0.7), ("r2", 0.3)),
                         _bm(star4, ("r3", 0.4), ("r4", 0.6)))
    for eid in star4.edges:
        assert table.flow(eid, reverse=True) == -table.flow(eid)


def test_mirror_symmetry(barbell):
    # swapping u <-> v and r1 <-> r3, r2 <-> r4 negates the euv flow
    minus = _bm(barbell, ("r1", 0.6), ("r2", 0.4))
    plus = _bm(barbell, ("r3", 0.6), ("r4", 0.4))
    t1 = T.flow_table(barbell, minus, plus)
    t2 = T.flow_table(barbell, plus, minus)
    assert t1.flow("euv") == pytest.approx(-t2.flow("euv"))
    assert t1.vertex_flow["u"] == pytest.approx(t2.vertex_flow["v"])


def test_flow_magnitude_bounded():
    rng = np.random.default_rng(113)
    for _ in range(10):
        tree = helpers.random_tree(rng, 6, 6)
        ends = list(tree.ends())
        if len(ends) < 4:
            continue
        half = len(ends) // 2
        mm = rng.uniform(0.2, 1.0, size=half)
        pm = rng.uniform(0.2, 1.0, size=len(ends) - half)
        minus = T.BoundaryMeasure.from_atoms(
            tree, [(e, m / mm.sum()) for e, m in zip(ends[:half], mm)]
        )
        plus = T.BoundaryMeasure.from_atoms(
            tree, [(e, m / pm.sum()) for e, m in zip(ends[half:], pm)]
        )
        table = T.flow_table(tree, minus, plus)
        for eid in tree.edges:
            assert abs(table.flow(eid)) <= 1.0 + 1e-12
        for v in tree.vertices:
            assert -1e-12 <= table.specific_flow[v] <= table.vertex_flow[v] + 1e-12


def _rebuilt(rng, tree, basepoint):
    """The same tree with every finite edge stored in a random orientation
    and a new base point."""
    edges = [
        (e.id, e.ends[::-1] if len(e.ends) == 2 and rng.random() < 0.5 else e.ends, e.length)
        for e in tree.edges.values()
    ]
    return T.MetricTree(tree.vertices, edges, basepoint)


def _split_ends(rng, tree):
    ends = list(tree.ends())
    rng.shuffle(ends)
    half = len(ends) // 2
    mm = rng.uniform(0.2, 1.0, size=half)
    pm = rng.uniform(0.2, 1.0, size=len(ends) - half)
    minus = T.BoundaryMeasure.from_atoms(tree, [(e, m / mm.sum()) for e, m in zip(ends[:half], mm)])
    plus = T.BoundaryMeasure.from_atoms(tree, [(e, m / pm.sum()) for e, m in zip(ends[half:], pm)])
    return minus, plus


def _assert_flows_match_reference(tree, minus, plus):
    table = T.flow_table(tree, minus, plus)
    vertex_flow, specific = helpers.reference_vertex_flows(tree, minus, plus)
    assert table.vertex_flow == vertex_flow
    assert table.specific_flow == specific
    assert T.realizability_sum(tree, table).value == helpers.reference_realizability(tree, specific)


def test_flow_table_equals_reference_bit_for_bit():
    rng = np.random.default_rng(163)
    kinds = set()
    for _ in range(30):
        base = helpers.random_tree(rng, int(rng.integers(3, 25)), int(rng.integers(4, 12)))
        kind = ["vertex", "finite", "ray"][int(rng.integers(0, 3))]
        tree = _rebuilt(rng, base, helpers.random_basepoint(rng, base, kind))
        kinds.add(kind)
        _assert_flows_match_reference(tree, *_split_ends(rng, tree))
    assert kinds == {"vertex", "finite", "ray"}


@pytest.mark.parametrize(
    "depth, exponent",
    [(2, 3.0), (7, 1.5), (64, 0.0), (300, 3.0), (2048, -50.0), (2048, 1.5), (2048, 0.5)],
)
def test_comb_flow_table_equals_reference_bit_for_bit(depth, exponent):
    inst = T.comb_generator(depth, exponent)
    _assert_flows_match_reference(inst.tree, inst.nu_minus, inst.nu_plus)


@pytest.mark.parametrize("depth", [2, 3, 7, 64, 2048, 16384])
@pytest.mark.parametrize("exponent", [3.0, 1.5, 4.0, 0.0, -50.0, 400.0])
def test_comb_partial_sum_equals_reference_bit_for_bit(depth, exponent):
    family = T.CombFamily(exponent, depth)
    assert family.tooth_masses(depth) == helpers.reference_tooth_masses(exponent, depth)
    assert family.partial_sum(depth) == helpers.reference_partial_sum(family, depth)


@pytest.mark.parametrize("exponent", [3.0, 1.5, 4.0, 0.5, 0.0, -50.0, 400.0, -100.0, 1100.0])
def test_comb_doubling_sums_are_the_partial_sums_bit_for_bit(exponent):
    # -100 overflows n^100 below depth 4096 and 1100 underflows 2^-1100 to
    # zero: both raise, at the same depth with the same message.
    family = T.CombFamily(exponent, 8)
    depths = tuple(2**k for k in range(13))
    try:
        want = [family.partial_sum(d).hex() for d in depths]
    except ValueError as err:
        with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
            family.doubling_sums()
        return
    got_depths, sums = family.doubling_sums()
    assert got_depths == depths
    assert [s.hex() for s in sums] == want


def test_flows_require_antipodal(star4):
    with pytest.raises(NotAntipodal):
        T.flow_table(star4, _bm(star4, ("r1", 1.0)), _bm(star4, ("r1", 1.0)))


# -- realizability sum ------------------------------------------------------------------


def test_star4_realizability_zero(star4):
    table = T.flow_table(star4, _bm(star4, ("r1", 0.5), ("r2", 0.5)),
                         _bm(star4, ("r3", 0.5), ("r4", 0.5)))
    res = T.realizability_sum(star4, table)
    assert res.value == 0.0
    assert res.verdict == "FINITE"


def test_realizability_cross_checks_construction():
    rng = np.random.default_rng(127)
    for _ in range(8):
        tree = helpers.random_tree(rng, 5, 6)
        ends = list(tree.ends())
        if len(ends) < 4:
            continue
        half = len(ends) // 2
        minus = T.BoundaryMeasure.from_atoms(
            tree, [(e, 1.0 / half) for e in ends[:half]]
        )
        plus = T.BoundaryMeasure.from_atoms(
            tree, [(e, 1.0 / (len(ends) - half)) for e in ends[half:]]
        )
        table = T.flow_table(tree, minus, plus)
        res = T.realizability_sum(tree, table)
        plan = T.construct_geodesic(tree, minus, plus)
        m0 = T.pushforward_at(plan, 0.0).second_moment(tree)
        d0 = T.d0_transport(tree, minus, plus)
        assert res.value == pytest.approx(m0, abs=1e-9)
        assert res.value == pytest.approx(-d0.value, abs=1e-9)


def test_divergence_verdict_rules():
    assert divergence_verdict([0.0, 0.4, 0.8, 1.2, 1.6]) == "DIVERGES"
    assert divergence_verdict([1.0, 1.0001, 1.0002, 1.0002, 1.0003]) == "CONVERGES"
    assert divergence_verdict([0.0, 0.1, 0.2, 0.3, 0.4]) == "INCONCLUSIVE"
    assert divergence_verdict([0.0, 1.0]) == "INCONCLUSIVE"


# -- combs -------------------------------------------------------------------------------


def test_comb_depth4_masses():
    inst = T.comb_generator(4, 3.0)
    raw = [1.0, 1.0 / 8.0, 1.0 / 27.0, 1.0 / 64.0]
    zm, zp = raw[0] + raw[2], raw[1] + raw[3]
    assert inst.nu_minus.mass_at(inst.tree.end("t1")) == pytest.approx(raw[0] / zm)
    assert inst.nu_minus.mass_at(inst.tree.end("t3")) == pytest.approx(raw[2] / zm)
    assert inst.nu_plus.mass_at(inst.tree.end("t2")) == pytest.approx(raw[1] / zp)
    assert inst.nu_plus.mass_at(inst.tree.end("t4")) == pytest.approx(raw[3] / zp)


def test_comb_base_flows_positive_between_opposite_teeth():
    inst = T.comb_generator(6, 3.0)
    table = T.flow_table(inst.tree, inst.nu_minus, inst.nu_plus)
    # net transport moves rightward out of tooth 1 toward the even teeth
    assert table.flow("b1") > 0.0
    assert table.flow("b2") > 0.0


def test_comb_family_matches_flow_table():
    for depth in (2, 3, 5, 8, 13):
        inst = T.comb_generator(depth, 3.0)
        table = T.flow_table(inst.tree, inst.nu_minus, inst.nu_plus)
        value = T.realizability_sum(inst.tree, table).value
        assert value == pytest.approx(
            inst.tree.generated_by.partial_sum(depth), abs=1e-12
        )


def test_comb_family_matches_flow_table_past_the_dust():
    # at depth 16384 the deepest teeth normalize to masses below 1e-12; the
    # family drops them as the generated boundary measures do
    inst = T.comb_generator(16384, 3.0)
    table = T.flow_table(inst.tree, inst.nu_minus, inst.nu_plus)
    value = T.realizability_sum(inst.tree, table).value
    assert value == pytest.approx(inst.tree.generated_by.partial_sum(16384), abs=1e-12)


def test_comb_criteria_diverge_together():
    # on every truncation the -D0^2 optimum equals minus the realizability
    # sum, so the two divergence criteria grow in lockstep with depth
    values = []
    for depth in (4, 8, 16, 32):
        inst = T.comb_generator(depth, 3.0)
        table = T.flow_table(inst.tree, inst.nu_minus, inst.nu_plus)
        rsum = T.realizability_sum(inst.tree, table).value
        d0 = T.d0_transport(inst.tree, inst.nu_minus, inst.nu_plus).value
        assert rsum == pytest.approx(-d0, abs=1e-9)
        values.append(rsum)
    assert all(b > a for a, b in zip(values, values[1:]))


def test_comb_partial_sums_grow_without_bound():
    fam = T.CombFamily(3.0, 4096)
    sums = [fam.partial_sum(2**k) for k in range(13)]
    assert all(b >= a - 1e-12 for a, b in zip(sums, sums[1:]))
    incs = [b - a for a, b in zip(sums, sums[1:])][-3:]
    assert all(i > 0.25 for i in incs)


def test_comb_not_realizable():
    inst = T.comb_generator(16, 3.0)
    with pytest.raises(NotRealizable):
        T.construct_geodesic(inst.tree, inst.nu_minus, inst.nu_plus)


def test_comb_convergent_constructs():
    inst = T.comb_generator(8, 4.0)
    plan = T.construct_geodesic(inst.tree, inst.nu_minus, inst.nu_plus)
    assert T.validate_complete_plan(plan).passed


def test_comb_rejects_depth_one():
    with pytest.raises(ValueError):
        T.comb_generator(1, 3.0)


@pytest.mark.parametrize("exponent", [math.inf, -math.inf, math.nan, 1e308, -2000.0])
def test_comb_rejects_exponents_that_do_not_normalize(exponent):
    # 1e308 underflows every even tooth to 0, -2000 overflows n^2000
    with pytest.raises(ValueError):
        T.comb_generator(10, exponent)


# -- the -D0^2 transport problem -----------------------------------------------------------


def test_star4_d0_value_zero(star4):
    res = T.d0_transport(star4, _bm(star4, ("r1", 0.5), ("r2", 0.5)),
                         _bm(star4, ("r3", 0.5), ("r4", 0.5)))
    assert res.value == 0.0


def test_barbell_solver_prefers_far_pairs(barbell):
    # pairing xi3 with xi4 through v pays -d(u, v)^2; pairing across pays 0
    minus = _bm(barbell, ("r1", 0.5), ("r3", 0.5))
    plus = _bm(barbell, ("r2", 0.5), ("r4", 0.5))
    res = T.d0_transport(barbell, minus, plus)
    assert res.value == pytest.approx(-0.5 * barbell.distance(
        barbell.vertex_point("u"), barbell.vertex_point("v")) ** 2)
    pairing = {(a.edge, b.edge) for a, b, _ in res.entries}
    assert ("r3", "r4") in pairing


def test_d0_matches_enumeration_oracle():
    rng = np.random.default_rng(131)
    for _ in range(8):
        tree = helpers.random_tree(rng, 5, 8)
        ends = list(tree.ends())
        if len(ends) < 8:
            continue
        k = 4
        minus = T.BoundaryMeasure.from_atoms(tree, [(e, 1.0 / k) for e in ends[:k]])
        plus = T.BoundaryMeasure.from_atoms(tree, [(e, 1.0 / k) for e in ends[k:2 * k]])
        res = T.d0_transport(tree, minus, plus)
        d0 = {
            (a, b): T.gromov_product(tree, a, b)
            for a in minus.support()
            for b in plus.support()
        }
        xs, ys = ends[:k], ends[k : 2 * k]
        oracle = min(
            sum(-d0[(xs[i], ys[p[i]])] ** 2 for i in range(k)) / k
            for p in itertools.permutations(range(k))
        )
        assert res.value == pytest.approx(oracle, abs=1e-9)


@pytest.mark.parametrize("kind", ["vertex", "finite", "ray"])
def test_d0_transport_matches_the_simplex_on_the_gromov_matrix(kind):
    # The greedy plan is a coupling whose -D0^2 total is its value, and the
    # value is the simplex optimum, with the base point at a vertex, inside
    # a finite edge and on a ray.
    rng = np.random.default_rng({"vertex": 401, "finite": 409, "ray": 419}[kind])
    for _ in range(25):
        base = helpers.random_tree(rng, int(rng.integers(2, 20)), int(rng.integers(4, 14)))
        tree = _rebuilt(rng, base, helpers.random_basepoint(rng, base, kind))
        minus, plus = _split_ends(rng, tree)
        res = T.d0_transport(tree, minus, plus)
        want, _ = helpers.d0_simplex(tree, minus, plus)
        assert res.value == pytest.approx(want, rel=1e-12, abs=1e-15)
        total = -math.fsum(q * T.gromov_product(tree, a, b) ** 2 for a, b, q in res.entries)
        assert res.value == pytest.approx(total, rel=1e-12, abs=1e-15)
        for measure, side in ((minus, 0), (plus, 1)):
            got = {}
            for entry in res.entries:
                got[entry[side]] = got.get(entry[side], 0.0) + entry[2]
            assert got == pytest.approx(dict(measure.atoms), abs=1e-12)
        rows = {e: i for i, (e, _) in enumerate(minus.atoms)}
        cols = {e: j for j, (e, _) in enumerate(plus.atoms)}
        keys = [(rows[a], cols[b]) for a, b, _ in res.entries]
        assert keys == sorted(set(keys))


def test_d0_transport_runs_no_simplex_and_no_gromov_product(monkeypatch, barbell):
    from treeot import ends, metric_tree, transport

    def banned(*args, **kwargs):
        raise AssertionError("called")

    # treeot.gromov_product is looked up in metric_tree on each access
    for module, name in [
        (transport, "transportation_simplex"), (transport, "solve_transport"),
        (metric_tree, "gromov_product"),
    ]:
        monkeypatch.setattr(module, name, banned)
    minus = _bm(barbell, ("r1", 0.5), ("r3", 0.5))
    plus = _bm(barbell, ("r2", 0.5), ("r4", 0.5))
    assert T.d0_transport(barbell, minus, plus).value == -0.5
    assert len(T.construct_geodesic(barbell, minus, plus).atoms) == 2
    assert not hasattr(ends, "solve_transport") and not hasattr(ends, "gromov_product")


@pytest.mark.parametrize("kind", ["vertex", "finite", "ray"])
def test_construct_geodesic_projects_nothing(monkeypatch, kind):
    # The default anchor between two ends is read off the tree rooted at the
    # base point, as the -D0^2 plan is: no projection onto the locus, with
    # the base point at a vertex, inside a finite edge and on a ray.
    from treeot import metric_tree

    def banned(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(metric_tree, "project_to_geodesic", banned)
    rng = np.random.default_rng({"vertex": 431, "finite": 433, "ray": 439}[kind])
    for _ in range(10):
        base = helpers.random_tree(rng, int(rng.integers(2, 12)), int(rng.integers(4, 10)))
        tree = _rebuilt(rng, base, helpers.random_basepoint(rng, base, kind))
        minus, plus = _split_ends(rng, tree)
        assert T.construct_geodesic(tree, minus, plus).atoms
        for xi, zeta in itertools.permutations(tree.ends(), 2):
            tree.geodesic_between_ends(xi, zeta)


@pytest.mark.parametrize("depth", [8, 32, 128, 512, 2048])
def test_comb_d0_value_is_minus_the_realizability_sum(depth):
    # Exact masses times D0^2, added by math.fsum: within a few ulps of -R
    # at every depth, in well under a second.  (The simplex on the Gromov
    # matrix was off by 9.8e-15 at depth 8 and about 1.8e-9 at depth 1024,
    # and cubic in the depth.)
    inst = T.comb_generator(depth, 3.0)
    table = T.flow_table(inst.tree, inst.nu_minus, inst.nu_plus)
    rsum = T.realizability_sum(inst.tree, table).value
    start = time.perf_counter()
    d0 = T.d0_transport(inst.tree, inst.nu_minus, inst.nu_plus)
    assert time.perf_counter() - start < 1.0
    assert abs(d0.value + rsum) <= 2e-15 * abs(rsum)


def _barbell_cells(barbell, pairs):
    """A stand-in for the greedy that returns `pairs` (row, column, node
    name or None for the base point) with the full integer masses."""

    def greedy(tree, anchors, amt, m):
        o = len(tree._order)
        return [(i, j, amt[i], o if v is None else barbell._pre[v]) for i, j, v in pairs]

    return greedy


@pytest.mark.parametrize("pairs, message", [
    # r1 -> r4 and r3 -> r2 both meet at u: both ends beyond euv carry 0, not 0.5
    ([(0, 1, "u"), (1, 0, "u")], "D0 plan fails the edge certificate above 'v'"),
    # the optimal pairs, one said to meet at u though its LCA is v
    ([(0, 0, "u"), (1, 1, "u")], "D0 plan has a cell without mass or off its LCA"),
    # r1 -> r2 twice: r3 and r4 keep their mass
    ([(0, 0, "u"), (0, 0, "u")], "D0 plan's marginals are not the boundary measures"),
])
def test_corrupted_d0_plans_fail_the_certificate(monkeypatch, barbell, pairs, message):
    from treeot import ends

    minus = _bm(barbell, ("r1", 0.5), ("r3", 0.5))
    plus = _bm(barbell, ("r2", 0.5), ("r4", 0.5))
    monkeypatch.setattr(ends, "_d0_greedy", _barbell_cells(barbell, [(0, 0, "u"), (1, 1, "v")]))
    assert T.d0_transport(barbell, minus, plus).value == -0.5
    monkeypatch.setattr(ends, "_d0_greedy", _barbell_cells(barbell, pairs))
    with pytest.raises(SolverFailure, match=f"^{re.escape(message)}$"):
        T.d0_transport(barbell, minus, plus)


def test_d0_plan_lifts_without_antagonism():
    rng = np.random.default_rng(137)
    tree = helpers.random_tree(rng, 6, 6)
    ends = list(tree.ends())
    minus = T.BoundaryMeasure.from_atoms(tree, [(e, 1.0 / 3) for e in ends[:3]])
    plus = T.BoundaryMeasure.from_atoms(tree, [(e, 1.0 / 3) for e in ends[3:6]])
    res = T.d0_transport(tree, minus, plus)
    plan = T.DynamicalPlan.from_atoms(
        tree,
        [(tree.geodesic_between_ends(a, b), m) for a, b, m in res.entries],
    )
    assert T.antagonist_pairs(plan) == []


# -- construction ----------------------------------------------------------------------------


def test_star4_constructed_geodesic(star4):
    minus = _bm(star4, ("r1", 0.5), ("r2", 0.5))
    plus = _bm(star4, ("r3", 0.5), ("r4", 0.5))
    plan = T.construct_geodesic(star4, minus, plus)
    assert T.pushforward_at(plan, 0.0).atoms == ((star4.vertex_point("o"), 1.0),)
    neg = {g.neg_end.edge for g, _ in plan.atoms}
    pos = {g.pos_end.edge for g, _ in plan.atoms}
    assert neg == {"r1", "r2"} and pos == {"r3", "r4"}
    assert T.validate_complete_plan(plan).passed


def test_constructed_ends_match(star4):
    minus = _bm(star4, ("r1", 0.25), ("r2", 0.75))
    plus = _bm(star4, ("r3", 0.5), ("r4", 0.5))
    plan = T.construct_geodesic(star4, minus, plus)
    back_plus = T.asymptotic_measure(plan, +1)
    back_minus = T.asymptotic_measure(plan, -1)
    assert dict(((e, s), m) for e, s, m in back_plus.atoms) == pytest.approx(
        {(star4.end("r3"), 1.0): 0.5, (star4.end("r4"), 1.0): 0.5}
    )
    assert dict(((e, s), m) for e, s, m in back_minus.atoms) == pytest.approx(
        {(star4.end("r1"), 1.0): 0.25, (star4.end("r2"), 1.0): 0.75}
    )


def _complete_plan(tree, *atoms, speed=1.0):
    return T.DynamicalPlan.from_atoms(
        tree, [(tree.geodesic_between_ends(tree.end(xi), tree.end(zeta), speed=speed), m) for xi, zeta, m in atoms]
    )


@pytest.mark.parametrize("wrong, message", [
    ("speed", "constructed plan has a non-unit speed"),
    ("antagonists", "constructed plan contains antagonist geodesics"),
    ("swapped ends", "constructed plan's ends do not match the inputs"),
    ("D0", "second moment does not match the -D0^2 optimum"),
])
def test_construction_certificate_rejects_each_wrong_plan(star4, wrong, message):
    minus = _bm(star4, ("r1", 0.5), ("r2", 0.5))
    plus = _bm(star4, ("r3", 0.5), ("r4", 0.5))
    value = T.d0_transport(star4, minus, plus).value
    plan = _complete_plan(star4, ("r1", "r3", 0.5), ("r2", "r4", 0.5))
    _certify_constructed(star4, plan, minus, plus, value)  # the true plan passes
    args = {
        "speed": (_complete_plan(star4, ("r1", "r3", 0.5), ("r2", "r4", 0.5), speed=2.0), minus, plus, value),
        "antagonists": (_complete_plan(star4, ("r1", "r3", 0.5), ("r3", "r1", 0.5)), minus, plus, value),
        "swapped ends": (plan, plus, minus, value),
        "D0": (plan, minus, plus, value + 1.0),
    }[wrong]
    with pytest.raises(SolverFailure, match=f"^{re.escape(message)}$"):
        _certify_constructed(star4, *args)


def test_constructed_requires_antipodal(star4):
    with pytest.raises(NotAntipodal):
        T.construct_geodesic(star4, _bm(star4, ("r1", 1.0)), _bm(star4, ("r1", 1.0)))


def test_flow_equalities_on_constructed_plans():
    rng = np.random.default_rng(139)
    done = 0
    while done < 8:
        tree = helpers.random_tree(rng, 6, 6)
        ends = list(tree.ends())
        if len(ends) < 4:
            continue
        done += 1
        half = len(ends) // 2
        mm = rng.uniform(0.2, 1.0, size=half)
        pm = rng.uniform(0.2, 1.0, size=len(ends) - half)
        minus = T.BoundaryMeasure.from_atoms(
            tree, [(e, m / mm.sum()) for e, m in zip(ends[:half], mm)]
        )
        plus = T.BoundaryMeasure.from_atoms(
            tree, [(e, m / pm.sum()) for e, m in zip(ends[half:], pm)]
        )
        plan = T.construct_geodesic(tree, minus, plus)
        table = T.flow_table(tree, minus, plus)
        masses = plan_traversal_masses(tree, plan)
        for eid in tree.edges:
            phi = table.flow(eid)
            assert masses.edge.get((eid, +1), 0.0) == pytest.approx(
                max(phi, 0.0), abs=1e-9
            )
            assert masses.edge.get((eid, -1), 0.0) == pytest.approx(
                max(-phi, 0.0), abs=1e-9
            )
        for v in tree.vertices:
            assert masses.vertex.get(v, 0.0) == pytest.approx(
                table.vertex_flow[v], abs=1e-9
            )
            assert masses.anchored.get(v, 0.0) == pytest.approx(
                table.specific_flow[v], abs=1e-9
            )


def test_constructed_ends_antipodality_winf():
    rng = np.random.default_rng(149)
    tree = helpers.random_tree(rng, 4, 4)
    ends = list(tree.ends())
    minus = T.BoundaryMeasure.from_atoms(tree, [(e, 0.5) for e in ends[:2]])
    plus = T.BoundaryMeasure.from_atoms(tree, [(e, 0.5) for e in ends[2:4]])
    plan = T.construct_geodesic(tree, minus, plus)
    w = T.w_infinity(
        tree, T.asymptotic_measure(plan, -1), T.asymptotic_measure(plan, +1)
    ).distance
    assert w == pytest.approx(2.0, abs=1e-12)
