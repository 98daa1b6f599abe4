"""Dynamical plan tests: pushforwards, interpolation geodesy, lifting,
antagonism certificates, Dirac extension and the midpoint characterization."""

import math

import numpy as np
import pytest

import treeot as T
from treeot.dynamics import projection_monotone
from treeot.errors import LeafyTree, NotDiracBased, OutOfInterval, PlanNotOptimal

import helpers

TIME_PAIRS = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.25, 0.75), (0.1, 0.9)]


def _two_ray_plan(star3):
    o = star3.vertex_point("o")
    return T.DynamicalPlan.from_atoms(
        star3,
        [
            (star3.ray_to_end(o, star3.end("r1"), 1.0), 0.5),
            (star3.ray_to_end(o, star3.end("r2"), 1.0), 0.5),
        ],
    )


# -- pushforwards -----------------------------------------------------------------


def test_pushforward_at_zero_is_dirac(star3):
    plan = _two_ray_plan(star3)
    assert T.pushforward_at(plan, 0.0).atoms == ((star3.vertex_point("o"), 1.0),)


def test_pushforward_at_three(star3):
    plan = _two_ray_plan(star3)
    atoms = dict(T.pushforward_at(plan, 3.0).atoms)
    assert atoms == {
        star3.edge_point("r1", 3.0): 0.5,
        star3.edge_point("r2", 3.0): 0.5,
    }


def test_pushforward_mass_one_random():
    rng = np.random.default_rng(59)
    for _ in range(10):
        tree = helpers.random_tree(rng, 8, 1)
        mu0 = helpers.random_measure(rng, tree, 3)
        mu1 = helpers.random_measure(rng, tree, 3)
        dyn = T.interpolate(tree, mu0, mu1)
        t = float(rng.uniform(0, 1))
        assert sum(m for _, m in T.pushforward_at(dyn, t).atoms) == pytest.approx(1.0)


def test_pushforward_out_of_interval(star3):
    with pytest.raises(OutOfInterval):
        T.pushforward_at(_two_ray_plan(star3), -1.0)


# -- interpolation ------------------------------------------------------------------


def test_dirac_to_dirac_single_atom(tripod):
    mu0 = T.DiscreteMeasure.dirac(tripod, tripod.vertex_point("a"))
    mu1 = T.DiscreteMeasure.dirac(tripod, tripod.vertex_point("c"))
    dyn = T.interpolate(tripod, mu0, mu1)
    assert len(dyn.atoms) == 1
    assert dyn.atoms[0][0].speed == pytest.approx(2.0)


def test_tripod_two_interpolations(tripod):
    x = tripod.edge_point("ea", 0.6)
    xp = tripod.vertex_point("a")
    y, z = tripod.vertex_point("b"), tripod.vertex_point("c")
    mu = T.DiscreteMeasure.from_atoms(tripod, [(x, 0.5), (xp, 0.5)])
    nu = T.DiscreteMeasure.from_atoms(tripod, [(y, 0.5), (z, 0.5)])
    p1 = T.TransportPlan(((x, y, 0.5), (xp, z, 0.5)))
    p2 = T.TransportPlan(((x, z, 0.5), (xp, y, 0.5)))
    d1 = T.interpolate(tripod, mu, nu, p1)
    d2 = T.interpolate(tripod, mu, nu, p2)
    assert d1.atoms != d2.atoms
    assert d1.speed == pytest.approx(d2.speed)
    w = T.wasserstein2(tripod, mu, nu).distance
    for dyn in (d1, d2):
        for s, t in TIME_PAIRS:
            ws = T.wasserstein2(
                tripod, T.pushforward_at(dyn, s), T.pushforward_at(dyn, t)
            ).distance
            assert ws == pytest.approx(abs(t - s) * w, abs=1e-7)


def test_interpolation_geodesy_random():
    rng = np.random.default_rng(61)
    for _ in range(10):
        tree = helpers.random_tree(rng, 9, 1)
        mu0 = helpers.random_measure(rng, tree, 3)
        mu1 = helpers.random_measure(rng, tree, 4)
        dyn = T.interpolate(tree, mu0, mu1)
        w = T.wasserstein2(tree, mu0, mu1).distance
        for s, t in [(0.0, 1.0), (0.0, 0.25), (0.25, 0.75), (0.5, 1.0)]:
            ws = T.wasserstein2(
                tree, T.pushforward_at(dyn, s), T.pushforward_at(dyn, t)
            ).distance
            assert ws == pytest.approx(abs(t - s) * w, abs=1e-7)


def test_interpolate_rejects_suboptimal_plan():
    rng = np.random.default_rng(67)
    while True:
        tree = helpers.random_tree(rng, 9, 1)
        mu0 = helpers.uniform_measure(rng, tree, 4)
        mu1 = helpers.uniform_measure(rng, tree, 4)
        plan = T.wasserstein2(tree, mu0, mu1).plan
        bad = helpers.corrupt_transport_plan(rng, tree, plan)
        if bad is not None:
            break
    with pytest.raises(PlanNotOptimal):
        T.interpolate(tree, mu0, mu1, bad)


def test_restriction_stays_optimal():
    rng = np.random.default_rng(71)
    for _ in range(5):
        tree = helpers.random_tree(rng, 8, 1)
        dyn = T.interpolate(
            tree, helpers.random_measure(rng, tree, 3), helpers.random_measure(rng, tree, 3)
        )
        sub = dyn.restrict(0.2, 0.7)
        assert T.is_optimal_dynamical(tree, sub).passed
        assert projection_monotone(tree, sub, [(0.2, 0.7), (0.3, 0.6)])


# -- lifting -----------------------------------------------------------------------


def test_lift_single_atoms(tripod):
    a, b = tripod.vertex_point("a"), tripod.vertex_point("b")
    mu = T.DynamicalPlan.from_atoms(tripod, [(tripod.geodesic_segment(a, b, 0, 1), 1.0)])
    sigma = T.DynamicalPlan.from_atoms(
        tripod, [(tripod.geodesic_segment(b, a, 0, 1), 1.0)]
    )
    plan_t = T.TransportPlan(((mu.atoms[0][0].evaluate(0.5), sigma.atoms[0][0].evaluate(0.5), 1.0),))
    lifted = T.lift(tripod, mu, sigma, plan_t, 0.5)
    assert lifted.pairs == ((0, 0, 1.0),)


def test_lift_identity_couples_same_point(star3):
    plan = _two_ray_plan(star3)
    pf = T.pushforward_at(plan, 2.0)
    ident = T.TransportPlan(tuple((p, p, m) for p, m in pf.atoms))
    lifted = T.lift(star3, plan, plan, ident, 2.0)
    for i, j, _ in lifted.pairs:
        assert plan.atoms[i][0].evaluate(2.0) == plan.atoms[j][0].evaluate(2.0)


def test_lift_projection_recovers_plan():
    rng = np.random.default_rng(73)
    for _ in range(5):
        tree = helpers.random_tree(rng, 8, 1)
        mu = T.interpolate(
            tree, helpers.random_measure(rng, tree, 3), helpers.random_measure(rng, tree, 3)
        )
        sigma = T.interpolate(
            tree, helpers.random_measure(rng, tree, 2), helpers.random_measure(rng, tree, 3)
        )
        t = 0.5
        plan_t = T.wasserstein2(
            tree, T.pushforward_at(mu, t), T.pushforward_at(sigma, t)
        ).plan
        lifted = T.lift(tree, mu, sigma, plan_t, t)
        back = lifted.project(t)
        want = {(x, y): m for x, y, m in plan_t.entries}
        got = {(x, y): m for x, y, m in back.entries}
        assert set(want) == set(got)
        for key in want:
            assert got[key] == pytest.approx(want[key], abs=1e-12)


# -- antagonism ----------------------------------------------------------------------


def test_antagonists_same_direction_empty(star3):
    g1 = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"))
    g2 = star3.geodesic_between_ends(star3.end("r1"), star3.end("r3"))
    plan = T.DynamicalPlan.from_atoms(star3, [(g1, 0.5), (g2, 0.5)])
    assert T.antagonist_pairs(plan) == []


def test_antagonists_opposite_traversal(star3):
    g1 = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"))
    g2 = star3.geodesic_between_ends(star3.end("r2"), star3.end("r3"))
    plan = T.DynamicalPlan.from_atoms(star3, [(g1, 0.5), (g2, 0.5)])
    assert T.antagonist_pairs(plan) == [(0, 1, "r2")]


def test_single_atom_no_antagonists(star3):
    g = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"))
    plan = T.DynamicalPlan.from_atoms(star3, [(g, 1.0)])
    assert T.antagonist_pairs(plan) == []
    assert T.is_optimal_dynamical(star3, plan).passed


def test_interpolation_passes_certificate():
    rng = np.random.default_rng(79)
    tree = helpers.random_tree(rng, 8, 1)
    dyn = T.interpolate(
        tree, helpers.random_measure(rng, tree, 3), helpers.random_measure(rng, tree, 4)
    )
    assert T.is_optimal_dynamical(tree, dyn).passed


def test_swap_configuration_fails_both_certificates(tripod):
    # two antagonist geodesics: a -> b against b -> a
    a, b = tripod.vertex_point("a"), tripod.vertex_point("b")
    plan = T.DynamicalPlan.from_atoms(
        tripod,
        [
            (tripod.geodesic_segment(a, b, 0, 1), 0.5),
            (tripod.geodesic_segment(b, a, 0, 1), 0.5),
        ],
    )
    cert = T.is_optimal_dynamical(tripod, plan)
    assert not cert.passed
    assert cert.witnesses
    assert not projection_monotone(tripod, plan, [(0.0, 1.0)])


def test_segment_plan_optimal_despite_antagonism():
    # a -> q and q -> b cross p-q in opposite directions, yet the plan is the
    # unique optimum (cost 121 against 200 for a -> b, q -> q): a segment
    # plan is decided by its endpoint coupling, its antagonists are witnesses
    tree = T.MetricTree(
        ["p", "a", "b", "q"],
        [("pa", ("p", "a"), 10.0), ("pb", ("p", "b"), 10.0), ("pq", ("p", "q"), 1.0)],
        "p",
    )
    a, b, q = (tree.vertex_point(v) for v in "abq")
    mu = T.DiscreteMeasure.from_atoms(tree, [(a, 0.5), (q, 0.5)])
    nu = T.DiscreteMeasure.from_atoms(tree, [(q, 0.5), (b, 0.5)])
    cert = T.is_optimal_dynamical(tree, T.interpolate(tree, mu, nu))
    assert cert.passed
    assert cert.witnesses == ((0, 1, "pq"),)


def test_constant_plan_passes(tripod):
    plan = T.DynamicalPlan.from_atoms(
        tripod, [(tripod.constant_geodesic(tripod.vertex_point("o"), 0, 1), 1.0)]
    )
    assert T.is_optimal_dynamical(tripod, plan).passed


def test_certificates_agree_on_random_segment_plans():
    rng = np.random.default_rng(83)
    checked = 0
    while checked < 30:
        tree = helpers.random_tree(rng, 9, 1)
        mu0 = helpers.uniform_measure(rng, tree, 4)
        mu1 = helpers.uniform_measure(rng, tree, 4)
        if checked % 2 == 0:
            dyn = T.interpolate(tree, mu0, mu1)
        else:
            dyn = helpers.corrupt_dynamical_plan(rng, tree, mu0, mu1)
            if dyn is None:
                continue
        checked += 1
        assert T.is_optimal_dynamical(tree, dyn).passed == projection_monotone(
            tree, dyn, TIME_PAIRS
        )


# -- extension from a Dirac mass --------------------------------------------------------


def test_extend_single_geodesic(star3):
    o = star3.vertex_point("o")
    seg = T.DynamicalPlan.from_atoms(
        star3, [(star3.geodesic_segment(o, star3.edge_point("r1", 2.0), 0, 1), 1.0)]
    )
    ray = T.extend_from_dirac(star3, seg)
    assert ray.kind == "ray"
    g = ray.atoms[0][0]
    assert g.pos_end == star3.end("r1")
    assert g.evaluate(5.0) == star3.edge_point("r1", 10.0)


def test_extend_two_atoms_past_branch(tripod_completed):
    tc = tripod_completed
    o = tc.vertex_point("o")
    seg = T.DynamicalPlan.from_atoms(
        tc,
        [
            (tc.geodesic_segment(o, tc.vertex_point("a"), 0, 1), 0.5),
            (tc.geodesic_segment(o, tc.vertex_point("b"), 0, 1), 0.5),
        ],
    )
    ray = T.extend_from_dirac(tc, seg)
    ends = sorted(g.pos_end.edge for g, _ in ray.atoms)
    assert ends == ["ra", "rb"]
    # W2 ray property: W(mu_0, mu_t) = speed * t
    s = ray.speed
    for t in (0.5, 1.0, 4.0):
        w = T.wasserstein2(
            tc, T.pushforward_at(ray, 0.0), T.pushforward_at(ray, t)
        ).distance
        assert w == pytest.approx(s * t, abs=1e-9)
    # restriction to [0, 1] recovers the segment pushforwards
    assert helpers.measures_close(
        T.pushforward_at(ray, 1.0), T.pushforward_at(seg, 1.0)
    )


def test_extend_constant_plan(star3):
    o = star3.vertex_point("o")
    seg = T.DynamicalPlan.from_atoms(star3, [(star3.constant_geodesic(o, 0, 1), 1.0)])
    ray = T.extend_from_dirac(star3, seg)
    assert ray.atoms[0][0].is_constant
    assert T.pushforward_at(ray, 7.0).atoms == ((o, 1.0),)


def test_extend_requires_leaf_free(tripod):
    a = tripod.vertex_point("a")
    seg = T.DynamicalPlan.from_atoms(
        tripod, [(tripod.geodesic_segment(tripod.vertex_point("o"), a, 0, 1), 1.0)]
    )
    with pytest.raises(LeafyTree):
        T.extend_from_dirac(tripod, seg)


def test_extend_requires_dirac_base(tripod_completed):
    tc = tripod_completed
    seg = T.DynamicalPlan.from_atoms(
        tc,
        [
            (tc.geodesic_segment(tc.vertex_point("a"), tc.vertex_point("o"), 0, 1), 0.5),
            (tc.geodesic_segment(tc.vertex_point("b"), tc.vertex_point("o"), 0, 1), 0.5),
        ],
    )
    with pytest.raises(NotDiracBased):
        T.extend_from_dirac(tc, seg)


# -- Dirac interpolation and the midpoint characterization -----------------------------


def test_dirac_interpolation_endpoints(tripod):
    a = tripod.vertex_point("a")
    mu = T.DiscreteMeasure.from_atoms(
        tripod, [(tripod.vertex_point("b"), 0.5), (tripod.vertex_point("c"), 0.5)]
    )
    assert T.dirac_interpolation(tripod, a, mu, 0.0).atoms == ((a, 1.0),)
    assert helpers.measures_close(T.dirac_interpolation(tripod, a, mu, 1.0), mu)


def test_dirac_interpolation_midpoint(tripod):
    a = tripod.vertex_point("a")
    mu = T.DiscreteMeasure.dirac(tripod, tripod.vertex_point("b"))
    assert T.dirac_interpolation(tripod, a, mu, 0.5).atoms == (
        (tripod.vertex_point("o"), 1.0),
    )


def test_thales_inequality_random():
    rng = np.random.default_rng(89)
    for _ in range(30):
        tree = helpers.random_tree(rng, 9, 1)
        x, g = helpers.distinct_points(rng, tree, 2)
        mu = helpers.random_measure(rng, tree, 3)
        mid = tree.geodesic_segment(x, g, 0.0, 1.0).evaluate(0.5)
        lhs = T.wasserstein2(
            tree,
            T.dirac_interpolation(tree, x, mu, 0.5),
            T.DiscreteMeasure.dirac(tree, mid),
        ).distance
        rhs = 0.5 * T.wasserstein2(
            tree, mu, T.DiscreteMeasure.dirac(tree, g)
        ).distance
        assert lhs <= rhs + 1e-9


def test_supported_on_geodesic_true_with_equality(tripod_completed):
    tc = tripod_completed
    gamma = tc.geodesic_between_ends(tc.end("ra"), tc.end("rb"))
    mu = T.DiscreteMeasure.from_atoms(
        tc, [(tc.vertex_point("a"), 0.4), (tc.edge_point("eb", 0.5), 0.6)]
    )
    res = T.supported_on_geodesic_test(tc, mu, gamma)
    assert res.supported
    # sampled equality of the midpoint identity on the locus
    for sx, sg in [(-2.0, 1.0), (0.0, 3.0)]:
        x, g = gamma.point_at_arc(sx), gamma.point_at_arc(sg)
        mid = tc.geodesic_segment(x, g, 0.0, 1.0).evaluate(0.5)
        lhs = T.wasserstein2(
            tc, T.dirac_interpolation(tc, x, mu, 0.5), T.DiscreteMeasure.dirac(tc, mid)
        ).distance
        rhs = 0.5 * T.wasserstein2(tc, mu, T.DiscreteMeasure.dirac(tc, g)).distance
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_supported_on_geodesic_false_with_strict_witness(tripod_completed):
    tc = tripod_completed
    gamma = tc.geodesic_between_ends(tc.end("ra"), tc.end("rb"))
    mu = T.DiscreteMeasure.dirac(tc, tc.vertex_point("c"))
    res = T.supported_on_geodesic_test(tc, mu, gamma)
    assert not res.supported
    assert res.lhs < res.rhs - 1e-9


def test_supported_on_leaf_to_leaf_geodesic(tripod):
    # a segment between two leaves is maximal even without infinite edges
    gamma = tripod.geodesic_segment(
        tripod.vertex_point("a"), tripod.vertex_point("b"), 0.0, 1.0
    )
    mu = T.DiscreteMeasure.dirac(tripod, tripod.vertex_point("c"))
    res = T.supported_on_geodesic_test(tripod, mu, gamma)
    assert not res.supported
    assert res.lhs < res.rhs - 1e-9


def test_supported_rejects_non_maximal(tripod_completed):
    tc = tripod_completed
    gamma = tc.geodesic_segment(tc.vertex_point("a"), tc.vertex_point("b"), 0.0, 1.0)
    with pytest.raises(ValueError):
        T.supported_on_geodesic_test(
            tc, T.DiscreteMeasure.dirac(tc, tc.vertex_point("c")), gamma
        )


def test_supported_dirac_on_locus(tripod_completed):
    tc = tripod_completed
    gamma = tc.geodesic_between_ends(tc.end("ra"), tc.end("rb"))
    mu = T.DiscreteMeasure.dirac(tc, tc.edge_point("ea", 0.25))
    assert T.supported_on_geodesic_test(tc, mu, gamma).supported


# -- complete plan speed rigidity -----------------------------------------------------


def test_unit_complete_plan_passes(star3):
    g1 = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"))
    g2 = star3.geodesic_between_ends(star3.end("r1"), star3.end("r3"))
    plan = T.DynamicalPlan.from_atoms(star3, [(g1, 0.5), (g2, 0.5)])
    assert T.validate_complete_plan(plan).passed


def test_mixed_speed_plan_fails(star3):
    # unit total speed: half at sqrt(2), half constant
    g = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"), speed=math.sqrt(2))
    c = star3.constant_geodesic(star3.vertex_point("o"), -math.inf, math.inf)
    plan = T.DynamicalPlan.from_atoms(star3, [(g, 0.5), (c, 0.5)])
    assert plan.speed == pytest.approx(1.0)
    cert = T.validate_complete_plan(plan)
    assert not cert.passed
    assert cert.witness is not None


def test_mixed_speed_witness_violates_projection_at_large_t(star3):
    g = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"), speed=math.sqrt(2))
    c = star3.constant_geodesic(star3.vertex_point("o"), -math.inf, math.inf)
    plan = T.DynamicalPlan.from_atoms(star3, [(g, 0.5), (c, 0.5)])
    t = 1e3
    proj = T.TransportPlan(
        tuple((g_.evaluate(t), g_.evaluate(-t), m) for g_, m in plan.atoms)
    )
    assert not T.is_cyclically_monotone(star3, proj, full=True).passed


def test_plan_speed_adds_in_order():
    rng = np.random.default_rng(109)
    tree = helpers.random_tree(rng, 40, 1)
    pts = helpers.distinct_points(rng, tree, 40)
    mu0 = T.DiscreteMeasure.from_atoms(tree, zip(pts[:20], helpers.spread_masses(rng, 20)))
    mu1 = T.DiscreteMeasure.from_atoms(tree, zip(pts[20:], helpers.spread_masses(rng, 20)))
    dyn = T.interpolate(tree, mu0, mu1)
    terms = [m * g.speed**2 for g, m in dyn.atoms]
    assert math.fsum(terms) != helpers.add_in_order(terms)
    assert dyn.speed == math.sqrt(helpers.add_in_order(terms))
