"""Dynamical plan tests: pushforwards, interpolation geodesy, lifting,
antagonism certificates, Dirac extension and the midpoint characterization."""

import math
import re

import numpy as np
import pytest

import treeot as T
from treeot.dynamics import OptimalityCertificate, beyond_exit, projection_monotone
from treeot.errors import LeafyTree, MarginalMismatch, NotDiracBased, OutOfInterval, PlanNotOptimal

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
    with pytest.raises(OutOfInterval):
        T.pushforward_at(_two_ray_plan(star3), math.nan)


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
    for t in (-0.5, 1.5, math.nan):
        with pytest.raises(OutOfInterval):
            T.dirac_interpolation(tripod, a, mu, t)


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
    with pytest.raises(T.OutOfInterval, match="not maximal"):
        T.supported_on_geodesic_test(
            tc, T.DiscreteMeasure.dirac(tc, tc.vertex_point("c")), gamma
        )


@pytest.mark.parametrize("where, error", [
    ("a", T.ConstantGeodesic),  # a leaf: no side extends, the projection refuses
    ("o", T.OutOfInterval),  # the centre: both sides extend
])
def test_supported_rejects_constant_geodesic(tripod, where, error):
    gamma = tripod.constant_geodesic(tripod.vertex_point(where))
    mu = T.DiscreteMeasure.dirac(tripod, tripod.vertex_point("c"))
    with pytest.raises(error):
        T.supported_on_geodesic_test(tripod, mu, gamma)


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


def test_mixed_speed_complete_plan_is_not_optimal(star3):
    # no antagonist pair, yet the (-1, 1) coupling is not cyclically monotone
    g1 = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"))
    g2 = star3.geodesic_between_ends(star3.end("r1"), star3.end("r3"), speed=2.0)
    plan = T.DynamicalPlan.from_atoms(star3, [(g1, 0.5), (g2, 0.5)])
    assert not projection_monotone(star3, plan, [(-1.0, 1.0)])
    cert = T.is_optimal_dynamical(star3, plan)
    assert not cert.passed
    assert cert.witnesses == ()


SWEEP_TIMES = [0.0] + [s * t for t in (0.3, 1.0, 3.0, 10.0, 100.0, 1e3, 1e5) for s in (1, -1)]


def test_complete_plan_verdict_matches_a_time_sweep():
    # Complete plans of 2-4 geodesics between ends at speeds 0.5, 1 and 2:
    # the verdict is cyclical monotonicity of every two-time projection
    # over 15 times from -1e5 to 1e5.  Both verdicts occur, and so do
    # mixed-speed plans without an antagonist pair, which antagonism alone
    # would pass.
    rng = np.random.default_rng(7)
    pairs = [(s, t) for k, s in enumerate(SWEEP_TIMES) for t in SWEEP_TIMES[k + 1:]]
    passing = mixed_unopposed = 0
    for _ in range(300):
        tree = helpers.random_tree(rng, 6, int(rng.integers(3, 5)))
        ends = [tree.end(e) for e in sorted(tree.edges) if tree.edges[e].infinite]
        k = int(rng.integers(2, 5))
        atoms = []
        for _ in range(k):
            a, b = rng.choice(len(ends), 2, replace=False)
            speed = float(rng.choice([0.5, 1.0, 2.0]))
            atoms.append((tree.geodesic_between_ends(ends[a], ends[b], speed=speed), 1.0 / k))
        plan = T.DynamicalPlan.from_atoms(tree, atoms)
        monotone = projection_monotone(tree, plan, pairs)
        cert = T.is_optimal_dynamical(tree, plan)
        assert cert.passed == monotone
        passing += monotone
        mixed_unopposed += len({g.speed for g, _ in plan.atoms}) > 1 and not cert.witnesses
    assert passing >= 10 and mixed_unopposed >= 10


# -- ray plans ----------------------------------------------------------------------


def test_overtaking_rays_are_not_optimal(star3):
    # the ray from o at speed 2 overtakes the one from r1@10 at speed 1 at
    # t = 10; no pair is antagonist, but the (0, 20) coupling is not optimal
    r1 = star3.end("r1")
    plan = T.DynamicalPlan.from_atoms(star3, [
        (star3.ray_to_end(star3.edge_point("r1", 10.0), r1, 1.0), 0.5),
        (star3.ray_to_end(star3.vertex_point("o"), r1, 2.0), 0.5),
    ])
    assert projection_monotone(star3, plan, [(0.0, 10.0)])
    assert not projection_monotone(star3, plan, [(0.0, 20.0)])
    assert T.is_optimal_dynamical(star3, plan) == OptimalityCertificate(False, ())


RAY_SWEEP = [(0.0, t) for t in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 1e3, 1e4, 1e5)]


def test_ray_plan_verdict_matches_a_time_sweep():
    # Ray plans of 2-4 atoms at speeds 0, 0.5, 1 and 2, from vertices and
    # from points inside edges, some sharing a start: the verdict is
    # cyclical monotonicity of the (0, t) coupling over 10 times up to 1e5.
    # Both verdicts occur, and so do plans that antagonism alone misjudges.
    rng = np.random.default_rng(31)
    passing = misjudged = 0
    for _ in range(300):
        tree = helpers.random_tree(rng, 6, int(rng.integers(3, 5)))
        ends = [tree.end(e) for e in sorted(tree.edges) if tree.edges[e].infinite]
        k = int(rng.integers(2, 5))
        starts = helpers.distinct_points(rng, tree, int(rng.integers(1, k + 1)))
        atoms = []
        for _ in range(k):
            x = starts[int(rng.integers(0, len(starts)))]
            end = ends[int(rng.integers(0, len(ends)))]
            atoms.append((tree.ray_to_end(x, end, float(rng.choice([0.0, 0.5, 1.0, 2.0]))), 1.0 / k))
        plan = T.DynamicalPlan.from_atoms(tree, atoms)
        monotone = projection_monotone(tree, plan, RAY_SWEEP)
        cert = T.is_optimal_dynamical(tree, plan)
        assert cert.passed == monotone
        passing += monotone
        misjudged += (not cert.witnesses) != monotone
    assert 30 <= passing <= 270 and misjudged >= 40


def test_ray_plan_with_a_late_exit_and_tied_cycles():
    # The rays from a and b run out B at one speed, so their 2-cycle does not
    # grow; the ray from o passes the start A@3e4 of the faster one only at
    # t = 3e4.  Taken as a difference of squared distances near 3e4, the
    # growth of that cycle rounds below the certificate's slack.
    tree = T.MetricTree(
        ["o", "a", "b"],
        [("ea", ("o", "a"), 0.7), ("eb", ("o", "b"), 1.9), ("A", ("o",), math.inf), ("B", ("o",), math.inf)],
        "o",
    )
    A, B = tree.end("A"), tree.end("B")
    plan = T.DynamicalPlan.from_atoms(tree, [
        (tree.ray_to_end(tree.edge_point("A", 3e4), A, 2.0), 0.25),
        (tree.ray_to_end(tree.vertex_point("o"), A, 1.0), 0.25),
        (tree.ray_to_end(tree.vertex_point("a"), B, 1.0), 0.25),
        (tree.ray_to_end(tree.vertex_point("b"), B, 1.0), 0.25),
    ])
    starts = [tree.constant_geodesic(g.evaluate(0.0), 0.0, math.inf) for g, _ in plan.atoms]
    assert beyond_exit(tree, starts, [g for g, _ in plan.atoms]) == 3e4
    assert projection_monotone(tree, plan, [(0.0, t) for t in (1.0, 1e3, 3e4, 1e5, 1e6)])
    assert T.is_optimal_dynamical(tree, plan).passed


def test_constant_ray_plan_after_time_one(star3):
    # no atom moves or crosses another, and the plan starts at 5: the exit
    # time is 5, not 1, where no atom is defined
    plan = T.DynamicalPlan.from_atoms(star3, [
        (star3.constant_geodesic(star3.vertex_point("o"), 5.0, math.inf), 0.5),
        (star3.constant_geodesic(star3.edge_point("r1", 2.0), 5.0, math.inf), 0.5),
    ])
    assert plan.kind == "ray"
    assert T.is_optimal_dynamical(star3, plan).passed


def test_ray_plan_growth_beyond_the_float_range_is_decided(star3):
    # the growth of a ray at speed 1e160 one unit past time 1 is about 2e320,
    # out of the float range; divided by the largest speed it is 3e160, and a
    # swap of the two targets costs about 2e160 more per unit of time
    plan = T.DynamicalPlan.from_atoms(star3, [
        (star3.ray_to_end(star3.vertex_point("o"), star3.end("r1"), 1e160), 0.5),
        (star3.ray_to_end(star3.edge_point("r2", 1.0), star3.end("r2"), 1.0), 0.5),
    ])
    assert T.is_optimal_dynamical(star3, plan).passed


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


# -- rejections ----------------------------------------------------------------------


def _segment(star3, end, t0, t1):
    return star3.geodesic_segment(star3.vertex_point("o"), star3.edge_point(end, 1.0), t0, t1)


@pytest.mark.parametrize("call, error, message", [
    (lambda t: T.DynamicalPlan.from_atoms(t, [(_segment(t, "r1", 0.0, 1.0), 0.5), (_segment(t, "r2", 0.0, 2.0), 0.5)]),
     MarginalMismatch, "atoms do not share a parameter interval"),
    # a NaN time is a bad interval, not a mismatch between atoms
    (lambda t: T.DynamicalPlan.from_atoms(t, [(t.constant_geodesic(t.vertex_point("o"), math.nan, math.nan), 1.0)]),
     OutOfInterval, "geodesic interval [nan, nan] is not a segment, ray or line"),
    # an entry of mass below TOL passes check_marginals, but lies off both supports
    (lambda t: T.lift(t, _two_ray_plan(t), _two_ray_plan(t), T.TransportPlan((
        (t.vertex_point("o"), t.vertex_point("o"), 1.0), (t.edge_point("r3", 1.0), t.edge_point("r3", 1.0), 1e-10),
    )), 0.0), MarginalMismatch, "plan entry outside the pushforward supports"),
    (lambda t: T.extend_from_dirac(t, T.DynamicalPlan.from_atoms(t, [(_segment(t, "r1", 1.0, 2.0), 1.0)])),
     NotDiracBased, "expected a segment plan parametrized from t0 = 0"),
    (lambda t: T.validate_complete_plan(_two_ray_plan(t)), OutOfInterval, "plan is not parametrized on the whole line"),
])
def test_dynamical_plans_reject_what_they_cannot_answer(star3, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(star3)
