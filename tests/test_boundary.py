"""Boundary cone tests: the degenerate cone metric of a visibility space,
asymptotic measures, and exact certification of the asymptotic formula."""

import math

import numpy as np
import pytest

import treeot as T
from treeot.errors import MarginalMismatch, NonFiniteValue, NonUnitMeasure, OutOfInterval

import helpers


def _unit_pair_plan(star3):
    o = star3.vertex_point("o")
    nu = T.ConeMeasure.from_atoms(
        star3, [(star3.end("r1"), 1.0, 0.5), (star3.end("r2"), 1.0, 0.5)]
    )
    return T.ray_from_asymptotic_measure(star3, o, nu)


# -- cone metric ---------------------------------------------------------------


def test_d_infinity_cases(star3):
    xi1, xi2 = star3.end("r1"), star3.end("r2")
    assert T.d_infinity(star3, (xi1, 1.0), (xi2, 1.0)) == 2.0
    assert T.d_infinity(star3, (xi1, 1.0), (xi1, 1.0)) == 0.0
    assert T.d_infinity(star3, (xi1, 2.0), (None, 0.0)) == 2.0
    assert T.d_infinity(star3, (xi1, 1.5), (xi1, 0.5)) == 1.0


def test_d_infinity_metric_axioms():
    rng = np.random.default_rng(97)
    tree = helpers.random_tree(rng, 4, 5)
    ends = list(tree.ends()) + [None]
    for _ in range(40):
        pts = []
        for _ in range(3):
            e = ends[int(rng.integers(0, len(ends)))]
            s = 0.0 if e is None else float(rng.uniform(0.1, 3.0))
            pts.append((e, s))
        a, b, c = pts
        dab = T.d_infinity(tree, a, b)
        assert dab == T.d_infinity(tree, b, a)
        assert dab <= T.d_infinity(tree, a, c) + T.d_infinity(tree, c, b) + 1e-12
        assert (dab == 0.0) == (
            (a[0] == b[0] and a[1] == b[1]) or (a[1] == 0.0 and b[1] == 0.0)
        )


# -- cone transport ---------------------------------------------------------------


def test_w_infinity_sqrt2(star3):
    nu1 = T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), 1.0, 1.0)])
    nu2 = T.ConeMeasure.from_atoms(
        star3, [(star3.end("r1"), 1.0, 0.5), (star3.end("r2"), 1.0, 0.5)]
    )
    assert T.w_infinity(star3, nu1, nu2).distance == pytest.approx(math.sqrt(2))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_cone_measure_rejects_non_finite_speed(star3, bad):
    with pytest.raises(MarginalMismatch):
        T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), bad, 0.5), (star3.end("r2"), 1.0, 0.5)])


def test_w_infinity_overflowing_square_is_a_domain_error(star3):
    nu1 = T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), 1e308, 1.0)])
    nu2 = T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), 1.0, 1.0)])
    with pytest.raises(NonFiniteValue):
        T.w_infinity(star3, nu1, nu2)


def test_w_infinity_identical_zero(star3):
    nu = T.ConeMeasure.from_atoms(
        star3, [(star3.end("r1"), 1.0, 0.3), (star3.end("r2"), 2.0, 0.7)]
    )
    assert T.w_infinity(star3, nu, nu).distance == pytest.approx(0.0, abs=1e-12)


def test_visibility_identity_random():
    rng = np.random.default_rng(101)
    for _ in range(20):
        tree = helpers.random_tree(rng, 3, int(rng.integers(2, 6)))
        ends = tree.ends()

        def unit_measure():
            k = int(rng.integers(1, len(ends) + 1))
            idx = rng.choice(len(ends), size=k, replace=False)
            masses = rng.uniform(0.2, 1.0, size=k)
            masses /= masses.sum()
            return T.ConeMeasure.from_atoms(
                tree, [(ends[int(i)], 1.0, float(m)) for i, m in zip(idx, masses)]
            )

        nu1, nu2 = unit_measure(), unit_measure()
        w = T.w_infinity(tree, nu1, nu2).distance
        assert w == pytest.approx(
            2.0 * math.sqrt(T.total_variation(nu1, nu2)), abs=1e-9
        )


# -- asymptotic measures --------------------------------------------------------------


def test_asymptotic_measure_two_rays(star3):
    plan = _unit_pair_plan(star3)
    am = T.asymptotic_measure(plan)
    assert dict(((e, s), m) for e, s, m in am.atoms) == {
        (star3.end("r1"), 1.0): 0.5,
        (star3.end("r2"), 1.0): 0.5,
    }
    assert am.is_unit()


def test_asymptotic_measure_constant_ray(star3):
    o = star3.vertex_point("o")
    plan = T.DynamicalPlan.from_atoms(
        star3, [(star3.constant_geodesic(o, 0.0, math.inf), 1.0)]
    )
    am = T.asymptotic_measure(plan)
    assert am.atoms == ((None, 0.0, 1.0),)


def test_asymptotic_measure_unit_slice_random():
    rng = np.random.default_rng(103)
    tree = helpers.random_tree(rng, 4, 4)
    x = tree.vertex_point(tree.vertices[0])
    ends = tree.ends()
    speeds = [0.5, 1.5, 1.0]
    masses = [0.25, 0.25, 0.5]
    nu = T.ConeMeasure.from_atoms(
        tree, [(ends[i % len(ends)], speeds[i], masses[i]) for i in range(3)]
    )
    plan = T.ray_from_asymptotic_measure(tree, x, nu)
    am = T.asymptotic_measure(plan)
    assert am.quadratic_mean() == pytest.approx(plan.speed**2, abs=1e-9)


def test_segment_plan_rejected(tripod):
    a, b = tripod.vertex_point("a"), tripod.vertex_point("b")
    seg = T.DynamicalPlan.from_atoms(tripod, [(tripod.geodesic_segment(a, b, 0, 1), 1.0)])
    with pytest.raises(OutOfInterval):
        T.asymptotic_measure(seg)


# -- rays from asymptotic measures ------------------------------------------------------


def test_ray_from_measure_round_trip(star3):
    nu = T.ConeMeasure.from_atoms(
        star3,
        [(star3.end("r1"), 0.75, 0.25), (star3.end("r3"), 1.25, 0.5), (None, 0.0, 0.25)],
    )
    plan = T.ray_from_asymptotic_measure(star3, star3.edge_point("r2", 0.5), nu)
    back = T.asymptotic_measure(plan)
    assert dict(((e, s), m) for e, s, m in back.atoms) == dict(
        ((e, s), m) for e, s, m in nu.atoms
    )


def test_ray_from_measure_unit_flag(star3):
    nu = T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), 2.0, 1.0)])
    with pytest.raises(NonUnitMeasure):
        T.ray_from_asymptotic_measure(star3, star3.vertex_point("o"), nu, unit=True)
    unit = T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), 1.0, 1.0)])
    plan = T.ray_from_asymptotic_measure(star3, star3.vertex_point("o"), unit, unit=True)
    assert plan.is_unit()


def test_same_measure_from_two_basepoints_is_asymptotic(star3):
    nu = T.ConeMeasure.from_atoms(
        star3, [(star3.end("r1"), 1.0, 0.5), (star3.end("r2"), 1.0, 0.5)]
    )
    mu = T.ray_from_asymptotic_measure(star3, star3.vertex_point("o"), nu)
    sigma = T.ray_from_asymptotic_measure(star3, star3.edge_point("r3", 1.0), nu)
    report = T.asymptotic_formula_check(star3, mu, sigma, t_grid=(1.0, 10.0, 1e3, 1e6))
    assert report.target == pytest.approx(0.0, abs=1e-12)
    assert report.classification == "asymptotic"
    assert report.certified_limit == pytest.approx(0.0, abs=1e-9)
    # bounded distance at every sampled time
    for t, ratio in report.rows:
        assert ratio * t <= 2.0 + 1e-9


# -- the asymptotic formula ----------------------------------------------------------


def test_star3_ratio_exactly_sqrt2(star3):
    mu = _unit_pair_plan(star3)
    nu = T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), 1.0, 1.0)])
    sigma = T.ray_from_asymptotic_measure(star3, star3.vertex_point("o"), nu)
    report = T.asymptotic_formula_check(star3, mu, sigma)
    assert report.target == pytest.approx(math.sqrt(2), abs=1e-12)
    for _, ratio in report.rows:
        assert ratio == pytest.approx(math.sqrt(2), abs=1e-12)
    assert report.certified_limit == pytest.approx(math.sqrt(2), abs=1e-12)
    assert report.classification == "linear"
    assert report.monotone


def test_branch_exit_covers_crossing_on_one_end(star3):
    # both rays run out along r1; their distance |10 - t| kinks at t = 10
    o = star3.vertex_point("o")
    mu = T.DynamicalPlan.from_atoms(star3, [(star3.ray_to_end(o, star3.end("r1"), 2.0), 1.0)])
    far = star3.edge_point("r1", 10.0)
    sigma = T.DynamicalPlan.from_atoms(
        star3, [(star3.ray_to_end(far, star3.end("r1"), 1.0), 1.0)]
    )
    report = T.asymptotic_formula_check(star3, mu, sigma, t_grid=(1.0, 10.0, 100.0))
    assert report.branch_exit >= 10.0
    assert report.certified_limit == 1.0
    assert report.target == 1.0
    # a constant atom sitting on r1 counts as speed 0: |t - 10| again
    mu = T.DynamicalPlan.from_atoms(star3, [(star3.ray_to_end(o, star3.end("r1"), 1.0), 1.0)])
    sigma = T.DynamicalPlan.from_atoms(star3, [(star3.constant_geodesic(far, 0.0, math.inf), 1.0)])
    report = T.asymptotic_formula_check(star3, mu, sigma, t_grid=(1.0, 10.0, 100.0))
    assert report.branch_exit >= 10.0
    assert report.certified_limit == 1.0


def test_identical_plans_ratio_zero(star3):
    mu = _unit_pair_plan(star3)
    report = T.asymptotic_formula_check(star3, mu, mu, t_grid=(1.0, 10.0, 100.0))
    assert report.target == 0.0
    for _, ratio in report.rows:
        assert ratio == pytest.approx(0.0, abs=1e-12)


def test_certified_limit_matches_target_random():
    rng = np.random.default_rng(107)
    speeds = [0.5, 0.75, 1.0, 1.25, 1.5]
    for _ in range(15):
        tree = helpers.random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
        ends = tree.ends()
        x = tree.vertex_point(tree.vertices[int(rng.integers(0, len(tree.vertices)))])

        def cone(k):
            masses = rng.uniform(0.2, 1.0, size=k)
            masses /= masses.sum()
            return T.ConeMeasure.from_atoms(
                tree,
                [
                    (
                        ends[int(rng.integers(0, len(ends)))],
                        speeds[int(rng.integers(0, len(speeds)))],
                        float(m),
                    )
                    for m in masses
                ],
            )

        mu = T.ray_from_asymptotic_measure(tree, x, cone(int(rng.integers(1, 4))))
        sigma = T.ray_from_asymptotic_measure(tree, x, cone(int(rng.integers(1, 4))))
        report = T.asymptotic_formula_check(tree, mu, sigma)
        assert report.certified_limit == pytest.approx(report.target, abs=1e-9)
        assert report.monotone  # both plans issue from a common Dirac mass


def test_sampled_ratio_near_target_small_trees():
    # with tiny finite parts, the sampled ratio at t = 1e6 is inside the
    # 1e-6 * (1 + target) band around the limit
    rng = np.random.default_rng(109)
    for _ in range(10):
        tree = helpers.random_tree(
            rng, int(rng.integers(2, 5)), 3, min_len=0.02, max_len=0.1
        )
        ends = tree.ends()
        x = tree.vertex_point(tree.vertices[0])
        def cone(k):
            masses = rng.uniform(0.2, 1.0, size=k)
            masses /= masses.sum()
            return T.ConeMeasure.from_atoms(
                tree,
                [(ends[int(rng.integers(0, len(ends)))], 1.0, float(m)) for m in masses],
            )
        mu = T.ray_from_asymptotic_measure(tree, x, cone(2))
        sigma = T.ray_from_asymptotic_measure(tree, x, cone(2))
        report = T.asymptotic_formula_check(tree, mu, sigma)
        assert report.max_error_at_largest_t <= 1e-6 * (1.0 + report.target)


def test_csv_shape(star3):
    mu = _unit_pair_plan(star3)
    report = T.asymptotic_formula_check(star3, mu, mu, t_grid=(1.0, 10.0))
    lines = report.csv().strip().splitlines()
    assert lines[0] == "t,ratio,target,abs_error"
    assert len(lines) == 4  # header + 2 grid rows + certified limit row
    assert lines[-1].startswith("inf,")


def test_cone_sums_add_in_order(star3):
    rng = np.random.default_rng(107)
    ends = star3.ends()
    speeds = [float(s) for s in rng.uniform(0.5, 2.0, size=40)]
    masses = helpers.spread_masses(rng, 40)
    nu1 = T.ConeMeasure.from_atoms(star3, [(ends[i % 3], s, m) for i, (s, m) in enumerate(zip(speeds, masses))])
    terms = [m * s * s for _, s, m in nu1.atoms]
    assert math.fsum(terms) != helpers.add_in_order(terms)
    assert nu1.quadratic_mean() == helpers.add_in_order(terms)
    # no atom in common: the variation is half of all the masses
    nu2 = T.ConeMeasure.from_atoms(star3, [(ends[0], 3.0 + s, m) for s, m in zip(speeds, masses)])
    both = [*nu1.masses(), *nu2.masses()]
    assert T.total_variation(nu1, nu2) == 0.5 * helpers.add_in_order(both)
