"""Boundary cone tests: the degenerate cone metric of a visibility space,
asymptotic measures, and exact certification of the asymptotic formula."""

import math
import re

import numpy as np
import pytest

import treeot as T
from treeot import boundary
from treeot.errors import MarginalMismatch, NonFiniteValue, NonUnitMeasure, OutOfInterval
from treeot.transport import _sums_by_key

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


@pytest.mark.parametrize("bad", [-1.0, -1e-13, -5e-324])
def test_cone_measure_rejects_negative_speed(star3, bad):
    with pytest.raises(OutOfInterval):
        T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), bad, 0.5), (star3.end("r2"), 1.0, 0.5)])


@pytest.mark.parametrize("tiny", [-0.0, 0.0, 1e-13, 1e-12])
def test_cone_measure_tiny_speed_is_the_apex(star3, tiny):
    nu = T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), tiny, 0.5), (star3.end("r2"), 1.0, 0.5)])
    assert nu.keys() == [(None, 0.0), (star3.end("r2"), 1.0)]


def test_cone_measure_moving_atom_needs_an_end(star3):
    with pytest.raises(MarginalMismatch, match="^moving cone atom needs an end$"):
        T.ConeMeasure.from_atoms(star3, [(None, 1.0, 1.0)])


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


def _cone_measure_cases(rng):
    """Random pairs of cone measures over 2-5 ends, with the kind of the
    first: apex atoms, speeds within DUST of 0 (the apex) and just above it,
    all mass on one end, all mass at the apex, and all mass at the apex on
    both sides, where the star has no rays."""
    for k in range(40):
        tree = helpers.random_tree(rng, int(rng.integers(2, 8)), int(rng.integers(2, 6)))
        ends = tree.ends()

        def atoms(n, where):
            speeds = [1e-13, 5e-13, 1e-12, 2e-12, 0.5, 1.0, 1.0, 2.5]
            out = []
            for m in helpers.spread_masses(rng, n):
                s = 0.0 if where == "apex" else speeds[int(rng.integers(0, len(speeds)))]
                e = ends[0] if where == "one end" else ends[int(rng.integers(0, len(ends)))]
                out.append((None if s == 0.0 else e, s, m))
            return T.ConeMeasure.from_atoms(tree, out)

        where = ["mixed", "one end", "apex", "mixed"][k % 4]
        both = "apex" if k % 8 == 2 else "mixed"
        kind = "both at the apex" if both == "apex" else where
        yield kind, tree, atoms(int(rng.integers(1, 9)), where), atoms(int(rng.integers(1, 9)), both)


def test_w_infinity_on_the_star_matches_the_cone_matrix(monkeypatch):
    # w_infinity solves on the star of the ends; the reference solves the
    # d_infinity matrix between the atoms' keys from the northwest corner.
    # The distances agree within a few ulps, the plan carries the measures'
    # masses, and the star's tree start leaves fewer pivots than the corner.
    # A speed of 2e-12, just above DUST, is the exception: its reduced costs
    # fall under the simplex's pricing tolerance DUST * (1 + the largest
    # cost), so the two solves may stop on different bases, each within that
    # tolerance of the optimum; there the squares agree within it.
    from treeot import transport

    real, pivots = transport.transportation_simplex, []

    def spy(cost, *, start):
        sol = real(cost, start=start)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(transport, "transportation_simplex", spy)
    rng = np.random.default_rng(233)
    star = corner = worst = near_apex = 0
    kinds = set()
    for kind, tree, nu1, nu2 in _cone_measure_cases(rng):
        kinds.add(kind)
        keys = nu1.keys() + nu2.keys()
        got = T.w_infinity(tree, nu1, nu2)
        star += pivots[-1]
        want = transport.w2_from_distances(
            [[T.d_infinity(tree, a, b) for b in nu2.keys()] for a in nu1.keys()],
            start=helpers.northwest_corner(nu1.masses(), nu2.masses()),
        )[0]
        corner += pivots[-1]
        if any(e is not None and s < 1e-11 for e, s in keys):
            big = max(s for _, s in keys) ** 2 * 4
            assert abs(got.distance ** 2 - want ** 2) <= 1e-12 * (1.0 + big) + 8 * math.ulp(want ** 2)
            near_apex += 1
        else:
            worst = max(worst, abs(got.distance - want) / math.ulp(want) if want else got.distance)
        rows = _sums_by_key((a, q) for a, _, q in got.entries)
        cols = _sums_by_key((b, q) for _, b, q in got.entries)
        scale = helpers.add_in_order(nu1.masses()) / helpers.add_in_order(nu2.masses())
        assert rows.keys() <= set(nu1.keys()) and cols.keys() <= set(nu2.keys())
        assert all(abs(rows.get(k, 0.0) - m) <= 4 * math.ulp(1.0) for k, m in zip(nu1.keys(), nu1.masses()))
        assert all(abs(cols.get(k, 0.0) - m * scale) <= 4 * math.ulp(1.0) for k, m in zip(nu2.keys(), nu2.masses()))
    assert kinds == {"mixed", "one end", "apex", "both at the apex"} and near_apex > 5
    assert worst <= 4
    # On the star every tree start is already optimal here.
    assert (star, corner) == (0, 67)


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


def test_bounded_distance_is_asymptotic_though_it_grows_past_the_exit(star3):
    # Beyond the exit (t = 1) W(t) = min(t, 100): the coupling of equal
    # speeds keeps distance 100, so the certified limit is 0 and W is
    # bounded, although W still grows between t = 1 and t = 100.
    o, far, r1 = star3.vertex_point("o"), star3.edge_point("r1", 100.0), star3.end("r1")
    ray = lambda p, s: star3.ray_to_end(p, r1, s)
    mu = T.DynamicalPlan.from_atoms(star3, [(ray(o, 1.0), 0.5), (ray(far, 2.0), 0.5)])
    sigma = T.DynamicalPlan.from_atoms(star3, [(ray(far, 1.0), 0.5), (ray(o, 2.0), 0.5)])
    report = T.asymptotic_formula_check(star3, mu, sigma, t_grid=(1.0, 2.0, 3.0, 100.0, 1e3, 1e6))
    assert report.certified_limit == 0.0
    assert report.classification == "asymptotic"
    assert [t * r for t, r in report.rows] == [1.0, 2.0, 3.0, 100.0, 100.0, 100.0]


def test_mass_rounding_dust_on_a_positive_slope_stays_asymptotic(star3):
    # The northwest-corner basis leaves 0.2 - (0.3 - 0.1) = 2.8e-17 on the
    # cell (x->r1, y->r2), whose slope is 2: the certified limit is about
    # 1e-8, far above the rounding of the slopes, yet the optimal coupling
    # moves no real mass along a positive slope and W stays at most 1.
    r1, r2 = star3.end("r1"), star3.end("r2")
    o, x, y = star3.vertex_point("o"), star3.edge_point("r2", 1.0), star3.edge_point("r3", 1.0)
    mu = T.DynamicalPlan.from_atoms(star3, [
        (star3.ray_to_end(o, r1, 1.0), 0.1),
        (star3.ray_to_end(x, r1, 1.0), 0.2),
        (star3.ray_to_end(o, r2, 1.0), 0.7),
    ])
    sigma = T.DynamicalPlan.from_atoms(star3, [
        (star3.ray_to_end(y, r1, 1.0), 0.3),
        (star3.ray_to_end(y, r2, 1.0), 0.7),
    ])
    report = T.asymptotic_formula_check(star3, mu, sigma, t_grid=(1.0, 2.0, 3.0, 1e6))
    assert report.certified_limit > 1e-9 * 4.0
    assert report.classification == "asymptotic"
    assert report.target < 1e-6  # the same dust, on the cone side
    assert all(t * r <= 1.0 + 1e-12 for t, r in report.rows)


@pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
def test_grid_times_must_be_finite_and_positive(star3, bad):
    mu = _unit_pair_plan(star3)
    with pytest.raises(OutOfInterval):
        T.asymptotic_formula_check(star3, mu, mu, t_grid=(1.0, bad))


def test_identical_plans_ratio_zero(star3):
    mu = _unit_pair_plan(star3)
    report = T.asymptotic_formula_check(star3, mu, mu, t_grid=(1.0, 10.0, 100.0))
    assert report.target == 0.0
    for _, ratio in report.rows:
        assert ratio == pytest.approx(0.0, abs=1e-12)


def test_apex_atom_at_a_vertex_has_no_tail():
    # o - a - b with r1 at a and r2 at b: half of mu stays at o (the apex,
    # no infinite edge), half runs out r1; sigma runs out r2 from b.
    tree = T.MetricTree(
        ["o", "a", "b"],
        [("ea", ("o", "a"), 1.0), ("eb", ("o", "b"), 2.0), ("r1", ("a",), math.inf), ("r2", ("b",), math.inf)],
        "o",
    )
    o = tree.vertex_point("o")
    mu = T.DynamicalPlan.from_atoms(tree, [
        (tree.constant_geodesic(o, 0.0, math.inf), 0.5),
        (tree.ray_to_end(o, tree.end("r1"), 1.0), 0.5),
    ])
    sigma = T.DynamicalPlan.from_atoms(tree, [(tree.ray_to_end(tree.vertex_point("b"), tree.end("r2"), 1.0), 1.0)])
    report = T.asymptotic_formula_check(tree, mu, sigma)
    # W_inf^2 = 1/2 * 1^2 (apex to speed 1) + 1/2 * 2^2 (r1 to r2 at speed 1)
    assert report.target == report.certified_limit == 1.5811388300841898
    assert report.target == pytest.approx(math.sqrt(2.5), abs=1e-15)
    assert report.classification == "linear"


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
        helpers.assert_classified_by_target(report)


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
        helpers.assert_classified_by_target(report)


def test_chained_solves_match_cold_solves(monkeypatch):
    # The grid rows, the slope problem and the cone problem of the target
    # share the plans' masses, so the first row starts from the tree start
    # and each later solve from the basis the previous one ended on.  A spy
    # that swaps every start for the northwest corner over the start's
    # marginals gives the cold reference.  The 128 chained solves take
    # about 1.4 pivots each, the cold ones about 11.
    real, pivots = boundary.w2_from_distances, {True: 0, False: 0}
    warm = True

    def spy(distances, what="distance", *, start):
        if not warm:
            rows = _sums_by_key((i, q) for (i, _), q in start.items())
            cols = _sums_by_key((j, q) for (_, j), q in start.items())
            start = helpers.northwest_corner(
                [rows[i] for i in range(len(distances))], [cols[j] for j in range(len(distances[0]))]
            )
        out = real(distances, what, start=start)
        pivots[warm] += out[2].pivots
        return out

    monkeypatch.setattr(boundary, "w2_from_distances", spy)
    rng = np.random.default_rng(227)
    classes = set()
    for k in range(16):
        tree = helpers.random_tree(rng, int(rng.integers(10, 40)), 3)
        ends = tree.ends()

        def cone():
            speeds = rng.uniform(0.5, 1.5, size=6)
            return T.ConeMeasure.from_atoms(tree, [
                (ends[int(rng.integers(0, len(ends)))], float(s), m)
                for s, m in zip(speeds, helpers.spread_masses(rng, 6))
            ])

        x1, x2 = helpers.random_point(rng, tree), helpers.random_point(rng, tree)
        c1 = cone()
        c2 = c1 if k % 4 == 0 else cone()
        mu = T.ray_from_asymptotic_measure(tree, x1, c1)
        sigma = T.ray_from_asymptotic_measure(tree, x1 if k % 2 else x2, c2)
        assert len(mu.atoms) == len(sigma.atoms) == 6
        warm = True
        chained = T.asymptotic_formula_check(tree, mu, sigma)
        warm = False
        cold = T.asymptotic_formula_check(tree, mu, sigma)
        assert (chained.classification, chained.monotone) == (cold.classification, cold.monotone)
        assert chained.csv() == cold.csv()
        assert chained.certified_limit == pytest.approx(cold.certified_limit, rel=1e-12, abs=0.0)
        for (t, r), (s, q) in zip(chained.rows, cold.rows):
            assert t == s and r == pytest.approx(q, rel=1e-12, abs=0.0)
        classes.add(chained.classification)
    assert classes == {"asymptotic", "linear"}
    assert (pivots[True], pivots[False]) == (173, 1404)


def _chain_cases(rng):
    """Ray plans on random trees from few start points, with few speeds and
    constant atoms, so that atoms merge under their cone keys; and on a
    tree whose two ends part 5 away from the start, where one start, two
    ends and one speed give atoms that coincide at the first grid time.
    Grids: the default, one starting at 0.25, and none."""
    grids = [None, (0.25, 3.0, 50.0), ()]
    for k in range(24):
        tree = helpers.random_tree(rng, int(rng.integers(3, 12)), int(rng.integers(2, 5)))
        ends = tree.ends()
        starts = [helpers.random_point(rng, tree) for _ in range(2)]

        def plan():
            atoms = []
            for m in helpers.spread_masses(rng, int(rng.integers(2, 7))):
                x = starts[int(rng.integers(0, 2))]
                s = [0.0, 5e-13, 1.0, 1.0, 2.0][int(rng.integers(0, 5))]
                atoms.append((tree.ray_to_end(x, ends[int(rng.integers(0, len(ends)))], s), m))
            return T.DynamicalPlan.from_atoms(tree, atoms)

        yield tree, plan(), plan(), grids[k % 3]
    fork = T.MetricTree(
        ["o", "a"],
        [("e", ("o", "a"), 5.0), ("r1", ("a",), math.inf), ("r2", ("a",), math.inf), ("r3", ("o",), math.inf)],
        "o",
    )
    o, (r1, r2, r3) = fork.vertex_point("o"), fork.ends()
    mu = T.DynamicalPlan.from_atoms(fork, [(fork.ray_to_end(o, r1, 1.0), 0.3), (fork.ray_to_end(o, r2, 1.0), 0.7)])
    sigma = T.DynamicalPlan.from_atoms(fork, [
        (fork.ray_to_end(o, r2, 1.0), 0.4), (fork.ray_to_end(o, r3, 1.0), 0.2),
        (fork.constant_geodesic(o, 0.0, math.inf), 0.4),
    ])
    for grid in grids:
        yield fork, mu, sigma, grid


def test_chained_target_is_w_infinity_of_the_asymptotic_measures(monkeypatch):
    # The target is the chain's last solve, over the plans' atoms keyed by
    # (end, speed), the apex at speed <= DUST, under d_infinity.  It is the
    # cone distance of the merged asymptotic measures within a few ulps, and
    # the check calls neither w_infinity nor asymptotic_measure.
    w_inf, asymptotic = boundary.w_infinity, boundary.asymptotic_measure

    def banned(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(boundary, "w_infinity", banned)
    monkeypatch.setattr(boundary, "asymptotic_measure", banned)
    rng = np.random.default_rng(239)
    worst, merged, constant, coincide, empty = 0.0, 0, 0, 0, 0
    for tree, mu, sigma, grid in _chain_cases(rng):
        am, asig = asymptotic(mu), asymptotic(sigma)
        want = w_inf(tree, am, asig).distance
        report = T.asymptotic_formula_check(tree, mu, sigma, t_grid=grid)
        worst = max(worst, abs(report.target - want) / math.ulp(want) if want else report.target)
        merged += len(am.atoms) < len(mu.atoms) or len(asig.atoms) < len(sigma.atoms)
        constant += any(g.speed <= 1e-12 for g, _ in mu.atoms + sigma.atoms)
        t0 = sorted(grid if grid is not None else boundary.DEFAULT_T_GRID)[:1] or [report.branch_exit]
        at = [g.evaluate(t0[0]) for g, _ in mu.atoms]
        coincide += len(set(at)) < len(at)
        empty += grid == ()
    assert worst <= 4
    assert merged > 5 and constant > 5 and coincide >= 3 and empty > 5


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


# -- rejections ----------------------------------------------------------------------


def _complete_plan(star3):
    return T.DynamicalPlan.from_atoms(star3, [(star3.geodesic_between_ends(star3.end("r1"), star3.end("r2")), 1.0)])


def _segment_plan(star3):
    seg = star3.geodesic_segment(star3.vertex_point("o"), star3.edge_point("r1", 1.0), 0.0, 1.0)
    return T.DynamicalPlan.from_atoms(star3, [(seg, 1.0)])


@pytest.mark.parametrize("call, error, message", [
    (lambda t: T.asymptotic_measure(_unit_pair_plan(t), 0), ValueError, "direction must be +1 or -1"),
    (lambda t: T.asymptotic_measure(_unit_pair_plan(t), -1), OutOfInterval, "ray plans are only asymptotic for t -> +inf"),
    (lambda t: T.asymptotic_formula_check(t, _segment_plan(t), _unit_pair_plan(t)),
     OutOfInterval, "asymptotic comparison needs two ray plans"),
    (lambda t: T.asymptotic_formula_check(t, _unit_pair_plan(t), _complete_plan(t)),
     OutOfInterval, "asymptotic comparison needs two ray plans"),
])
def test_asymptotics_reject_what_they_cannot_answer(star3, call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(star3)
