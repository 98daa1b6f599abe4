"""Acceptance suite: the numbered release criteria, each at its pinned tolerance.

Each test prints one PASS line on success; tolerances and instance counts
are pinned here and nowhere else.  Run with `pytest tests/test_acceptance.py -s`
to see the lines.
"""

import math
import time

import numpy as np
import pytest

import treeot as T
from treeot.dynamics import projection_monotone
from treeot.ends import plan_traversal_masses
from treeot.errors import NotRealizable

import helpers

TIME_PAIRS = [(0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (0.25, 0.75), (0.1, 0.9)]
SPEEDS = [0.5, 0.75, 1.0, 1.25, 1.5]


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def _random_boundary_pair(rng, min_ends=4):
    while True:
        tree = helpers.random_tree(
            rng, int(rng.integers(2, 8)), int(rng.integers(min_ends, min_ends + 5))
        )
        ends = list(tree.ends())
        if len(ends) < min_ends:
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
        return tree, minus, plus


def _random_cone_measure(rng, tree, n_atoms, unit_speed=False):
    ends = list(tree.ends())
    masses = (
        helpers.dyadic_masses(rng, n_atoms) if n_atoms > 1 else [1.0]
    )
    return T.ConeMeasure.from_atoms(
        tree,
        [
            (
                ends[int(rng.integers(0, len(ends)))],
                1.0 if unit_speed else SPEEDS[int(rng.integers(0, len(SPEEDS)))],
                float(m),
            )
            for m in masses
        ],
    )


def test_criterion_1_ot_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.monotonic()
    for _ in range(200):
        tree = helpers.random_tree(rng, int(rng.integers(2, 13)), int(rng.integers(0, 3)))
        n = int(rng.integers(1, 7))
        mu = helpers.uniform_measure(rng, tree, n)
        nu = helpers.uniform_measure(rng, tree, n)
        dist, plan = T.wasserstein2(tree, mu, nu)
        oracle = helpers.permutation_cost(tree, mu.points(), nu.points())
        assert abs(dist**2 - oracle) <= 1e-9
        plan.check_marginals(mu, nu)
    elapsed = time.monotonic() - started
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    _report(1, "OT oracle equivalence, 200 instances")


def test_criterion_2_monotonicity_vs_optimality():
    rng = np.random.default_rng(1002)
    optimal = corrupted = 0
    while optimal < 50 or corrupted < 50:
        tree = helpers.random_tree(rng, int(rng.integers(3, 11)), int(rng.integers(0, 2)))
        mu = helpers.uniform_measure(rng, tree, int(rng.integers(2, 6)))
        nu = helpers.uniform_measure(rng, tree, int(rng.integers(2, 6)))
        plan = T.wasserstein2(tree, mu, nu).plan
        if optimal < 50:
            optimal += 1
            assert T.is_cyclically_monotone(tree, plan, full=True).passed
        if corrupted < 50:
            bad = helpers.corrupt_transport_plan(rng, tree, plan)
            if bad is not None:
                corrupted += 1
                bad.check_marginals(mu, nu)
                assert not T.is_cyclically_monotone(tree, bad, full=True).passed
    _report(2, "cyclical monotonicity iff optimality, 100 plans")


def test_criterion_3_antagonism_vs_monotonicity():
    rng = np.random.default_rng(1003)
    optimal = corrupted = 0
    while optimal < 50 or corrupted < 50:
        tree = helpers.random_tree(rng, int(rng.integers(3, 10)), int(rng.integers(0, 2)))
        mu0 = helpers.uniform_measure(rng, tree, int(rng.integers(2, 5)))
        mu1 = helpers.uniform_measure(rng, tree, int(rng.integers(2, 5)))
        if optimal < 50:
            dyn = T.interpolate(tree, mu0, mu1)
            optimal += 1
            assert T.is_optimal_dynamical(tree, dyn).passed == projection_monotone(
                tree, dyn, TIME_PAIRS
            ) == True
        if corrupted < 50:
            bad = helpers.corrupt_dynamical_plan(rng, tree, mu0, mu1)
            if bad is None:
                continue
            corrupted += 1
            assert T.is_optimal_dynamical(tree, bad).passed == projection_monotone(
                tree, bad, TIME_PAIRS
            ) == False
    _report(3, "antagonism iff projection monotonicity, 100 plans")


def test_criterion_4_asymptotic_formula():
    rng = np.random.default_rng(1004)
    done = 0
    while done < 50:
        tree = helpers.random_tree(
            rng, int(rng.integers(2, 7)), int(rng.integers(2, 5))
        )
        if len(tree.ends()) < 2:
            continue
        done += 1
        x = tree.vertex_point(
            tree.vertices[int(rng.integers(0, len(tree.vertices)))]
        )
        mu = T.ray_from_asymptotic_measure(
            tree, x, _random_cone_measure(rng, tree, int(rng.integers(1, 4)))
        )
        sigma = T.ray_from_asymptotic_measure(
            tree, x, _random_cone_measure(rng, tree, int(rng.integers(1, 4)))
        )
        report = T.asymptotic_formula_check(tree, mu, sigma)
        assert abs(report.certified_limit - report.target) <= 1e-9
        helpers.assert_classified_by_target(report)
        assert report.monotone
    _report(4, "asymptotic formula with certified limits, 50 ray pairs")


def test_criterion_5_visibility_identity():
    rng = np.random.default_rng(1005)
    for _ in range(50):
        tree = helpers.random_tree(rng, int(rng.integers(2, 5)), int(rng.integers(2, 7)))
        nu1 = _random_cone_measure(rng, tree, int(rng.integers(1, 5)), unit_speed=True)
        nu2 = _random_cone_measure(rng, tree, int(rng.integers(1, 5)), unit_speed=True)
        w = T.w_infinity(tree, nu1, nu2).distance
        assert abs(w - 2.0 * math.sqrt(T.total_variation(nu1, nu2))) <= 1e-9
    _report(5, "W_infinity = 2 sqrt(TV) on the unit slice, 50 pairs")


def test_criterion_6_complete_speed_rigidity():
    rng = np.random.default_rng(1006)
    # 50 adversarial mixed-speed complete plans must all be rejected
    made = 0
    while made < 50:
        tree = helpers.random_tree(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        ends = list(tree.ends())
        if len(ends) < 2:
            continue
        made += 1
        n = int(rng.integers(2, 4))
        speeds = [SPEEDS[int(rng.integers(0, len(SPEEDS)))] for _ in range(n)]
        speeds[0] = 0.5
        speeds[-1] = 1.5  # guarantee a genuinely mixed pair
        atoms = []
        for s in speeds:
            i, j = rng.choice(len(ends), size=2, replace=False)
            atoms.append((tree.geodesic_between_ends(ends[int(i)], ends[int(j)], speed=s), 1.0 / n))
        plan = T.DynamicalPlan.from_atoms(tree, atoms)
        assert not T.validate_complete_plan(plan).passed
    # every constructed geodesic is accepted
    for _ in range(10):
        tree, minus, plus = _random_boundary_pair(rng)
        plan = T.construct_geodesic(tree, minus, plus)
        assert T.validate_complete_plan(plan).passed
    _report(6, "unit-speed rigidity of complete plans, 50 + 10 cases")


def test_criterion_7_ends_realizability():
    rng = np.random.default_rng(1007)
    for _ in range(50):
        tree, minus, plus = _random_boundary_pair(rng)
        plan = T.construct_geodesic(tree, minus, plus)
        table = T.flow_table(tree, minus, plus)
        masses = plan_traversal_masses(tree, plan)
        for eid in tree.edges:
            phi = table.flow(eid)
            assert abs(masses.edge.get((eid, +1), 0.0) - max(phi, 0.0)) <= 1e-9
            assert abs(masses.edge.get((eid, -1), 0.0) - max(-phi, 0.0)) <= 1e-9
        for v in tree.vertices:
            assert abs(masses.vertex.get(v, 0.0) - table.vertex_flow[v]) <= 1e-9
            assert abs(masses.anchored.get(v, 0.0) - table.specific_flow[v]) <= 1e-9
        # ends match the inputs on the unit-speed slice
        for direction, bm in ((-1, minus), (+1, plus)):
            got = {
                (e, s): m for e, s, m in T.asymptotic_measure(plan, direction).atoms
            }
            want = {(e, 1.0): m for e, m in bm.atoms}
            assert set(got) == set(want)
            assert all(abs(got[k] - want[k]) <= 1e-9 for k in want)
        # second moment = realizability sum = -(optimal -D0^2 value)
        m0 = T.pushforward_at(plan, 0.0).second_moment(tree)
        rsum = T.realizability_sum(tree, table).value
        d0 = T.d0_transport(tree, minus, plus).value
        assert abs(m0 - rsum) <= 1e-9
        assert abs(m0 - (-d0)) <= 1e-9
    _report(7, "ends realizability with flow equalities, 50 trees")


def test_criterion_8_comb_divergence():
    started = time.monotonic()
    inst3 = T.comb_generator(4096, 3.0)
    table3 = T.flow_table(inst3.tree, inst3.nu_minus, inst3.nu_plus)
    res3 = T.realizability_sum(inst3.tree, table3)
    assert res3.verdict == "DIVERGES"
    assert res3.depths[-1] == 4096
    with pytest.raises(NotRealizable):
        T.construct_geodesic(inst3.tree, inst3.nu_minus, inst3.nu_plus)

    inst4 = T.comb_generator(4096, 4.0)
    table4 = T.flow_table(inst4.tree, inst4.nu_minus, inst4.nu_plus)
    res4 = T.realizability_sum(inst4.tree, table4)
    assert res4.verdict == "CONVERGES"
    incs = [b - a for a, b in zip(res4.partial_sums, res4.partial_sums[1:])][-3:]
    assert all(abs(i) <= 1e-3 for i in incs)

    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 8 took {elapsed:.1f}s"
    _report(8, "comb divergence dichotomy at depth 4096")


def test_criterion_9_radon_inversion_exact():
    rng = np.random.default_rng(1009)
    for _ in range(200):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 51)))
        values = {v: float(rng.integers(-50, 51)) for v in tree.vertices}
        h = T.VertexFunction.from_mapping(tree, values)
        data = T.combinatorial_radon(tree, h)
        back = T.radon_invert(tree, data, h.total)
        assert back.as_dict() == values  # zero error, not tolerance based
        for x in tree.vertices:
            k = tree.valency(x)
            acc = sum(val for flag, val in data.items() if flag.vertex == x)
            expected = math.comb(k - 1, 2) * h.total + (k - 1) * h.get(x)
            assert acc == expected
    _report(9, "exact Radon inversion round trip, 200 functions")


def test_criterion_10_midpoint_characterization():
    rng = np.random.default_rng(1010)
    on_locus = off_locus = 0
    while on_locus < 25 or off_locus < 25:
        tree = helpers.random_tree(rng, int(rng.integers(2, 7)), int(rng.integers(2, 5)))
        ends = list(tree.ends())
        if len(ends) < 2:
            continue
        i, j = rng.choice(len(ends), size=2, replace=False)
        gamma = tree.geodesic_between_ends(ends[int(i)], ends[int(j)])
        if on_locus < 25:
            arcs = rng.uniform(-4.0, 4.0, size=int(rng.integers(1, 4)))
            masses = rng.uniform(0.2, 1.0, size=len(arcs))
            masses /= masses.sum()
            mu = T.DiscreteMeasure.from_atoms(
                tree,
                [(gamma.point_at_arc(float(s)), float(m)) for s, m in zip(arcs, masses)],
            )
            res = T.supported_on_geodesic_test(tree, mu, gamma)
            assert res.supported
            for sx, sg in [(-2.0, 1.0), (0.5, 3.5)]:
                x, g = gamma.point_at_arc(sx), gamma.point_at_arc(sg)
                mid = tree.geodesic_segment(x, g, 0.0, 1.0).evaluate(0.5)
                lhs = T.wasserstein2(
                    tree,
                    T.dirac_interpolation(tree, x, mu, 0.5),
                    T.DiscreteMeasure.dirac(tree, mid),
                ).distance
                rhs = 0.5 * T.wasserstein2(
                    tree, mu, T.DiscreteMeasure.dirac(tree, g)
                ).distance
                assert abs(lhs - rhs) <= 1e-9
            on_locus += 1
        if off_locus < 25:
            y = helpers.random_point(rng, tree)
            proj = T.project_to_geodesic(tree, y, gamma)
            if tree.distance(y, proj) <= 1e-6:
                continue
            mu = T.DiscreteMeasure.from_atoms(
                tree, [(y, 0.6), (gamma.point_at_arc(1.0), 0.4)]
            )
            res = T.supported_on_geodesic_test(tree, mu, gamma)
            assert not res.supported
            assert res.lhs < res.rhs - 1e-12  # strict inequality witness
            off_locus += 1
    _report(10, "midpoint support characterization, 25 + 25 measures")
