"""Exact transport tests: solver against the permutation oracle and HiGHS,
metric axioms at desk scale, cyclical monotonicity certificates."""

import itertools

import numpy as np
import pytest

import treeot as T
from treeot.errors import MarginalMismatch
from treeot.transport import certify_duals, transportation_simplex

import helpers


def test_dirac_to_pair(tripod):
    mu = T.DiscreteMeasure.dirac(tripod, tripod.vertex_point("a"))
    nu = T.DiscreteMeasure.from_atoms(
        tripod, [(tripod.vertex_point("b"), 0.5), (tripod.vertex_point("c"), 0.5)]
    )
    dist, plan = T.wasserstein2(tripod, mu, nu)
    assert dist == pytest.approx(2.0, abs=1e-12)
    assert len(plan.entries) == 2  # the plan from a Dirac mass is unique
    plan.check_marginals(mu, nu)


def test_self_distance_zero(tripod):
    rngless = T.DiscreteMeasure.from_atoms(
        tripod,
        [
            (tripod.vertex_point("a"), 0.25),
            (tripod.edge_point("eb", 0.5), 0.75),
        ],
    )
    dist, plan = T.wasserstein2(tripod, rngless, rngless)
    assert dist == pytest.approx(0.0, abs=1e-12)
    for x, y, _ in plan.entries:
        assert x == y


def test_solver_matches_permutation_oracle():
    rng = np.random.default_rng(37)
    for _ in range(30):
        tree = helpers.random_tree(rng, int(rng.integers(2, 12)), int(rng.integers(0, 3)))
        n = int(rng.integers(1, 7))
        mu = helpers.uniform_measure(rng, tree, n)
        nu = helpers.uniform_measure(rng, tree, n)
        dist, plan = T.wasserstein2(tree, mu, nu)
        oracle = helpers.permutation_cost(tree, mu.points(), nu.points())
        assert dist**2 == pytest.approx(oracle, abs=1e-9)
        plan.check_marginals(mu, nu)


def test_metric_axioms_random():
    rng = np.random.default_rng(41)
    for _ in range(10):
        tree = helpers.random_tree(rng, 8, 1)
        a = helpers.random_measure(rng, tree, 3)
        b = helpers.random_measure(rng, tree, 4)
        c = helpers.random_measure(rng, tree, 2)
        dab = T.wasserstein2(tree, a, b).distance
        dba = T.wasserstein2(tree, b, a).distance
        dac = T.wasserstein2(tree, a, c).distance
        dcb = T.wasserstein2(tree, c, b).distance
        assert dab == pytest.approx(dba, abs=1e-7)
        assert dab <= dac + dcb + 1e-7


def test_probability_enforced(tripod):
    with pytest.raises(MarginalMismatch):
        T.DiscreteMeasure.from_atoms(tripod, [(tripod.vertex_point("a"), 0.7)])


def test_zero_mass_atoms_dropped(tripod):
    mu = T.DiscreteMeasure.from_atoms(
        tripod,
        [(tripod.vertex_point("a"), 1.0), (tripod.vertex_point("b"), 0.0)],
    )
    assert len(mu.atoms) == 1


def test_dust_counts_toward_the_total(star3):
    # 20000 atoms of 1e-13 are dropped, but their 2e-9 belongs to the total
    dust = [(star3.edge_point("r1", float(k)), 1e-13) for k in range(1, 20001)]
    mu = T.DiscreteMeasure.from_atoms(star3, dust + [(star3.vertex_point("o"), 1.0 - 2e-9)])
    assert mu.atoms == ((star3.vertex_point("o"), 1.0 - 2e-9),)


def test_negative_mass_rejected(tripod):
    with pytest.raises(MarginalMismatch):
        T.DiscreteMeasure.from_atoms(
            tripod, [(tripod.vertex_point("a"), 1.5), (tripod.vertex_point("b"), -0.5)]
        )


def test_coincident_atoms_merge(tripod):
    mu = T.DiscreteMeasure.from_atoms(
        tripod,
        [
            (tripod.edge_point("ea", 1.0), 0.5),  # canonicalizes to vertex a
            (tripod.vertex_point("a"), 0.5),
        ],
    )
    assert mu.atoms == ((tripod.vertex_point("a"), 1.0),)


def test_simplex_negative_costs():
    # brute force over permutations, uniform marginals, signed costs
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        cost = rng.uniform(-5.0, 5.0, size=(n, n))
        sol = transportation_simplex([1.0 / n] * n, [1.0 / n] * n, cost.tolist())
        best = min(
            sum(cost[i][p[i]] for i in range(n)) / n
            for p in itertools.permutations(range(n))
        )
        assert sol.value == pytest.approx(best, abs=1e-9)


def _solve_checked(supply, demand, cost):
    """Solve and check the result: a spanning-tree basis of nonnegative cells
    with the right marginals, the certified duals and the stated value."""
    m, n = len(supply), len(demand)
    sol = transportation_simplex(supply, demand, cost)
    assert len(sol.cells) == m + n - 1
    assert all(q >= 0.0 for q in sol.cells.values())
    rows, cols = [0.0] * m, [0.0] * n
    for (i, j), q in sol.cells.items():
        rows[i] += q
        cols[j] += q
    scale = sum(supply) / sum(demand)
    assert rows == pytest.approx(supply, abs=1e-12)
    assert cols == pytest.approx([d * scale for d in demand], abs=1e-12)
    certify_duals(cost, sol)
    value = sum(q * cost[i][j] for (i, j), q in sol.cells.items())
    assert sol.value == pytest.approx(value, abs=1e-12)
    assert 0 <= sol.degenerate_pivots <= sol.pivots
    return sol


def _random_masses(rng, k):
    w = rng.uniform(0.05, 1.0, size=k)
    return (w / w.sum()).tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 7, 16, 33])
def test_simplex_degenerate_uniform_signed(n):
    # uniform marginals make every basis highly degenerate
    rng = np.random.default_rng(100 + n)
    cost = rng.uniform(-5.0, 5.0, size=(n, n)).tolist()
    _solve_checked([1.0 / n] * n, [1.0 / n] * n, cost)


def test_simplex_uniform_pivot_bound():
    # first-improving pricing with Bland's rule takes 10257 pivots here, this rule 390
    n = 60
    rng = np.random.default_rng(61)
    cost = rng.uniform(-5.0, 5.0, size=(n, n)).tolist()
    sol = _solve_checked([1.0 / n] * n, [1.0 / n] * n, cost)
    assert sol.pivots <= 1000
    assert sol.degenerate_pivots > 0


@pytest.mark.parametrize("m,n", [(1, 1), (1, 6), (6, 1), (1, 40), (40, 1), (3, 11), (17, 5)])
def test_simplex_rectangular(m, n):
    rng = np.random.default_rng(7 * m + n)
    cost = rng.uniform(-3.0, 3.0, size=(m, n)).tolist()
    sol = _solve_checked(_random_masses(rng, m), _random_masses(rng, n), cost)
    if m == 1 or n == 1:
        assert sol.pivots == 0  # the only feasible plan is the initial one


def test_simplex_zero_supply_rows():
    cost = [[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]
    sol = _solve_checked([0.5, 0.0, 0.5], [0.5, 0.5], cost)
    assert sol.value == pytest.approx(0.5, abs=1e-12)


def test_simplex_matches_highs():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(67)
    shapes = [(2, 2), (5, 3), (4, 9), (12, 12), (25, 25), (30, 18), (60, 60)]
    for m, n in shapes:
        for uniform in (False, True):
            if uniform:
                supply, demand = [1.0 / m] * m, [1.0 / n] * n
            else:
                supply, demand = _random_masses(rng, m), _random_masses(rng, n)
            cost = rng.uniform(-5.0, 5.0, size=(m, n))
            sol = _solve_checked(supply, demand, cost.tolist())
            a_eq = np.vstack(
                [np.kron(np.eye(m), np.ones(n)), np.kron(np.ones(m), np.eye(n))]
            )
            ref = optimize.linprog(
                cost.ravel(), A_eq=a_eq, b_eq=supply + demand, method="highs"
            )
            assert ref.status == 0
            assert sol.value == pytest.approx(ref.fun, rel=1e-9, abs=1e-12)


def test_simplex_pinned_tie_breaks():
    # Tied optima: the chosen plans are part of the output contract.
    def support(sol):
        return sorted((c, round(q, 12)) for c, q in sol.cells.items() if q > 1e-12)

    diag = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    sol = transportation_simplex([0.25] * 4, [0.25] * 4, diag)
    assert support(sol) == [((0, 3), 0.25), ((1, 0), 0.25), ((2, 1), 0.25), ((3, 2), 0.25)]
    cyclic = [[0.0, 1.0, 0.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]]
    sol = transportation_simplex([1 / 3] * 3, [1 / 3] * 3, cyclic)
    third = round(1 / 3, 12)
    assert support(sol) == [((0, 1), third), ((1, 2), third), ((2, 0), third)]


def test_certify_duals_rejects_bad_duals():
    cost = [[0.0, 1.0], [1.0, 0.0]]
    sol = transportation_simplex([0.5, 0.5], [0.5, 0.5], cost)
    certify_duals(cost, sol)
    with pytest.raises(T.SolverFailure):
        certify_duals(cost, sol._replace(u=[ui + 1.0 for ui in sol.u]))
    with pytest.raises(T.SolverFailure):
        certify_duals(cost, sol._replace(u=[ui - 1.0 for ui in sol.u]))


# -- cyclical monotonicity -------------------------------------------------------


def test_optimal_plan_is_monotone_all_lengths():
    rng = np.random.default_rng(47)
    for _ in range(10):
        tree = helpers.random_tree(rng, 9, 1)
        mu = helpers.random_measure(rng, tree, 4)
        nu = helpers.random_measure(rng, tree, 4)
        plan = T.wasserstein2(tree, mu, nu).plan
        cert = T.is_cyclically_monotone(tree, plan, full=True)
        assert cert.passed


def test_aligned_points_two_cycle_violation():
    # y'', y, y' aligned on a path; sending y'' -> y' and y -> y is beaten
    # by y'' -> y and y -> y' (convexity of the quadratic cost).
    path = T.MetricTree(
        ["y2", "y", "y1"],
        [("e1", ("y2", "y"), 1.0), ("e2", ("y", "y1"), 1.0)],
        "y",
    )
    plan = T.TransportPlan(
        (
            (path.vertex_point("y2"), path.vertex_point("y1"), 0.5),
            (path.vertex_point("y"), path.vertex_point("y"), 0.5),
        )
    )
    cert = T.is_cyclically_monotone(path, plan, full=True)
    assert not cert.passed
    assert len(cert.witness) == 2
    assert cert.improvement < -1e-9


def test_single_entry_plan_passes(tripod):
    plan = T.TransportPlan(
        ((tripod.vertex_point("a"), tripod.vertex_point("b"), 1.0),)
    )
    assert T.is_cyclically_monotone(tripod, plan, full=True).passed


def test_max_cycle_default_bound(tripod):
    plan = T.TransportPlan(
        ((tripod.vertex_point("a"), tripod.vertex_point("b"), 1.0),)
    )
    cert = T.is_cyclically_monotone(tripod, plan)
    assert cert.max_cycle == 1  # min(support size, 8)


def test_corrupted_plans_fail():
    rng = np.random.default_rng(53)
    made = 0
    while made < 10:
        tree = helpers.random_tree(rng, 9, 1)
        mu = helpers.uniform_measure(rng, tree, 4)
        nu = helpers.uniform_measure(rng, tree, 4)
        plan = T.wasserstein2(tree, mu, nu).plan
        bad = helpers.corrupt_transport_plan(rng, tree, plan)
        if bad is None:
            continue
        made += 1
        bad.check_marginals(mu, nu)
        assert not T.is_cyclically_monotone(tree, bad, full=True).passed


def test_tripod_non_uniqueness_witness(tripod):
    # x, x' on the a-leg; y, z the symmetric leaves: every coupling of the
    # two-point measures has the same cost, so both pairings are optimal.
    x = tripod.edge_point("ea", 0.6)
    xp = tripod.vertex_point("a")
    y = tripod.vertex_point("b")
    z = tripod.vertex_point("c")
    assert tripod.distance(x, y) == pytest.approx(tripod.distance(x, z))
    assert tripod.distance(xp, y) == pytest.approx(tripod.distance(xp, z))
    p1 = T.TransportPlan(((x, y, 0.5), (xp, z, 0.5)))
    p2 = T.TransportPlan(((x, z, 0.5), (xp, y, 0.5)))
    d2 = lambda p, q: tripod.distance(p, q) ** 2
    assert p1.cost(d2) == pytest.approx(p2.cost(d2), abs=1e-12)
    assert p1.entries != p2.entries
    assert T.is_cyclically_monotone(tripod, p1, full=True).passed
    assert T.is_cyclically_monotone(tripod, p2, full=True).passed
    mu = T.DiscreteMeasure.from_atoms(tripod, [(x, 0.5), (xp, 0.5)])
    nu = T.DiscreteMeasure.from_atoms(tripod, [(y, 0.5), (z, 0.5)])
    solved = T.wasserstein2(tripod, mu, nu)
    assert solved.distance**2 == pytest.approx(p1.cost(d2), abs=1e-12)
    assert solved.plan.entries == p1.entries  # pinned tie-break
