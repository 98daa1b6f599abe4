"""Exact transport tests: solver against the permutation oracle and HiGHS,
metric axioms at desk scale, cyclical monotonicity certificates."""

import itertools
import math
import re
from array import array

import numpy as np
import pytest

import treeot as T
from treeot import transport
from treeot.errors import MarginalMismatch, NonFiniteValue
from treeot.metric_tree import TOL
from treeot.transport import (
    _sums_by_key, certify_costs, certify_duals, min_improvement_cycle, transportation_simplex,
)

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


def test_probability_enforced(tripod, star3):
    # every measure constructor checks its total in one place, each with
    # its own message; a plan left without atoms says so first
    with pytest.raises(MarginalMismatch, match=r"^masses sum to 0\.7, expected 1$"):
        T.DiscreteMeasure.from_atoms(tripod, [(tripod.vertex_point("a"), 0.7)])
    with pytest.raises(MarginalMismatch, match=r"^masses sum to 0\.7, expected 1$"):
        T.BoundaryMeasure.from_atoms(star3, [(star3.end("r1"), 0.7)])
    with pytest.raises(MarginalMismatch, match=r"^cone masses sum to 0\.7, expected 1$"):
        T.ConeMeasure.from_atoms(star3, [(star3.end("r1"), 1.0, 0.7)])
    seg = tripod.geodesic_segment(tripod.vertex_point("o"), tripod.vertex_point("a"), 0.0, 1.0)
    with pytest.raises(MarginalMismatch, match=r"^plan masses sum to 0\.7, expected 1$"):
        T.DynamicalPlan.from_atoms(tripod, [(seg, 0.7)])
    for atoms in ([], [(seg, 1e-13)]):
        with pytest.raises(MarginalMismatch, match=r"^plan has no mass$"):
            T.DynamicalPlan.from_atoms(tripod, atoms)


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


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_mass_rejected(tripod, star3, bad):
    # NaN fails every comparison, so neither the total nor the dust check
    # would notice it; every measure constructor merges through one check.
    with pytest.raises(MarginalMismatch):
        T.DiscreteMeasure.from_atoms(
            tripod, [(tripod.vertex_point("a"), bad), (tripod.vertex_point("b"), 1.0)]
        )
    with pytest.raises(MarginalMismatch):
        T.BoundaryMeasure.from_atoms(star3, [(star3.end("r1"), bad), (star3.end("r2"), 1.0)])


def test_coincident_atoms_merge(tripod):
    mu = T.DiscreteMeasure.from_atoms(
        tripod,
        [
            (tripod.edge_point("ea", 1.0), 0.5),  # canonicalizes to vertex a
            (tripod.vertex_point("a"), 0.5),
        ],
    )
    assert mu.atoms == ((tripod.vertex_point("a"), 1.0),)


def _from_corner(supply, demand, cost):
    """The simplex on a bare matrix, started at the northwest corner."""
    return transportation_simplex(cost, start=helpers.northwest_corner(supply, demand))


def test_simplex_negative_costs():
    # brute force over permutations, uniform marginals, signed costs
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        cost = rng.uniform(-5.0, 5.0, size=(n, n))
        sol = _from_corner([1.0 / n] * n, [1.0 / n] * n, cost.tolist())
        best = min(
            sum(cost[i][p[i]] for i in range(n)) / n
            for p in itertools.permutations(range(n))
        )
        assert sol.value == pytest.approx(best, abs=1e-9)


def _solve_checked(supply, demand, cost):
    """Solve and check the result: a spanning-tree basis of nonnegative cells
    with the right marginals, the certified duals and the stated value."""
    m, n = len(supply), len(demand)
    sol = _from_corner(supply, demand, cost)
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
    assert sol.priced >= m * n  # the last pass prices every cell
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
    # first-improving pricing with Bland's rule takes 10257 pivots here, the
    # most-negative full scan 390 and block search 666
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


def _highs_value(supply, demand, cost):
    """Optimal value of the transportation LP by scipy's HiGHS."""
    optimize = pytest.importorskip("scipy.optimize")
    sparse = pytest.importorskip("scipy.sparse")
    m, n = len(supply), len(demand)
    a_eq = sparse.vstack(
        [sparse.kron(sparse.eye(m), np.ones((1, n))), sparse.kron(np.ones((1, m)), sparse.eye(n))]
    )
    ref = optimize.linprog(
        np.ravel(cost), A_eq=a_eq.tocsr(), b_eq=list(supply) + list(demand), method="highs"
    )
    assert ref.status == 0
    return ref.fun


def test_simplex_matches_highs():
    pytest.importorskip("scipy.optimize")
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
            ref = _highs_value(supply, demand, cost)
            assert sol.value == pytest.approx(ref, rel=1e-9, abs=1e-12)


@pytest.mark.parametrize(
    "m,n,counts", [(200, 5, [(498, 26230), (647, 27940)]), (120, 8, [(370, 15192), (467, 20016)])]
)
def test_simplex_multi_row_blocks_match_highs(m, n, counts):
    # A pricing block is isqrt(m * n) // n whole rows: 6 rows at 200x5, 3 at
    # 120x8, so the passes stop at block ends inside the matrix.  The pivot
    # and priced-cell counts pin the block size and the pass rule, which
    # decide the plan among tied optima.
    pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(m + n)
    for uniform, (pivots, priced) in zip((False, True), counts):
        if uniform:
            supply, demand = [1.0 / m] * m, [1.0 / n] * n
        else:
            supply, demand = _random_masses(rng, m), _random_masses(rng, n)
        cost = rng.uniform(-5.0, 5.0, size=(m, n))
        sol = _solve_checked(supply, demand, cost.tolist())
        assert (sol.pivots, sol.priced) == (pivots, priced)
        assert sol.value == pytest.approx(_highs_value(supply, demand, cost), rel=1e-9, abs=1e-12)


def test_simplex_pricing_wraps_to_the_row_before_the_cursor():
    # The northwest corner leaves row 0 with two improving cells and row 1
    # with none.  The first pass enters (0, 1) and moves the cursor to row 1;
    # then (0, 2) is the only improving cell, so the second pass must scan
    # row 1 and wrap round to row 0.  A third full pass proves optimality.
    cost = [[4.0, 3.0, 3.0], [2.0, 4.0, 4.0]]
    supply, demand = [0.5, 0.5], [0.5, 1 / 6, 1 / 3]
    sol = _solve_checked(supply, demand, cost)
    assert sol.pivots == 2
    assert sol.priced == 3 + 6 + 6
    assert sol.value == pytest.approx(2.5, abs=1e-12)
    assert sol.value == pytest.approx(_highs_value(supply, demand, cost), abs=1e-12)


def _uniform_200():
    n = 200
    cost = np.random.default_rng(200).uniform(-5.0, 5.0, size=(n, n))
    return [1.0 / n] * n, [1.0 / n] * n, cost


def test_simplex_200_uniform_matches_highs():
    pytest.importorskip("scipy.optimize")
    supply, demand, cost = _uniform_200()
    sol = _solve_checked(supply, demand, cost.tolist())
    # block search takes 4109 pivots here, the most-negative full scan 2036
    assert sol.pivots <= 6000
    assert sol.value == pytest.approx(_highs_value(supply, demand, cost), rel=1e-9, abs=1e-12)


def test_simplex_200_uniform_prices_few_cells():
    # A full scan per pivot reads m * n = 40000 cells each time, about 8e7
    # in all; block search reads about 1.26e6.
    supply, demand, cost = _uniform_200()
    sol = _solve_checked(supply, demand, cost.tolist())
    assert sol.priced < 5_000_000


def test_simplex_pinned_tie_breaks():
    # Tied optima: the chosen plans are part of the output contract.
    def support(sol):
        return sorted((c, round(q, 12)) for c, q in sol.cells.items() if q > 1e-12)

    diag = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    sol = _from_corner([0.25] * 4, [0.25] * 4, diag)
    assert support(sol) == [((0, 3), 0.25), ((1, 0), 0.25), ((2, 1), 0.25), ((3, 2), 0.25)]
    cyclic = [[0.0, 1.0, 0.0], [2.0, 1.0, 0.0], [0.0, 2.0, 1.0]]
    sol = _from_corner([1 / 3] * 3, [1 / 3] * 3, cyclic)
    third = round(1 / 3, 12)
    # Both (0,1),(1,2),(2,0) and (0,2),(1,1),(2,0) cost 1/3.  A 3x3 block is
    # one row, so the first improving row after the cursor enters rather than
    # the most negative cell of the matrix; that pivots to the second optimum,
    # the plan Bland's rule chose, where the full scan reached the first.
    assert support(sol) == [((0, 2), third), ((1, 1), third), ((2, 0), third)]
    # From the northwest corner, row 0 prices -1 at columns 2 and 3; the
    # lower column enters.
    sol = _from_corner([0.5] * 2, [0.25] * 4, [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 1.0, 1.0]])
    assert sol.pivots == 1
    assert support(sol) == [((0, 0), 0.25), ((0, 2), 0.25), ((1, 1), 0.25), ((1, 3), 0.25)]
    # An 8x2 block is two rows.  From the northwest corner, rows 0 and 1 of
    # the first block both price -2 at column 1; the first row scanned enters.
    rows = [[2.0, 2.0], [0.0, 0.0], [0.0, 2.0], [0.0, 1.0], [0.0, 2.0], [1.0, 0.0], [2.0, 2.0], [2.0, 2.0]]
    sol = _from_corner([0.125] * 8, [0.5] * 2, rows)
    assert sol.pivots == 1
    assert support(sol) == [((0, 1), 0.125), ((1, 0), 0.125), ((2, 0), 0.125), ((3, 0), 0.125),
                            ((4, 0), 0.125), ((5, 1), 0.125), ((6, 1), 0.125), ((7, 1), 0.125)]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_simplex_rejects_non_finite_cost(bad):
    # The NaN is not the first cost, where max() would ignore it.
    cost = [[0.0, 1.0], [1.0, bad]]
    with pytest.raises(T.SolverFailure, match="non-finite cost"):
        _from_corner([0.5, 0.5], [0.5, 0.5], cost)


@pytest.mark.parametrize("cost, si, ti", [
    ([[0.0, 5.0], [math.nan, 0.0]], [0, 0, 1], [0, 1, 1]),
    ([[0.0, math.nan], [1.0, 0.0]], [0, 1], [0, 1]),
])
def test_certificate_rejects_a_nan_cost_anywhere(cost, si, ti):
    # Neither NaN is the first cost of its row, where max() would see it:
    # the first support passed, the second failed the cycle search re-check.
    with pytest.raises(NonFiniteValue, match="cost scale inf"):
        certify_costs(cost, si, ti)


def test_overflowing_squared_distance_is_a_domain_error():
    # 1e308 is a finite length, but its square is not a float.
    path = T.MetricTree(["a", "b"], [("e", ("a", "b"), 1e308)], "a")
    mu = T.DiscreteMeasure.dirac(path, path.vertex_point("a"))
    nu = T.DiscreteMeasure.dirac(path, path.vertex_point("b"))
    with pytest.raises(NonFiniteValue):
        T.wasserstein2(path, mu, nu)
    plan = T.TransportPlan(((path.vertex_point("a"), path.vertex_point("b"), 1.0),))
    with pytest.raises(NonFiniteValue):
        T.is_cyclically_monotone(path, plan)


def test_squares_are_correctly_rounded_products():
    # x ** 2 goes through the C library's pow: glibc 2.36 gives ...46bp+9
    # for the first entry, one ulp above the rounded square.
    from fractions import Fraction

    from treeot.transport import _squares

    rng = np.random.default_rng(241)
    xs = [float.fromhex("0x1.e31f25816fc1ep+4")] + [float(x) for x in rng.uniform(0.0, 100.0, 4000)]
    rows = [xs[:1], xs[1:]]
    want = [[float(Fraction(x) ** 2) for x in row] for row in rows]
    squares, scale = _squares(rows, "distance")
    assert scale == max(map(max, want))
    assert [[y.hex() for y in row] for row in squares] == [
        [y.hex() for y in row] for row in want
    ]
    assert want[0] == [float.fromhex("0x1.c7df45a84346ap+9")]
    for big in (1.4e154, math.inf):
        with pytest.raises(NonFiniteValue, match="^a squared distance exceeds the float range$"):
            _squares([[1.0], [2.0, big]], "distance")


def test_second_moment_squares_are_correctly_rounded():
    # `d ** 2` goes through pow: glibc 2.36 gives ...46bp+9 for this
    # distance, one ulp above its rounded square.
    from fractions import Fraction

    x = float.fromhex("0x1.e31f25816fc1ep+4")
    tree = T.MetricTree(["a", "b"], [("e", ("a", "b"), x), ("r", ("b",), math.inf)], "a")
    mu = T.DiscreteMeasure.dirac(tree, tree.vertex_point("b"))
    assert mu.second_moment(tree) == float.fromhex("0x1.c7df45a84346ap+9")
    rng = np.random.default_rng(277)
    pts = helpers.distinct_points(rng, tree, 40)
    mu = T.DiscreteMeasure.from_atoms(tree, zip(pts, helpers.spread_masses(rng, 40)))
    want = [m * float(Fraction(tree.distance(tree.basepoint, p)) ** 2) for p, m in mu.atoms]
    assert mu.second_moment(tree) == helpers.add_in_order(want)


def test_certify_duals_rejects_bad_duals():
    cost = [[0.0, 1.0], [1.0, 0.0]]
    sol = _from_corner([0.5, 0.5], [0.5, 0.5], cost)
    certify_duals(cost, sol)
    with pytest.raises(T.SolverFailure):
        certify_duals(cost, sol._replace(u=[ui + 1.0 for ui in sol.u]))
    with pytest.raises(T.SolverFailure):
        certify_duals(cost, sol._replace(u=[ui - 1.0 for ui in sol.u]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("cell", [(0, 0), (0, 1)])
def test_certify_duals_rejects_a_non_finite_cost(bad, cell):
    # (0, 0) carries mass in the optimal basis, (0, 1) is not basic.  With
    # the slack DUAL_TOL * (1 + scale) NaN or inf, no comparison would fail.
    cost = [[1.0, 2.0], [3.0, 1.0]]
    sol = _from_corner([0.5, 0.5], [0.5, 0.5], cost)
    assert sol.cells[0, 0] > 0.0 and (0, 1) not in sol.cells
    cost[cell[0]][cell[1]] = bad
    with pytest.raises(T.SolverFailure, match="^non-finite cost$"):
        certify_duals(cost, sol)


def _scale_matrices():
    """Seeded matrices of either sign: with zeros and -0.0, at desk scale,
    at the 1e18 costs of squared distances near 1e9, and near 1e154, whose
    squares come close to the float range."""
    rng = np.random.default_rng(263)
    for size in (1.0, 1e9, 1e18, 1.3e154):
        for _ in range(6):
            m, n = (int(k) for k in rng.integers(1, 7, size=2))
            a = rng.uniform(-size, size, size=(m, n))
            a[rng.random((m, n)) < 0.2] = 0.0
            a[rng.random((m, n)) < 0.2] = -0.0
            yield a.tolist()


def _outcome(call, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return call(*args, **kwargs)
    except T.TreeOTError as err:
        return type(err), str(err)


def test_squares_hand_on_the_scale_of_the_squares():
    from treeot.transport import _cost_scale, _squares

    for rows in _scale_matrices():
        squares, scale = _squares(rows, "distance")
        assert scale == _cost_scale(squares)
        assert scale == max(x * x for row in rows for x in row)


def test_a_given_scale_changes_no_result_and_no_error():
    # The simplex and the dual check give the same result, or raise the
    # same error, whether the scale is handed on or read.
    from treeot.transport import _cost_scale

    rng = np.random.default_rng(269)
    matrices = list(_scale_matrices())
    for k in (0, 7, 19):
        bad = [row[:] for row in matrices[k]]
        bad[-1][-1] = (math.nan, math.inf, -math.inf)[k % 3]
        matrices.append(bad)
    for cost in matrices:
        m, n = len(cost), len(cost[0])
        scale = _cost_scale(cost)
        start = helpers.northwest_corner(helpers.spread_masses(rng, m), helpers.spread_masses(rng, n))
        sol = _outcome(transportation_simplex, cost, start=start)
        assert _outcome(transportation_simplex, cost, start=start, scale=scale) == sol
        if isinstance(sol, transport.SimplexSolution):
            bent = sol._replace(u=[ui + 1e-3 * (1.0 + scale) for ui in sol.u])
            for duals in (sol, bent):
                got = _outcome(certify_duals, cost, duals)
                assert _outcome(certify_duals, cost, duals, scale=scale) == got


def test_a_nan_distance_is_a_domain_error_naming_it():
    # The NaN is not the first entry of its row, where max() would see it.
    start = helpers.northwest_corner([0.5, 0.5], [0.5, 0.5])
    for what in ("distance", "slope"):
        with pytest.raises(NonFiniteValue, match=f"^a squared {what} is not a number$"):
            transport.w2_from_distances([[1.0, 2.0], [3.0, math.nan]], what, start=start)


def test_the_scale_is_read_once_where_the_squares_are_made(monkeypatch):
    # W2, the monotonicity certificate and the asymptotic check take their
    # cost scale from _squares: none of them reads a matrix again for it.
    # certify_costs, handed its costs, reads their scale once.
    real, calls = transport._cost_scale, []

    def spy(cost):
        calls.append(len(cost))
        return real(cost)

    monkeypatch.setattr(transport, "_cost_scale", spy)
    rng = np.random.default_rng(271)
    tree = helpers.random_tree(rng, 40, 3)
    pts = helpers.distinct_points(rng, tree, 16)
    mu = T.DiscreteMeasure.from_atoms(tree, zip(pts[:8], helpers.spread_masses(rng, 8)))
    nu = T.DiscreteMeasure.from_atoms(tree, zip(pts[8:], helpers.spread_masses(rng, 8)))
    _, plan = T.wasserstein2(tree, mu, nu)
    assert T.is_cyclically_monotone(tree, plan)
    ends = tree.ends()
    cones = [
        T.ConeMeasure.from_atoms(tree, [
            (ends[int(rng.integers(0, len(ends)))], float(s), m)
            for s, m in zip(rng.uniform(0.5, 1.5, size=4), helpers.spread_masses(rng, 4))
        ])
        for _ in range(2)
    ]
    rays = [T.ray_from_asymptotic_measure(tree, pts[0], c) for c in cones]
    T.asymptotic_formula_check(tree, *rays)
    assert calls == []
    transportation_simplex([[1.0]], start={(0, 0): 1.0})
    assert calls == [1]
    certify_costs([[1.0, 2.0], [3.0, 4.0]], [0, 1], [0, 1])
    assert calls == [1, 2]


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


def test_empty_plan_is_monotone(tripod):
    assert T.is_cyclically_monotone(tripod, T.TransportPlan(())) == T.MonotonicityCertificate(True, 0, None, 0.0)


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


def test_max_cycle_default_bound():
    rng = np.random.default_rng(59)
    tree = helpers.random_tree(rng, 30, 2)
    mu = helpers.random_measure(rng, tree, 10)
    nu = helpers.random_measure(rng, tree, 10)
    plan = T.wasserstein2(tree, mu, nu).plan
    assert len(plan.entries) > 8
    cert = T.is_cyclically_monotone(tree, plan)
    assert cert.passed
    assert cert.max_cycle == len(plan.entries)  # every cycle length


def test_cycle_search_matches_simple_cycle_enumeration():
    # Integer weights: ties at zero abound and no cycle weighs in (-1, 0),
    # so the verdict must be exactly "some simple cycle is negative".
    rng = np.random.default_rng(61)
    fails = 0
    for _ in range(400):
        k = int(rng.integers(2, 8))
        w = rng.integers(-2, 4, size=(k, k)).astype(float)
        np.fill_diagonal(w, 0.0)
        negative = any(helpers.cycle_weight(w, c) < 0 for c in helpers.simple_cycles(k))
        best, witness = min_improvement_cycle(w, k)
        assert (witness is not None) == negative
        if witness is None:
            assert best == 0.0
            continue
        fails += 1
        assert len(set(witness)) == len(witness) >= 2
        assert helpers.cycle_weight(w, witness) == best < 0
    assert 50 < fails < 350


def test_cost_certificate_matches_simple_cycle_enumeration():
    # Signed integer costs on supports of up to 6 entries, some of several
    # components: the verdict must be exactly "some simple cycle of shifts
    # is negative", and a failing witness must be such a cycle.
    rng = np.random.default_rng(227)
    fails, split = 0, [0, 0]  # several components: (passed, failed)
    for _ in range(400):
        nx, ny = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        cost = rng.integers(-3, 4, size=(nx, ny)).astype(float)
        # every row and column in the support, repeated pairs allowed
        pairs = [(i, int(rng.integers(0, ny))) for i in range(nx)]
        pairs += [(int(rng.integers(0, nx)), j) for j in range(ny) if j not in {b for _, b in pairs}]
        extra = min(int(rng.integers(0, 3)), 6 - len(pairs))
        pairs += [(int(rng.integers(0, nx)), int(rng.integers(0, ny))) for _ in range(extra)]
        pairs = [pairs[e] for e in rng.permutation(len(pairs))]
        si, ti = [i for i, _ in pairs], [j for _, j in pairs]
        plan = T.TransportPlan(tuple((("x", i), ("y", j), 1.0) for i, j in pairs))
        k = len(pairs)
        w = np.array([[cost[si[e], ti[f]] - cost[si[e], ti[e]] for f in range(k)] for e in range(k)])
        negative = any(helpers.cycle_weight(w, c) < 0 for c in helpers.simple_cycles(k))
        cert = certify_costs(cost.tolist(), si, ti)
        assert cert.passed == (not negative)
        if helpers.support_components(plan) > 1:
            split[negative] += 1
        assert cert.max_cycle == k
        if cert.passed:
            assert (cert.witness, cert.improvement) == (None, 0.0)
            continue
        fails += 1
        assert len(set(cert.witness)) == len(cert.witness) >= 2
        assert helpers.cycle_weight(w, cert.witness) == cert.improvement < 0.0
    assert 50 < fails < 300 and min(split) >= 20


def test_cycle_search_finds_the_cycle_through_every_entry():
    k = 9
    w = np.full((k, k), 10.0)
    np.fill_diagonal(w, 0.0)
    for i in range(k):
        w[i, (i + 1) % k] = -1.0
    best, witness = min_improvement_cycle(w, k)
    assert witness == tuple(range(k))
    assert best == -9.0


def test_cycle_search_stops_at_the_first_predecessor_cycle():
    # Round 2 sets 3 -> 1 and 1 -> 3, a cycle of weight -2; a search run on
    # for all k rounds ends on the heavier 0 -> 1 -> 3 (weight -4) instead.
    w = np.array([[0, -1, 1, 1], [1, 0, 3, -3], [5, 4, 0, -1], [0, 1, -1, 0]], dtype=float)
    assert min_improvement_cycle(w, 4) == (-2.0, (1, 3))


def _floyd_warshall_negative(w) -> float:
    """Smallest diagonal entry of the min-plus closure of w: negative
    exactly when some cycle of w is."""
    d = np.array(w, dtype=float)
    for m in range(len(d)):
        d = np.minimum(d, d[:, m, None] + d[None, m, :])
    return float(np.diagonal(d).min())


def _cycle_search_cases():
    rng = np.random.default_rng(67)
    for _ in range(40):
        # random weights, shifted so that some matrices have no negative cycle
        k = int(rng.integers(10, 61))
        w = rng.normal(size=(k, k)) + rng.uniform(0.0, 4.0)
        np.fill_diagonal(w, 0.0)
        yield w
    for _ in range(20):
        # certify-like: w = c - diag on the entries of solved and corrupted plans
        tree = helpers.random_tree(rng, 30, 2)
        mu = helpers.random_measure(rng, tree, int(rng.integers(6, 31)))
        nu = helpers.random_measure(rng, tree, int(rng.integers(6, 31)))
        plan = T.wasserstein2(tree, mu, nu).plan
        bad = helpers.corrupt_transport_plan(rng, tree, plan)
        for p in (plan, bad):
            if p is None or not 10 <= len(p.entries) <= 60:
                continue
            e = p.entries
            c = np.array([[tree.distance(x, y) ** 2 for _, y, _ in e] for x, _, _ in e])
            yield c - np.diagonal(c)[:, None]


def test_cycle_search_matches_floyd_warshall_at_real_sizes():
    # The early stop matters at k around 55, which the enumeration above
    # cannot reach.  A plan passes when no cycle weighs less than -TOL
    # and fails only on a negative witness, so the verdict is the closure's
    # outside (-TOL, 0).  Inside, where solved plans put their rounding
    # noise, either verdict may stand, but a witness must still be valid.
    verdicts = []
    for w in _cycle_search_cases():
        k = len(w)
        closure = _floyd_warshall_negative(w)
        best, witness = min_improvement_cycle(w, k)
        verdicts.append(witness is not None)
        if not -TOL <= closure < 0.0:
            assert verdicts[-1] == (closure < 0.0)
        if witness is None:
            assert best == 0.0
            continue
        assert len(set(witness)) == len(witness) >= 2
        assert helpers.cycle_weight(w, witness) == best < 0.0
    assert len(verdicts) > 60
    assert sum(verdicts) > 20 and len(verdicts) - sum(verdicts) > 20


def _random_weights(rng, k):
    """A k x k matrix of one of three kinds: small integers (ties
    everywhere), normal floats shifted up by U(0, 4), or those floats scaled
    by 10^U(-3, 8); the diagonal is 0 in half of them."""
    kind = int(rng.integers(3))
    if kind == 0:
        w = rng.integers(-2, 4, size=(k, k))
    else:
        w = rng.normal(size=(k, k)) + rng.uniform(0.0, 4.0)
        if kind == 2:
            w *= 10.0 ** rng.uniform(-3.0, 8.0)
    if rng.integers(2):
        np.fill_diagonal(w, 0.0)
    return w


def test_cycle_search_matches_the_numpy_reference_bit_for_bit():
    # The pure-Python search repeats the numpy one's arithmetic step by
    # step: same relaxations, same ties, same walk, same summation order.
    # It reads the numpy array and the 2-D view of doubles that
    # certify_costs passes alike.
    rng = np.random.default_rng(229)
    found = 0
    for _ in range(240):
        k = int(rng.integers(1, 61))
        w = _random_weights(rng, k)
        view = memoryview(array("d", w.ravel().tolist())).cast("B").cast("d", (k, k))
        for max_cycle in (1, k):
            want = helpers.reference_min_improvement_cycle(w, max_cycle)
            for weights in (w, view):
                got = min_improvement_cycle(weights, max_cycle)
                assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (k, max_cycle)
            found += want[1] is not None
    assert 40 < found < 200


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
    cost = lambda plan: helpers.add_in_order(m * d2(x, y) for x, y, m in plan.entries)
    assert cost(p1) == pytest.approx(cost(p2), abs=1e-12)
    assert p1.entries != p2.entries
    assert T.is_cyclically_monotone(tripod, p1, full=True).passed
    assert T.is_cyclically_monotone(tripod, p2, full=True).passed
    mu = T.DiscreteMeasure.from_atoms(tripod, [(x, 0.5), (xp, 0.5)])
    nu = T.DiscreteMeasure.from_atoms(tripod, [(y, 0.5), (z, 0.5)])
    solved = T.wasserstein2(tripod, mu, nu)
    assert solved.distance**2 == pytest.approx(cost(p1), abs=1e-12)
    assert solved.plan.entries == p2.entries  # pinned tie-break: c precedes b in preorder


def _per_entry_weights(tree, plan):
    """w[e, f] = c(x_e, y_f) - c(x_e, y_e), built entry by entry with
    tree.distance: the cycle search's matrix and the reference for the
    certificate."""
    e = plan.entries
    d = [[tree.distance(x, y) for _, y, _ in e] for x, _, _ in e]
    cost = np.array([[c * c for c in row] for row in d])
    return cost - np.diagonal(cost)[:, None]


def _matches_per_entry(tree, plan) -> bool:
    # The reference is the numpy search over the per-entry matrix, not the
    # search the certificate runs.  A passing certificate is the search's
    # exactly.  A failing one has the search's verdict, but its witness may
    # be another cycle: it must be simple and weigh, on the per-entry
    # matrix, its improvement below 0.
    w = _per_entry_weights(tree, plan)
    best, witness = helpers.reference_min_improvement_cycle(w, len(w))
    cert = T.is_cyclically_monotone(tree, plan)
    assert cert.passed == (witness is None)
    assert cert.max_cycle == len(plan.entries)
    if cert.passed:
        assert (cert.witness, cert.improvement) == (None, 0.0)
    else:
        assert len(set(cert.witness)) == len(cert.witness) >= 2
        assert cert.witness[0] == min(cert.witness)
        assert helpers.cycle_weight(w, cert.witness) == cert.improvement < 0.0
    return cert.passed


def test_distinct_atom_matrix_matches_per_entry_on_solved_plans():
    rng = np.random.default_rng(71)
    verdicts, repeated = [], 0
    while len(verdicts) < 24:
        tree = helpers.random_tree(rng, 20, 2)
        mu = helpers.random_measure(rng, tree, int(rng.integers(3, 12)))
        nu = helpers.random_measure(rng, tree, int(rng.integers(3, 12)))
        plan = T.wasserstein2(tree, mu, nu).plan
        bad = helpers.corrupt_transport_plan(rng, tree, plan)
        if bad is None:
            continue
        for p in (plan, bad):
            xs, ys = [x for x, _, _ in p.entries], [y for _, y, _ in p.entries]
            repeated += len(set(xs)) < len(xs) and len(set(ys)) < len(ys)
            verdicts.append(_matches_per_entry(tree, p))
    assert verdicts == [True, False] * 12
    assert repeated >= 12


def test_distinct_atom_matrix_matches_per_entry_on_duplicated_entries():
    rng = np.random.default_rng(73)
    for _ in range(6):
        tree = helpers.random_tree(rng, 12, 1)
        mu = helpers.random_measure(rng, tree, 5)
        nu = helpers.random_measure(rng, tree, 5)
        plan = T.wasserstein2(tree, mu, nu).plan
        bad = helpers.corrupt_transport_plan(rng, tree, plan)
        for p, passed in ((plan, True), (bad, False)):
            if p is None:
                continue
            x, y, m = p.entries[0]
            split = T.TransportPlan(((x, y, m / 2),) + p.entries[1:] + ((x, y, m / 2),))
            assert _matches_per_entry(tree, split) is passed


def test_distinct_atom_matrix_matches_per_entry_on_canonical_duplicates(tripod):
    # An edge point at offset 0 and the edge's first endpoint are one point
    # but two keys; the certificate is the same either way.
    o, a, b = (tripod.vertex_point(v) for v in "oab")
    o_ea, o_eb = T.TreePoint(edge="ea", offset=0.0), T.TreePoint(edge="eb", offset=0.0)
    passing = T.TransportPlan(((o_ea, a, 0.25), (o, a, 0.25), (b, b, 0.5)))
    assert _matches_per_entry(tripod, passing)
    # a -> b with o -> o is beaten by a -> o, o -> b
    failing = T.TransportPlan(((a, b, 0.5), (o_ea, o, 0.25), (o, o_eb, 0.25)))
    assert not _matches_per_entry(tripod, failing)


def test_distinct_atom_matrix_matches_per_entry_on_projected_plans(star3):
    rng = np.random.default_rng(79)
    verdicts = []
    for _ in range(4):
        tree = helpers.random_tree(rng, 9, 1)
        mu0 = helpers.uniform_measure(rng, tree, 4)
        mu1 = helpers.uniform_measure(rng, tree, 4)
        for dyn in (T.interpolate(tree, mu0, mu1), helpers.corrupt_dynamical_plan(rng, tree, mu0, mu1)):
            if dyn is None:
                continue
            for s, t in [(0.0, 1.0), (0.25, 0.75), (0.1, 0.9)]:
                proj = T.TransportPlan(tuple((g.evaluate(s), g.evaluate(t), m) for g, m in dyn.atoms))
                verdicts.append(_matches_per_entry(tree, proj))
    # the mixed-speed plan on the star fails its projection at large times
    g = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"), speed=math.sqrt(2))
    c = star3.constant_geodesic(star3.vertex_point("o"), -math.inf, math.inf)
    for t in (1.0, 1e3):
        proj = T.TransportPlan(((g.evaluate(t), g.evaluate(-t), 0.5), (c.evaluate(t), c.evaluate(-t), 0.5)))
        verdicts.append(_matches_per_entry(star3, proj))
    assert True in verdicts and False in verdicts


# -- support-forest certificate --------------------------------------------------


def _path(n):
    names = [f"p{i}" for i in range(n)]
    tree = T.MetricTree(names, [(f"e{i}", (names[i - 1], names[i]), 1.0) for i in range(1, n)], "p0")
    return tree, [tree.vertex_point(v) for v in names]


def test_diagonal_plan_has_one_component_per_atom_and_passes():
    rng = np.random.default_rng(83)
    tree = helpers.random_tree(rng, 20, 2)
    mu = helpers.random_measure(rng, tree, 7)
    plan = T.wasserstein2(tree, mu, mu).plan
    assert plan.entries == tuple((x, x, m) for x, m in mu.atoms)
    assert helpers.support_components(plan) == 7
    assert _matches_per_entry(tree, plan)


def test_tripod_cross_component_failure(tripod):
    # a -> b with o -> o: two components, and a -> o, o -> b is cheaper.
    o, a, b = (tripod.vertex_point(v) for v in "oab")
    plan = T.TransportPlan(((a, b, 0.5), (o, o, 0.5)))
    assert helpers.support_components(plan) == 2
    cert = T.is_cyclically_monotone(tripod, plan)
    assert (cert.passed, cert.witness, cert.improvement) == (False, (0, 1), -2.0)
    assert not _matches_per_entry(tripod, plan)


def test_degenerate_solve_drops_zero_flow_cells():
    # Half of p0, p1 to p2, p3: the basis holds a zero-flow cell, which
    # the plan drops, so its support splits into two components.
    tree, p = _path(4)
    mu = T.DiscreteMeasure.from_atoms(tree, [(p[0], 0.5), (p[1], 0.5)])
    nu = T.DiscreteMeasure.from_atoms(tree, [(p[2], 0.5), (p[3], 0.5)])
    plan = T.wasserstein2(tree, mu, nu).plan
    assert plan.entries == ((p[0], p[2], 0.5), (p[1], p[3], 0.5))
    assert helpers.support_components(plan) == 2
    assert _matches_per_entry(tree, plan)
    crossed = T.TransportPlan(((p[0], p[3], 0.5), (p[1], p[2], 0.5)))
    cert = T.is_cyclically_monotone(tree, crossed)
    assert (cert.passed, cert.witness, cert.improvement) == (False, (0, 1), -2.0)


def test_duplicated_entry_passes(tripod):
    a, b, c = (tripod.vertex_point(v) for v in "abc")
    plan = T.TransportPlan(((a, b, 0.25), (c, c, 0.5), (a, b, 0.25)))
    assert helpers.support_components(plan) == 2
    assert _matches_per_entry(tripod, plan)


def test_zero_sum_support_cycle_passes(tripod):
    # x, x' on the a-leg and the leaves b, c: every pairing costs the same,
    # so the 4-cycle of all four pairs sums to zero.
    x, xp = tripod.edge_point("ea", 0.6), tripod.vertex_point("a")
    y, z = tripod.vertex_point("b"), tripod.vertex_point("c")
    plan = T.TransportPlan(((x, y, 0.25), (x, z, 0.25), (xp, y, 0.25), (xp, z, 0.25)))
    assert helpers.support_components(plan) == 1
    assert _matches_per_entry(tripod, plan)


def test_corrupted_crossing_fails_on_its_support_cycle():
    # Half the mass of p0 -> p2, p1 -> p3 crossed: the support is one
    # 4-cycle, and shifting the crossed pair back gains 4 + 4 - 9 - 1.
    tree, p = _path(4)
    bad = T.TransportPlan(
        ((p[0], p[2], 0.25), (p[0], p[3], 0.25), (p[1], p[2], 0.25), (p[1], p[3], 0.25))
    )
    assert helpers.support_components(bad) == 1
    cert = T.is_cyclically_monotone(tree, bad)
    assert (cert.passed, cert.witness, cert.improvement) == (False, (1, 2), -2.0)
    assert not _matches_per_entry(tree, bad)


def _certificate_cases():
    rng = np.random.default_rng(89)
    for _ in range(16):
        tree = helpers.random_tree(rng, 30, 2)
        if rng.integers(0, 2):
            # random masses: one component
            mu = helpers.random_measure(rng, tree, int(rng.integers(6, 31)))
            nu = helpers.random_measure(rng, tree, int(rng.integers(6, 31)))
        else:
            # uniform masses: a permutation, one component per entry
            n = int(rng.integers(10, 31))
            mu, nu = helpers.uniform_measure(rng, tree, n), helpers.uniform_measure(rng, tree, n)
        plan = T.wasserstein2(tree, mu, nu).plan
        for p in (plan, helpers.corrupt_transport_plan(rng, tree, plan)):
            if p is not None and 10 <= len(p.entries) <= 60:
                yield tree, p


def test_certificate_matches_floyd_warshall_at_real_sizes():
    # As for the cycle search: the verdict is the closure's outside
    # (-TOL, 0), and a failing witness is simple and negative.
    verdicts, split = [], 0
    for tree, plan in _certificate_cases():
        closure = _floyd_warshall_negative(_per_entry_weights(tree, plan))
        passed = _matches_per_entry(tree, plan)
        if not -TOL <= closure < 0.0:
            assert passed == (closure >= 0.0)
        verdicts.append(passed)
        split += helpers.support_components(plan) > 1
    assert len(verdicts) > 20
    assert sum(verdicts) > 8 and len(verdicts) - sum(verdicts) > 8
    assert 5 < split < len(verdicts) - 5


def test_certificate_passes_solved_plans_at_large_distances():
    # Edges of 200-2000 put the costs near 1e7, where the rounding of a
    # potential exceeds TOL / (2k): a walk arc re-checked against it,
    # or a cycle search with that slack, would fail an optimal plan.
    rng = np.random.default_rng(97)
    passed, failed, split = 0, 0, 0
    for _ in range(24):
        tree = helpers.random_tree(rng, 20, 2, min_len=200.0, max_len=2000.0)
        n = int(rng.integers(10, 21))
        if rng.integers(0, 2):
            mu, nu = helpers.random_measure(rng, tree, n), helpers.random_measure(rng, tree, n)
        else:
            mu, nu = helpers.uniform_measure(rng, tree, n), helpers.uniform_measure(rng, tree, n)
        plan = T.wasserstein2(tree, mu, nu).plan
        assert _matches_per_entry(tree, plan)
        passed += 1
        split += helpers.support_components(plan) > 1
        bad = helpers.corrupt_transport_plan(rng, tree, plan)
        if bad is not None:
            assert not _matches_per_entry(tree, bad)
            failed += 1
    assert passed == 24 and failed > 8
    assert 5 < split < 19


# -- the support check before the whole matrix -----------------------------------


def _dense_certificate(tree, plan):
    """certify_costs on the whole matrix of squared distances, with the
    sources and targets keyed as is_cyclically_monotone keys them."""
    xs: dict = {}
    ys: dict = {}
    si = [xs.setdefault(x, len(xs)) for x, _, _ in plan.entries]
    ti = [ys.setdefault(y, len(ys)) for _, y, _ in plan.entries]
    cost, _ = transport._squares(tree.distance_matrix(list(xs), list(ys)), "distance")
    return certify_costs(cost, si, ti)


def _verdict(check, tree, plan):
    """A certificate's fields, with the improvement's bits, or the type and
    message of what the check raises."""
    cert = _outcome(check, tree, plan)
    if isinstance(cert, tuple) and not isinstance(cert, T.MonotonicityCertificate):
        return cert
    return cert.passed, cert.max_cycle, cert.witness, cert.improvement.hex()


def _cyclic(plan) -> bool:
    """More distinct support pairs than sources plus targets less one."""
    pairs = {(x, y) for x, y, _ in plan.entries}
    return len(pairs) >= len({x for x, _ in pairs}) + len({y for _, y in pairs})


def _forest_plan(mu, nu):
    """The northwest-corner plan of the atoms as listed: a support forest,
    and in general not optimal."""
    corner = helpers.northwest_corner(mu.masses(), nu.masses())
    xs, ys = mu.points(), nu.points()
    return T.TransportPlan(tuple((xs[i], ys[j], q) for (i, j), q in corner.items() if q > 0.0))


def _equal_reach_plan(rng, tree):
    """Four entries, x and x2 to y and z, where x and x2 lie at the same
    distance from a vertex v on two of its edges and y, z on a third: every
    pairing costs the same up to rounding, so the support's 4-cycle gains
    nothing and the plan is optimal.  None when no vertex has three finite
    edges."""
    for v in tree.vertices:
        eids = [e for e in tree.incident_edges(v) if not tree.edge(e).infinite]
        if len(eids) >= 3:
            break
    else:
        return None
    e1, e2, e3 = (tree.edge(e) for e in eids[:3])
    t = float(rng.uniform(0.1, 0.9)) * min(e1.length, e2.length)
    at = lambda e, s: tree.edge_point(e.id, s if e.ends[0] == v else e.length - s)
    x, x2 = at(e1, t), at(e2, t)
    y, z = (at(e3, s * e3.length) for s in sorted(rng.uniform(0.1, 0.9, 2)))
    return T.TransportPlan(((x, y, 0.25), (x, z, 0.25), (x2, y, 0.25), (x2, z, 0.25)))


def _support_cases(rng, scale):
    """(kind, tree, plan) on random trees with lengths times `scale`."""
    for _ in range(12):
        tree = helpers.random_tree(rng, 30, 2, min_len=0.2 * scale, max_len=2.0 * scale)
        mu = helpers.random_measure(rng, tree, int(rng.integers(6, 16)))
        nu = helpers.random_measure(rng, tree, int(rng.integers(6, 16)))
        plan = T.wasserstein2(tree, mu, nu).plan
        yield "optimal", tree, plan
        yield "forest", tree, _forest_plan(mu, nu)
        crossed = helpers.corrupt_transport_plan(rng, tree, plan)
        if crossed is not None:
            yield "crossed", tree, crossed
        equal = _equal_reach_plan(rng, tree)
        if equal is not None:
            yield "zero-gain", tree, equal


def _spy_walks(monkeypatch):
    """Spy on the certificate's engine: each _Walks built, with whether
    its rows were the support's squares (a _SquaresRow each) rather than
    the whole matrix."""
    built: list = []
    engine = transport._Walks

    def spy(cost, *args):
        walks = engine(cost, *args)
        built.append((walks, isinstance(cost[0], transport._SquaresRow)))
        return walks

    monkeypatch.setattr(transport, "_Walks", spy)
    return built


def _support_stage(built) -> list[bool]:
    """For each walk built on the support, whether it decided there: the
    whole matrix never replaced its rows."""
    return [isinstance(w.cost[0], transport._SquaresRow) for w, on_support in built if on_support]


@pytest.mark.parametrize("scale", [1.0, 1e6, 1e-3])
def test_support_check_matches_the_dense_certificate(monkeypatch, scale):
    # Crossed optimal plans (mostly cyclic supports, decided there), forest
    # plans (the dense path), and optimal plans with a zero-gain support
    # cycle (the support passes, so the whole matrix decides), at desk scale,
    # with every length times 10^6, where the cost scale rather than TOL
    # sets the slack, and times 10^-3.
    built = _spy_walks(monkeypatch)
    rng = np.random.default_rng(131)
    seen = []
    for kind, tree, plan in _support_cases(rng, scale):
        want = _verdict(_dense_certificate, tree, plan)
        built.clear()
        assert _verdict(T.is_cyclically_monotone, tree, plan) == want
        # One walk per call.  The support check runs exactly on cyclic
        # supports, and decides only failures.
        assert len(built) == 1
        decided = _support_stage(built)
        assert len(decided) == _cyclic(plan)
        assert decided in ([], [False]) or not want[0]
        seen.append((kind, want[0], decided))
    assert {(k, p, tuple(d)) for k, p, d in seen if k in ("optimal", "forest")} == {
        ("optimal", True, ()), ("forest", False, ())
    }
    assert {(p, tuple(d)) for k, p, d in seen if k == "zero-gain"} == {(True, (False,))}
    crossed = [d for k, p, d in seen if k == "crossed" and d]
    assert len(crossed) > 6 and all(d == [True] for d in crossed)
    assert sum(k == "zero-gain" for k, _, _ in seen) > 6


def test_a_violation_inside_the_slack_bracket_takes_the_dense_path(monkeypatch):
    # Points a unit edge past a 10^6 edge: the bound on every square is
    # about 4e12, so the bracket's top is about 1.4e-2 for 8 entries, while
    # the support's squares (below 1) put its bottom at TOL / 16.  The first
    # crossing gains 2 * 0.01 * 0.005 = 1e-4, inside: the support cannot
    # decide, though the second crossing, listed after it, gains 0.48, above
    # the top.  The whole matrix, whose squares are below 1, fails the plan
    # on the first crossing.
    tree = T.MetricTree(["o", "a", "b"], [("oa", ("o", "a"), 1e6), ("ab", ("a", "b"), 1.0)], "o")
    entries = []
    for x1, x2, y1, y2 in ((0.1, 0.11, 0.5, 0.505), (0.2, 0.6, 0.3, 0.9)):
        x1, x2, y1, y2 = (tree.edge_point("ab", s) for s in (x1, x2, y1, y2))
        entries += [(x1, y1, 0.125), (x1, y2, 0.125), (x2, y1, 0.125), (x2, y2, 0.125)]
    plan = T.TransportPlan(tuple(entries))
    built = _spy_walks(monkeypatch)
    cert = T.is_cyclically_monotone(tree, plan)
    assert len(built) == 1 and _support_stage(built) == [False]
    assert not cert.passed and max(cert.witness) < 4
    assert cert.improvement == pytest.approx(-1e-4, rel=1e-6)
    assert _verdict(T.is_cyclically_monotone, tree, plan) == _verdict(_dense_certificate, tree, plan)


def test_support_check_raises_what_the_dense_matrix_raises():
    # A cyclic support with a point off the tree names the first source
    # or target canonicalised, sources first; lengths of 1e154 overflow a
    # square, and lengths of 1e308 a distance.  At 5e153 the squares fit
    # but their bound does not, and the whole matrix decides.
    tree, p = _path(4)
    cycle = lambda a, b, c, d: T.TransportPlan(((a, c, 0.25), (a, d, 0.25), (b, c, 0.25), (b, d, 0.25)))
    plans = [
        (tree, cycle(p[0], p[1], T.TreePoint(None, "nowhere", 0.5), p[3])),
        (tree, cycle(p[0], T.TreePoint("nowhere"), T.TreePoint(None, "gone", 0.5), p[3])),
    ]
    for length in (1e154, 1e308, 5e153):
        big = T.MetricTree(
            ["a", "b", "c"], [("ab", ("a", "b"), length), ("bc", ("b", "c"), length)], "a"
        )
        a, b, c = (big.vertex_point(v) for v in "abc")
        plans.append((big, cycle(a, big.edge_point("ab", length / 2), b, c)))
    # Source a's first overflowing distance in the whole matrix is to c,
    # its first one on the support to d: the bound is checked before any
    # support distance is made.
    far = T.MetricTree(
        ["a", "b", "c", "d"],
        [("ab", ("a", "b"), 1e308), ("bc", ("b", "c"), 1e308), ("cd", ("c", "d"), 1e308)],
        "a",
    )
    a, b, c, d = (far.vertex_point(v) for v in "abcd")
    y = far.edge_point("ab", 1.0)
    entries = ((a, y, 0.2), (b, c, 0.2), (a, d, 0.2), (b, d, 0.2), (a, c, 0.2))
    plans.insert(4, (far, T.TransportPlan(entries)))
    raised = []
    for tree, plan in plans:
        assert _cyclic(plan)
        want = _verdict(_dense_certificate, tree, plan)
        assert _verdict(T.is_cyclically_monotone, tree, plan) == want
        raised.append(want[0] if isinstance(want[0], type) else None)
    assert raised == [T.MalformedTree] * 2 + [NonFiniteValue] * 3 + [None]


def _read_entries(monkeypatch):
    """Spy on the distance kernel and on the scalar distance: the entries
    each call returns, one for a scalar read."""
    reads: list[int] = []
    kernel, scalar = T.MetricTree._distance_rows, T.MetricTree.distance

    def counted(self, *args):
        rows = kernel(self, *args)
        reads.append(sum(map(len, rows)))
        return rows

    def one(self, p, q):
        d = scalar(self, p, q)
        reads.append(1)
        return d

    monkeypatch.setattr(T.MetricTree, "_distance_rows", counted)
    monkeypatch.setattr(T.MetricTree, "distance", one)
    return reads


def test_a_crossed_plan_reads_its_support_and_witness_only(monkeypatch):
    # A crossing decided on its support reads each of its distinct pairs'
    # distances and the witness's cells off it, one cell per read; an
    # optimal plan, whose support is a forest, reads the whole matrix in
    # one call.
    rng = np.random.default_rng(137)
    reads = _read_entries(monkeypatch)
    crossed = 0
    for _ in range(10):
        tree = helpers.random_tree(rng, 40, 2)
        mu = helpers.random_measure(rng, tree, int(rng.integers(15, 31)))
        nu = helpers.random_measure(rng, tree, int(rng.integers(15, 31)))
        plan = T.wasserstein2(tree, mu, nu).plan
        bad = helpers.corrupt_transport_plan(rng, tree, plan)
        reads.clear()
        assert T.is_cyclically_monotone(tree, plan).passed
        assert reads == [len(mu.atoms) * len(nu.atoms)]
        if bad is None or not _cyclic(bad):
            continue
        reads.clear()
        cert = T.is_cyclically_monotone(tree, bad)
        assert not cert.passed
        pairs = len({(x, y) for x, y, _ in bad.entries})
        assert set(reads) == {1} and len(reads) <= pairs + len(cert.witness)
        assert sum(reads) < len(mu.atoms) * len(nu.atoms) / 4
        crossed += 1
    assert crossed > 5


def _spy_cycle_search(monkeypatch):
    """Spy on the search over components: what each call returns."""
    found: list = []
    search = transport.min_improvement_cycle

    def spy(weights, max_cycle):
        found.append(search(weights, max_cycle))
        return found[-1]

    monkeypatch.setattr(transport, "min_improvement_cycle", spy)
    return found


def _equal_reach_pair():
    """Two zero-gain 4-entry plans (see _equal_reach_plan) at v and at w,
    100 apart, alone and together: the pair's support has two components,
    and moving mass between them costs far more than it gains."""
    tree = T.MetricTree(
        ["v", "a", "b", "c", "w", "d", "e", "f"],
        [
            ("va", ("v", "a"), 2.0), ("vb", ("v", "b"), 2.0), ("vc", ("v", "c"), 3.0),
            ("cw", ("c", "w"), 100.0),
            ("wd", ("w", "d"), 2.0), ("we", ("w", "e"), 2.0), ("wf", ("w", "f"), 3.0),
        ],
        "v",
    )
    one = lambda s1, s2, t: (
        (tree.edge_point(s1, 0.7), tree.edge_point(t, 1.0), 0.25),
        (tree.edge_point(s1, 0.7), tree.edge_point(t, 2.0), 0.25),
        (tree.edge_point(s2, 0.7), tree.edge_point(t, 1.0), 0.25),
        (tree.edge_point(s2, 0.7), tree.edge_point(t, 2.0), 0.25),
    )
    both = [(x, y, q / 2) for x, y, q in one("va", "vb", "vc") + one("wd", "we", "wf")]
    return tree, T.TransportPlan(one("va", "vb", "vc")), T.TransportPlan(tuple(both))


def test_an_undecided_cyclic_support_is_walked_once(monkeypatch):
    # A zero-gain support cycle passes the support check, so the whole
    # matrix decides, on the walk the support check made: one walk, each
    # distinct pair's cell read once and the whole matrix read once.  The
    # two-component plan passes through the search over components too.
    rng = np.random.default_rng(139)
    tree, single, double = _equal_reach_pair()
    cases = [(tree, single, 0), (tree, double, 1)]
    for _ in range(6):
        random_tree = helpers.random_tree(rng, 12, 1)
        plan = _equal_reach_plan(rng, random_tree)
        if plan is not None:
            cases.append((random_tree, plan, 0))
    assert len(cases) > 4
    built = _spy_walks(monkeypatch)
    found = _spy_cycle_search(monkeypatch)
    reads = _read_entries(monkeypatch)
    for tree, plan, searches in cases:
        for spy in (built, found, reads):
            spy.clear()
        cert = T.is_cyclically_monotone(tree, plan)
        assert cert.passed
        assert len(built) == 1 and _support_stage(built) == [False]
        assert len(found) == searches and all(c is None for _, c in found)
        nx = len({x for x, _, _ in plan.entries})
        ny = len({y for _, y, _ in plan.entries})
        pairs = len({(x, y) for x, y, _ in plan.entries})
        assert reads == [1] * pairs + [nx * ny]
        assert _verdict(T.is_cyclically_monotone, tree, plan) == _verdict(_dense_certificate, tree, plan)


def _bracket_cases(rng):
    """Plans that the support check cannot decide, past a 10^6 edge, with
    their kind.  Component c of K (2 or 3) has two sources at reach t_c
    from vertex a on two unit edges of its own and two targets at reach in
    the c-th of K bins on a third, every pairing in the support: its 4-cycle
    gains nothing.  Between components the cost is (t + s)^2, whose cross
    term 2 t s makes the counter-monotone order of reaches optimal: bins in
    reverse order of t pass ("passed"), in the same order some cycle through
    the components gains ("failed").  "inside" plans are passing ones with a
    source moved by up to 10^-3, a gain round its component's cycle of up to
    about 10^-3, inside the bracket."""
    edges = [f"a{n}" for n in range(9)]
    tree = T.MetricTree(
        ["o", "a", *(f"v{n}" for n in range(9))],
        [("oa", ("o", "a"), 1e6)] + [(e, ("a", "v" + e[1]), 1.0) for e in edges],
        "o",
    )
    for n in range(150):
        kind = ("passed", "failed", "inside")[n % 3]
        K = int(rng.integers(2, 4))
        reach = np.sort(rng.uniform(0.1, 0.9, K))
        bins = range(K) if kind == "failed" else range(K - 1, -1, -1)
        entries = []
        for c, (t, b) in enumerate(zip(reach, bins)):
            s1, s2, s3 = edges[3 * c : 3 * c + 3]
            moved = float(rng.uniform(1e-4, 1e-3)) if kind == "inside" and c == 0 else 0.0
            x1, x2 = tree.edge_point(s1, float(t)), tree.edge_point(s2, float(t) + moved)
            y1, y2 = (tree.edge_point(s3, float(s)) for s in (b + rng.uniform(0.05, 0.95, 2)) * 0.9 / K)
            entries += [(x, y, 0.25 / K) for x in (x1, x2) for y in (y1, y2)]
        yield kind, tree, T.TransportPlan(tuple(entries))


def test_the_bracket_fallback_matches_the_dense_certificate(monkeypatch):
    # Cyclic supports of several components that the bracket cannot
    # decide: the walk made on the support's squares takes the whole
    # matrix and gives the dense certificate bit for bit, whether a pair
    # inside a component fails, or the search over the components fails
    # or passes.
    built = _spy_walks(monkeypatch)
    found = _spy_cycle_search(monkeypatch)
    rng = np.random.default_rng(149)
    for kind, tree, plan in _bracket_cases(rng):
        assert _cyclic(plan) and helpers.support_components(plan) > 1
        want = _verdict(_dense_certificate, tree, plan)
        built.clear()
        found.clear()
        assert _verdict(T.is_cyclically_monotone, tree, plan) == want
        assert len(built) == 1 and _support_stage(built) == [False]
        # The search over components runs unless a pair inside one fails.
        assert kind == ("inside" if not found else "failed" if found[0][1] else "passed")
        assert want[0] == (kind == "passed")


def test_every_crossed_plan_fails_at_large_lengths():
    # With every length times 10^6 the costs reach about 1e13 and the
    # certificate's slack is 2k ulps of them: a crossing must gain more
    # than that slack to be drawn, so every drawn plan fails.
    rng = np.random.default_rng(131)
    drawn = 0
    for _ in range(200):
        tree = helpers.random_tree(rng, 30, 2, min_len=0.2e6, max_len=2.0e6)
        mu = helpers.random_measure(rng, tree, int(rng.integers(6, 16)))
        nu = helpers.random_measure(rng, tree, int(rng.integers(6, 16)))
        bad = helpers.corrupt_transport_plan(rng, tree, T.wasserstein2(tree, mu, nu).plan)
        if bad is not None:
            assert not T.is_cyclically_monotone(tree, bad).passed
            drawn += 1
    assert drawn > 150


# -- tree order ------------------------------------------------------------------


def test_wasserstein2_does_not_depend_on_the_order_of_the_atoms():
    # The solve runs in the tree's preorder, so listing the atoms in another
    # order gives the same distance bit for bit, the same plan entries and
    # the same potential at every atom.  Spread masses make sums taken in
    # another order round differently.
    rng = np.random.default_rng(83)
    kinds = set()
    for _ in range(24):
        tree = helpers.random_tree(rng, int(rng.integers(2, 30)), int(rng.integers(1, 4)))
        sides = []
        for k in rng.integers(2, 13, 2):
            atoms = list(zip(helpers.distinct_points(rng, tree, int(k)), helpers.spread_masses(rng, int(k))))
            kinds.update(
                "vertex" if p.is_vertex() else "ray" if tree.edges[p.edge].infinite else "edge"
                for p, _ in atoms
            )
            sides.append(atoms)
        want = T.wasserstein2(tree, *(T.DiscreteMeasure.from_atoms(tree, a) for a in sides))
        for _ in range(3):
            shuffled = [[a[i] for i in rng.permutation(len(a))] for a in sides]
            mu, nu = (T.DiscreteMeasure.from_atoms(tree, a) for a in shuffled)
            got = T.wasserstein2(tree, mu, nu)
            assert got.distance.hex() == want.distance.hex()
            assert set(got.plan.entries) == set(want.plan.entries)
            for measure, atoms, pot, old in zip((mu, nu), sides, got.plan.potentials, want.plan.potentials):
                assert dict(zip(measure.points(), pot)) == dict(zip((p for p, _ in atoms), old))
    assert kinds == {"vertex", "edge", "ray"}


def test_path_solve_starts_at_the_monotone_coupling(monkeypatch):
    # On a path from the base point the tree start is the monotone coupling,
    # which is W2-optimal (Villani 2003, Thm 2.18): the simplex makes no
    # pivot.  Edges are stored in both orientations, and a
    # ray at the far end carries atoms too.
    real, pivots = transport.transportation_simplex, []

    def spy(*args, **kwargs):
        sol = real(*args, **kwargs)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(transport, "transportation_simplex", spy)
    rng = np.random.default_rng(89)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        names = [f"v{i:02d}" for i in range(n)]
        edges = [
            (f"e{i:02d}", (a, b) if rng.random() < 0.5 else (b, a), float(rng.uniform(0.2, 2.0)))
            for i, (a, b) in enumerate(zip(names, names[1:]))
        ]
        tree = T.MetricTree(names, edges + [("ray", (names[-1],), math.inf)], names[0])
        mu, nu = (
            T.DiscreteMeasure.from_atoms(
                tree, zip(helpers.distinct_points(rng, tree, int(k)), helpers.spread_masses(rng, int(k)))
            )
            for k in rng.integers(1, 10, 2)
        )
        plan = T.wasserstein2(tree, mu, nu).plan

        # the monotone coupling: the overlaps of the atoms' quantile intervals,
        # the atoms placed by breadth-first-search distance from the base point
        def quantiles(measure):
            atoms = sorted(measure.atoms, key=lambda a: helpers.bfs_distance(tree, tree.basepoint, a[0]))
            cuts = np.cumsum([0.0] + [m for _, m in atoms])
            return [(p, lo, hi) for (p, _), lo, hi in zip(atoms, cuts, cuts[1:])]

        want = {
            (x, y): min(xh, yh) - max(xl, yl)
            for x, xl, xh in quantiles(mu)
            for y, yl, yh in quantiles(nu)
            if min(xh, yh) - max(xl, yl) > 1e-9
        }
        got = {(x, y): q for x, y, q in plan.entries}
        assert got.keys() == want.keys()
        assert all(got[k] == pytest.approx(want[k], abs=1e-12) for k in want)
    assert pivots == [0] * 20



def test_line_solve_needs_no_pivot_wherever_the_base_point(monkeypatch):
    # A path with a ray at each end is a line.  Rooted anywhere on it, at a
    # vertex or inside an edge, the tree start is the monotone coupling:
    # where the two sides of the root meet, the heavier kind matched deepest
    # first against the other kind shallowest first pairs them in line
    # order.  The northwest corner in preorder does not.
    real, pivots = transport.transportation_simplex, []

    def spy(*args, **kwargs):
        sol = real(*args, **kwargs)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(transport, "transportation_simplex", spy)
    rng = np.random.default_rng(131)
    for trial in range(40):
        n = int(rng.integers(2, 12))
        names = [f"v{i:02d}" for i in range(n)]
        edges = [
            (f"e{i:02d}", (a, b) if rng.random() < 0.5 else (b, a), float(rng.uniform(0.2, 2.0)))
            for i, (a, b) in enumerate(zip(names, names[1:]))
        ] + [("r0", (names[0],), math.inf), ("r1", (names[-1],), math.inf)]
        e = edges[int(rng.integers(0, n - 1))]
        base = names[int(rng.integers(0, n))] if trial % 2 else T.TreePoint(edge=e[0], offset=e[2] * 0.4)
        tree = T.MetricTree(names, edges, base)
        mu, nu = (
            T.DiscreteMeasure.from_atoms(
                tree, zip(helpers.distinct_points(rng, tree, int(k)), helpers.spread_masses(rng, int(k)))
            )
            for k in rng.integers(1, 10, 2)
        )
        T.wasserstein2(tree, mu, nu)
    assert pivots == [0] * 40

def _strongly_feasible(cells, m, n):
    """Independent check of a basis (i, j) -> mass: m + n - 1 cells, every
    row and column reached from column 0, masses finite and >= 0, and a zero
    mass only on a cell hanging a row from its column."""
    near = {}
    for (i, j), q in cells.items():
        near.setdefault(("row", i), []).append((("col", j), q))
        near.setdefault(("col", j), []).append((("row", i), q))
    reached, todo = {("col", 0)}, [("col", 0)]
    while todo:
        node = todo.pop()
        for other, q in near.get(node, []):
            if other in reached:
                continue
            if not (0.0 < q < math.inf or (other[0] == "row" and q == 0.0)):
                return False
            reached.add(other)
            todo.append(other)
    return len(cells) == m + n - 1 and len(reached) == m + n


def _start_instances(rng):
    """Random trees with atoms at vertices, inside edges and on rays, three
    on one edge and three on one ray, atoms shared by both measures, and
    every second base point inside an edge; masses uniform (degenerate),
    random, random at the 12 decimals the CLI prints, and pushforwards of an
    interpolation."""
    for k in range(30):
        tree = helpers.random_tree(rng, int(rng.integers(2, 12)), int(rng.integers(1, 3)))
        edges = [(e.id, e.ends, e.length) for e in tree.edges.values()]
        finite = sorted(e.id for e in tree.edges.values() if not e.infinite)
        if k % 2:
            e = tree.edges[finite[int(rng.integers(0, len(finite)))]]
            tree = T.MetricTree(tree.vertices, edges, tree.edge_point(e.id, e.length * rng.uniform(0.1, 0.9)))
        edge = tree.edges[finite[int(rng.integers(0, len(finite)))]]
        ray = tree.ends()[int(rng.integers(0, len(tree.ends())))].edge
        pool = helpers.distinct_points(rng, tree, int(rng.integers(4, 14)))
        pool += [tree.edge_point(edge.id, edge.length * f) for f in (0.2, 0.5, 0.7)]
        pool += [tree.edge_point(ray, f) for f in (0.5, 1.5, 4.0)]
        sides = []
        for _ in range(2):
            pts = [pool[i] for i in rng.permutation(len(pool))[: int(rng.integers(2, len(pool) + 1))]]
            masses = helpers.spread_masses(rng, len(pts)) if k % 3 else [1.0 / len(pts)] * len(pts)
            if k % 3 == 2:
                masses = [round(q, 12) for q in masses]
            sides.append(T.DiscreteMeasure.from_atoms(tree, zip(pts, masses)))
        yield tree, *sides
        dyn = T.interpolate(tree, *sides)
        for s, t in [(0.0, 0.25), (0.25, 0.75), (0.5, 1.0)]:
            yield tree, T.pushforward_at(dyn, s), T.pushforward_at(dyn, t)


def test_tree_start_is_strongly_feasible_and_exact(monkeypatch):
    # The tree start is a strongly feasible spanning tree whose marginals are
    # the masses within a few ulps, the columns' scaled to the rows' total as
    # in the northwest corner, and the solve from it reaches the value of the
    # solve from the northwest corner.
    real, starts = transport._tree_start, []

    def spy(tree, points, sides, m, masses):
        cells = real(tree, points, sides, m, masses)
        starts.append((m, len(points) - m, masses, cells))
        return cells

    monkeypatch.setattr(transport, "_tree_start", spy)
    rng = np.random.default_rng(113)
    worst, instances, shared, unequal, kinds = 0.0, 0, 0, 0, set()
    for tree, mu, nu in _start_instances(rng):
        instances += 1
        shared += bool(set(mu.points()) & set(nu.points()))
        unequal += helpers.add_in_order(mu.masses()) != helpers.add_in_order(nu.masses())
        kinds.update(
            "vertex" if p.is_vertex() else "ray" if tree.edges[p.edge].infinite else "edge"
            for p in mu.points() + nu.points()
        )
        got = T.wasserstein2(tree, mu, nu).distance
        m, n, masses, cells = starts[-1]
        assert _strongly_feasible(cells, m, n)
        rows = _sums_by_key((i, q) for (i, _), q in cells.items())
        cols = _sums_by_key((m + j, q) for (_, j), q in cells.items())
        scale = helpers.add_in_order(masses[:m]) / helpers.add_in_order(masses[m:])
        want = masses[:m] + [q * scale for q in masses[m:]]
        gaps = [abs({**rows, **cols}[t] - q) for t, q in enumerate(want)]
        worst = max(worst, *gaps)
        xs, ys = mu.points(), nu.points()
        rows, cols = tree._preorder(xs)[0], tree._preorder(ys)[0]
        want = transport.w2_from_distances(
            tree.distance_matrix([xs[i] for i in rows], [ys[j] for j in cols]),
            start=helpers.northwest_corner([mu.atoms[i][1] for i in rows], [nu.atoms[j][1] for j in cols]),
        )[0]
        assert abs(got - want) <= 1e-12 * want
    assert instances == 120 and shared > 60 and unequal > 40
    assert kinds == {"vertex", "edge", "ray"}
    assert worst <= 4 * math.ulp(1.0)


def test_start_pivot_totals_are_pinned(monkeypatch):
    # Pivot totals over seeded 25 x 25 instances on 200-vertex trees with
    # three rays: the tree start leaves about a third of the pivots of the
    # northwest corner in preorder.
    real, pivots = transport.transportation_simplex, []

    def spy(*args, **kwargs):
        sol = real(*args, **kwargs)
        pivots.append(sol.pivots)
        return sol

    monkeypatch.setattr(transport, "transportation_simplex", spy)
    rng = np.random.default_rng(127)
    tree_start = northwest = 0
    for _ in range(6):
        tree = helpers.random_tree(rng, 200, 3)
        mu, nu = (helpers.random_measure(rng, tree, 25) for _ in range(2))
        T.wasserstein2(tree, mu, nu)
        tree_start += pivots[-1]
        xs, ys = mu.points(), nu.points()
        rows, cols = tree._preorder(xs)[0], tree._preorder(ys)[0]
        transport.w2_from_distances(
            tree.distance_matrix([xs[i] for i in rows], [ys[j] for j in cols]),
            start=helpers.northwest_corner([mu.atoms[i][1] for i in rows], [nu.atoms[j][1] for j in cols]),
        )
        northwest += pivots[-1]
    assert (tree_start, northwest) == (182, 694)


def test_warm_start_chains_over_one_supply_and_demand():
    # An earlier solve's final basis is a strongly feasible start for any
    # cost over the same supply and demand: chains of 5 cost matrices, each
    # solved from the cells the previous solve ended on, with signed and
    # tied costs and degenerate (uniform) masses.
    rng = np.random.default_rng(223)
    for chain in range(40):
        m, n = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        if chain % 2:
            supply, demand = [1.0 / m] * m, [1.0 / n] * n
        else:
            supply, demand = helpers.spread_masses(rng, m), helpers.spread_masses(rng, n)
        start = helpers.northwest_corner(supply, demand)
        for _ in range(5):
            if rng.random() < 0.5:
                cost = rng.integers(-3, 4, size=(m, n)).astype(float).tolist()
            else:
                cost = rng.normal(0.0, 5.0, size=(m, n)).tolist()
            cold = _from_corner(supply, demand, cost)
            warm = transportation_simplex(cost, start=start)
            certify_duals(cost, warm)
            assert abs(warm.value - cold.value) <= 1e-12 * max(1.0, abs(cold.value))
            rows = _sums_by_key((i, q) for (i, _), q in warm.cells.items())
            cols = _sums_by_key((j, q) for (_, j), q in warm.cells.items())
            assert all(abs(rows[i] - s) <= 4 * math.ulp(1.0) for i, s in enumerate(supply))
            assert all(abs(cols[j] - d) <= 4 * math.ulp(1.0) for j, d in enumerate(demand))
            start = warm.cells


def test_simplex_rejects_a_start_that_is_not_strongly_feasible():
    cost = [[0.0, 1.0, 4.0], [1.0, 0.0, 1.0]]
    supply, demand = [0.5, 0.5], [0.25, 0.5, 0.25]
    good = {(0, 0): 0.25, (0, 1): 0.25, (1, 1): 0.25, (1, 2): 0.25}
    sol = transportation_simplex(cost, start=good)
    assert sol.value == _from_corner(supply, demand, cost).value
    bad = [
        # a cycle through rows 0, 1 and columns 0, 1; column 2 is not reached
        {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.0, (1, 1): 0.25},
        # a missing cell
        {(0, 0): 0.25, (0, 1): 0.25, (1, 2): 0.25},
        # column 1 hangs from row 0 by a cell without mass
        {(0, 0): 0.25, (0, 1): 0.0, (0, 2): 0.25, (1, 1): 0.5},
    ]
    for start in bad:
        with pytest.raises(T.SolverFailure, match="^start is not a strongly feasible spanning tree$"):
            transportation_simplex(cost, start=start)


# -- fixed-order sums ------------------------------------------------------------


def test_transport_sums_add_in_order():
    # sum() of floats is compensated from Python 3.12 on; these sums add
    # left to right on every interpreter, and the inputs tell the orders apart.
    rng = np.random.default_rng(105)
    tree = helpers.random_tree(rng, 40, 2)
    pts = helpers.distinct_points(rng, tree, 60)
    ms, ns = helpers.spread_masses(rng, 30), helpers.spread_masses(rng, 30)
    mu = T.DiscreteMeasure.from_atoms(tree, zip(pts[:30], ms))
    nu = T.DiscreteMeasure.from_atoms(tree, zip(pts[30:], ns))
    d2 = lambda p, q: helpers.squared_distance(tree, p, q)

    terms = [m * d2(tree.basepoint, p) for p, m in mu.atoms]
    assert math.fsum(terms) != helpers.add_in_order(terms)
    assert mu.second_moment(tree) == helpers.add_in_order(terms)

    # The orders are told apart on the terms of the solve whose value is
    # checked, not on another solve's plan, whose masses may move by ulps.
    cost = [[d2(x, y) for y in nu.points()] for x in mu.points()]
    sol = _from_corner(mu.masses(), nu.masses(), cost)
    terms = [q * cost[i][j] for (i, j), q in sol.cells.items()]
    assert math.fsum(terms) != helpers.add_in_order(terms)
    assert sol.value == helpers.add_in_order(terms)
    # one row carries every demand, rescaled to the supply
    row = _from_corner([0.5], ns, cost[:1])
    scale = 0.5 / helpers.add_in_order(ns)
    assert [row.cells[0, j] for j in range(30)] == [d * scale for d in ns]

    tenths = [0.1] * 11
    assert math.fsum(tenths) != helpers.add_in_order(tenths)
    with pytest.raises(MarginalMismatch, match=f"masses sum to {helpers.add_in_order(tenths)}, "):
        T.DiscreteMeasure.from_atoms(tree, zip(pts, tenths))


def test_sums_by_key_adds_left_to_right_in_first_seen_order():
    sums = _sums_by_key([("b", 1e16), ("a", 0.25), ("b", 1.0), ("c", 0.5), ("b", -1e16), ("a", 0.5)])
    assert list(sums) == ["b", "a", "c"]
    # left to right 1e16 + 1.0 rounds back to 1e16; a compensated sum gives 1.0
    assert sums["b"] == helpers.add_in_order([1e16, 1.0, -1e16]) == 0.0
    assert math.fsum([1e16, 1.0, -1e16]) == 1.0
    assert sums["a"] == 0.75 and sums["c"] == 0.5

    # a negated mass gives the bits of the subtraction
    rng = np.random.default_rng(106)
    for x, y in rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-20, 20, (200, 2)):
        x, y = float(x), float(y)
        assert _sums_by_key([(0, x), (0, -y)])[0].hex() == (x - y).hex()
    assert _sums_by_key([(0, 0.1), (0, -0.3)])[0].hex() == (0.1 - 0.3).hex()


# -- marginal checks -------------------------------------------------------------------


@pytest.mark.parametrize("entries, message", [
    (lambda a, b, c: [(a, b, 0.5)], "row sum at TreePoint('a') differs from source mass"),
    (lambda a, b, c: [(a, c, 1.0)], "column sum at TreePoint('b') differs from target mass"),
    (lambda a, b, c: [(a, b, 1.0), (c, c, 0.5)], "plan carries mass outside the marginals"),
    (lambda a, b, c: [(a, b, 1.0), (c, c, -0.5)], "plan carries mass outside the marginals"),
    # a NaN sum fails every comparison, so each check is written to fail on it
    (lambda a, b, c: [(a, b, math.nan)], "row sum at TreePoint('a') differs from source mass"),
    (lambda a, b, c: [(a, b, 1.0), (c, b, math.nan)], "column sum at TreePoint('b') differs from target mass"),
    (lambda a, b, c: [(a, b, 1.0), (c, c, math.nan)], "plan carries mass outside the marginals"),
])
def test_check_marginals_rejections(tripod, entries, message):
    a, b, c = (tripod.vertex_point(v) for v in "abc")
    mu, nu = T.DiscreteMeasure.dirac(tripod, a), T.DiscreteMeasure.dirac(tripod, b)
    with pytest.raises(MarginalMismatch, match=f"^{re.escape(message)}$"):
        T.TransportPlan(tuple(entries(a, b, c))).check_marginals(mu, nu)

