"""Exact discrete quadratic optimal transport on a metric tree.

The solver is a network simplex on the bipartite transportation problem,
written here rather than delegated to a library: it must handle costs of
either sign, keep dual variables for an optimality certificate, and pivot
deterministically so that outputs are byte-stable.  The basis is a spanning
tree over rows and columns with parent and depth arrays.  Every solve
starts from a basis its caller gives, which carries the masses and which
the simplex checks: _tree_start, a strongly feasible basis matched
bottom-up in the tree, which is exact, W1-optimal and on a path
W2-optimal, or the final basis of an earlier solve over the same masses
(the asymptotic check chains its solves so, from one tree start).  The
entering cell's cycle is found by walking up to the lowest common ancestor,
and after a pivot only the potentials of the re-hung subtree are updated.
Pricing is block search (as in LEMON and Bonneel et al. 2011): each pass
prices blocks of about sqrt(m n) cells, whole rows at a time from a cursor
that persists across pivots, and the most negative cell of the first block
holding an improving one enters.  The leaving cell is the last blocking cell
met from the cycle's apex, which keeps the basis strongly feasible
(Cunningham 1976) and rules out cycling without any random choice.

Cyclical monotonicity is certified by potentials: a plan is optimal for a
cost c iff no finite family of its pairs can lower the total cost by
shifting targets along a cycle, iff potentials exist with phi(x) + psi(y) <=
c(x, y) everywhere and equality on the support (Villani 2009, Thm 5.10).
certify_costs decides this for any cost matrix, of either sign;
is_cyclically_monotone hands it the squared distances over a plan's distinct
sources and targets.  One walk per component of the bipartite support graph
sets the potentials, and one pass over the reduced costs c - phi - psi
decides a connected support, or finds a failing pair whose cycle through the
walk is a simple violating witness.  Every certificate walks once, in
_Walks.  On a support with a cycle the walk first runs on the support's own
squared distances, before the whole matrix is made: its pairs against a
bracket that must hold the whole matrix's slack, from a proven bound on
every squared distance, so that a clear violation is decided there with the
same witness (a float filter, Shewchuk 1997); anything closer hands the
same walk the whole matrix.  Only a support of several components needs
more: a Bellman-Ford search over the components
(min_improvement_cycle, Ahuja, Magnanti & Orlin 1993, ch. 5), in pure
Python like the rest of the package, which imports nothing outside the
standard library.

The tolerances of the simplex and of both certificates scale with the cost
scale, the largest |c| of the cost matrix, or inf when any entry is NaN or
infinite, which each of them rejects; _cost_scale is the one place that rule
is written.  The scale is read once per matrix, where the costs are made:
_squares returns the squared distances with their largest square, which
w2_from_distances and is_cyclically_monotone hand on as the `scale` keyword
of solve_transport (which gives it to transportation_simplex and
certify_duals) and of certify_costs.  Called without it, each of these reads
the scale itself, once.

Every sum of masses by key in the package (the atoms of a measure, a
plan's marginals, the signed end masses of the flows, the gaps between two
mass assignments) goes through _sums_by_key, which adds left to right with
the keys in first-seen order, so that equal inputs give equal bits.
"""

from __future__ import annotations

import math
from array import array
from functools import reduce
from itertools import chain
from operator import add, ge, sub
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import MarginalMismatch, NonFiniteValue, SolverFailure
from .metric_tree import DUST, TOL, MetricTree, TreePoint

# Relative slack of a self-check against a recomputation (solver duals, the
# Radon re-transform), DUAL_TOL * (1 + the largest magnitude in the data): it
# must survive the squared distances at the asymptotic sampling times.
DUAL_TOL = 1e-7


def _arc_slack(n: int, scale: float) -> float:
    """Slack per arc of a check on cycles of up to n arcs: TOL / n, so
    that no cycle passing it weighs less than -TOL, or n ulps of the
    cost scale where that is more.  Potentials summed from n costs of that
    scale round by about that much, which at large distances (costs above
    4.5e6 / n^2) exceeds TOL / n and would fail optimal plans."""
    return max(TOL / n, n * scale * 2.0**-52)


def _add_in_order(values) -> float:
    """Left-to-right float sum.  ``sum`` of floats is compensated from Python
    3.12 on, which would make the printed values depend on the interpreter."""
    return reduce(add, values, 0.0)


def _sums_by_key(pairs: Iterable[tuple[Hashable, float]]) -> dict:
    """The masses of (key, mass) pairs added at each key, left to right,
    with the keys in first-seen order.  A difference of two mass
    assignments is the sum of one with the other's masses negated: IEEE 754
    defines x - y as x + (-y), bit for bit."""
    sums: dict = {}
    for key, m in pairs:
        sums[key] = sums.get(key, 0.0) + m
    return sums


def _merge_atoms(
    atoms: Iterable[tuple[Hashable, float]], what: str, empty: str | None = None
) -> list:
    """Merge atoms with equal keys (first-seen order), check that they make a
    probability measure, and drop the dust, the merged masses at or below
    DUST.

    The total mass is taken *before* the dust is dropped and must be within
    TOL of 1, else MarginalMismatch("<what> sum to <total>, expected
    1"): a measure spread over many tiny atoms can shed more than its
    tolerance as dust.  With `empty` given, no atom left raises that message
    first.  A merged mass below -DUST is not dust and raises, and so does a
    NaN or infinite mass, which no comparison would catch.
    """
    checked = []
    for key, m in atoms:
        m = float(m)
        if not math.isfinite(m):
            raise MarginalMismatch(f"non-finite mass {m} at {key!r}")
        checked.append((key, m))
    merged = _sums_by_key(checked)
    for key, m in merged.items():
        if m < -DUST:
            raise MarginalMismatch(f"negative mass {m} at {key!r}")
    total = _add_in_order(merged.values())
    kept = [(k, m) for k, m in merged.items() if m > DUST]
    if empty is not None and not kept:
        raise MarginalMismatch(empty)
    if abs(total - 1.0) > TOL:
        raise MarginalMismatch(f"{what} sum to {total}, expected 1")
    return kept


def _squares(rows: Iterable[Iterable[float]], what: str) -> tuple[list[list[float]], float]:
    """The squares `x * x` of a matrix's entries (rows not empty), each the
    correctly rounded product, and their scale, the largest square (see
    _cost_scale).  `x ** 2` would go through the C library's `pow`, which is
    not correctly rounded on every platform (glibc 2.36 squares 152 of
    200,000 uniform doubles on [0, 100) one ulp off), so the bytes would
    depend on the platform.  A NaN square raises NonFiniteValue naming
    `what`, and so does a square beyond the float range (an entry beyond
    about 1.3e154, or an infinite one), so the scale is always finite and
    the solver and the certificates take it as it is rather than read the
    squares again."""
    squares = [[x * x for x in row] for row in rows]
    # Squares are >= 0, so a row sum is NaN exactly when the row holds a NaN.
    if math.isnan(sum(map(sum, squares))):
        raise NonFiniteValue(f"a squared {what} is not a number")
    scale = max(map(max, squares), default=0.0)
    if scale == math.inf:
        raise NonFiniteValue(f"a squared {what} exceeds the float range")
    return squares, scale


def _cost_scale(cost: Sequence[Sequence[float]]) -> float:
    """The scale of a cost matrix, which sets the tolerances of the simplex
    and of both certificates: its largest |c|, or inf when any entry is NaN
    or infinite (0.0 for no entries).  This is the one place the rule is
    written; a caller that made the costs with _squares has the scale
    already and hands it on as the `scale` keyword."""
    return max((abs(c) if c == c else math.inf for row in cost for c in row), default=0.0)


def _solver_scale(cost: Sequence[Sequence[float]], scale: float | None) -> float:
    """The cost scale the simplex and certify_duals work to: `scale` when
    the caller has it, else _cost_scale(cost).  One that is not finite,
    from a NaN or infinite cost, raises SolverFailure("non-finite cost")."""
    if scale is None:
        scale = _cost_scale(cost)
    if not scale < math.inf:
        raise SolverFailure("non-finite cost")
    return scale


class DiscreteMeasure(NamedTuple):
    """Finitely supported probability measure on tree points."""

    atoms: tuple[tuple[TreePoint, float], ...]

    @staticmethod
    def from_atoms(tree: MetricTree, atoms) -> "DiscreteMeasure":
        kept = _merge_atoms(((tree.canonical_point(p), m) for p, m in atoms), "masses")
        return DiscreteMeasure(tuple(kept))

    @staticmethod
    def dirac(tree: MetricTree, p: TreePoint) -> "DiscreteMeasure":
        return DiscreteMeasure(((tree.canonical_point(p), 1.0),))

    def points(self) -> list[TreePoint]:
        return [p for p, _ in self.atoms]

    def masses(self) -> list[float]:
        return [m for _, m in self.atoms]

    def mass_at(self, p: TreePoint) -> float:
        return dict(self.atoms).get(p, 0.0)

    def second_moment(self, tree: MetricTree) -> float:
        """Second moment about the tree's base point, each square the
        correctly rounded `d * d` (see _squares)."""
        distances = [tree.distance(tree.basepoint, p) for p, _ in self.atoms]
        return _add_in_order(m * (d * d) for d, (_, m) in zip(distances, self.atoms))


class TransportPlan(NamedTuple):
    """Coupling given by its support entries (source, target, mass).

    Row sums are the source masses and column sums the target masses; the
    optional potentials are the duals of the solver run that produced the
    plan, returned for callers that check them.  ``is_cyclically_monotone``
    does not read them: it derives its own from the support.
    """

    entries: tuple[tuple[TreePoint, TreePoint, float], ...]
    potentials: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def check_marginals(self, mu: DiscreteMeasure, nu: DiscreteMeasure) -> None:
        row = _sums_by_key((x, m) for x, _, m in self.entries)
        col = _sums_by_key((y, m) for _, y, m in self.entries)
        # Written as `not ... <= TOL`, so that a NaN sum fails too.
        for p, m in mu.atoms:
            if not abs(row.pop(p, 0.0) - m) <= TOL:
                raise MarginalMismatch(f"row sum at {p!r} differs from source mass")
        for p, m in nu.atoms:
            if not abs(col.pop(p, 0.0) - m) <= TOL:
                raise MarginalMismatch(f"column sum at {p!r} differs from target mass")
        if not all(abs(m) <= TOL for m in (*row.values(), *col.values())):
            raise MarginalMismatch("plan carries mass outside the marginals")


class SimplexSolution(NamedTuple):
    value: float
    cells: dict  # (i, j) -> mass, basic cells only
    u: list[float]
    v: list[float]
    pivots: int = 0
    degenerate_pivots: int = 0  # pivots that moved no mass
    priced: int = 0  # cells read by the pricing passes


def transportation_simplex(
    cost: Sequence[Sequence[float]], *, start: dict, scale: float | None = None
) -> SimplexSolution:
    """Minimize sum x_ij c_ij over the transportation polytope.

    Network simplex on a spanning tree whose nodes are the rows 0..m-1 and
    the columns m..m+n-1, rooted at column 0.  Costs may be negative.
    Entering cell, by block search: a pass prices blocks of max(1, isqrt(m
    n) // n) whole rows, cyclically from a row cursor that persists across
    pivots, and stops after the first block holding a reduced cost below
    -DUST * (1 + scale), with the cost scale (see below);
    the most negative cell priced in the pass enters, the first row priced
    and then the lowest j winning ties.  A pass that prices all m rows
    without a candidate proves optimality.  Leaving cell: the last blocking
    cell met when the cycle is traversed from its apex along the entering
    cell, which keeps the basis strongly feasible (Cunningham 1976) and so
    rules out cycling.  The returned duals satisfy u_i + v_j = c_ij on the
    basis; column masses must be positive for the anti-cycling guarantee.
    `priced` counts the cells the pricing passes read.

    The m x n problem is read off `cost`, and its masses off `start`, the
    starting basis as a dict (i, j) -> mass of basic cells: _tree_start's,
    or the `cells` of an earlier solve over the same masses, whose final
    basis is strongly feasible from column 0.  The start is checked before
    any pivot: exactly m + n - 1 cells, every row and column reached from
    column 0, every mass finite and >= 0, and a zero mass only on a cell
    hanging a row from its column.  Any other start raises
    SolverFailure("start is not a strongly feasible spanning tree").

    `scale` is the cost scale, _cost_scale(cost), handed on by a caller that
    has it already (_squares returns it with the squares); without it the
    costs are read here once.  A scale that is not finite, from a NaN or
    infinite cost, raises SolverFailure("non-finite cost").
    """
    m, n = len(cost), len(cost[0])
    eps = DUST * (1.0 + _solver_scale(cost, scale))

    # Node k != root hangs from parent[k] by the basic cell joining them,
    # which carries flow[k]; pot holds u (rows) then v (columns).
    root = m
    parent = [-1] * (m + n)
    flow = [0.0] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)

    # The start, hung from the root breadth first (a node is reached once
    # its parent is set; the root's is never read).
    parent[root] = root
    near: list[list] = [[] for _ in range(m + n)]
    for (i, j), q in start.items():
        if 0 <= i < m and 0 <= j < n:
            near[i].append((m + j, q))
            near[m + j].append((i, q))
    order = [root]
    for k in order:
        for l, q in near[k]:
            if parent[l] < 0:
                parent[l], flow[l] = k, q
                order.append(l)
    strong = all(0.0 < flow[k] < math.inf or (k < m and flow[k] == 0.0) for k in order[1:])
    if len(start) != m + n - 1 or len(order) != m + n or not strong:
        raise SolverFailure("start is not a strongly feasible spanning tree")
    children = [[] for _ in range(m + n)]
    for k in range(m + n):
        if k != root:
            children[parent[k]].append(k)

    def hang(stack):
        # depth and potential of every node below the stack, from its parent's
        while stack:
            k = stack.pop()
            p = parent[k]
            depth[k] = depth[p] + 1
            pot[k] = (cost[k][p - m] if k < m else cost[p][k - m]) - pot[p]
            stack.extend(children[k])

    hang(list(children[root]))
    # Block search (see the docstring).  The potentials do not change within
    # a pass, so a pass that wraps all m rows without a candidate proves
    # optimality exactly as a full scan would.
    block = max(1, math.isqrt(m * n) // n)
    cursor = pivots = degenerate = priced = 0
    while True:
        v = pot[m:]
        best, row, i = -eps, -1, cursor
        for scanned in range(1, m + 1):
            low = min(map(sub, cost[i], v))
            if low - pot[i] < best:
                best, row, row_low = low - pot[i], i, low
            i = i + 1 if i + 1 < m else 0
            if row >= 0 and scanned % block == 0:
                break
        cursor = i
        priced += scanned * n
        if row < 0:
            break
        if pivots == 2000 * (m + n) + 1000:
            raise SolverFailure("transportation simplex did not converge")
        pivots += 1

        # The cycle: both ends of the entering cell up to their apex.
        i, j = row, list(map(sub, cost[row], v)).index(row_low)
        up_row, up_col = [], []
        k, l = i, m + j
        while k != l:
            if depth[k] >= depth[l]:
                up_row.append(k)
                k = parent[k]
            else:
                up_col.append(l)
                l = parent[l]
        # Mass leaves cells hanging a row on the row side and a column on
        # the column side; ties go to the cell met last from the apex.
        theta, out, side = math.inf, None, None
        for k in up_row:
            if k < m and flow[k] < theta:
                theta, out, side = flow[k], k, up_row
        for k in up_col:
            if k >= m and flow[k] <= theta:
                theta, out, side = flow[k], k, up_col
        for k in up_row:
            flow[k] += -theta if k < m else theta
        for k in up_col:
            flow[k] += theta if k < m else -theta
        degenerate += theta == 0.0

        # Cut the leaving cell and re-hang its side from the entering cell,
        # reversing the path between them; only that subtree's potentials move.
        prev, carried = (m + j if side is up_row else i), theta
        for k in side[: side.index(out) + 1]:
            children[parent[k]].remove(k)
            children[prev].append(k)
            parent[k] = prev
            flow[k], carried = carried, flow[k]
            prev = k
        hang([side[0]])

    cells = {
        ((k, parent[k] - m) if k < m else (parent[k], k - m)): flow[k]
        for k in range(m + n)
        if k != root
    }
    value = _add_in_order(q * cost[i][j] for (i, j), q in cells.items())
    return SimplexSolution(value, cells, pot[:m], pot[m:], pivots, degenerate, priced)


class W2Result(NamedTuple):
    distance: float
    plan: TransportPlan


def solve_transport(
    cost: Sequence[Sequence[float]], *, start: dict, scale: float | None = None
) -> tuple[float, list[tuple[int, int, float]], SimplexSolution]:
    """Exact transport for a cost matrix from a starting basis that carries
    the masses (see transportation_simplex); returns the optimal value,
    index-level entries and the raw simplex solution.

    Optimality is certified on the same cost matrix before returning (see
    certify_duals).  The cost scale, `scale` when given (_squares returns
    it) and else read here once with _cost_scale, goes to both."""
    if scale is None:
        scale = _cost_scale(cost)
    sol = transportation_simplex(cost, start=start, scale=scale)
    certify_duals(cost, sol, scale=scale)
    entries = [
        (i, j, q) for (i, j), q in sorted(sol.cells.items()) if q > DUST
    ]
    return sol.value, entries, sol


def wasserstein2(tree: MetricTree, mu: DiscreteMeasure, nu: DiscreteMeasure) -> W2Result:
    """Quadratic Wasserstein distance and an optimal plan.

    The atoms of each measure are solved in the tree's preorder (see
    ``MetricTree._preorder``), and the simplex starts from the basis that
    _tree_start matches bottom-up in the tree: on a path it is the
    monotone coupling, which is optimal (Villani 2003, Thm 2.18), and
    elsewhere it starts close.  Distinct atoms have distinct
    keys, so the distance, the plan and the potentials do not depend on the
    order in which the atoms are listed.  The entries come back in the order
    of the atoms' indices, and the potentials by atom, the first column in
    tree order at 0.

    Optimality is certified by dual feasibility before returning: the duals
    of the final basis must pass certify_duals, u_i + v_j <= c_ij + slack
    everywhere and complementary slackness on the support.  Ties between
    optimal plans are broken by the solver's deterministic pivoting; the
    returned plan is deterministic but not mathematically canonical.
    """
    xs, ys = mu.points(), nu.points()
    (rows, x_sides, px), (cols, y_sides, py) = tree._preorder(xs), tree._preorder(ys)
    a, b = [mu.atoms[i][1] for i in rows], [nu.atoms[j][1] for j in cols]
    start = _tree_start(tree, px + py, x_sides + y_sides, len(px), a + b)
    distances = tree._distance_rows(px, x_sides, py, y_sides)
    distance, entries, sol = w2_from_distances(distances, start=start)
    entries = sorted((rows[i], cols[j], q) for i, j, q in entries)
    u, v = dict(zip(rows, sol.u)), dict(zip(cols, sol.v))
    plan = TransportPlan(
        tuple((xs[i], ys[j], q) for i, j, q in entries),
        potentials=(tuple(u[i] for i in range(len(xs))), tuple(v[j] for j in range(len(ys)))),
    )
    return W2Result(distance, plan)


def w2_from_distances(
    distances: Sequence[Sequence[float]], what: str = "distance", *, start: dict
) -> tuple[float, list[tuple[int, int, float]], SimplexSolution]:
    """Transport for the squared entries of a distance matrix: the square
    root of the optimal value, then solve_transport's entries and solution.
    A NaN square or one beyond the float range raises NonFiniteValue
    naming `what`.  `start` goes to the simplex (see
    transportation_simplex), and the squares' scale, which _squares reads
    as it makes them, to the simplex and the dual check."""
    cost, scale = _squares(distances, what)
    value, entries, sol = solve_transport(cost, start=start, scale=scale)
    return math.sqrt(max(0.0, value)), entries, sol


def _integer_masses(masses: Sequence[float], m: int) -> tuple[list[int], int]:
    """The first m masses (rows) and the rest (columns) as integers over
    2^shift, and shift: the columns' masses scaled to the rows' total, 53
    bits above the least mass's exponent,
    and the largest item absorbing the imbalance that the rounding of
    floats leaves, so that both kinds have the same integer total."""
    scale = _add_in_order(masses[:m]) / _add_in_order(masses[m:])
    masses = [*masses[:m], *(q * scale for q in masses[m:])]
    shift = 53 - math.frexp(min(masses))[1]
    amt = [int(math.ldexp(q, shift)) for q in masses]
    gap = sum(amt[:m]) - sum(amt[m:])
    top = max(range(len(amt)), key=amt.__getitem__)
    amt[top] += gap if top >= m else -gap
    return amt, shift


def _tree_start(
    tree: MetricTree,
    points: Sequence[TreePoint],
    sides: Sequence[tuple],
    m: int,
    masses: Sequence[float],
) -> dict:
    """A strongly feasible starting basis for transporting the first m of
    the canonical `points` (rows) to the rest (columns), both in the tree's
    preorder, with their `masses` and their ``MetricTree._side``: its m + n
    - 1 cells, (i, j) -> mass.

    Every atom is an item, matched bottom-up in the virtual tree of the
    atoms: their anchors (a vertex, the deeper endpoint of the edge holding
    an atom, a ray's attachment) and the LCAs of preorder-consecutive
    anchors.  What a subtree leaves unmatched goes up as items of one kind,
    deepest first.  Where such lists and the atoms at a vertex meet, the
    kind with more mass is matched deepest first against the other kind
    shallowest first, and the shallowest excess goes up; along a path
    (inside an edge, out a ray) an arriving atom takes the pending mass of
    the other kind deepest first.  On a path, wherever the root, this is
    the monotone coupling, which is optimal (Villani 2003, Thm 2.18), and
    every match is along a geodesic through the meeting point, so the start
    is W1-optimal (Evans & Matsen 2012).

    The matching is exact: the masses are taken as integers over one power
    of two (the columns' scaled to the rows' total), the largest item absorbs the imbalance that the rounding of
    floats leaves, and Orden's perturbation (every mass times M = 2(m + n)
    + 2, plus 1 at each row and m at column 0) leaves no set of items but
    all of them balanced.
    So every match retires exactly one item until the last, which retires
    two: m + n - 1 cells spanning rows and columns.  Each carries its
    perturbed mass rounded to the integer one, and a cell hanging a column
    from its row toward column 0 carries positive mass, as strong
    feasibility asks (Cunningham 1976).
    """
    k = len(points)
    dist, size = tree._dist, tree._size
    height = []  # minus the depth below the root
    for p, (up, cu, _, lo, hi) in zip(points, sides):
        if p.edge is None:
            height.append(-dist[lo])
        elif lo < hi:  # inside a finite edge, above its deeper endpoint lo
            height.append(-(dist[up] + cu))
        else:  # on a ray hanging from lo
            height.append(-(dist[lo] + p.offset))
    # The items deepest first, ties in preorder, rows before columns.
    deep = sorted(range(k), key=height.__getitem__)
    rank = [0] * k
    for r, t in enumerate(deep):
        rank[t] = r

    amt, shift = _integer_masses(masses, m)
    M = 2 * k + 2
    amt = [M * q + 1 for q in amt[:m]] + [M * q for q in amt[m:]]
    amt[m] += m
    cells: dict = {}

    def match(big: list, small: list) -> list:
        """Match the items of `big` in order against those of `small` until
        one list runs out; what is left of the other goes up."""
        i = j = 0
        while i < len(big) and j < len(small):
            s, t = big[i], small[j]
            x, y = amt[s], amt[t]
            cells[(s, t - m) if s < m else (t, s - m)] = x if x < y else y
            if x > y:
                amt[s] = x - y
                j += 1
            else:
                amt[t] = y - x
                i += 1
                j += x == y
        return big[i:] if i < len(big) else small[j:]

    def climb(pending: list, items: list) -> list:
        """Walk a path up through its atoms, deepest first."""
        for t in items:
            if not pending or (pending[0] < m) == (t < m):
                pending.append(t)
            else:
                pending = match(pending, [t])
        return pending

    def meet(groups: list) -> list:
        """Lists of pending items, each of one kind and deepest first, where
        they meet: the kind with more mass is matched deepest first."""
        sup = [g for g in groups if g[0] < m]
        if not sup or len(sup) == len(groups):
            return sorted(chain(*groups), key=rank.__getitem__)
        dem = [g for g in groups if g[0] >= m]
        sup, dem = (
            g[0] if len(g) == 1 else sorted(chain(*g), key=rank.__getitem__) for g in (sup, dem)
        )
        if sum(map(amt.__getitem__, sup)) > sum(map(amt.__getitem__, dem)):
            return match(sup, dem[::-1])
        return match(dem, sup[::-1])

    # Atoms at a node (a vertex's, and each ray's matched out along the
    # ray) and on the edge above a node, deepest first.
    here: dict = {}
    above: dict = {}
    rays: dict = {}
    for t in deep:
        e, (_, _, _, lo, hi) = points[t].edge, sides[t]
        if e is None:
            here.setdefault(lo, []).append([t])
        elif lo < hi:
            above.setdefault(lo, []).append(t)
        else:
            rays.setdefault((lo, e), []).append(t)
    for (v, _), items in rays.items():
        here.setdefault(v, []).append(climb([], items))

    anchors = sorted(here.keys() | above.keys())
    nodes = sorted(set(anchors).union(map(tree._lca_position, anchors, anchors[1:])))
    # The subtrees matched so far whose root has not been reached, and what
    # each leaves; the latest on top.  Only all the items together balance,
    # so no list that meets another is empty.
    below: list[int] = []
    left: list[list] = []
    for v in reversed(nodes):
        groups = here.get(v) or []
        end = v + size[v]
        while below and below[-1] < end:
            below.pop()
            groups.append(left.pop())
        pending = meet(groups) if len(groups) > 1 else groups[0] if groups else []
        if v in above:
            pending = climb(pending, above[v])
        below.append(v)
        left.append(pending)
    half = M // 2
    den = 1 << shift
    return {c: ((q + half) // M) / den for c, q in cells.items()}


def certify_duals(cost, sol: SimplexSolution, *, scale: float | None = None) -> None:
    """Dual feasibility and complementary slackness, within DUAL_TOL * (1 +
    scale).  `scale` is the cost scale, _cost_scale(cost), handed on by a
    caller that has it already; without it the costs are read here once.  A
    scale that is not finite, from a NaN or infinite cost, raises
    SolverFailure("non-finite cost"), as in the simplex: the slack would be
    NaN or inf, and no comparison would fail."""
    slack = DUAL_TOL * (1.0 + _solver_scale(cost, scale))
    for i, ui in enumerate(sol.u):
        for j, vj in enumerate(sol.v):
            if ui + vj > cost[i][j] + slack:
                raise SolverFailure("dual feasibility violated: plan not optimal")
    for (i, j), q in sol.cells.items():
        if q > DUST and abs(cost[i][j] - sol.u[i] - sol.v[j]) > slack:
            raise SolverFailure("complementary slackness violated")


# -- cyclical monotonicity ----------------------------------------------------


class MonotonicityCertificate(NamedTuple):
    passed: bool
    max_cycle: int
    witness: tuple[int, ...] | None  # indices into the plan's entries
    improvement: float  # the witness cycle's weight (0 when passed)

    def __bool__(self) -> bool:
        return self.passed


def _predecessor_cycle(pred: list[int], starts: list[int], seen: list[int], stamp: int) -> int:
    """A node on a cycle of the predecessor graph reached from `starts`, or
    -1.  A cycle closed in the last round passes through a node relaxed in
    it, so the walks start only there.  Walk i stamps the nodes it passes
    with stamp + i.  It stops at the virtual source, whose stamp no walk
    reaches, at a node an earlier walk of this call stamped, or back on its
    own path, which is a cycle; stamps below `stamp` are left by earlier
    calls.  Each node is passed at most once per call."""
    for walk, e in enumerate(starts, stamp):
        while seen[e] < stamp:
            seen[e] = walk
            e = pred[e]
        if seen[e] == walk:
            return e
    return -1


def min_improvement_cycle(weights, max_cycle: int) -> tuple[float, tuple[int, ...] | None]:
    """Negative cycle of the complete digraph with arc weights w[e][f]:
    (0.0, None) when there is none, else (its weight, a simple witness).

    w[e][f] is the cost change of redirecting entry e's mass to entry f's
    target.  With the slack s = TOL / k (more at large |w|, see
    _arc_slack), Bellman-Ford from a virtual source relaxes a node only when
    it gains more than s, for at most k rounds; every node of a round is
    relaxed from the previous round's potentials, the lowest e winning ties.
    "None" is returned only after the potentials re-check w[e][f] >= phi_f -
    phi_e - s on every pair, so no cycle weighs less than -k s.  After each
    round the predecessor graph is walked from the nodes that round relaxed,
    and the search stops at the first cycle found there: each of its arcs was
    set by a relaxation gaining more than s, so it weighs less than -s.  It
    is given in shift order from its lowest index, with its weight recomputed
    from w.  max_cycle < 2 means no cycle; otherwise every length is
    searched.

    `weights` is any k x k matrix with `.shape` and `.tolist()`, its entries
    read as floats: a numpy array, or the 2-D memoryview of doubles that
    certify_costs passes.  The view rather than a list of lists keeps the
    `.shape` that callers wrapping this function read (the benchmark's
    tracer counts the search's work by it).
    """
    k = weights.shape[0]
    if k == 0 or max_cycle < 2:
        return 0.0, None
    flat = list(map(float, chain.from_iterable(weights.tolist())))
    w = [flat[i : i + k] for i in range(0, k * k, k)]
    # A NaN counts as infinite: with an infinite slack nothing relaxes, and
    # the re-check fails on the NaN.
    slack = _arc_slack(k, math.inf if any(map(math.isnan, flat)) else max(map(abs, flat)))
    into = list(zip(*w))  # into[f][e] = w[e][f]
    phi = [0.0] * k
    pred = [k] * k  # k is the virtual source
    seen = [0] * k + [k * k + 1]  # walk stamps; the source's is above all of them
    for r in range(k):
        moved, nxt = [], phi[:]
        for f, col in enumerate(into):
            best = min(map(add, col, phi))
            if best < phi[f] - slack:
                nxt[f], pred[f] = best, list(map(add, col, phi)).index(best)
                moved.append(f)
        if not moved:
            if all(all(map(ge, row, [(pf - pe) - slack for pf in phi])) for row, pe in zip(w, phi)):
                return 0.0, None
            raise SolverFailure("cycle search potentials fail their re-check")
        phi = nxt
        e = _predecessor_cycle(pred, moved, seen, r * k + 1)
        if e >= 0:
            break
    else:
        raise SolverFailure("cycle search still relaxing without a cycle")

    cycle = [e]
    while pred[cycle[-1]] != e:
        cycle.append(pred[cycle[-1]])
    cycle.reverse()  # predecessors run against the shift order
    low = cycle.index(min(cycle))
    cycle = cycle[low:] + cycle[:low]
    weight = _add_in_order(w[a][b] for a, b in zip(cycle, cycle[1:] + cycle[:1]))
    if weight >= 0.0:
        raise SolverFailure("cycle search returned a non-negative cycle")
    return weight, tuple(cycle)


def is_cyclically_monotone(
    tree: MetricTree, plan: TransportPlan, full: bool = True
) -> MonotonicityCertificate:
    """Certify that no cycle of support pairs can lower the total d^2 cost
    by shifting targets, whatever the cycle's length.

    A failing certificate carries a simple witness cycle of entry indices:
    shifting each listed entry's target to the next one strictly improves
    the cost, by `improvement`, summed from the squared distances.
    max_cycle is the support size; full is deprecated and ignored.

    Distances are computed once per distinct source and target, in
    first-seen order and keyed as given (points equal only after
    canonicalisation stay separate keys, with equal distances), and the
    points are canonicalised once, sources first.  Each call walks the
    support once (_Walks).  A support with a cycle (more distinct pairs than
    sources plus targets less one) is walked first on its own squares, one
    distance row per source, and its pairs are checked against [lo, hi], a
    bracket of the whole matrix's slack: lo is _arc_slack at the largest
    support square, hi at a proven bound on every square (_distance_bound,
    times 1 + 2^-40 for the roundings of the square and of the product).
    certify_costs fails at the first support pair whose |r| exceeds the
    slack, so when the first pair with |r| > lo has |r| > hi, its witness,
    weighed from the same squares (cells off the support made on their first
    read), is the certificate.  The bound is checked before any distance is
    made: finite, no entry of the whole matrix is NaN or overflows, so no
    error is lost; not finite, the support is not walked on its own, as a
    support row could overflow at another cell first.  Otherwise the whole
    matrix of squares is made, with the scale _squares reads as it makes
    them; the support's walk, whose squares are its entries bit for bit,
    decides on it, and a support not yet walked goes to certify_costs.  The
    verdict, witness, improvement and any error are certify_costs' on the
    whole matrix.
    """
    k = len(plan.entries)
    if k == 0:
        return MonotonicityCertificate(True, 0, None, 0.0)
    xs: dict = {}
    ys: dict = {}
    si = [xs.setdefault(x, len(xs)) for x, _, _ in plan.entries]
    ti = [ys.setdefault(y, len(ys)) for _, y, _ in plan.entries]
    px = [tree.canonical_point(x) for x in xs]
    py = [tree.canonical_point(y) for y in ys]
    x_sides, y_sides = list(map(tree._side, px)), list(map(tree._side, py))
    pairs = dict.fromkeys(zip(si, ti))
    walks = None
    if len(pairs) >= len(px) + len(py):
        bound = _distance_bound(tree, x_sides, y_sides)
        upper = bound * bound * (1.0 + 2.0**-40)
        if upper < math.inf:
            targets: list[list[int]] = [[] for _ in px]
            for i, j in pairs:
                targets[i].append(j)
            support = [
                _SquaresRow(
                    lambda cols, p=p, side=side: tree._distance_rows(
                        [p], [side], [py[j] for j in cols], [y_sides[j] for j in cols]
                    ),
                    js,
                )
                for p, side, js in zip(px, x_sides, targets)
            ]
            walks = _Walks(support, len(px), len(py), si, ti)
            off = walks.first_off(_arc_slack(2 * k, max(max(row.values()) for row in support)))
            if off is not None and abs(off[3]) > _arc_slack(2 * k, upper):
                return walks.across(*off)
    cost, scale = _squares(tree._distance_rows(px, x_sides, py, y_sides), "distance")
    if walks is None:
        return certify_costs(cost, si, ti, scale=scale)
    walks.cost = cost  # the support's squares are its entries, bit for bit
    return walks.verdict(_arc_slack(2 * k, scale))


def _distance_bound(tree: MetricTree, x_sides: list[tuple], y_sides: list[tuple]) -> float:
    """A bound, proven for the float kernel, on every entry of
    ``tree._distance_rows`` over points with these ``_side``s (neither
    empty).  An entry is ``ca + (dist[a] + dist[b] - 2 dist[lca]) + cb``,
    at most ``reach(p) + reach(q)``, where ``reach`` is the larger of
    ``cost + dist[exit]`` over a point's two exits; two points on one edge
    are ``|po - qo|`` apart, which is no more.  The four roundings of an
    entry and the three of the bound are covered by the factor 1 + 2^-40
    many times over.  Inf when a reach overflows."""
    dist = tree._dist

    def reach(side: tuple) -> float:
        up, cu, cd, lo, _ = side
        return max(cu + dist[up], cd + dist[lo])

    return (max(map(reach, x_sides)) + max(map(reach, y_sides))) * (1.0 + 2.0**-40)


class _SquaresRow(dict):
    """One source's squared distances `d * d` by target index, from the
    one-row distance matrices `read(targets)` returns: the given targets'
    read up front, any other on its first use."""

    __slots__ = ("read",)

    def __init__(self, read, targets: list[int]):
        (line,) = read(targets)
        super().__init__(zip(targets, [d * d for d in line]))
        self.read = read

    def __missing__(self, j: int) -> float:
        ((d,),) = self.read([j])
        self[j] = square = d * d
        return square


class _Walks:
    """The walks of a monotonicity certificate over the bipartite support
    graph of the entries (si[e], ti[e]): nx sources, then ny targets.  One
    breadth-first walk per component, from its first source, sets the
    potentials along its arcs, and a witness is a cycle closed through
    them.  Until verdict, which reads `cost` as the whole matrix, costs are
    read only as cost[i][j], on the support and on a witness's cells, so
    that `cost` may be any rows indexable by target, and then be replaced by
    the whole matrix with the same support entries."""

    def __init__(self, cost, nx: int, ny: int, si: Sequence[int], ti: Sequence[int]):
        self.cost, self.si, self.ti, self.nx = cost, si, ti, nx
        # The support graph: one arc per distinct pair, named by its first entry.
        support: dict = {}
        adj: list[list] = [[] for _ in range(nx + ny)]
        for e, pair in enumerate(zip(si, ti)):
            if pair not in support:
                support[pair] = e
                adj[pair[0]].append((nx + pair[1], e))
                adj[nx + pair[1]].append((pair[0], e))
        # The walks: every target has a source, so the sources root them all.
        pot = [0.0] * len(adj)
        comp = [-1] * len(adj)
        up = [(-1, -1)] * len(adj)  # (parent, entry of the arc to it)
        depth = [0] * len(adj)
        K = 0
        for root in range(nx):
            if comp[root] >= 0:
                continue
            comp[root], order = K, [root]
            for a in order:  # breadth first, so that witnesses are short
                for b, e in adj[a]:
                    if comp[b] < 0:
                        comp[b], up[b], depth[b] = K, (a, e), depth[a] + 1
                        pot[b] = cost[si[e]][ti[e]] - pot[a]
                        order.append(b)
            K += 1
        self.support, self.pot, self.comp, self.K = support, pot, comp, K
        self.up, self.depth = up, depth

    def first_off(self, bound: float) -> tuple[int, int, int, float] | None:
        """The first support pair (i, j), in the order of its first entry e,
        whose reduced cost r = c - phi - psi is off 0 by more than `bound`:
        (i, j, e, r), or None.  r is exactly 0 on a walk arc into a target;
        on an arc into a source it is off 0 by the rounding of phi = c - psi
        and of c - phi, at most an ulp of a potential, and no potential
        exceeds 2k times the largest |cost|: within _arc_slack(2k, scale)."""
        cost, pot, nx = self.cost, self.pot, self.nx
        for (i, j), e in self.support.items():
            r = cost[i][j] - pot[i] - pot[nx + j]
            if r > bound or r < -bound:
                return i, j, e, r
        return None

    def across(self, i: int, j: int, e: int, r: float) -> MonotonicityCertificate:
        """The failing certificate of support pair (i, j), entry e, whose
        reduced cost r is off 0 by more than the slack."""
        if r > 0.0:  # shift e's target round the walks' path from i to j
            return self.failed([e] + self.shifted(i, self.nx + j))
        return self.failed(self.shifted(self.nx + j, i))  # send i to j, the rest back

    def shifted(self, a: int, b: int) -> list[int]:
        """The entries the walks' path from node a to node b leaves a target
        by: on a cycle of alternate shifted and kept pairs, those whose
        targets shift (each source takes the target of the next)."""
        up, depth = self.up, self.depth
        head, tail = [], []  # (node the arc leaves, its entry)
        while a != b:
            if depth[a] >= depth[b]:
                parent, e = up[a]
                head.append((a, e))
                a = parent
            else:
                parent, e = up[b]
                tail.append((parent, e))
                b = parent
        return [e for node, e in head + tail[::-1] if node >= self.nx]

    def failed(self, cycle: list[int]) -> MonotonicityCertificate:
        """The failing certificate of a witness cycle: in shift order from
        its lowest entry, with its weight added from the costs in order."""
        cost, si, ti = self.cost, self.si, self.ti
        low = cycle.index(min(cycle))
        cycle = cycle[low:] + cycle[:low]
        weight = _add_in_order(
            cost[si[a]][ti[b]] - cost[si[a]][ti[a]] for a, b in zip(cycle, cycle[1:] + cycle[:1])
        )
        if weight >= 0.0:
            raise SolverFailure("certificate witness does not lower the cost")
        return MonotonicityCertificate(False, len(si), tuple(cycle), weight)

    def verdict(self, slack: float) -> MonotonicityCertificate:
        """The certificate at `slack` per arc, with `cost` the whole matrix
        (see certify_costs): the support pairs, then the reduced costs inside
        each component, then, with K > 1 components, the search over them."""
        off = self.first_off(slack)
        if off is not None:
            return self.across(*off)
        cost, pot, comp, K, nx = self.cost, self.pot, self.comp, self.K, self.nx
        failed, shifted, k = self.failed, self.shifted, len(self.si)
        psi = pot[nx:]
        members: list[list[int]] = [[] for _ in range(K)]
        for j, q in enumerate(comp[nx:]):
            members[q].append(j)
        least = [[0.0] * K for _ in range(K)]
        at: list[list] = [[None] * K for _ in range(K)]
        for i, row in enumerate(cost):
            p, ui = comp[i], pot[i]
            reduced = [c - ui - v for c, v in zip(row, psi)]
            for q, js in enumerate(members):
                j = min(js, key=reduced.__getitem__)
                r = reduced[j]
                if q == p:
                    if r < -slack:
                        return failed(shifted(nx + j, i))
                elif at[p][q] is None or r < least[p][q]:
                    least[p][q], at[p][q] = r, (i, j)
        if K == 1:
            return MonotonicityCertificate(True, k, None, 0.0)

        # Scaled by 2k / K, the search's slack of TOL / K per arc is the
        # TOL / (2k) of every other arc (at desk-scale distances).
        scaled = array("d", [x * (2 * k / K) for row in least for x in row])
        _, components = min_improvement_cycle(memoryview(scaled).cast("B").cast("d", (K, K)), K)
        if components is None:
            return MonotonicityCertificate(True, k, None, 0.0)
        hops = [at[p][q] for p, q in zip(components, components[1:] + components[:1])]
        cycle = []
        for (_, j), (i, _) in zip(hops, hops[1:] + hops[:1]):
            cycle += shifted(nx + j, i)
        return failed(cycle)


def certify_costs(
    cost: Sequence[Sequence[float]],
    si: Sequence[int],
    ti: Sequence[int],
    *,
    scale: float | None = None,
) -> MonotonicityCertificate:
    """Cyclical monotonicity of a support for a cost matrix of either sign.

    Rows are sources and columns targets; entry e is the pair (si[e],
    ti[e]), and every row and column carries at least one entry.  A failing
    certificate carries a simple witness cycle of entry indices: shifting
    each listed entry's target to the next one changes the cost by
    `improvement` < 0, summed from `cost`.  `scale` is the cost scale,
    _cost_scale(cost), handed on by a caller that has it already; without
    it the costs are read here once.  A scale that is not finite, from a NaN
    or infinite cost, raises NonFiniteValue.

    The certificate is a pair of potentials phi (sources) and psi (targets)
    with phi + psi = c on the support and c - phi - psi >= 0 everywhere,
    each within TOL / (2k) for k entries: any cycle of shifts then weighs at
    least -TOL.  (At a large cost scale the slack is 2k ulps of it instead,
    see _arc_slack.)  One walk per component of the bipartite support graph,
    from its first source, sets the potentials along the walk's arcs
    (_Walks).  The support is checked first: a support pair off its
    potentials fails at once, with the cycle it closes through the walk's
    arcs as witness.  Then the whole matrix: a negative reduced cost inside
    a component fails alike.  With K > 1 components the potentials are
    still free by a constant per component: the K x K matrix of the least
    reduced cost from each component to each other one goes to
    min_improvement_cycle, and a negative cycle there is closed through the
    walk's arcs of every component it passes.  This is _Walks.verdict on
    one walk of `cost`; is_cyclically_monotone checks a cyclic support's
    walk against a bracket of this slack before it makes the whole matrix,
    and hands the same walk the matrix when that does not decide.
    """
    if scale is None:
        scale = _cost_scale(cost)
    if not scale < math.inf:
        raise NonFiniteValue(f"cost scale {scale} is not finite")
    return _Walks(cost, len(cost), len(cost[0]), si, ti).verdict(_arc_slack(2 * len(si), scale))
