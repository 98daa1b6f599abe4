"""Exact discrete quadratic optimal transport on a metric tree.

The solver is a network simplex on the bipartite transportation problem,
written here rather than delegated to a library: it must handle negative
costs (the boundary problem of the ends module uses cost -D0^2), keep dual
variables for an optimality certificate, and pivot deterministically so that
outputs are byte-stable.  The basis is a spanning tree over rows and columns
with parent and depth arrays; the entering cell's cycle is found by walking
up to the lowest common ancestor, and after a pivot only the potentials of
the re-hung subtree are updated.  The entering cell has the most negative
reduced cost (lowest (i, j) on ties); the leaving cell is the last blocking
cell met from the cycle's apex, which keeps the basis strongly feasible
(Cunningham 1976) and rules out cycling without any random choice.

Cyclical monotonicity is certified by searching the support pairs for a
negative improvement cycle: a plan is optimal for a cost iff no finite
family of its pairs can lower the total cost by shifting targets along a
cycle.  The search is a min-plus power iteration over the improvement
matrix, which detects a violating cycle of length <= max_cycle exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import MarginalMismatch, SolverFailure
from .metric_tree import MetricTree, TreePoint

MASS_TOL = 1e-9
_ZERO_MASS = 1e-12


def _merge_atoms(atoms: Iterable[tuple[Hashable, float]]) -> tuple[list, float]:
    """Merge atoms with equal keys (first-seen order) and drop the dust, the
    merged masses at or below 1e-12.

    Returns the kept (key, mass) pairs and the total mass taken *before* the
    dust is dropped, which is what a measure's constructor checks against 1:
    a measure spread over many tiny atoms can shed more than its tolerance
    as dust.  A merged mass below -1e-12 is not dust and raises.
    """
    merged: dict = {}
    for key, m in atoms:
        merged[key] = merged.get(key, 0.0) + float(m)
    for key, m in merged.items():
        if m < -_ZERO_MASS:
            raise MarginalMismatch(f"negative mass {m} at {key!r}")
    total = sum(merged.values())
    return [(k, m) for k, m in merged.items() if m > _ZERO_MASS], total


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely supported probability measure on tree points."""

    atoms: tuple[tuple[TreePoint, float], ...]

    @staticmethod
    def from_atoms(tree: MetricTree, atoms) -> "DiscreteMeasure":
        kept, total = _merge_atoms((tree.canonical_point(p), m) for p, m in atoms)
        if abs(total - 1.0) > MASS_TOL:
            raise MarginalMismatch(f"masses sum to {total}, expected 1")
        return DiscreteMeasure(tuple(kept))

    @staticmethod
    def dirac(tree: MetricTree, p: TreePoint) -> "DiscreteMeasure":
        return DiscreteMeasure(((tree.canonical_point(p), 1.0),))

    def points(self) -> list[TreePoint]:
        return [p for p, _ in self.atoms]

    def masses(self) -> list[float]:
        return [m for _, m in self.atoms]

    def mass_at(self, p: TreePoint) -> float:
        for q, m in self.atoms:
            if q == p:
                return m
        return 0.0

    def second_moment(self, tree: MetricTree, x0: TreePoint | None = None) -> float:
        x0 = tree.basepoint if x0 is None else x0
        return sum(m * tree.distance(x0, p) ** 2 for p, m in self.atoms)


@dataclass(frozen=True)
class TransportPlan:
    """Coupling given by its support entries (source, target, mass).

    Row sums are the source masses and column sums the target masses; the
    optional potentials are the dual variables of the solver run that
    produced the plan (kept for the optimality certificate).
    """

    entries: tuple[tuple[TreePoint, TreePoint, float], ...]
    potentials: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def cost(self, cost_fn: Callable[[TreePoint, TreePoint], float]) -> float:
        return sum(m * cost_fn(x, y) for x, y, m in self.entries)

    def support(self) -> list[tuple[TreePoint, TreePoint]]:
        return [(x, y) for x, y, _ in self.entries]

    def check_marginals(
        self, mu: DiscreteMeasure, nu: DiscreteMeasure, tol: float = MASS_TOL
    ) -> None:
        row: dict = {}
        col: dict = {}
        for x, y, m in self.entries:
            row[x] = row.get(x, 0.0) + m
            col[y] = col.get(y, 0.0) + m
        for p, m in mu.atoms:
            if abs(row.pop(p, 0.0) - m) > tol:
                raise MarginalMismatch(f"row sum at {p!r} differs from source mass")
        for p, m in nu.atoms:
            if abs(col.pop(p, 0.0) - m) > tol:
                raise MarginalMismatch(f"column sum at {p!r} differs from target mass")
        if any(m > tol for m in row.values()) or any(m > tol for m in col.values()):
            raise MarginalMismatch("plan carries mass outside the marginals")


class SimplexSolution(NamedTuple):
    value: float
    cells: dict  # (i, j) -> mass, basic cells only
    u: list[float]
    v: list[float]
    pivots: int = 0
    degenerate_pivots: int = 0  # pivots that moved no mass


def transportation_simplex(
    supply: Sequence[float], demand: Sequence[float], cost: Sequence[Sequence[float]]
) -> SimplexSolution:
    """Minimize sum x_ij c_ij over the transportation polytope.

    Network simplex on a spanning tree whose nodes are the rows 0..m-1 and
    the columns m..m+n-1, rooted at column 0.  Costs may be negative.
    Entering cell: most negative reduced cost below -1e-12 (relative to the
    cost scale), lowest (i, j) on ties.  Leaving cell: the last blocking
    cell met when the cycle is traversed from its apex along the entering
    cell, which keeps the basis strongly feasible (Cunningham 1976) and so
    rules out cycling.  The returned duals satisfy u_i + v_j = c_ij on the
    basis; demands must be positive for the anti-cycling guarantee.
    """
    m, n = len(supply), len(demand)
    a = [float(s) for s in supply]
    scale = sum(a) / sum(demand)
    b = [float(d) * scale for d in demand]

    # Node k != root hangs from parent[k] by the basic cell joining them,
    # which carries flow[k]; pot holds u (rows) then v (columns).
    root = m
    parent = [root] + [-1] * (m + n - 1)
    flow = [0.0] * (m + n)
    depth = [0] * (m + n)
    pot = [0.0] * (m + n)

    # Northwest-corner basis.  A column is entered only from a row with mass
    # left (the last row takes what the columns still need), so every
    # column's cell carries positive flow and zero-flow cells hang a row
    # from its parent column: the basis is strongly feasible.
    i = j = node = 0
    while True:
        q = b[j] if i == m - 1 else a[i] if j == n - 1 else min(a[i], b[j])
        flow[node] = q = max(0.0, q)
        a[i] -= q
        b[j] -= q
        if i == m - 1 and j == n - 1:
            break
        if j == n - 1 or (i < m - 1 and a[i] <= b[j]):
            i += 1
            parent[i] = m + j
            node = i
        else:
            j += 1
            node = m + j
            parent[node] = i
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
    eps = 1e-12 * (1.0 + max((abs(c) for row in cost for c in row), default=0.0))
    pivots = degenerate = 0
    while True:
        # Price every cell; strict comparisons keep the lowest (i, j) on ties.
        v = pot[m:]
        best, enter = -eps, None
        for i in range(m):
            red = [c - vj for c, vj in zip(cost[i], v)]
            low = min(red)
            if low - pot[i] < best:
                best, enter = low - pot[i], (i, red.index(low))
        if enter is None:
            break
        if pivots == 2000 * (m + n) + 1000:
            raise SolverFailure("transportation simplex did not converge")
        pivots += 1

        # The cycle: both ends of the entering cell up to their apex.
        i, j = enter
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
    value = sum(q * cost[i][j] for (i, j), q in cells.items())
    return SimplexSolution(value, cells, pot[:m], pot[m:], pivots, degenerate)


class W2Result(NamedTuple):
    distance: float
    plan: TransportPlan


def solve_transport(
    sources: Sequence, source_masses: Sequence[float],
    targets: Sequence, target_masses: Sequence[float],
    cost_fn: Callable,
) -> tuple[float, list[tuple[int, int, float]], SimplexSolution]:
    """Generic exact transport between two atom lists; returns the optimal
    value, index-level entries and the raw simplex solution.

    Optimality is certified on the same cost matrix before returning (see
    certify_duals)."""
    cost = [[cost_fn(p, q) for q in targets] for p in sources]
    sol = transportation_simplex(source_masses, target_masses, cost)
    certify_duals(cost, sol)
    entries = [
        (i, j, q) for (i, j), q in sorted(sol.cells.items()) if q > _ZERO_MASS
    ]
    return sol.value, entries, sol


def wasserstein2(tree: MetricTree, mu: DiscreteMeasure, nu: DiscreteMeasure) -> W2Result:
    """Quadratic Wasserstein distance and an optimal plan.

    Optimality is certified by dual feasibility before returning: the duals
    of the final basis must satisfy u_i + v_j <= c_ij + 1e-7 everywhere and
    complementary slackness on the support.  Ties between optimal plans are
    broken by the solver's deterministic pivoting; the returned plan is
    deterministic but not mathematically canonical.
    """
    xs, ms = mu.points(), mu.masses()
    ys, ns = nu.points(), nu.masses()
    value, entries, sol = solve_transport(
        xs, ms, ys, ns, lambda p, q: tree.distance(p, q) ** 2
    )
    plan = TransportPlan(
        tuple((xs[i], ys[j], q) for i, j, q in entries),
        potentials=(tuple(sol.u), tuple(sol.v)),
    )
    return W2Result(math.sqrt(max(0.0, value)), plan)


def certify_duals(cost, sol: SimplexSolution, tol: float = 1e-7) -> None:
    """Dual feasibility and complementary slackness, within tol relative to
    the cost scale (the certificate must survive squared distances at the
    asymptotic sampling times)."""
    scale = 1.0 + max((abs(c) for row in cost for c in row), default=0.0)
    for i, ui in enumerate(sol.u):
        for j, vj in enumerate(sol.v):
            if ui + vj > cost[i][j] + tol * scale:
                raise SolverFailure("dual feasibility violated: plan not optimal")
    for (i, j), q in sol.cells.items():
        if q > _ZERO_MASS and abs(cost[i][j] - sol.u[i] - sol.v[j]) > tol * scale:
            raise SolverFailure("complementary slackness violated")


# -- cyclical monotonicity ----------------------------------------------------


@dataclass(frozen=True)
class MonotonicityCertificate:
    passed: bool
    max_cycle: int
    witness: tuple[int, ...] | None  # indices into the plan's entries
    improvement: float  # most negative cycle value found (0 when passed)

    def __bool__(self) -> bool:
        return self.passed


def min_improvement_cycle(
    weights: np.ndarray, max_cycle: int
) -> tuple[float, tuple[int, ...] | None]:
    """Most negative closed walk of length <= max_cycle in the complete
    digraph with arc weights w[e, f], plus a witness cycle.

    w[e, f] is the cost change of redirecting entry e's mass to entry f's
    target; a negative cycle is exactly a violation of cyclical monotonicity.
    At the smallest violating length the walk is automatically simple (a
    shorter negative sub-cycle would have been detected first).
    """
    k = weights.shape[0]
    if k == 0 or max_cycle < 2:
        return 0.0, None
    dist = weights.copy()  # walks of length 1; their diagonal is 0 by design
    args: dict[int, np.ndarray] = {}
    for step in range(2, max_cycle + 1):
        stacked = dist[:, :, None] + weights[None, :, :]
        args[step] = np.argmin(stacked, axis=1)
        dist = np.min(stacked, axis=1)
        diag = np.diagonal(dist)
        best = float(np.min(diag))
        if best < -MASS_TOL:
            e = int(np.argmin(diag))
            return best, tuple(_unwind_cycle(args, e, step))
    return 0.0, None


def _unwind_cycle(args: dict, e: int, length: int) -> list[int]:
    """Recover the node sequence of the closed walk found at `length`."""
    tail = []
    f = e
    while length >= 2:
        mid = int(args[length][e, f])
        tail.append(mid)
        f = mid
        length -= 1
    return [e] + tail[::-1]


def is_cyclically_monotone(
    tree: MetricTree,
    plan: TransportPlan,
    max_cycle: int | None = None,
    full: bool = False,
    cost_fn: Callable | None = None,
) -> MonotonicityCertificate:
    """Certify that no cycle of support pairs of length <= max_cycle can
    lower the total cost by shifting targets (cost d^2 by default).

    max_cycle defaults to min(support size, 8); pass full=True for the
    complete check up to the support size.  A failing certificate carries a
    witness cycle of entry indices: shifting each listed entry's target to
    the next one strictly improves the cost.
    """
    k = len(plan.entries)
    if k == 0:
        return MonotonicityCertificate(True, 0, None, 0.0)
    if full or max_cycle is None:
        max_cycle = k if full else min(k, 8)
    max_cycle = min(max_cycle, k)
    if cost_fn is None:
        cost_fn = lambda p, q: tree.distance(p, q) ** 2
    w = np.empty((k, k))
    for e, (xe, ye, _) in enumerate(plan.entries):
        base = cost_fn(xe, ye)
        for f, (_, yf, _) in enumerate(plan.entries):
            w[e, f] = cost_fn(xe, yf) - base
    best, witness = min_improvement_cycle(w, max_cycle)
    if witness is None:
        return MonotonicityCertificate(True, max_cycle, None, 0.0)
    return MonotonicityCertificate(False, max_cycle, witness, best)
