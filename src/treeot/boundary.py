"""The boundary cone: angular metric at infinity and asymptotic measures.

A ray plan determines a measure on the cone over the boundary by recording
each support ray's end and speed (constant rays land on the cone apex).
Trees are visibility spaces, so the cone metric degenerates to two cases:
rays to the same end differ by |s - t|, rays to distinct ends by s + t.
The cone is then a star: its apex, and one ray per end, on which a cone
atom sits at its speed.  d_infinity is the star's path metric, and
w_infinity is wasserstein2 on the star.

The asymptotic distance between two ray curves in Wasserstein space is
W(mu_t, sigma_t) / t as t grows.  In a tree every pairwise distance between
support rays becomes an exactly affine function of t once every ray has
passed its last vertex and every two atoms on a common end have crossed (a
closed-form branch-exit time, dynamics.beyond_exit), so instead of only
sampling the ratio we certify its exact limit: measure the affine slopes of
the pairwise distances beyond the branch-exit time and solve one more
transport problem with those slopes as the cost.  The asymptotic formula
says this limit equals the cone Wasserstein distance of the two asymptotic
measures.  The sampled rows and the slopes come from one cost builder, which
evaluates the plans' atoms at a time t.  All of these problems, and the cone
problem of the target, share the plans' masses, so they are solved as one
chain, target last: the first row starts from the tree start of the atoms'
positions, and every later problem from the basis the previous solve ended
on, which is strongly feasible for the next cost too and usually a few
pivots from its optimum.  W stays bounded exactly when the limit is 0, that
is when an optimal coupling of the slopes moves mass only along zero slopes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import NamedTuple, Sequence

from .errors import MarginalMismatch, NonUnitMeasure, OutOfInterval
from .metric_tree import DUST, TOL, MetricTree, TreeEnd, TreePoint
from .dynamics import DynamicalPlan, _distances_at, beyond_exit
from .transport import (
    DiscreteMeasure, _add_in_order, _merge_atoms, _sums_by_key, _tree_start, w2_from_distances,
    wasserstein2,
)

ConeAtomKey = tuple[TreeEnd | None, float]  # (end, speed); apex is (None, 0)


class ConeMeasure(NamedTuple):
    """Finitely supported measure on the cone over the boundary.

    Atoms are (end, speed, mass); speeds in [0, DUST] collapse to the apex,
    whose end label is dropped (the choice does not matter there).  A
    negative speed raises OutOfInterval, a non-finite one MarginalMismatch;
    a label that is not an end of the tree raises MalformedTree at any speed.
    """

    atoms: tuple[tuple[TreeEnd | None, float, float], ...]

    @staticmethod
    def from_atoms(tree: MetricTree, atoms) -> "ConeMeasure":
        keyed = []
        for end, speed, mass in atoms:
            speed = float(speed)
            if not math.isfinite(speed):
                raise MarginalMismatch(f"non-finite cone speed {speed}")
            if speed < 0.0:
                raise OutOfInterval(f"negative cone speed {speed}")
            if end is not None:
                tree.end(end.edge)  # validates
            elif speed > DUST:
                raise MarginalMismatch("moving cone atom needs an end")
            key: ConeAtomKey = (None, 0.0) if speed <= DUST else (end, speed)
            keyed.append((key, mass))
        kept = _merge_atoms(keyed, "cone masses")
        return ConeMeasure(tuple((e, s, m) for (e, s), m in kept))

    def quadratic_mean(self) -> float:
        return _add_in_order(m * s * s for _, s, m in self.atoms)

    def is_unit(self) -> bool:
        return abs(self.quadratic_mean() - 1.0) <= TOL

    def keys(self) -> list[ConeAtomKey]:
        return [(e, s) for e, s, _ in self.atoms]

    def masses(self) -> list[float]:
        return [m for _, _, m in self.atoms]


def d_infinity(tree: MetricTree, a: ConeAtomKey, b: ConeAtomKey) -> float:
    """Cone metric: |s - t| at angle zero (same end, or through the apex),
    s + t at angle pi (distinct ends; trees are visibility spaces)."""
    (xi, s), (zeta, t) = a, b
    s, t = float(s), float(t)
    if s <= DUST or t <= DUST:
        return abs(s - t)
    return abs(s - t) if xi == zeta else s + t


class WInfinityResult(NamedTuple):
    distance: float
    entries: tuple[tuple[ConeAtomKey, ConeAtomKey, float], ...]


def w_infinity(tree: MetricTree, nu1: ConeMeasure, nu2: ConeMeasure) -> WInfinityResult:
    """Exact transport between cone measures for the squared cone metric:
    wasserstein2 on the star of the apex (its base point) and one ray per
    end of either support, with each atom at its speed along its end's ray
    and the apex atom (speed <= DUST) at the apex.  The entries come back
    in the order of the atoms' indices."""
    ends = sorted({e.edge for e, _, _ in chain(nu1.atoms, nu2.atoms) if e is not None})
    star = MetricTree(["apex"], [(e, ["apex"], math.inf) for e in ends], "apex")

    def on_star(nu: ConeMeasure) -> DiscreteMeasure:
        return DiscreteMeasure(tuple(
            (TreePoint("apex") if e is None else TreePoint(edge=e.edge, offset=s), m)
            for e, s, m in nu.atoms
        ))

    mu, nu = on_star(nu1), on_star(nu2)
    ka, kb = dict(zip(mu.points(), nu1.keys())), dict(zip(nu.points(), nu2.keys()))
    distance, plan = wasserstein2(star, mu, nu)
    return WInfinityResult(distance, tuple((ka[x], kb[y], q) for x, y, q in plan.entries))


def total_variation(nu1: ConeMeasure, nu2: ConeMeasure) -> float:
    """Total variation distance (half the mass of |nu1 - nu2|)."""
    gaps = _sums_by_key(chain(
        (((e, s), m) for e, s, m in nu1.atoms), (((e, s), -m) for e, s, m in nu2.atoms)
    ))
    return 0.5 * _add_in_order(abs(v) for v in gaps.values())


def asymptotic_measure(plan: DynamicalPlan, direction: int = +1) -> ConeMeasure:
    """Pushforward of a ray plan under (end class, speed); pass direction
    -1 to read the t -> -inf end of a complete plan."""
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    if plan.kind == "segment":
        raise OutOfInterval("segment plans have no asymptotic measure")
    if plan.kind == "ray" and direction == -1:
        raise OutOfInterval("ray plans are only asymptotic for t -> +inf")
    tree = plan.atoms[0][0].tree
    atoms = [
        (g.pos_end if direction == +1 else g.neg_end, g.speed, m) for g, m in plan.atoms
    ]
    return ConeMeasure.from_atoms(tree, atoms)


def ray_from_asymptotic_measure(
    tree: MetricTree, x: TreePoint, nu: ConeMeasure, unit: bool = False
) -> DynamicalPlan:
    """The ray plan from the Dirac at x realizing a given asymptotic measure:
    one ray per cone atom, toward its end at its speed."""
    if unit and not nu.is_unit():
        raise NonUnitMeasure(
            f"quadratic speed mean is {nu.quadratic_mean()}, expected 1"
        )
    x = tree.canonical_point(x)
    atoms = []
    for end, speed, mass in nu.atoms:
        if end is None:
            atoms.append((tree.constant_geodesic(x, 0.0, math.inf), mass))
        else:
            atoms.append((tree.ray_to_end(x, end, speed), mass))
    return DynamicalPlan.from_atoms(tree, atoms)


# -- asymptotic formula ------------------------------------------------------------

DEFAULT_T_GRID = (1.0, 10.0, 100.0, 1e3, 1e4, 1e6)


# A dataclass, not a NamedTuple like the other records: bench/selftest.py
# builds its wrong outputs with dataclasses.replace.
@dataclass(frozen=True)
class ConvergenceReport:
    rows: tuple[tuple[float, float], ...]  # (t, W(mu_t, sigma_t) / t)
    target: float                          # W_infinity of the asymptotic measures
    branch_exit: float                     # all pairwise distances affine beyond
    certified_limit: float                 # exact limit of the ratio
    monotone: bool                         # ratio nondecreasing along the grid
    classification: str                    # "asymptotic" (bounded) or "linear"
    max_error_at_largest_t: float

    def csv(self) -> str:
        lines = ["t,ratio,target,abs_error"]
        for t, r in self.rows:
            lines.append(f"{t:.12g},{r:.12f},{self.target:.12f},{abs(r - self.target):.12f}")
        lines.append(
            f"inf,{self.certified_limit:.12f},{self.target:.12f},"
            f"{abs(self.certified_limit - self.target):.12f}"
        )
        return "\n".join(lines) + "\n"


def asymptotic_formula_check(
    tree: MetricTree,
    mu: DynamicalPlan,
    sigma: DynamicalPlan,
    t_grid: Sequence[float] | None = None,
) -> ConvergenceReport:
    """Compare W(mu_t, sigma_t) / t against the cone Wasserstein distance of
    the asymptotic measures.

    Every row, and both matrices beyond the branch exit, come from one cost
    builder: the plans' atoms, evaluated at t, with their masses, in the
    preorder of their positions at the first solve time (the first grid
    time, or the branch exit when the grid is empty).  The solves make one
    chain, target last: the first row starts from the tree start of those
    positions, and each later row, the slope problem and then the cone
    problem of the target (each atom's cone key, end and speed, or the apex
    at speed <= DUST, under d_infinity) from the final basis of the solve
    before.  Grid times must be finite and positive (OutOfInterval
    otherwise).
    Beyond the certified branch-exit time every pairwise distance grows
    exactly affinely, so the limit of the ratio is the value of the same
    transport problem on the squared affine slopes.  W stays bounded
    exactly when that limit is 0: the classification is "asymptotic" when
    the optimal coupling of that problem (its flows above DUST) moves mass
    only along slopes of at most TOL * (1 + the largest distance one unit
    past the exit), and "linear" otherwise.
    """
    if mu.kind != "ray" or sigma.kind != "ray":
        raise OutOfInterval("asymptotic comparison needs two ray plans")
    grid = sorted(t_grid if t_grid is not None else DEFAULT_T_GRID)
    for t in grid:
        if not 0.0 < t < math.inf:
            raise OutOfInterval(f"grid time {t} is not finite and positive")
    gs, hs = [g for g, _ in mu.atoms], [h for h, _ in sigma.atoms]
    t_exit = beyond_exit(tree, gs, hs)
    t0 = grid[0] if grid else t_exit
    (rows, x_sides, px), (cols, y_sides, py) = (
        tree._preorder([g.evaluate(t0) for g in side]) for side in (gs, hs)
    )
    masses = [mu.atoms[i][1] for i in rows] + [sigma.atoms[j][1] for j in cols]
    start = _tree_start(tree, px + py, x_sides + y_sides, len(px), masses)
    first = tree._distance_rows(px, x_sides, py, y_sides)  # the distances at t0
    gs, hs = [gs[i] for i in rows], [hs[j] for j in cols]
    ratios = []
    for k, t in enumerate(grid):
        dists = _distances_at(tree, gs, hs, t) if k else first
        value, _, sol = w2_from_distances(dists, start=start)
        ratios.append((t, value / t))
        start = sol.cells
    near = _distances_at(tree, gs, hs, t_exit) if grid else first
    far = _distances_at(tree, gs, hs, t_exit + 1.0)
    slopes = [[a - b for a, b in zip(fr, nr)] for fr, nr in zip(far, near)]
    certified, coupling, sol = w2_from_distances(slopes, "slope", start=start)
    # W is bounded iff an optimal coupling of the slopes moves no mass along
    # a positive slope.  Each slope is the difference of two distances of at
    # most the largest far distance, so a zero slope rounds to a few ulps of
    # that size.  The value itself is no test: mass-rounding dust q on a
    # slope s adds sqrt(q) * s to it, which can pass any such threshold.
    zero = TOL * (1.0 + max((d for row in far for d in row), default=0.0))
    bounded = all(slopes[i][j] <= zero for i, j, _ in coupling)

    keys = [[(None, 0.0) if g.speed <= DUST else (g.pos_end, g.speed) for g in side] for side in (gs, hs)]
    cone = [[d_infinity(tree, a, b) for b in keys[1]] for a in keys[0]]
    target = w2_from_distances(cone, "cone distance", start=sol.cells)[0]

    monotone = all(ratios[k + 1][1] >= ratios[k][1] - DUST for k in range(len(ratios) - 1))
    return ConvergenceReport(
        rows=tuple(ratios),
        target=target,
        branch_exit=t_exit,
        certified_limit=certified,
        monotone=monotone,
        classification="asymptotic" if bounded else "linear",
        max_error_at_largest_t=abs(ratios[-1][1] - target) if ratios else math.nan,
    )
