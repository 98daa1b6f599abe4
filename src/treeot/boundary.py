"""The boundary cone: angular metric at infinity and asymptotic measures.

A ray plan determines a measure on the cone over the boundary by recording
each support ray's end and speed (constant rays land on the cone apex).
Trees are visibility spaces, so the cone metric degenerates to two cases:
rays to the same end differ by |s - t|, rays to distinct ends by s + t.

The asymptotic distance between two ray curves in Wasserstein space is
W(mu_t, sigma_t) / t as t grows.  In a tree every pairwise distance between
support rays becomes an exactly affine function of t once every ray has
passed its last vertex and every two atoms on a common end have crossed (a
closed-form branch-exit time), so instead of only sampling the ratio we
certify its exact limit: measure the affine slopes of the pairwise distances
beyond the branch-exit time and solve one more transport problem with those
slopes as the cost.  The asymptotic formula says this limit equals the cone
Wasserstein distance of the two asymptotic measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .errors import MarginalMismatch, NonUnitMeasure, OutOfInterval
from .metric_tree import TOL, MetricTree, TreeEnd, TreePoint
from .dynamics import DynamicalPlan, pushforward_at
from .transport import _add_in_order, _merge_atoms, solve_transport, squares_in_range, wasserstein2

_ZERO = 1e-12

ConeAtomKey = tuple[TreeEnd | None, float]  # (end, speed); apex is (None, 0)


@dataclass(frozen=True)
class ConeMeasure:
    """Finitely supported measure on the cone over the boundary.

    Atoms are (end, speed, mass); speed-0 atoms collapse to the apex, whose
    end label is dropped (the choice does not matter there).
    """

    atoms: tuple[tuple[TreeEnd | None, float, float], ...]

    @staticmethod
    def from_atoms(tree: MetricTree, atoms) -> "ConeMeasure":
        keyed = []
        for end, speed, mass in atoms:
            speed = float(speed)
            if not math.isfinite(speed):
                raise MarginalMismatch(f"non-finite cone speed {speed}")
            if speed <= _ZERO:
                key: ConeAtomKey = (None, 0.0)
            else:
                if end is None:
                    raise MarginalMismatch("moving cone atom needs an end")
                tree.end(end.edge)  # validates
                key = (end, speed)
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
    if s <= _ZERO or t <= _ZERO:
        return abs(s - t)
    return abs(s - t) if xi == zeta else s + t


class WInfinityResult(NamedTuple):
    distance: float
    entries: tuple[tuple[ConeAtomKey, ConeAtomKey, float], ...]


def w_infinity(tree: MetricTree, nu1: ConeMeasure, nu2: ConeMeasure) -> WInfinityResult:
    """Exact transport between cone measures for the squared cone metric."""
    ka, kb = nu1.keys(), nu2.keys()
    with squares_in_range("cone distance"):
        cost = [[d_infinity(tree, p, q) ** 2 for q in kb] for p in ka]
        value, entries, _ = solve_transport(cost, nu1.masses(), nu2.masses())
    return WInfinityResult(
        math.sqrt(max(0.0, value)),
        tuple((ka[i], kb[j], q) for i, j, q in entries),
    )


def total_variation(nu1: ConeMeasure, nu2: ConeMeasure) -> float:
    """Total variation distance (half the mass of |nu1 - nu2|)."""
    keys = {k: 0.0 for k in nu1.keys()}
    for k, m in zip(nu1.keys(), nu1.masses()):
        keys[k] = keys.get(k, 0.0) + m
    for k, m in zip(nu2.keys(), nu2.masses()):
        keys[k] = keys.get(k, 0.0) - m
    return 0.5 * _add_in_order(abs(v) for v in keys.values())


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
    atoms = []
    for g, m in plan.atoms:
        end = g.pos_end if direction == +1 else g.neg_end
        if g.is_constant or g.speed <= _ZERO:
            atoms.append((None, 0.0, m))
        else:
            atoms.append((end, g.speed, m))
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
        if end is None or speed <= _ZERO:
            atoms.append((tree.constant_geodesic(x, 0.0, math.inf), mass))
        else:
            atoms.append((tree.ray_to_end(x, end, speed), mass))
    return DynamicalPlan.from_atoms(tree, atoms)


# -- asymptotic formula ------------------------------------------------------------

DEFAULT_T_GRID = (1.0, 10.0, 100.0, 1e3, 1e4, 1e6)


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

    Beyond the certified branch-exit time every pairwise distance between
    support rays grows exactly affinely, so the limit of the ratio is the
    value of one transport problem whose costs are the squared affine
    slopes; that certified limit is reported next to the sampled ratios.
    """
    if mu.kind != "ray" or sigma.kind != "ray":
        raise OutOfInterval("asymptotic comparison needs two ray plans")
    target = w_infinity(
        tree, asymptotic_measure(mu), asymptotic_measure(sigma)
    ).distance
    grid = tuple(sorted(t_grid if t_grid is not None else DEFAULT_T_GRID))
    rows = []
    for t in grid:
        d = wasserstein2(
            tree, pushforward_at(mu, t), pushforward_at(sigma, t)
        ).distance
        rows.append((t, d / t))

    t_exit = _certified_branch_exit(mu, sigma)
    far, near = (
        tree.distance_matrix(
            [g.evaluate(t) for g, _ in mu.atoms], [h.evaluate(t) for h, _ in sigma.atoms]
        )
        for t in (t_exit + 1.0, t_exit)
    )
    slopes = [[a - b for a, b in zip(fr, nr)] for fr, nr in zip(far, near)]
    with squares_in_range("slope"):
        cost = [[s ** 2 for s in row] for row in slopes]
        value, _, _ = solve_transport(
            cost, [m for _, m in mu.atoms], [m for _, m in sigma.atoms]
        )
    certified = math.sqrt(max(0.0, value))

    w_a = wasserstein2(
        tree, pushforward_at(mu, t_exit + 1.0), pushforward_at(sigma, t_exit + 1.0)
    ).distance
    w_b = wasserstein2(
        tree, pushforward_at(mu, t_exit + 2.0), pushforward_at(sigma, t_exit + 2.0)
    ).distance
    classification = "asymptotic" if abs(w_b - w_a) <= 1e-9 * (1.0 + w_a) else "linear"

    monotone = all(rows[k + 1][1] >= rows[k][1] - 1e-12 for k in range(len(rows) - 1))
    return ConvergenceReport(
        rows=tuple(rows),
        target=target,
        branch_exit=t_exit,
        certified_limit=certified,
        monotone=monotone,
        classification=classification,
        max_error_at_largest_t=abs(rows[-1][1] - target) if rows else math.nan,
    )


def _certified_branch_exit(mu: DynamicalPlan, sigma: DynamicalPlan) -> float:
    """Time beyond which every distance between a support ray of mu and one
    of sigma is affine in t, in closed form.

    Such a distance can kink only while a ray still passes vertices, or when
    two atoms on one infinite edge pass each other.  The exit is therefore
    the latest of 1, each moving ray's time at its last vertex, and the
    crossing time of every pair on a common infinite edge.
    """
    t = 1.0
    for plan in (mu, sigma):
        for g, _ in plan.atoms:
            if g.speed > _ZERO:
                t = max(t, g.t_origin + g.nodes[-1][0] / g.speed)
    tails = [_tail(h) for h, _ in sigma.atoms]
    for g, _ in mu.atoms:
        a = _tail(g)
        for b in tails:
            if a is not None and b is not None and a[0] == b[0] and a[2] != b[2]:
                t = max(t, (b[1] - a[1]) / (a[2] - b[2]))
    return t


def _tail(g) -> tuple[str, float, float] | None:
    """(edge, c, s) when g ends up on an infinite edge at offset c + s*t,
    once past its last vertex; a constant atom on an infinite edge counts as
    speed 0.  None for a constant atom anywhere else."""
    if g.speed > _ZERO:
        eid = g.pos_end.edge
        last = g.nodes[-1][1]  # the end's vertex, or the start on the end's edge
        base = last.offset if last.edge == eid else 0.0
        return eid, base - g.nodes[-1][0] - g.speed * g.t_origin, g.speed
    p = g.nodes[0][1]
    if p.edge is not None and g.tree.edges[p.edge].infinite:
        return p.edge, p.offset, 0.0
    return None
