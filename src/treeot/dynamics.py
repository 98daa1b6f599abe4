"""Dynamical transport plans: measures on parametrized geodesics.

A plan is a finitely supported probability measure on geodesics sharing one
parameter interval (a segment, a ray, or the whole line).  Its time-t
pushforward is a discrete measure on the tree, and pushing a whole family
of times gives the curve in Wasserstein space the plan represents.

Optimality has one rule per kind of plan.  A segment plan is optimal iff
its endpoint coupling (the projection at its two end times) is cyclically
monotone.  A ray plan is optimal iff its (t0, t) coupling is cyclically
monotone for every t.  Beyond the exit time T of beyond_exit every distance
from a start point to an atom grows affinely, so the cost of every cycle of
shifts is, from T on, affine in t with a sum of squares as its value at t0;
the certificate (transport.certify_costs) on the growth of the squared
distances from T to T + 1 decides it.  Complete plans are decided by
antagonism: two geodesics are antagonist when they run through a common
edge portion in opposite directions, and for plans on unit-speed complete
geodesics this is exactly the negation of cyclical monotonicity.  A
complete plan must also move its atoms at one speed (a time rescaling of a
unit-speed plan): atoms at speeds v != w make a 2-cycle of the (-t, t)
coupling gain 2 (v - w)^2 t^2 - O(t).  Antagonist pairs are reported as
witnesses for every kind; on segment and ray plans they are not a verdict,
since an overlap crossed in opposite directions can be paid for outside it.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .errors import (
    LeafyTree,
    MarginalMismatch,
    NotDiracBased,
    OutOfInterval,
    PlanNotOptimal,
)
from .metric_tree import DUST, TOL, MetricTree, TreeGeodesic, TreePoint, project_to_geodesic
from .transport import (
    DiscreteMeasure,
    TransportPlan,
    _add_in_order,
    _merge_atoms,
    _sums_by_key,
    certify_costs,
    is_cyclically_monotone,
    wasserstein2,
)


class DynamicalPlan(NamedTuple):
    """Finitely supported measure on geodesics over a common interval."""

    atoms: tuple[tuple[TreeGeodesic, float], ...]
    kind: str  # "segment" | "ray" | "complete"
    t0: float
    t1: float

    @staticmethod
    def from_atoms(tree: MetricTree, atoms) -> "DynamicalPlan":
        kept = _merge_atoms(atoms, "plan masses", empty="plan has no mass")
        g0 = kept[0][0]
        t0, t1, kind = g0.t0, g0.t1, g0.interval_kind
        for g, _ in kept:
            if g.t0 != t0 or g.t1 != t1:
                raise MarginalMismatch("atoms do not share a parameter interval")
        return DynamicalPlan(tuple(kept), kind, t0, t1)

    @property
    def speed(self) -> float:
        """The root mean square of the atoms' speeds, each square the
        correctly rounded `s * s` (see transport._squares)."""
        return math.sqrt(_add_in_order(m * (g.speed * g.speed) for g, m in self.atoms))

    def is_unit(self) -> bool:
        return abs(self.speed - 1.0) <= TOL

    def restrict(self, t0: float, t1: float) -> "DynamicalPlan":
        tree = self.atoms[0][0].tree
        return DynamicalPlan.from_atoms(
            tree, [(g.restrict(t0, t1), m) for g, m in self.atoms]
        )


def pushforward_at(plan: DynamicalPlan, t: float) -> DiscreteMeasure:
    """Law of the time-t position of a random geodesic of the plan."""
    tree = plan.atoms[0][0].tree
    return DiscreteMeasure.from_atoms(
        tree, [(g.evaluate(t), m) for g, m in plan.atoms]
    )


def interpolate(
    tree: MetricTree,
    mu0: DiscreteMeasure,
    mu1: DiscreteMeasure,
    plan: TransportPlan | None = None,
) -> DynamicalPlan:
    """Displacement interpolation on [0, 1] of an optimal plan between mu0
    and mu1 (solved internally when not supplied).

    A supplied plan must be optimal; this is certified by the cyclical
    monotonicity check and PlanNotOptimal is raised on failure.  Its points
    are first snapped to the atoms they stand for (see _snap), so a plan
    printed at 12 decimals reads back onto measures given at more.
    """
    if plan is None:
        plan = wasserstein2(tree, mu0, mu1).plan
    else:
        atoms0, atoms1 = dict(mu0.atoms), dict(mu1.atoms)
        plan = plan._replace(entries=tuple(
            (_snap(x, atoms0), _snap(y, atoms1), m) for x, y, m in plan.entries
        ))
        plan.check_marginals(mu0, mu1)
        cert = is_cyclically_monotone(tree, plan)
        if not cert.passed:
            raise PlanNotOptimal(
                f"improvement {cert.improvement:.3e} on cycle {cert.witness}"
            )
    return DynamicalPlan.from_atoms(
        tree,
        [(tree.geodesic_segment(x, y, 0.0, 1.0), m) for x, y, m in plan.entries],
    )


def _snap(p: TreePoint, atoms: dict) -> TreePoint:
    """The atom on p's edge nearest to p within DUST, or p itself when
    there is none (check_marginals then rejects it).  `atoms` maps the
    measure's points to their masses; a vertex or an atom is found by
    lookup, and only another point scans the atoms."""
    if p.edge is None or p in atoms:
        return p
    near = [q for q in atoms if q.edge == p.edge and abs(q.offset - p.offset) <= DUST]
    return min(near, key=lambda q: abs(q.offset - p.offset), default=p)


# -- lifting -------------------------------------------------------------------


class LiftedCoupling(NamedTuple):
    """Most independent lift of a time-t plan to a coupling of two
    dynamical plans, as (mu index, sigma index, mass) triples."""

    pairs: tuple[tuple[int, int, float], ...]
    mu: DynamicalPlan
    sigma: DynamicalPlan

    def project(self, t: float) -> TransportPlan:
        cells = _sums_by_key(
            ((self.mu.atoms[i][0].evaluate(t), self.sigma.atoms[j][0].evaluate(t)), q)
            for i, j, q in self.pairs
        )
        return TransportPlan(tuple((x, y, q) for (x, y), q in cells.items()))


def lift(
    tree: MetricTree,
    mu: DynamicalPlan,
    sigma: DynamicalPlan,
    plan_t: TransportPlan,
    t: float,
) -> LiftedCoupling:
    """Lift a coupling of the time-t laws to a coupling of the plans by the
    product disintegration: conditionally on positions, geodesics are drawn
    independently."""
    mu_t = pushforward_at(mu, t)
    sigma_t = pushforward_at(sigma, t)
    plan_t.check_marginals(mu_t, sigma_t)

    at_mu: dict[TreePoint, list[int]] = {}
    for i, (g, _) in enumerate(mu.atoms):
        at_mu.setdefault(g.evaluate(t), []).append(i)
    at_sigma: dict[TreePoint, list[int]] = {}
    for j, (g, _) in enumerate(sigma.atoms):
        at_sigma.setdefault(g.evaluate(t), []).append(j)

    mass_mu, mass_sigma = dict(mu_t.atoms), dict(sigma_t.atoms)
    pairs = []
    for x, y, q in plan_t.entries:
        mx = mass_mu.get(x, 0.0)
        ny = mass_sigma.get(y, 0.0)
        if mx <= 0.0 or ny <= 0.0:
            raise MarginalMismatch("plan entry outside the pushforward supports")
        for i in at_mu[x]:
            for j in at_sigma[y]:
                w = q * (mu.atoms[i][1] / mx) * (sigma.atoms[j][1] / ny)
                if w > DUST:
                    pairs.append((i, j, w))
    return LiftedCoupling(tuple(pairs), mu, sigma)


# -- antagonism -----------------------------------------------------------------


def antagonist_pairs(plan: DynamicalPlan) -> list[tuple[int, int, str]]:
    """All pairs of support geodesics running through a common edge portion
    in opposite directions, each with a shared edge as witness."""
    traversals = [g.traversals() for g, _ in plan.atoms]
    by_edge: list[dict] = []
    for trav in traversals:
        d: dict = {}
        for eid, lo, hi, direction in trav:
            d[eid] = (lo, hi, direction)
        by_edge.append(d)
    out = []
    n = len(by_edge)
    for i in range(n):
        for j in range(i + 1, n):
            small, large = (i, j) if len(by_edge[i]) <= len(by_edge[j]) else (j, i)
            for eid, (lo, hi, direction) in by_edge[small].items():
                other = by_edge[large].get(eid)
                if other is None or other[2] == direction:
                    continue
                if min(hi, other[1]) - max(lo, other[0]) > DUST:
                    out.append((i, j, eid))
                    break
    return out


class OptimalityCertificate(NamedTuple):
    passed: bool
    witnesses: tuple[tuple[int, int, str], ...]

    def __bool__(self) -> bool:
        return self.passed


def is_optimal_dynamical(tree: MetricTree, plan: DynamicalPlan) -> OptimalityCertificate:
    """Optimality of a dynamical plan, with its antagonist pairs as witnesses.

    A segment plan passes iff its endpoint coupling is cyclically monotone.
    A ray plan passes iff its (t0, t) coupling is cyclically monotone for
    every t, which one certificate decides (see _ray_monotone).  A complete
    plan passes iff its support carries no antagonist pair and its speeds
    agree within TOL (then this is cyclical monotonicity of every two-time
    projection; see the module).
    """
    witnesses = tuple(antagonist_pairs(plan))
    if plan.kind == "segment":
        passed = projection_monotone(tree, plan, [(plan.t0, plan.t1)])
    elif plan.kind == "ray":
        passed = _ray_monotone(tree, plan)
    else:
        speeds = [g.speed for g, _ in plan.atoms]
        passed = not witnesses and max(speeds) - min(speeds) <= TOL
    return OptimalityCertificate(passed, witnesses)


def _ray_monotone(tree: MetricTree, plan: DynamicalPlan) -> bool:
    """Cyclical monotonicity of the (t0, t) coupling of a ray plan for
    every t > t0, decided by one certificate at the exit time T of
    beyond_exit.

    The sources x_i are the plan's distinct points at t0, held fixed.  From
    T on, d_ij(t) = d(x_i, g_j(t)) = v_j (t - t0) + b_ij for every atom g_j,
    with b_ij = 0 where x_i is g_j's own start.  In a cycle of shifts the
    (t - t0)^2 terms of the squared distances cancel, so its weight is
    a (t - t0) + b, where b, the sum of the shifted b_ij^2, is at least 0.
    The weight is therefore at least 0 on [T, inf) iff a >= 0, iff it does
    not fall from T to T + 1: the certificate runs on the growth
    d_ij(T + 1)^2 - d_ij(T)^2 = v_j (2 d_ij(T) + v_j), divided by the
    largest speed v so that it stays finite wherever the distances are (a
    common positive factor changes the sign of no cycle).  It is taken as
    (v_j / v) (2 d_ij(T) + v_j), so that a constant atom gives 0 at any
    distance, and not as a difference of squares, which would carry their
    rounding, about d^2 / 2^52: at exit times near 1e5 that passes the
    certificate's slack and fails plans with tied cycles.  Below T the
    (t0, t) coupling is a restriction of the optimal (t0, T) one (Villani
    2009, Thm 7.30).  Rows are keyed as is_cyclically_monotone keys sources,
    so a plan from one point is a single, connected row.
    """
    starts: dict = {}
    si = [starts.setdefault(g.evaluate(plan.t0), len(starts)) for g, _ in plan.atoms]
    fixed = [tree.constant_geodesic(x, plan.t0, math.inf) for x in starts]
    rays = [g for g, _ in plan.atoms]
    near = _distances_at(tree, fixed, rays, beyond_exit(tree, fixed, rays))
    fastest = max(g.speed for g in rays) or 1.0
    grow = [[g.speed / fastest * (2.0 * d + g.speed) for d, g in zip(row, rays)] for row in near]
    return certify_costs(grow, si, range(len(si))).passed


def beyond_exit(
    tree: MetricTree, mu: Sequence[TreeGeodesic], sigma: Sequence[TreeGeodesic]
) -> float:
    """A time T from which on the distance between every geodesic of mu and
    every one of sigma, all on [t0, inf), is affine in t.

    Such a distance can kink only while a geodesic still passes vertices,
    or when two on one infinite edge pass each other.  T is therefore the
    latest of 1, the geodesics' start times, each one's time at its last
    node, and the crossing time of every pair on a common infinite edge
    (TreeGeodesic.tail).
    """
    tails = [[g.tail() for g in side] for side in (mu, sigma)]
    t = max([1.0] + [g.t0 for side in (mu, sigma) for g in side]
            + [a[3] for side in tails for a in side if a is not None])
    for a in tails[0]:
        for b in tails[1]:
            if a is not None and b is not None and a[0] == b[0] and a[2] != b[2]:
                t = max(t, (b[1] - a[1]) / (a[2] - b[2]))
    return t


def _distances_at(
    tree: MetricTree, mu: Sequence[TreeGeodesic], sigma: Sequence[TreeGeodesic], t: float
) -> list[list[float]]:
    """Distances between the points of the geodesics of mu and of sigma at t.
    ``evaluate`` returns canonical points, so they go to the distance kernel
    as they are, with their sides."""
    px, py = [g.evaluate(t) for g in mu], [h.evaluate(t) for h in sigma]
    side = tree._side
    return tree._distance_rows(px, list(map(side, px)), py, list(map(side, py)))


def projection_monotone(
    tree: MetricTree,
    plan: DynamicalPlan,
    time_pairs: Sequence[tuple[float, float]],
) -> bool:
    """Cyclical monotonicity of the (e_s, e_t) projections at given times."""
    for s, t in time_pairs:
        proj = TransportPlan(
            tuple((g.evaluate(s), g.evaluate(t), m) for g, m in plan.atoms)
        )
        if not is_cyclically_monotone(tree, proj).passed:
            return False
    return True


# -- extension and Dirac interpolation -------------------------------------------


def extend_from_dirac(tree: MetricTree, segment_plan: DynamicalPlan) -> DynamicalPlan:
    """Extend a segment plan issued from a Dirac mass to a ray plan on
    [0, inf), continuing each geodesic along its path; at branch vertices the
    lowest edge id is taken (the existence proof selects measurably, any
    deterministic selection is faithful).  Speed-0 atoms stay constant."""
    if not tree.is_leaf_free():
        raise LeafyTree(f"tree has leaves {tree.report.leaves}")
    if segment_plan.kind != "segment" or abs(segment_plan.t0) > TOL:
        raise NotDiracBased("expected a segment plan parametrized from t0 = 0")
    start = pushforward_at(segment_plan, segment_plan.t0)
    if len(start.atoms) != 1:
        raise NotDiracBased("plan does not start at a Dirac mass")

    out = []
    for g, m in segment_plan.atoms:
        out.append((_extend_geodesic(tree, g), m))
    return DynamicalPlan.from_atoms(tree, out)


def _extend_geodesic(tree: MetricTree, g: TreeGeodesic) -> TreeGeodesic:
    """The ray from g's start through g's far point to the end ahead of it."""
    start = g.nodes[0][1]
    if g.is_constant:
        return tree.constant_geodesic(start, 0.0, math.inf)
    far = g.nodes[-1][1]
    eid, _, _, direction = g.traversals()[-1]
    e = tree.edge(eid)
    if not far.is_vertex() and direction > 0:
        # still heading for the edge's second endpoint, or out to its end
        end = tree.extension_walk(e.ends[0], eid)
    else:
        v = far.vertex if far.is_vertex() else e.ends[0]
        end = tree.extension_walk(v, tree.onward_edge(v, eid))
    return tree.ray_to_end(start, end, g.speed)


def dirac_interpolation(
    tree: MetricTree, x: TreePoint, mu: DiscreteMeasure, t: float
) -> DiscreteMeasure:
    """Time-t law of the unique interpolation from the Dirac at x to mu;
    at t = 1/2 every atom sits at the metric midpoint."""
    if not -TOL <= t <= 1.0 + TOL:
        raise OutOfInterval(f"t={t} outside [0, 1]")
    x = tree.canonical_point(x)
    atoms = []
    for y, m in mu.atoms:
        if y == x:
            atoms.append((x, m))
        else:
            atoms.append((tree.geodesic_segment(x, y, 0.0, 1.0).evaluate(t), m))
    return DiscreteMeasure.from_atoms(tree, atoms)


class SupportTestResult(NamedTuple):
    supported: bool
    witness: tuple[TreePoint, TreePoint] | None
    lhs: float | None  # W(x^1/2 mu, x^1/2 delta_g) at the witness
    rhs: float | None  # W(mu, delta_g) / 2 at the witness

    def __bool__(self) -> bool:
        return self.supported


def supported_on_geodesic_test(
    tree: MetricTree, mu: DiscreteMeasure, gamma: TreeGeodesic
) -> SupportTestResult:
    """Decide whether mu is supported on a maximal geodesic through the
    midpoint characterization; when it is not, return base points (x, g) on
    the locus for which the halfway contraction is strictly better than the
    straight-line factor 1/2."""
    _require_maximal(tree, gamma)
    off = []
    for p, m in mu.atoms:
        proj = project_to_geodesic(tree, p, gamma)
        gap = tree.distance(p, proj)
        if gap > TOL:
            off.append((m, gap, p, proj))
    if not off:
        return SupportTestResult(True, None, None, None)
    off.sort(key=lambda r: -r[0])
    _, _, y, z = off[0]
    s_z = gamma.arc_of_point(z)
    lo, hi = gamma.arc_bounds()
    room = tree.distance(y, z) + 1.0
    d_minus = room if math.isinf(lo) else min(room, 0.5 * (s_z - lo))
    d_plus = room if math.isinf(hi) else min(room, 0.5 * (hi - s_z))
    x = gamma.point_at_arc(s_z - d_minus)
    g = gamma.point_at_arc(s_z + d_plus)
    mid = tree.geodesic_segment(x, g, 0.0, 1.0).evaluate(0.5)
    lhs = wasserstein2(
        tree, dirac_interpolation(tree, x, mu, 0.5), DiscreteMeasure.dirac(tree, mid)
    ).distance
    rhs = 0.5 * wasserstein2(tree, mu, DiscreteMeasure.dirac(tree, g)).distance
    return SupportTestResult(False, (x, g), lhs, rhs)


def _require_maximal(tree: MetricTree, gamma: TreeGeodesic) -> None:
    """OutOfInterval when a side of gamma stops at a point it could be
    extended from: neither at an end nor at a leaf.  A constant geodesic at
    a leaf passes here; project_to_geodesic then raises ConstantGeodesic."""
    for side_end, node in (
        (gamma.neg_end, gamma.nodes[0][1]),
        (gamma.pos_end, gamma.nodes[-1][1]),
    ):
        if side_end is not None:
            continue
        if not (node.is_vertex() and tree.valency(node.vertex) == 1):
            raise OutOfInterval("geodesic is not maximal (endpoint is extendable)")


# -- complete plans ---------------------------------------------------------------


class SpeedCertificate(NamedTuple):
    passed: bool
    speeds: tuple[float, ...]
    witness: tuple[int, int] | None  # a pair of atoms with different speeds

    def __bool__(self) -> bool:
        return self.passed


def validate_complete_plan(plan: DynamicalPlan) -> SpeedCertificate:
    """Necessary condition for a complete Wasserstein geodesic: every atom of
    a unit complete plan must itself have unit speed.  A mixed-speed witness
    pair violates cyclical monotonicity of the (e_t, e_{-t}) projection for
    large t."""
    if plan.kind != "complete":
        raise OutOfInterval("plan is not parametrized on the whole line")
    speeds = tuple(g.speed for g, _ in plan.atoms)
    passed = all(abs(s - 1.0) <= TOL for s in speeds)
    witness = None
    if not passed and len(speeds) >= 2:
        i = min(range(len(speeds)), key=lambda k: speeds[k])
        j = max(range(len(speeds)), key=lambda k: speeds[k])
        if speeds[j] - speeds[i] > TOL:
            witness = (i, j)
    return SpeedCertificate(passed, speeds, witness)
