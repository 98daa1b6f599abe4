"""Shared generators and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: distances are
re-derived by breadth-first search over the raw edge list, optimal transport
costs by enumerating permutation couplings, and projections by dense
sampling of the locus.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import numpy as np

import treeot as T


# -- random instances -----------------------------------------------------------


def random_tree(
    rng,
    n_vertices: int,
    n_infinite: int = 0,
    min_len: float = 0.2,
    max_len: float = 2.0,
    basepoint_vertex: bool = True,
) -> T.MetricTree:
    names = [f"w{i:03d}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        parent = int(rng.integers(0, i))
        length = float(rng.uniform(min_len, max_len))
        edges.append((f"e{i:03d}", (names[parent], names[i]), length))
    for k in range(n_infinite):
        v = names[int(rng.integers(0, n_vertices))]
        edges.append((f"r{k:03d}", (v,), math.inf))
    bp = names[int(rng.integers(0, n_vertices))]
    return T.MetricTree(names, edges, bp)


def random_radon_tree(rng, n_vertices: int) -> T.MetricTree:
    """Random tree padded with infinite edges until every vertex has
    valency at least 3 (no leaves, no valency-2 vertices)."""
    tree = random_tree(rng, n_vertices, n_infinite=0)
    names = list(tree.vertices)
    edges = [(e.id, e.ends, e.length) for e in tree.edges.values()]
    k = 0
    for v in names:
        missing = max(0, 3 - tree.valency(v))
        for _ in range(missing):
            edges.append((f"r{k:03d}", (v,), math.inf))
            k += 1
    bp = names[int(rng.integers(0, len(names)))]
    return T.MetricTree(names, edges, bp)


def random_cubic_tree(rng, n_vertices: int) -> T.MetricTree:
    """Random tree in which every vertex has valency exactly 3: each new
    vertex hangs off an earlier one with a free slot, and the remaining
    slots are filled with infinite edges."""
    names = [f"w{i:03d}" for i in range(n_vertices)]
    valency = [0] * n_vertices
    edges = []
    for i in range(1, n_vertices):
        free = [j for j in range(i) if valency[j] < 3]
        parent = free[int(rng.integers(0, len(free)))]
        valency[parent] += 1
        valency[i] += 1
        length = float(rng.uniform(0.2, 2.0))
        edges.append((f"e{i:03d}", (names[parent], names[i]), length))
    k = 0
    for i, v in enumerate(names):
        for _ in range(3 - valency[i]):
            edges.append((f"r{k:03d}", (v,), math.inf))
            k += 1
    bp = names[int(rng.integers(0, n_vertices))]
    return T.MetricTree(names, edges, bp)


def random_point(rng, tree: T.MetricTree, max_ray_offset: float = 3.0) -> T.TreePoint:
    if rng.random() < 0.4:
        v = tree.vertices[int(rng.integers(0, len(tree.vertices)))]
        return tree.vertex_point(v)
    eids = sorted(tree.edges)
    e = tree.edges[eids[int(rng.integers(0, len(eids)))]]
    if e.infinite:
        return tree.edge_point(e.id, float(rng.uniform(0.0, max_ray_offset)))
    return tree.edge_point(e.id, float(rng.uniform(0.0, e.length)))


def distinct_points(rng, tree, n: int) -> list[T.TreePoint]:
    pts: list[T.TreePoint] = []
    while len(pts) < n:
        p = random_point(rng, tree)
        if p not in pts:
            pts.append(p)
    return pts


def dyadic_masses(rng, n: int, denom: int = 64) -> list[float]:
    """n positive masses summing to exactly 1.0 in floats (multiples of
    1/denom); keeps identities that pass through square roots exact."""
    while True:
        cuts = sorted(int(c) for c in rng.integers(1, denom, size=n - 1))
        bounds = [0] + cuts + [denom]
        ks = [b - a for a, b in zip(bounds, bounds[1:])]
        if all(k > 0 for k in ks):
            return [k / denom for k in ks]


def random_measure(rng, tree, n_atoms: int) -> T.DiscreteMeasure:
    pts = distinct_points(rng, tree, n_atoms)
    masses = rng.uniform(0.2, 1.0, size=n_atoms)
    masses = masses / masses.sum()
    return T.DiscreteMeasure.from_atoms(tree, list(zip(pts, masses)))


def uniform_measure(rng, tree, n_atoms: int) -> T.DiscreteMeasure:
    pts = distinct_points(rng, tree, n_atoms)
    return T.DiscreteMeasure.from_atoms(tree, [(p, 1.0 / n_atoms) for p in pts])


# -- independent oracles -----------------------------------------------------------


def bfs_distance(tree: T.MetricTree, p: T.TreePoint, q: T.TreePoint) -> float:
    """Path metric recomputed from scratch: breadth-first search over the
    finite edge list, taking the best exit combination for interior points."""

    def exits(pt):
        if pt.is_vertex():
            return [(pt.vertex, 0.0)]
        e = tree.edges[pt.edge]
        if e.infinite:
            return [(e.ends[0], pt.offset)]
        return [(e.ends[0], pt.offset), (e.ends[1], e.length - pt.offset)]

    if p.edge is not None and p.edge == q.edge:
        return abs(p.offset - q.offset)

    def vdist(u, v):
        if u == v:
            return 0.0
        dist = {u: 0.0}
        dq = deque([u])
        while dq:
            w = dq.popleft()
            if w == v:
                return dist[w]
            for eid in tree.incident_edges(w):
                e = tree.edges[eid]
                if e.infinite:
                    continue
                x = e.ends[1] if e.ends[0] == w else e.ends[0]
                if x not in dist:
                    dist[x] = dist[w] + e.length
                    dq.append(x)
        raise AssertionError("disconnected")

    return min(
        ca + vdist(a, b) + cb for a, ca in exits(p) for b, cb in exits(q)
    )


def component_vertices(tree: T.MetricTree, x: str, via: str) -> set[str]:
    """Vertices of the component of X minus x entered through edge `via`,
    by breadth-first search over the edge list that never re-enters x."""
    e = tree.edges[via]
    if e.infinite:
        return set()
    start = e.ends[1] if e.ends[0] == x else e.ends[0]
    seen = {start}
    dq = deque([start])
    while dq:
        w = dq.popleft()
        for eid in tree.incident_edges(w):
            g = tree.edges[eid]
            if g.infinite:
                continue
            u = g.ends[1] if g.ends[0] == w else g.ends[0]
            if u != x and u not in seen:
                seen.add(u)
                dq.append(u)
    return seen


def perpendicular_set(tree: T.MetricTree, x: str, e: str, f: str) -> set[str]:
    """x together with the components off x through edges other than e, f."""
    out = {x}
    for g in tree.incident_edges(x):
        if g not in (e, f):
            out |= component_vertices(tree, x, g)
    return out


def permutation_cost(tree, xs, ys) -> float:
    """Minimal quadratic cost over permutation couplings of two uniform
    n-point configurations."""
    n = len(xs)
    d2 = [[tree.distance(x, y) ** 2 for y in ys] for x in xs]
    best = min(
        sum(d2[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )
    return best / n


def dense_projection(tree, y, gamma, step: float = 1e-3) -> float:
    """Distance from y to a dense sample of the locus (projection oracle)."""
    lo, hi = gamma.arc_bounds()
    ref = tree.distance(y, gamma.nodes[0][1])
    lo = max(lo, gamma.nodes[0][0] - 2.0 * ref - 1.0)
    hi = min(hi, gamma.nodes[0][0] + 2.0 * ref + 1.0)
    ss = np.arange(lo, hi + step, step)
    return min(tree.distance(y, gamma.point_at_arc(float(s))) for s in ss)


def measures_close(a: T.DiscreteMeasure, b: T.DiscreteMeasure, tol=1e-9) -> bool:
    want = {p: m for p, m in a.atoms}
    got = {p: m for p, m in b.atoms}
    keys = set(want) | set(got)
    return all(abs(want.get(p, 0.0) - got.get(p, 0.0)) <= tol for p in keys)


# -- corrupted plans ------------------------------------------------------------


def swap_entries(plan: T.TransportPlan, i: int, j: int) -> T.TransportPlan:
    """Cross the targets of entries i and j on their common mass."""
    entries = list(plan.entries)
    x1, y1, m1 = entries[i]
    x2, y2, m2 = entries[j]
    delta = min(m1, m2)
    out = [e for k, e in enumerate(entries) if k not in (i, j)]
    if m1 - delta > 1e-12:
        out.append((x1, y1, m1 - delta))
    if m2 - delta > 1e-12:
        out.append((x2, y2, m2 - delta))
    out.append((x1, y2, delta))
    out.append((x2, y1, delta))
    return T.TransportPlan(tuple(out))


def corrupt_transport_plan(rng, tree, plan, min_gain=1e-6):
    """A strictly more expensive plan with the same marginals, or None."""
    d2 = lambda p, q: tree.distance(p, q) ** 2
    entries = plan.entries
    candidates = []
    for i in range(len(entries)):
        for j in range(i + 1, len(entries)):
            x1, y1, _ = entries[i]
            x2, y2, _ = entries[j]
            gain = d2(x1, y2) + d2(x2, y1) - d2(x1, y1) - d2(x2, y2)
            if gain > min_gain:
                candidates.append((i, j))
    if not candidates:
        return None
    i, j = candidates[int(rng.integers(0, len(candidates)))]
    return swap_entries(plan, i, j)


def corrupt_dynamical_plan(rng, tree, mu0, mu1):
    """A segment plan with the same endpoint measures as the optimal
    interpolation but strictly suboptimal and carrying an antagonist pair;
    None when no swap of the optimal plan produces both."""
    plan = T.wasserstein2(tree, mu0, mu1).plan
    d2 = lambda p, q: tree.distance(p, q) ** 2
    entries = plan.entries
    pairs = [(i, j) for i in range(len(entries)) for j in range(i + 1, len(entries))]
    order = rng.permutation(len(pairs))
    for k in order:
        i, j = pairs[int(k)]
        x1, y1, _ = entries[i]
        x2, y2, _ = entries[j]
        gain = d2(x1, y2) + d2(x2, y1) - d2(x1, y1) - d2(x2, y2)
        if gain <= 1e-6:
            continue
        bad = swap_entries(plan, i, j)
        dyn = T.DynamicalPlan.from_atoms(
            tree,
            [(tree.geodesic_segment(x, y, 0.0, 1.0), m) for x, y, m in bad.entries],
        )
        if T.antagonist_pairs(dyn):
            return dyn
    return None
