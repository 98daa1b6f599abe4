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


def random_radon_tree(
    rng, n_vertices: int, min_len: float = 0.2, max_len: float = 2.0
) -> T.MetricTree:
    """Random tree padded with infinite edges until every vertex has
    valency at least 3 (no leaves, no valency-2 vertices)."""
    tree = random_tree(rng, n_vertices, n_infinite=0, min_len=min_len, max_len=max_len)
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


def spread_masses(rng, n: int) -> list[float]:
    """n masses normalised to 1, none of them a short binary fraction, so
    that sums of them round differently in different orders."""
    m = rng.uniform(0.5, 1.5, size=n)
    return [float(v) for v in m / m.sum()]


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


def bfs_edge_path(tree: T.MetricTree, p: T.TreePoint, q: T.TreePoint) -> list[str]:
    """Edges of the geodesic from p to q (p != q), in order, found without
    lengths: breadth-first search between every pair of exit vertices keeps
    the one path that crosses neither point's own edge."""
    if p.edge is not None and p.edge == q.edge:
        return [p.edge]

    def exits(pt):
        return [pt.vertex] if pt.is_vertex() else list(tree.edges[pt.edge].ends)

    def edges_between(u, v):
        back = {u: None}
        dq = deque([u])
        while dq:
            w = dq.popleft()
            for eid in tree.incident_edges(w):
                e = tree.edges[eid]
                if e.infinite:
                    continue
                x = e.ends[1] if e.ends[0] == w else e.ends[0]
                if x not in back:
                    back[x] = (w, eid)
                    dq.append(x)
        path = []
        while back[v] is not None:
            v, eid = back[v]
            path.append(eid)
        return path[::-1]

    head = [] if p.is_vertex() else [p.edge]
    tail = [] if q.is_vertex() else [q.edge]
    found = [
        path for a in exits(p) for b in exits(q)
        if not set(head + tail) & set(path := edges_between(a, b))
    ]
    assert len(found) == 1, found
    return head + found[0] + tail


def parent_vertex(tree: T.MetricTree, v: str) -> str | None:
    """The other endpoint of v's edge toward the root (None at the root)."""
    eid = tree.parent_edge(v)
    if eid is None:
        return None
    a, b = tree.edges[eid].ends
    return a if b == v else b


def naive_lca(tree: T.MetricTree, u: str, v: str) -> str:
    """Lowest common ancestor by walking parent edges up to the root: the
    first vertex on v's root path that also lies on u's."""

    def root_path(w):
        path = [w]
        while (w := parent_vertex(tree, w)) is not None:
            path.append(w)
        return path

    on_u = set(root_path(u))
    return next(w for w in root_path(v) if w in on_u)


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


def common_edge(tree: T.MetricTree, pa: T.TreePoint, pb: T.TreePoint) -> str:
    """The one edge joining two consecutive locus nodes, from their incident
    edge sets (an interior point's set is its own edge)."""
    ea = set(tree.incident_edges(pa.vertex)) if pa.is_vertex() else {pa.edge}
    eb = set(tree.incident_edges(pb.vertex)) if pb.is_vertex() else {pb.edge}
    common = ea & eb
    assert len(common) == 1, f"no unique edge between {pa!r} and {pb!r}"
    return next(iter(common))


def assert_spans(tree: T.MetricTree, gamma: T.TreeGeodesic) -> None:
    """Every span of gamma is the edge common_edge finds between its two
    nodes, and every step's arc length is their breadth-first distance."""
    steps = list(zip(gamma.nodes, gamma.nodes[1:]))
    assert gamma.spans == tuple(common_edge(tree, pa, pb) for (_, pa), (_, pb) in steps)
    for (sa, pa), (sb, pb) in steps:
        assert abs((sb - sa) - bfs_distance(tree, pa, pb)) <= 1e-12


def squared_distance(tree: T.MetricTree, p: T.TreePoint, q: T.TreePoint) -> float:
    """``d * d`` for the distance d from p to q, correctly rounded as the
    library squares it (``d ** 2`` goes through the C library's ``pow``)."""
    d = tree.distance(p, q)
    return d * d


def permutation_cost(tree, xs, ys) -> float:
    """Minimal quadratic cost over permutation couplings of two uniform
    n-point configurations."""
    n = len(xs)
    d2 = [[squared_distance(tree, x, y) for y in ys] for x in xs]
    best = min(
        sum(d2[i][perm[i]] for i in range(n))
        for perm in itertools.permutations(range(n))
    )
    return best / n


def simple_cycles(k: int):
    """Every simple cycle of the complete digraph on 0..k-1, once each, as
    a node tuple starting at its lowest node."""
    for start in range(k):
        rest = range(start + 1, k)
        for length in range(1, k - start):
            for tail in itertools.permutations(rest, length):
                yield (start,) + tail


def cycle_weight(w, cycle) -> float:
    return add_in_order(float(w[a, b]) for a, b in zip(cycle, cycle[1:] + cycle[:1]))


def reference_min_improvement_cycle(weights, max_cycle: int):
    """``transport.min_improvement_cycle`` as it was written in numpy, the
    reference for the pure-Python search: each round relaxes every node at
    once from the previous round's potentials (argmin, lowest e on ties),
    then walks the predecessors from each node relaxed, in index order, and
    stops at the first walk that comes back on itself.  Same slack, same
    re-check, same rotation and left-to-right weight, so the two agree bit
    for bit."""
    w = np.asarray(weights, dtype=float)
    k = w.shape[0]
    if k == 0 or max_cycle < 2:
        return 0.0, None
    slack = T.transport._arc_slack(k, float(np.abs(w).max()))
    nodes = np.arange(k)
    into = np.ascontiguousarray(w.T)  # into[f, e] = w[e, f]
    phi = np.zeros(k)
    pred = np.full(k, k)  # k is the virtual source
    for _ in range(k):
        cand = into + phi
        arg = cand.argmin(axis=1)
        best = cand[nodes, arg]
        relaxed = best < phi - slack
        if not relaxed.any():
            if np.all(w >= phi[None, :] - phi[:, None] - slack):
                return 0.0, None
            raise T.SolverFailure("re-check failed")
        phi = np.where(relaxed, best, phi)
        pred = np.where(relaxed, arg, pred)
        links, e = pred.tolist(), k
        for start in np.flatnonzero(relaxed).tolist():
            path, e = set(), start
            while e != k and e not in path:
                path.add(e)
                e = links[e]
            if e != k:
                break
        if e != k:
            break
    else:
        raise T.SolverFailure("still relaxing")
    cycle = [e]
    while links[cycle[-1]] != e:
        cycle.append(links[cycle[-1]])
    cycle.reverse()
    low = cycle.index(min(cycle))
    cycle = cycle[low:] + cycle[:low]
    return cycle_weight(w, cycle), tuple(cycle)


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


def support_components(plan: T.TransportPlan) -> int:
    """Connected components of the bipartite graph whose arcs join each
    entry's source to its target."""
    owner: dict = {}

    def find(a):
        while owner.setdefault(a, a) != a:
            a = owner[a]
        return a

    for x, y, _ in plan.entries:
        owner[find(("x", x))] = find(("y", y))
    return len({find(a) for a in list(owner)})


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
    d2 = lambda p, q: squared_distance(tree, p, q)
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
    d2 = lambda p, q: squared_distance(tree, p, q)
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


# -- reference flows (the per-vertex list form of the flow definitions) -----------


def add_in_order(values) -> float:
    """Left-to-right float sum, the order that ``sum`` adds in up to Python
    3.11 (from 3.12 on ``sum`` of floats is compensated)."""
    total = 0.0
    for v in values:
        total += v
    return total


def northwest_corner(supply, demand) -> dict:
    """The northwest-corner basis of a transportation problem, as a start for
    the simplex: its m + n - 1 cells, (i, j) -> mass, the demand scaled to
    the supply's total (sums added left to right).  A column is entered only
    from a row with mass left, and the last row takes what the columns still
    need, so every cell entering a column carries positive mass and a zero
    mass hangs a row from its column: the basis is strongly feasible."""
    a = [float(s) for s in supply]
    scale = add_in_order(a) / add_in_order(demand)
    b = [float(d) * scale for d in demand]
    m, n = len(a), len(b)
    cells = {}
    i = j = 0
    while True:
        q = b[j] if i == m - 1 else a[i] if j == n - 1 else min(a[i], b[j])
        cells[i, j] = q = max(0.0, q)
        a[i] -= q
        b[j] -= q
        if i == m - 1 and j == n - 1:
            return cells
        if j == n - 1 or (i < m - 1 and a[i] <= b[j]):
            i += 1
        else:
            j += 1


def d0_simplex(tree: T.MetricTree, nu_minus, nu_plus):
    """The -D0^2 problem as a matrix, solved by the transportation simplex
    from the northwest corner.  Returns the optimal value and the entries
    (end, end, mass).

    Each D0 is the distance from the base point to its projection onto the
    geodesic between the two ends, anchored at the first end's attachment:
    neither ``gromov_product`` nor the tree rooted at the base point."""
    from treeot.transport import solve_transport

    def d0(a, b):
        anchor = tree.vertex_point(tree.end_attachment(a))
        g = tree.geodesic_between_ends(a, b, anchor=anchor)
        return tree.distance(tree.basepoint, T.project_to_geodesic(tree, tree.basepoint, g))

    xs = [e for e, _ in nu_minus.atoms]
    ys = [e for e, _ in nu_plus.atoms]
    cost = [[-(d * d) for d in (d0(a, b) for b in ys)] for a in xs]
    start = northwest_corner([m for _, m in nu_minus.atoms], [m for _, m in nu_plus.atoms])
    value, entries, _ = solve_transport(cost, start=start)
    return value, [(xs[i], ys[j], q) for i, j, q in entries]


def random_basepoint(rng, tree: T.MetricTree, kind: str):
    """A vertex, a point inside a finite edge, or a point on a ray."""
    if kind == "vertex":
        return tree.vertices[int(rng.integers(0, len(tree.vertices)))]
    eids = sorted(e.id for e in tree.edges.values() if e.infinite == (kind == "ray"))
    e = tree.edges[eids[int(rng.integers(0, len(eids)))]]
    top = 5.0 if e.infinite else e.length
    return tree.edge_point(e.id, float(rng.uniform(0.05, 0.95)) * top)


def reference_tooth_masses(exponent: float, depth: int) -> list[float]:
    """``CombFamily.tooth_masses``: n^(-exponent) for the teeth 1..depth,
    each parity divided by its normaliser added left to right."""
    raw = [float(n) ** (-exponent) for n in range(1, depth + 1)]
    z_minus, z_plus = add_in_order(raw[0::2]), add_in_order(raw[1::2])
    return [m / (z_minus if n % 2 else z_plus) for n, m in enumerate(raw, 1)]


def reference_realizability(tree: T.MetricTree, specific) -> float:
    """The realizability sum of the specific flows, added left to right over
    the tree's vertices."""
    bp_dist = tree.basepoint_distances()
    return add_in_order(specific[x] * (bp_dist[x] * bp_dist[x]) for x in tree.vertices)


def reference_partial_sum(family, depth: int) -> float:
    """``CombFamily.partial_sum`` in its list form: the suffix sums filled in
    from the tip, then each base vertex's outgoing flows in a list (back along
    the base, into its tooth, on along the base) and the positive ones
    added."""
    if depth < 2:
        return 0.0
    masses = reference_tooth_masses(family.mass_exponent, depth)
    signed = [
        0.0 if m <= 1e-12 else m if n % 2 == 0 else -m
        for n, m in enumerate(masses, 1)
    ]
    suffix = [0.0] * (depth + 2)  # suffix[n] = sum_{k >= n} signed[k-1]
    for n in range(depth, 0, -1):
        suffix[n] = suffix[n + 1] + signed[n - 1]
    total = 0.0
    for n in range(2, depth + 1):
        outs = [-suffix[n], signed[n - 1]]
        if n < depth:
            outs.append(suffix[n + 1])
        phi = add_in_order(f for f in outs if f > 0.0)
        total += (phi - abs(suffix[n])) * float(n - 1) ** 2
    return total


def reference_vertex_flows(tree: T.MetricTree, nu_minus, nu_plus):
    """Vertex and specific flows from ``mass_beyond``: at each vertex the
    flows out along its incident edges, found in the edge list and sorted by
    id, the positive ones added, and the one toward the base point taken
    away."""
    nu: dict[str, float] = {}
    for e, m in nu_plus.atoms:
        nu[e.edge] = nu.get(e.edge, 0.0) + m
    for e, m in nu_minus.atoms:
        nu[e.edge] = nu.get(e.edge, 0.0) - m
    edge_flow = tree.mass_beyond({}, nu)
    vertex_flow, specific = {}, {}
    for x in tree.vertices:
        flows = {}
        for eid in sorted(eid for eid, e in tree.edges.items() if x in e.ends):
            e = tree.edges[eid]
            f = edge_flow[eid]
            flows[eid] = -f if not e.infinite and e.ends[0] != x else f
        phi = add_in_order(f for f in flows.values() if f > 0.0)
        toward = tree.toward_basepoint(x)
        vertex_flow[x] = phi
        specific[x] = phi if toward is None else phi - abs(flows[toward])
    return vertex_flow, specific


def assert_classified_by_target(report) -> None:
    """The report's classification agrees with its target, the cone distance
    of the asymptotic measures, which a separate solve on the cone computes:
    W is bounded ("asymptotic") when the target is 0 and grows linearly
    when it is positive.  A target within 1e-6 of 0 is read as 0 (mass
    rounding on a positive cone distance leaves about 1e-8), and one below
    1e-4 is too close to call and is not checked."""
    if report.target <= 1e-6:
        assert report.classification == "asymptotic"
    elif report.target >= 1e-4:
        assert report.classification == "linear"
