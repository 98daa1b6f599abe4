"""Locally finite metric trees: points, ends, geodesics, projections.

The tree is described as a graph ``(V, E)`` where every edge carries one or
two endpoints and a positive length; edges with a single endpoint are the
infinite ones and each of them carries exactly one boundary end.  All
operations are pure functions over an immutable, validated tree:

- path metric: a sparse table of range minima over the rooted preorder,
  built on the first query, answers every LCA in O(1).  Geodesics are
  unique: a path leaves a point inside an edge by the deeper endpoint
  exactly when it heads into that endpoint's preorder slice.  ``distance``,
  the batched ``distance_matrix`` and ``path_nodes`` (one walk up the
  parent pointers for every locus) share this exit rule,
- geodesic segments, rays to an end, bi-infinite geodesics between ends,
- the base-to-geodesic distance of two ends (Gromov product),
- nearest-point projection onto a geodesic,
- perpendicular vertex sets of a flag (vertex with two incident edges).

The constructor walks the finite edges once, depth first from the root (the
base point, or the first endpoint of its edge), and every structure query
reads that rooted copy: parent pointers and depths for paths, depths along
the preorder for the LCA table, root distances for base-point distances, a
preorder with subtree sizes for the components of X minus a vertex, and
reverse-preorder subtree sums for the mass beyond every edge (flows, the
Radon transform).

Numeric conventions: 64-bit floats, comparison tolerance 1e-9, snapping of
arc arithmetic dust at 1e-12.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    ConstantGeodesic,
    EqualEnds,
    FlagInvalid,
    LeafyTree,
    MalformedTree,
    NonFiniteValue,
    OutOfInterval,
)

TOL = 1e-9
_SNAP = 1e-12


@dataclass(frozen=True)
class TreePoint:
    """A location on the tree: a vertex, or an interior point of an edge.

    Interior points store the offset from the edge's first stored endpoint.
    Canonical form is enforced by the tree constructors: offsets 0 / length
    are represented as the endpoint vertex, never as an interior point.
    """

    vertex: str | None = None
    edge: str | None = None
    offset: float = 0.0

    def is_vertex(self) -> bool:
        return self.vertex is not None

    def __repr__(self) -> str:
        if self.vertex is not None:
            return f"TreePoint({self.vertex!r})"
        return f"TreePoint({self.edge!r}@{self.offset:g})"


@dataclass(frozen=True)
class TreeEnd:
    """A boundary point at infinity, identified with its infinite edge."""

    edge: str

    def __repr__(self) -> str:
        return f"TreeEnd({self.edge!r})"


@dataclass(frozen=True)
class Edge:
    id: str
    ends: tuple[str, ...]
    length: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.length)


@dataclass(frozen=True)
class ValidationReport:
    """Structural report of a built tree (``MetricTree.report``).

    Construction itself rejects cycles, disconnection, nonpositive lengths
    and two-endpoint infinite edges, so a report is always ``ok``; it still
    carries the leaf and valency-2 lists that later modules care about.
    """

    connected: bool
    acyclic: bool
    leaves: tuple[str, ...]
    valency2: tuple[str, ...]
    infinite_edges: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.connected and self.acyclic


class MetricTree:
    """Validated immutable metric tree with a distinguished base point.

    Raises :class:`MalformedTree` on construction if the graph has a cycle,
    is disconnected, has a nonpositive edge length, or has an infinite edge
    with two endpoints.  Leaves and valency-2 vertices are merely reported
    (see :attr:`report`); the Radon module re-checks and forbids them.
    """

    def __init__(
        self,
        vertices: Iterable[str],
        edges: Iterable[tuple[str, Sequence[str], float]],
        basepoint: "TreePoint | str",
    ):
        names = list(vertices)
        if not names:
            raise MalformedTree("tree needs at least one vertex")
        if len(set(names)) != len(names):
            raise MalformedTree("duplicate vertex names")
        self._vertices = tuple(sorted(names))
        self._vset = vset = set(self._vertices)

        self._edges: dict[str, Edge] = {}
        incident: dict[str, list[str]] = {v: [] for v in self._vertices}
        n_finite = 0
        for eid, ends, length in edges:
            if eid in self._edges:
                raise MalformedTree(f"duplicate edge id {eid!r}")
            ends = tuple(ends)
            if not vset.issuperset(ends):
                raise MalformedTree(f"edge {eid!r} references unknown vertex")
            length = float(length)
            if not length > 0.0:  # also NaN and -inf; only +inf marks a ray
                raise MalformedTree(f"edge {eid!r} has nonpositive length")
            if length == math.inf:
                if len(ends) != 1:
                    raise MalformedTree(
                        f"infinite edge {eid!r} must have exactly one endpoint"
                    )
            else:
                if len(ends) != 2:
                    raise MalformedTree(
                        f"finite edge {eid!r} must have two endpoints"
                    )
                if ends[0] == ends[1]:
                    raise MalformedTree(f"edge {eid!r} is a self loop (cycle)")
                n_finite += 1
            self._edges[eid] = Edge(eid, ends, length)
            for v in ends:
                incident[v].append(eid)
        self._incident = {v: tuple(sorted(es)) for v, es in incident.items()}

        # From here on an edge is infinite exactly when it has one endpoint,
        # and the linear passes test len(e.ends) instead of the length.
        leaves = tuple(v for v in self._vertices if len(self._incident[v]) == 1)
        val2 = tuple(v for v in self._vertices if len(self._incident[v]) == 2)
        infs = tuple(sorted(eid for eid, e in self._edges.items() if len(e.ends) == 1))
        self.report = ValidationReport(True, True, leaves, val2, infs)

        self.basepoint = self.canonical_point(basepoint)
        self._root = (
            self.basepoint.vertex
            if self.basepoint.is_vertex()
            else self._edges[self.basepoint.edge].ends[0]
        )
        self._build_rooted()
        # Finite edges must form a spanning tree of the vertices.
        acyclic = n_finite == len(self._vertices) - 1
        connected = len(self._order) == len(self._vertices)
        if not connected or not acyclic:
            raise MalformedTree(
                "graph is not a tree "
                f"(connected={connected}, acyclic={acyclic})"
            )
        self.generated_by = None  # set by generators (see ends.comb_generator)

    # -- structure ----------------------------------------------------------

    @property
    def vertices(self) -> tuple[str, ...]:
        return self._vertices

    @property
    def edges(self) -> Mapping[str, Edge]:
        return self._edges

    def edge(self, eid: str) -> Edge:
        try:
            return self._edges[eid]
        except KeyError:
            raise MalformedTree(f"unknown edge {eid!r}") from None

    def incident_edges(self, v: str) -> tuple[str, ...]:
        try:
            return self._incident[v]
        except KeyError:
            raise MalformedTree(f"unknown vertex {v!r}") from None

    def valency(self, v: str) -> int:
        return len(self.incident_edges(v))

    def is_leaf_free(self) -> bool:
        return not self.report.leaves

    def ends(self) -> tuple[TreeEnd, ...]:
        return tuple(TreeEnd(eid) for eid in self.report.infinite_edges)

    def end(self, eid: str) -> TreeEnd:
        if len(self.edge(eid).ends) != 1:
            raise MalformedTree(f"edge {eid!r} is not infinite, carries no end")
        return TreeEnd(eid)

    def end_attachment(self, end: TreeEnd) -> str:
        return self.edge(end.edge).ends[0]

    def _build_rooted(self) -> None:
        """The one traversal of the finite edges: an iterative depth-first
        pass from the root (comb truncations are paths tens of thousands of
        vertices deep, too deep for recursion).  It records each vertex's
        parent (vertex, edge), depth and distance to the root, a preorder in
        which every rooted subtree is one contiguous slice, and the subtree
        sizes.  Vertices it does not reach are missing from the preorder,
        which is how the constructor sees a disconnected graph."""
        root, incident, edges = self._root, self._incident, self._edges
        parent: dict[str, tuple[str, str] | None] = {root: None}
        depth = {root: 0}
        dist = {root: 0.0}
        order: list[str] = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for eid in incident[v]:
                e = edges[eid]
                ends = e.ends
                if len(ends) == 1:
                    continue
                w = ends[1] if ends[0] == v else ends[0]
                if w not in parent:
                    parent[w] = (v, eid)
                    depth[w] = depth[v] + 1
                    dist[w] = dist[v] + e.length
                    stack.append(w)
        size = dict.fromkeys(order, 1)
        for v in reversed(order):
            p = parent[v]
            if p is not None:
                size[p[0]] += size[v]
        self._parent = parent
        self._depth = depth
        self._dist_root = dist
        self._order = order
        self._pre = {v: i for i, v in enumerate(order)}
        self._size = size
        self._lca_table: list[list[int]] | None = None

    def _build_lca_table(self) -> list[list[int]]:
        """Sparse table of range minima over the preorder (Bender and
        Farach-Colton, "The LCA problem revisited"), built on the first LCA
        query so that trees never queried do not pay for it.

        Position i holds depth * n + (preorder position of its parent), and
        row k the minimum over positions i .. i + 2^k - 1.  For vertices at
        positions i < j, the shallowest vertices at positions i+1 .. j are
        children of the LCA (the one leading to j, or any sibling of it), so
        the minimum's remainder mod n is the LCA's position."""
        n, pre, depth, parent = len(self._order), self._pre, self._depth, self._parent
        row = [0] + [depth[v] * n + pre[parent[v][0]] for v in self._order[1:]]
        table = [row]
        half = 1
        while 2 * half <= n:
            row = list(map(min, row, row[half:]))
            table.append(row)
            half *= 2
        self._lca_table = table
        return table

    # -- points -------------------------------------------------------------

    def vertex_point(self, v: str) -> TreePoint:
        if v not in self._vset:
            raise MalformedTree(f"unknown vertex {v!r}")
        return TreePoint(vertex=v)

    def edge_point(self, eid: str, offset: float) -> TreePoint:
        e = self.edge(eid)
        offset = float(offset)
        if not math.isfinite(offset):
            raise MalformedTree(f"offset {offset} on edge {eid!r} is not finite")
        if offset < -_SNAP or (not e.infinite and offset > e.length + _SNAP):
            raise MalformedTree(
                f"offset {offset} outside edge {eid!r} of length {e.length}"
            )
        if offset <= _SNAP:
            return TreePoint(vertex=e.ends[0])
        if not e.infinite and offset >= e.length - _SNAP:
            return TreePoint(vertex=e.ends[1])
        return TreePoint(edge=eid, offset=offset)

    def canonical_point(self, p: "TreePoint | str") -> TreePoint:
        """The canonical form of a point.  A point already in that form (a
        known vertex with no edge and offset +0.0, or a float offset strictly
        inside its edge's snapped interval) is returned as it is."""
        if isinstance(p, str):
            return self.vertex_point(p)
        v, eid, off = p.vertex, p.edge, p.offset
        if v is not None:
            bare = eid is None and type(off) is float and off == 0.0 and math.copysign(1.0, off) == 1.0
            return p if bare and v in self._vset else self.vertex_point(v)
        e = self._edges.get(eid)
        if e is not None and type(off) is float and _SNAP < off < e.length - _SNAP:
            return p
        return self.edge_point(eid, off)

    # -- path metric ---------------------------------------------------------

    def _lca_position(self, i: int, j: int) -> int:
        """Preorder position of the LCA of the vertices at positions i, j."""
        if i == j:
            return i
        if i > j:
            i, j = j, i
        table = self._lca_table or self._build_lca_table()
        k = (j - i).bit_length() - 1
        row = table[k]
        a, b = row[i + 1], row[j + 1 - (1 << k)]
        return (a if a < b else b) % len(self._order)

    def lca(self, u: str, v: str) -> str:
        try:
            i, j = self._pre[u], self._pre[v]
        except KeyError as exc:
            raise MalformedTree(f"unknown vertex {exc.args[0]!r}") from None
        return self._order[self._lca_position(i, j)]

    def vertex_distance(self, u: str, v: str) -> float:
        a = self.lca(u, v)
        return self._dist_root[u] + self._dist_root[v] - 2.0 * self._dist_root[a]

    def basepoint_distances(self) -> dict[str, float]:
        """Distance from every vertex to the base point, read off the root
        distances: the root is the base point or the first endpoint of its
        edge, so only the base point's offset along that edge is added (or,
        beyond the edge's far endpoint, taken away)."""
        bp = self.basepoint
        if bp.is_vertex():
            return dict(self._dist_root)
        e = self._edges[bp.edge]
        off = bp.offset
        if e.infinite:
            return {v: d + off for v, d in self._dist_root.items()}
        far = e.ends[1]
        return {
            v: d - off if self._in_subtree(v, far) else d + off
            for v, d in self._dist_root.items()
        }

    def parent_edge(self, v: str) -> str | None:
        """Edge from v toward the root (None at the root)."""
        p = self._parent[v]
        return None if p is None else p[1]

    def toward_basepoint(self, v: str) -> str | None:
        """First edge on the path from vertex v to the base point (None when
        v is the base point itself)."""
        if self.basepoint.is_vertex():
            return None if v == self.basepoint.vertex else self.parent_edge(v)
        if v == self._root:
            return self.basepoint.edge
        return self.parent_edge(v)

    def _side(self, p: TreePoint) -> tuple[str, float, str, float, int, int]:
        """Exits of a canonical point, ``(up, cost, down, cost, lo, hi)``:
        the root-side and the deeper endpoint of its finite edge, each with
        its cost along the edge, and the preorder slice ``[lo, hi)`` of the
        deeper one's subtree.  A vertex, or a point on an infinite edge, has
        one exit (itself, or the attachment), given twice with an empty
        slice at its position."""
        e = self._edges.get(p.edge)
        if e is None or len(e.ends) == 1:
            v, c = (p.vertex, 0.0) if e is None else (e.ends[0], p.offset)
            i = self._pre[v]
            return v, c, v, c, i, i
        (u, d), cu, cd = e.ends, p.offset, e.length - p.offset
        if self._child_endpoint(e) == u:
            u, cu, d, cd = d, cd, u, cu
        i = self._pre[d]
        return u, cu, d, cd, i, i + self._size[d]

    @staticmethod
    def _route(sp, sq) -> tuple[str, float, str, float]:
        """Exits ``(a, ca, b, cb)`` of the unique geodesic between points on
        different edges, from their sides: p leaves by its deeper exit
        exactly when q's deeper exit (q itself, or the attachment of q's
        infinite edge) lies in p's slice, and q likewise toward p."""
        a, ca, a_down, ca_down, lo_p, hi_p = sp
        b, cb, b_down, cb_down, lo_q, hi_q = sq
        if lo_p <= lo_q < hi_p:
            a, ca = a_down, ca_down
        if lo_q <= lo_p < hi_q:
            b, cb = b_down, cb_down
        return a, ca, b, cb

    def distance(self, p: TreePoint, q: TreePoint) -> float:
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        if p.edge is not None and p.edge == q.edge:
            return abs(p.offset - q.offset)
        a, ca, b, cb = self._route(self._side(p), self._side(q))
        d = ca + self.vertex_distance(a, b) + cb
        if not math.isfinite(d):
            raise NonFiniteValue(f"distance from {p} to {q} overflows the float range")
        return d

    def distance_matrix(
        self, xs: Sequence[TreePoint], ys: Sequence[TreePoint]
    ) -> list[list[float]]:
        """``distance(x, y)`` for every x in xs (rows) and y in ys (columns),
        bit for bit.

        Each point is canonicalised and its ``_side`` read once; every entry
        then takes its exits from ``_route`` and makes one LCA query, summed
        as ``vertex_distance`` and ``distance`` sum.  A distance that
        overflows raises NonFiniteValue, as in ``distance``."""
        px = [self.canonical_point(p) for p in xs]
        py = [self.canonical_point(q) for q in ys]
        sy = [self._side(q) for q in py]
        pre, order, dist = self._pre, self._order, self._dist_root
        route, lca = self._route, self._lca_position
        out = []
        for p in px:
            sp = self._side(p)
            line = []
            for q, sq in zip(py, sy):
                if p.edge is not None and p.edge == q.edge:
                    line.append(abs(p.offset - q.offset))
                    continue
                a, ca, b, cb = route(sp, sq)
                line.append(
                    ca + (dist[a] + dist[b] - 2.0 * dist[order[lca(pre[a], pre[b])]]) + cb
                )
            if not all(map(math.isfinite, line)):
                q = py[next(k for k, d in enumerate(line) if not math.isfinite(d))]
                raise NonFiniteValue(f"distance from {p} to {q} overflows the float range")
            out.append(line)
        return out

    def path_nodes(
        self, p: TreePoint, q: TreePoint
    ) -> tuple[list[tuple[float, TreePoint]], list[str]]:
        """The locus from p to q: its nodes (every vertex on the path plus the
        two endpoints, with arc-length coordinates, 0 at p) and the edge of
        each step between consecutive nodes.

        ``_route`` gives the exit vertices; one walk up the parent pointers,
        stepping the deeper side until both sides meet at their LCA, gives
        the vertices and the edges between them.  Vertex coordinates add up
        the steps; an endpoint q off the vertices sits at ``distance(p, q)``."""
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        if p == q:
            return [(0.0, p)], []
        if p.edge is not None and p.edge == q.edge:
            return [(0.0, p), (abs(p.offset - q.offset), q)], [p.edge]
        a, ca, b, cb = self._route(self._side(p), self._side(q))
        depth, parent, dist = self._depth, self._parent, self._dist_root
        up, up_edges, down, down_edges = [a], [], [b], []
        while up[-1] != down[-1]:
            if depth[up[-1]] >= depth[down[-1]]:
                w, eid = parent[up[-1]]
                up.append(w)
                up_edges.append(eid)
            else:
                w, eid = parent[down[-1]]
                down.append(w)
                down_edges.append(eid)
        path = up + down[-2::-1]
        spans = up_edges + down_edges[::-1]
        nodes: list[tuple[float, TreePoint]] = []
        if not p.is_vertex():
            nodes.append((0.0, p))
            spans.insert(0, p.edge)
        s = ca
        nodes.append((s, TreePoint(vertex=a)))
        for prev, w in zip(path, path[1:]):
            upper = w if depth[w] < depth[prev] else prev
            s += dist[prev] + dist[w] - 2.0 * dist[upper]
            nodes.append((s, TreePoint(vertex=w)))
        if not q.is_vertex():
            nodes.append((ca + self.vertex_distance(a, b) + cb, q))
            spans.append(q.edge)
        return nodes, spans

    # -- component bookkeeping (perpendiculars, Radon, flows) -----------------

    def _in_subtree(self, v: str, top: str) -> bool:
        """Whether v lies in the rooted subtree of top (top included)."""
        i = self._pre[top]
        return i <= self._pre[v] < i + self._size[top]

    def _child_endpoint(self, e: Edge) -> str:
        """The endpoint of a finite edge farther from the root: the second
        one exactly when the edge is its parent edge."""
        a, b = e.ends
        up = self._parent[b]
        return b if up is not None and up[1] == e.id else a

    def subtree_vertices(self, x: str, via_edge: str) -> frozenset[str]:
        """Vertices of the component of X minus x entered through via_edge:
        a slice of the preorder when via_edge leads away from the root, the
        complement of x's rooted subtree when it leads toward it."""
        e = self.edge(via_edge)
        if x not in e.ends:
            raise MalformedTree(f"edge {via_edge!r} is not incident to {x!r}")
        if e.infinite:
            return frozenset()
        child = self._child_endpoint(e)
        i, n = self._pre[child], self._size[child]
        if child != x:
            return frozenset(self._order[i:i + n])
        return frozenset(self._order[:i] + self._order[i + n:])

    def mass_beyond(
        self, vertex_mass: Mapping[str, float], edge_mass: Mapping[str, float]
    ) -> dict[str, float]:
        """Mass beyond every edge in its canonical orientation.

        For a finite edge this is the mass of the component of X minus its
        first stored endpoint that contains the edge; for an infinite edge it
        is the edge's own mass.  Masses sit on vertices and on edges (an edge
        mass counts inside every component containing that edge's interior).
        One pass over the vertices in reverse preorder sums the rooted
        subtrees; an edge pointing toward the root gets the total minus the
        subtree behind it.
        """
        parent, child = self._parent, self._child_endpoint
        below = {v: float(vertex_mass.get(v, 0.0)) for v in self._order}
        for eid, m in edge_mass.items():
            e = self.edge(eid)
            below[e.ends[0] if len(e.ends) == 1 else child(e)] += m
        for v in reversed(self._order):
            p = parent[v]
            if p is not None:
                below[p[0]] += below[v]
        total = below[self._root]
        out: dict[str, float] = {}
        for eid, e in self._edges.items():
            own = float(edge_mass.get(eid, 0.0))
            if len(e.ends) == 1:
                out[eid] = own
            elif child(e) == e.ends[1]:
                out[eid] = below[e.ends[1]]
            else:
                out[eid] = total - below[e.ends[0]] + own
        return out

    def onward_edge(self, v: str, came_by: str) -> str:
        """The edge by which a path entering vertex v through came_by is
        continued: the lowest-id other edge at v.  A leaf raises LeafyTree."""
        for eid in self.incident_edges(v):
            if eid != came_by:
                return eid
        raise LeafyTree(f"extension stuck at leaf {v!r}")

    def extension_walk(self, start: str, via_edge: str) -> TreeEnd:
        """The end reached by leaving `start` through `via_edge` and going
        on at every vertex along its onward edge, until an infinite edge."""
        eid, v = via_edge, start
        while not self.edge(eid).infinite:
            e = self._edges[eid]
            v = e.ends[1] if e.ends[0] == v else e.ends[0]
            eid = self.onward_edge(v, eid)
        return TreeEnd(eid)

    # -- geodesic constructors ------------------------------------------------

    def constant_geodesic(
        self, p: TreePoint, t0: float = 0.0, t1: float = 1.0
    ) -> "TreeGeodesic":
        p = self.canonical_point(p)
        return TreeGeodesic(
            self, 0.0, t0, t1, t0 if math.isfinite(t0) else 0.0,
            ((0.0, p),), (), None, None,
        )

    def geodesic_segment(
        self, p: TreePoint, q: TreePoint, t0: float, t1: float
    ) -> "TreeGeodesic":
        if not t0 < t1:
            raise OutOfInterval(f"need t0 < t1, got [{t0}, {t1}]")
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        if p == q:
            return self.constant_geodesic(p, t0, t1)
        nodes, spans = self.path_nodes(p, q)
        speed = nodes[-1][0] / (t1 - t0)
        return TreeGeodesic(self, speed, t0, t1, t0, nodes, spans, None, None)

    def ray_to_end(self, p: TreePoint, end: TreeEnd, speed: float) -> "TreeGeodesic":
        p = self.canonical_point(p)
        e = self.edge(end.edge)
        if not e.infinite:
            raise MalformedTree(f"edge {end.edge!r} carries no end")
        if speed == 0.0:
            return self.constant_geodesic(p, 0.0, math.inf)
        if p.edge == end.edge:
            nodes, spans = [(0.0, p)], []
        else:
            nodes, spans = self.path_nodes(p, self.vertex_point(e.ends[0]))
        return TreeGeodesic(
            self, float(speed), 0.0, math.inf, 0.0, nodes, spans, None, end
        )

    def geodesic_between_ends(
        self,
        xi: TreeEnd,
        zeta: TreeEnd,
        speed: float = 1.0,
        anchor: TreePoint | None = None,
        anchor_time: float = 0.0,
    ) -> "TreeGeodesic":
        """Bi-infinite geodesic from xi (at -inf) to zeta (at +inf).

        By default it is parametrized so that its time 0 is the point of the
        locus nearest to the base point; an explicit anchor overrides this.
        """
        if xi == zeta:
            raise EqualEnds(f"both ends are {xi!r}")
        u = self.end_attachment(xi)
        v = self.end_attachment(zeta)
        nodes, spans = self.path_nodes(self.vertex_point(u), self.vertex_point(v))
        prov = TreeGeodesic(
            self, float(speed), -math.inf, math.inf, 0.0, nodes, spans, xi, zeta
        )
        if anchor is None:
            anchor_pt = project_to_geodesic(self, self.basepoint, prov)
            t_a = 0.0
        else:
            anchor_pt = self.canonical_point(anchor)
            t_a = float(anchor_time)
        s_a = prov.arc_of_point(anchor_pt)
        if s_a is None:
            raise MalformedTree("anchor does not lie on the geodesic locus")
        shifted = tuple((s - s_a, pt) for s, pt in nodes)
        return TreeGeodesic(
            self, float(speed), -math.inf, math.inf, t_a, shifted, spans, xi, zeta
        )


class TreeGeodesic:
    """Constant-speed globally minimizing curve in the tree.

    The locus is stored as arc-parametrized nodes (every vertex on the path
    plus finite endpoints), the edge of each step between consecutive nodes
    (``spans``), and an optional boundary end on each open side;
    ``s(t) = speed * (t - t_origin)``.  Geodesics are built by the tree's
    constructors, which read the nodes and spans off ``path_nodes``.
    """

    __slots__ = (
        "tree", "speed", "t0", "t1", "t_origin",
        "nodes", "spans", "neg_end", "pos_end",
    )

    def __init__(self, tree, speed, t0, t1, t_origin, nodes, spans, neg_end, pos_end):
        self.tree = tree
        self.speed = float(speed)
        self.t0 = float(t0)
        self.t1 = float(t1)
        self.t_origin = float(t_origin)
        self.nodes = tuple(nodes)
        self.spans = tuple(spans)
        self.neg_end = neg_end
        self.pos_end = pos_end

    # -- identity -------------------------------------------------------------

    def key(self):
        return (
            self.speed, self.t0, self.t1, self.t_origin,
            self.nodes, self.neg_end, self.pos_end,
        )

    def __eq__(self, other):
        return isinstance(other, TreeGeodesic) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        src = self.neg_end or self.nodes[0][1]
        dst = self.pos_end or self.nodes[-1][1]
        return f"TreeGeodesic({src!r} -> {dst!r}, speed={self.speed:g})"

    @property
    def is_constant(self) -> bool:
        return self.speed == 0.0

    @property
    def interval_kind(self) -> str:
        if math.isinf(self.t0) and math.isinf(self.t1):
            return "complete"
        if math.isinf(self.t1):
            return "ray"
        return "segment"

    def source(self):
        return self.neg_end if self.neg_end is not None else self.nodes[0][1]

    def target(self):
        return self.pos_end if self.pos_end is not None else self.nodes[-1][1]

    # -- geometry ---------------------------------------------------------------

    def _offset_on(self, p: TreePoint, eid: str) -> float:
        e = self.tree.edge(eid)
        if p.is_vertex():
            if p.vertex == e.ends[0]:
                return 0.0
            return e.length
        assert p.edge == eid
        return p.offset

    def arc_bounds(self) -> tuple[float, float]:
        lo = -math.inf if self.neg_end is not None else self.nodes[0][0]
        hi = math.inf if self.pos_end is not None else self.nodes[-1][0]
        return lo, hi

    def point_at_arc(self, s: float) -> TreePoint:
        if self.is_constant:
            return self.nodes[0][1]
        nodes = self.nodes
        if self.neg_end is not None and s <= nodes[0][0]:
            base = self._offset_on(nodes[0][1], self.neg_end.edge)
            return self.tree.edge_point(self.neg_end.edge, base + (nodes[0][0] - s))
        if self.pos_end is not None and s >= nodes[-1][0]:
            base = self._offset_on(nodes[-1][1], self.pos_end.edge)
            return self.tree.edge_point(self.pos_end.edge, base + (s - nodes[-1][0]))
        s = min(max(s, nodes[0][0]), nodes[-1][0])
        lo, hi = 0, len(nodes) - 1
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if nodes[mid][0] <= s:
                lo = mid
            else:
                hi = mid
        sa, pa = nodes[lo]
        sb, pb = nodes[hi]
        if s - sa <= _SNAP:
            return pa
        if sb - s <= _SNAP:
            return pb
        eid = self.spans[lo]
        oa = self._offset_on(pa, eid)
        ob = self._offset_on(pb, eid)
        off = oa + (s - sa) * (1.0 if ob > oa else -1.0)
        return self.tree.edge_point(eid, off)

    def evaluate(self, t: float) -> TreePoint:
        if t < self.t0 - TOL or t > self.t1 + TOL:
            raise OutOfInterval(f"t={t} outside [{self.t0}, {self.t1}]")
        if self.is_constant:
            return self.nodes[0][1]
        s = self.speed * (t - self.t_origin)
        lo, hi = self.arc_bounds()
        return self.point_at_arc(min(max(s, lo), hi))

    def arc_of_point(self, p: TreePoint) -> float | None:
        """Arc coordinate of a point of the locus, None if p is off it."""
        p = self.tree.canonical_point(p)
        if self.is_constant:
            return 0.0 if p == self.nodes[0][1] else None
        for s, q in self.nodes:
            if q == p:
                return s
        if p.edge is None:
            return None
        for i, eid in enumerate(self.spans):
            if eid != p.edge:
                continue
            sa, pa = self.nodes[i]
            sb, pb = self.nodes[i + 1]
            oa = self._offset_on(pa, eid)
            ob = self._offset_on(pb, eid)
            if min(oa, ob) - TOL <= p.offset <= max(oa, ob) + TOL:
                return sa + abs(p.offset - oa)
        if self.neg_end is not None and p.edge == self.neg_end.edge:
            base = self._offset_on(self.nodes[0][1], p.edge)
            if p.offset >= base - TOL:
                return self.nodes[0][0] - (p.offset - base)
        if self.pos_end is not None and p.edge == self.pos_end.edge:
            base = self._offset_on(self.nodes[-1][1], p.edge)
            if p.offset >= base - TOL:
                return self.nodes[-1][0] + (p.offset - base)
        return None

    def traversals(self) -> list[tuple[str, float, float, int]]:
        """Edge sub-intervals covered by the locus.

        Returns tuples (edge id, low offset, high offset, direction) where
        direction is +1 if the offset increases along the parametrization.
        Infinite tails use math.inf as the high offset.
        """
        if self.is_constant:
            return []
        out = []
        if self.neg_end is not None:
            base = self._offset_on(self.nodes[0][1], self.neg_end.edge)
            out.append((self.neg_end.edge, base, math.inf, -1))
        for i, eid in enumerate(self.spans):
            oa = self._offset_on(self.nodes[i][1], eid)
            ob = self._offset_on(self.nodes[i + 1][1], eid)
            out.append((eid, min(oa, ob), max(oa, ob), 1 if ob > oa else -1))
        if self.pos_end is not None:
            base = self._offset_on(self.nodes[-1][1], self.pos_end.edge)
            out.append((self.pos_end.edge, base, math.inf, 1))
        return out

    def restrict(self, t0: float, t1: float) -> "TreeGeodesic":
        if not (self.t0 - TOL <= t0 < t1 <= self.t1 + TOL):
            raise OutOfInterval(f"[{t0}, {t1}] not inside [{self.t0}, {self.t1}]")
        if self.is_constant:
            return self.tree.constant_geodesic(self.nodes[0][1], t0, t1)
        return self.tree.geodesic_segment(self.evaluate(t0), self.evaluate(t1), t0, t1)


# -- module-level operations -------------------------------------------------


def gromov_product(tree: MetricTree, xi: TreeEnd, zeta: TreeEnd) -> float:
    """Distance from the base point to the geodesic joining two ends;
    +infinity on the diagonal."""
    if xi == zeta:
        return math.inf
    gamma = tree.geodesic_between_ends(xi, zeta)
    return tree.distance(tree.basepoint, gamma.point_at_arc(0.0))


def project_to_geodesic(tree: MetricTree, y: TreePoint, gamma: TreeGeodesic) -> TreePoint:
    """Nearest point of the locus of gamma; unique since the locus is convex."""
    if gamma.is_constant:
        raise ConstantGeodesic("projection on a constant geodesic is undefined")
    y = tree.canonical_point(y)
    if gamma.arc_of_point(y) is not None:
        return y
    ref_s, ref_pt = gamma.nodes[0]
    r = 2.0 * tree.distance(y, ref_pt) + 1.0
    lo, hi = gamma.arc_bounds()
    sa = max(lo, ref_s - r)
    sb = min(hi, ref_s + r)
    a = gamma.point_at_arc(sa)
    b = gamma.point_at_arc(sb)
    length = sb - sa
    sy = 0.5 * (tree.distance(y, a) - tree.distance(y, b) + length)
    sy = min(max(sy, 0.0), length)
    return gamma.point_at_arc(sa + sy)


def perpendicular(tree: MetricTree, x: str, e: str, f: str) -> frozenset[str]:
    """Vertex set of the perpendicular of the flag (x, ef): x together with
    the components off x that meet neither e nor f."""
    if e == f:
        raise FlagInvalid(f"flag needs two distinct edges, got {e!r} twice")
    inc = tree.incident_edges(x)
    if e not in inc or f not in inc:
        raise FlagInvalid(f"edges {e!r}, {f!r} not both incident to {x!r}")
    out = {x}
    for g in inc:
        if g not in (e, f):
            out |= tree.subtree_vertices(x, g)
    return frozenset(out)
