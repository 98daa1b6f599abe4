"""Locally finite metric trees: points, ends, geodesics, projections.

The tree is described as a graph ``(V, E)`` where every edge carries one or
two endpoints and a positive length; edges with a single endpoint are the
infinite ones and each of them carries exactly one boundary end.  All
operations are pure functions over an immutable, validated tree:

- path metric: a sparse table of range minima over the rooted preorder,
  built on the first query, answers every LCA in O(1).  Geodesics are
  unique: a path leaves a point inside an edge by the deeper endpoint
  exactly when it heads into that endpoint's preorder slice.  ``distance``,
  the batched ``distance_matrix`` and ``path_nodes`` (one walk up the parent
  positions for every locus) share this exit rule.  The batched kernel
  reads each point's exits once and applies the rule, the table minimum and
  the root distances inline in its entry loop, with the sums of
  ``distance`` in the same order, so its entries are bit for bit
  ``distance``'s,
- geodesic segments (finite t0 < t1), rays to an end (finite t0, t1 = inf)
  and bi-infinite geodesics between ends, all checked by ``TreeGeodesic``,
- the anchor of two ends (the point of their geodesic nearest the base
  point o) and its distance from o, the Gromov product, read off the tree
  rooted at o, as the -D0^2 plan of ``ends.d0_transport`` is,
- nearest-point projection onto a geodesic: a point off the locus goes
  to the node of the locus nearest to it, with no arc arithmetic,
- perpendicular vertex sets of a flag (vertex with two incident edges).

The constructor walks the finite edges once, depth first from the root (the
base point, or the first endpoint of its edge), and every structure query
reads that rooted copy, lists indexed by preorder position (``_pre`` maps
a vertex to its position): parent positions and edges for paths, root
distances for every distance, and subtree sizes, which make every rooted
subtree a slice of the preorder.  A finite edge's deeper endpoint is the
one later in the preorder; it gives the exits of a point inside the edge,
the components of X minus a vertex, and the mass beyond every edge by
reverse-preorder subtree sums (flows, the Radon transform).  The tree
rooted at the base point o adds o's node after every position, and o's
slice, the subtree below o when o lies inside a finite edge.

Numeric conventions: 64-bit floats; ``TOL`` (1e-9, comparisons) and ``DUST``
(1e-12, snapped arc arithmetic; a mass, flow or overlap below it is zero)
are defined here, ``transport.DUAL_TOL`` (1e-7, the relative slack of a
self-check against a recomputation) there.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple, Sequence

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
DUST = 1e-12


class TreePoint(NamedTuple):
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


class TreeEnd(NamedTuple):
    """A boundary point at infinity, identified with its infinite edge."""

    edge: str

    def __repr__(self) -> str:
        return f"TreeEnd({self.edge!r})"


class Edge(NamedTuple):
    id: str
    ends: tuple[str, ...]
    length: float

    @property
    def infinite(self) -> bool:
        return math.isinf(self.length)


class ValidationReport(NamedTuple):
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

    Construction makes four linear passes: the edges (every check, each edge
    filed at its endpoints, the rays), the vertices (their edges sorted, the
    leaves and valency-2 vertices), and in ``_build_rooted`` the depth-first
    walk and the subtree sizes.  The LCA table waits for the first query.
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
        vset = set(names)
        if len(vset) != len(names):
            raise MalformedTree("duplicate vertex names")
        self._vertices = tuple(sorted(names))

        # One pass checks the edges and files them at their endpoints; an
        # Edge is made by tuple.__new__, not its NamedTuple's Python __new__.
        self._edges = edge_of = {}
        incident: dict[str, list[str]] = {v: [] for v in self._vertices}
        rays, make, inf = [], tuple.__new__, math.inf
        for eid, ends, length in edges:
            if eid in edge_of:
                raise MalformedTree(f"duplicate edge id {eid!r}")
            ends = tuple(ends)
            if not vset.issuperset(ends):
                raise MalformedTree(f"edge {eid!r} references unknown vertex")
            if isinstance(length, bool):
                raise MalformedTree(f"edge {eid!r} has length {length}, not a number")
            length = float(length)
            if not length > 0.0:  # also NaN and -inf; only +inf marks a ray
                raise MalformedTree(f"edge {eid!r} has nonpositive length")
            if length == inf:
                if len(ends) != 1:
                    raise MalformedTree(f"infinite edge {eid!r} must have exactly one endpoint")
                rays.append(eid)
                incident[ends[0]].append(eid)
            else:
                if len(ends) != 2:
                    raise MalformedTree(f"finite edge {eid!r} must have two endpoints")
                u, w = ends
                if u == w:
                    raise MalformedTree(f"edge {eid!r} is a self loop (cycle)")
                incident[u].append(eid)
                incident[w].append(eid)
            edge_of[eid] = make(Edge, (eid, ends, length))
        # One pass over the vertices sorts their edges and finds the leaves
        # and valency-2 vertices.  From here on an edge is infinite exactly
        # when it has one endpoint, and the linear passes test len(e.ends).
        leaves, val2 = [], []
        for v, es in incident.items():
            es.sort()
            if len(es) == 1:
                leaves.append(v)
            elif len(es) == 2:
                val2.append(v)
        self._incident = dict(zip(incident, map(tuple, incident.values())))
        self.report = ValidationReport(True, True, tuple(leaves), tuple(val2), tuple(sorted(rays)))

        self.basepoint = self.canonical_point(basepoint)
        self._build_rooted(
            self.basepoint.vertex
            if self.basepoint.is_vertex()
            else self._edges[self.basepoint.edge].ends[0]
        )
        self._o_slice = self._side(self.basepoint)[3:]
        # Finite edges must form a spanning tree of the vertices.
        acyclic = len(edge_of) - len(rays) == len(self._vertices) - 1
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
        return tuple.__new__(TreeEnd, (eid,))  # not the NamedTuple's Python __new__

    def end_attachment(self, end: TreeEnd) -> str:
        """The vertex an end's ray hangs from; checked by ``end``."""
        return self._edges[self.end(end.edge).edge].ends[0]

    def _build_rooted(self, root: str) -> None:
        """The one traversal of the finite edges: an iterative depth-first
        pass from the root (comb truncations are paths tens of thousands of
        vertices deep, too deep for recursion).  It records the preorder
        (``_order``, and ``_pre`` from vertex to position), in which every
        rooted subtree is one contiguous slice, and lists by position: the
        parent's position (``_up``; -1 at the root, position 0), the edge to
        the parent (``_up_edge``), the distance to the root (``_dist``) and
        the subtree size (``_size``).  A vertex popped twice (only a graph
        with a cycle has one) is skipped; vertices the pass does not reach
        are missing from the preorder, which is how the constructor sees a
        disconnected graph."""
        incident, edges = self._incident, self._edges
        pre: dict[str, int] = {}
        order, up, up_edge, dist = [], [], [], []
        stack = [(root, -1, None, 0.0)]
        while stack:
            v, parent, came_by, d = stack.pop()
            if v in pre:
                continue
            i = pre[v] = len(order)
            order.append(v)
            up.append(parent)
            up_edge.append(came_by)
            dist.append(d)
            for eid in incident[v]:
                if eid == came_by:  # before the edge's lookup
                    continue
                e = edges[eid]
                ends = e.ends
                if len(ends) == 2:
                    stack.append((ends[1] if ends[0] == v else ends[0], i, eid, d + e.length))
        size = [1] * len(order)
        for i in range(len(order) - 1, 0, -1):
            size[up[i]] += size[i]
        self._order = order
        self._pre = pre
        self._up = up
        self._up_edge = up_edge
        self._dist = dist
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
        the minimum's remainder mod n is the LCA's position.  A parent comes
        before its children, so one pass in preorder finds the depths.  The
        levels are comprehensions, not ``map(min, ...)``: a call of the
        builtin ``min`` costs about four comprehension steps (the levels of a
        depth-2048 comb: 3.2 ms against 0.8, CPython 3.11.7 on a 2-core VM)."""
        up = self._up
        n = len(up)
        depth, row = [0] * n, [0] * n
        for i in range(1, n):
            depth[i] = depth[up[i]] + 1
            row[i] = depth[i] * n + up[i]
        table = [row]
        half = 1
        while 2 * half <= n:
            row = [a if a < b else b for a, b in zip(row, row[half:])]
            table.append(row)
            half *= 2
        self._lca_table = table
        return table

    # -- points -------------------------------------------------------------

    def vertex_point(self, v: str) -> TreePoint:
        self.incident_edges(v)  # validates
        return TreePoint(vertex=v)

    def edge_point(self, eid: str, offset: float) -> TreePoint:
        e = self.edge(eid)
        offset = float(offset)
        if not math.isfinite(offset):
            raise MalformedTree(f"offset {offset} on edge {eid!r} is not finite")
        if offset < -DUST or (not e.infinite and offset > e.length + DUST):
            raise MalformedTree(
                f"offset {offset} outside edge {eid!r} of length {e.length}"
            )
        if offset <= DUST:
            return TreePoint(vertex=e.ends[0])
        if not e.infinite and offset >= e.length - DUST:
            return TreePoint(vertex=e.ends[1])
        return TreePoint(edge=eid, offset=offset)

    def canonical_point(self, p: "TreePoint | str") -> TreePoint:
        """The canonical form of a point.  A point already in that form (a
        known vertex with no edge and offset +0.0, or a float offset strictly
        inside its edge's snapped interval) is returned as it is."""
        if isinstance(p, str):
            return self.vertex_point(p)
        v, eid, off = p
        if v is not None:
            bare = eid is None and type(off) is float and off == 0.0 and math.copysign(1.0, off) == 1.0
            return p if bare and v in self._incident else self.vertex_point(v)
        e = self._edges.get(eid)
        if e is not None and type(off) is float and DUST < off < e.length - DUST:
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

    def _position(self, v: str) -> int:
        """Preorder position of vertex v; MalformedTree if v is unknown."""
        try:
            return self._pre[v]
        except KeyError:
            raise MalformedTree(f"unknown vertex {v!r}") from None

    def lca(self, u: str, v: str) -> str:
        return self._order[self._lca_position(self._position(u), self._position(v))]

    def vertex_distance(self, u: str, v: str) -> float:
        i, j, dist = self._position(u), self._position(v), self._dist
        return dist[i] + dist[j] - 2.0 * dist[self._lca_position(i, j)]

    def basepoint_distances(self) -> dict[str, float]:
        """Distance from every vertex to the base point, read off the root
        distances: the root is the base point or the root-side exit of its
        edge, so the base point's cost to that exit is taken away inside the
        deeper exit's slice and added everywhere else (the slice is empty,
        and the cost 0.0, at a vertex).  Keys in preorder."""
        _, off, _, lo, hi = self._side(self.basepoint)
        rows = enumerate(zip(self._order, self._dist))
        return {v: d - off if lo <= i < hi else d + off for i, (v, d) in rows}

    def parent_edge(self, v: str) -> str | None:
        """Edge from v toward the root (None at the root)."""
        return self._up_edge[self._position(v)]

    def toward_basepoint(self, v: str) -> str | None:
        """First edge on the path from vertex v to the base point (None when
        v is the base point itself)."""
        i = self._position(v)
        return self.basepoint.edge if i == 0 else self._up_edge[i]

    # -- the tree rooted at the base point o ---------------------------------

    def _end_node(self, end: TreeEnd) -> int:
        """The node of an end: its attachment's position, or o's node when
        o lies on the end's ray.  The end is checked first."""
        i = self._pre[self.end_attachment(end)]
        return len(self._order) if end.edge == self.basepoint.edge else i

    def _o_parents(self) -> list[int]:
        """The parent of every position in the tree rooted at o: o's node
        for the root and for the top of o's slice."""
        up, (lo, hi) = self._up.copy(), self._o_slice
        up[0] = len(up)
        if lo < hi:
            up[lo] = len(up)
        return up

    def _o_lca(self, a: int, b: int) -> int:
        """The LCA of nodes a and b in the tree rooted at o: o's node when
        one of them is o's or o separates them."""
        o = len(self._order)
        lo, hi = self._o_slice
        if o in (a, b) or (lo <= a < hi) != (lo <= b < hi):
            return o
        return self._lca_position(a, b)

    def _anchor(self, xi: TreeEnd, zeta: TreeEnd) -> TreePoint:
        """The point of the geodesic between two ends nearest o: the LCA of
        their nodes in the tree rooted at o, o itself for o's node."""
        w = self._o_lca(self._end_node(xi), self._end_node(zeta))
        return self.basepoint if w == len(self._order) else TreePoint(vertex=self._order[w])

    def _side(self, p: TreePoint) -> tuple[int, float, float, int, int]:
        """Exits of a canonical point, ``(up, cost, cost down, lo, hi)``: the
        preorder positions of the root-side exit ``up`` and of the deeper
        exit ``lo`` of its finite edge (the endpoint later in the preorder),
        each exit's cost along the edge, and the deeper exit's subtree, the
        preorder slice ``[lo, hi)``.  A vertex, or a point on an infinite
        edge, has one exit (itself, or the attachment), given twice with an
        empty slice at its position."""
        v, eid, off = p
        e = self._edges.get(eid)
        if e is None or len(e.ends) == 1:
            v, c = (v, 0.0) if e is None else (e.ends[0], off)
            i = self._pre[v]
            return i, c, c, i, i
        (u, d), cu, cd = e.ends, off, e.length - off
        i, j = self._pre[u], self._pre[d]
        if i > j:
            i, j, cu, cd = j, i, cd, cu
        return i, cu, cd, j, j + self._size[j]

    def _preorder(
        self, points: Sequence[TreePoint]
    ) -> tuple[list[int], list[tuple], list[TreePoint]]:
        """Indices of the points in the rooted preorder, and their ``_side``
        and canonical form in that order.  The keys are read off the sides:
        a vertex ``(pre, 0)``; a point inside a finite edge ``(pre of the deeper
        endpoint, -1, cost from the upper exit, offset)``, just before that
        endpoint and in order down the edge; a point on a ray ``(pre of the
        attachment, 1, offset, edge)``, just after the attachment.  Distinct
        canonical points get distinct keys (the offset settles a cost
        rounded to a tie), so the order does not depend on the order of the
        points."""
        canon = list(map(self.canonical_point, points))
        keys, sides = [], []
        for p in canon:
            side = self._side(p)
            _, cu, _, lo, hi = side
            if p.edge is None:
                keys.append((lo, 0))
            elif lo < hi:
                keys.append((lo, -1, cu, p.offset))
            else:
                keys.append((lo, 1, p.offset, p.edge))
            sides.append(side)
        order = sorted(range(len(keys)), key=keys.__getitem__)
        return order, [sides[i] for i in order], [canon[i] for i in order]

    @staticmethod
    def _route(sp, sq) -> tuple[int, float, int, float]:
        """Exits ``(a, ca, b, cb)`` of the unique geodesic between points on
        different edges, as preorder positions, from their sides: p leaves
        by its deeper exit exactly when q's deeper exit (q itself, or the
        attachment of q's infinite edge) lies in p's slice, and q likewise
        toward p.  ``distance`` and ``_distance_rows`` inline this rule."""
        a, ca, ca_down, lo_p, hi_p = sp
        b, cb, cb_down, lo_q, hi_q = sq
        if lo_p <= lo_q < hi_p:
            a, ca = lo_p, ca_down
        if lo_q <= lo_p < hi_q:
            b, cb = lo_q, cb_down
        return a, ca, b, cb

    def distance(self, p: TreePoint, q: TreePoint) -> float:
        # A scalar path: distance_matrix([p], [q]) measured 2.0x slower per
        # call (median of 7 runs over 2,500 point pairs of a 200-vertex tree,
        # CPython 3.11.7 on a 2-core VM).  ``_route`` and the root distances
        # are inline, which saved a fifth of a comb query.
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        if p.edge is not None and p.edge == q.edge:
            return abs(p.offset - q.offset)
        a, ca, cd_p, lo_p, hi_p = self._side(p)
        b, cb, cd_q, lo_q, hi_q = self._side(q)
        if lo_p <= lo_q < hi_p:
            a, ca = lo_p, cd_p
        if lo_q <= lo_p < hi_q:
            b, cb = lo_q, cd_q
        dist = self._dist
        d = ca + (dist[a] + dist[b] - 2.0 * dist[self._lca_position(a, b)]) + cb
        if not math.isfinite(d):
            raise NonFiniteValue(f"distance from {p} to {q} overflows the float range")
        return d

    def distance_matrix(
        self, xs: Sequence[TreePoint], ys: Sequence[TreePoint]
    ) -> list[list[float]]:
        """``distance(x, y)`` for every x in xs (rows) and y in ys (columns),
        bit for bit.

        Each point is canonicalised and its ``_side`` read once, and
        ``_distance_rows`` does the rest.  A distance that overflows raises
        NonFiniteValue, as in ``distance``."""
        px = [self.canonical_point(p) for p in xs]
        py = [self.canonical_point(q) for q in ys]
        return self._distance_rows(
            px, list(map(self._side, px)), py, list(map(self._side, py))
        )

    def _distance_rows(
        self,
        px: Sequence[TreePoint],
        x_sides: Sequence[tuple],
        py: Sequence[TreePoint],
        y_sides: Sequence[tuple],
    ) -> list[list[float]]:
        """The kernel of ``distance_matrix``, for canonical points and their
        ``_side``: each point's exits are ``(edge, offset, *side)``, whose
        positions are preorder positions.  Every entry takes ``_route``'s
        exits, a sparse-table minimum for their LCA and the root distances by
        position, inline, and sums them as ``distance`` does."""
        cols = [(q.edge, q.offset, *side) for q, side in zip(py, y_sides)]
        table = self._lca_table or self._build_lca_table()
        dist, n = self._dist, len(self._order)
        out = []
        for p, (up_p, cu_p, cd_p, lo_p, hi_p) in zip(px, x_sides):
            pe, po = p.edge, p.offset
            line = []
            for qe, qo, up_q, cu_q, cd_q, lo_q, hi_q in cols:
                if pe is not None and pe == qe:
                    line.append(abs(po - qo))
                    continue
                # The exits are chosen by statements, not conditional
                # tuples: this loop is the hot path of every cost matrix.
                if lo_p <= lo_q < hi_p:
                    a, ca = lo_p, cd_p
                else:
                    a, ca = up_p, cu_p
                if lo_q <= lo_p < hi_q:
                    b, cb = lo_q, cd_q
                else:
                    b, cb = up_q, cu_q
                if a == b:
                    lca = a
                else:
                    i, j = (a, b) if a < b else (b, a)
                    k = (j - i).bit_length() - 1
                    row = table[k]
                    lca, other = row[i + 1], row[j + 1 - (1 << k)]
                    if other < lca:
                        lca = other
                    lca %= n
                line.append(ca + (dist[a] + dist[b] - 2.0 * dist[lca]) + cb)
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

        ``_route`` gives the exits; one walk up the parent positions gives
        the vertices and the edges between them.  It steps whichever side
        comes later in the preorder, which can never be an ancestor of the
        other, until both sides meet at their LCA.  Vertex coordinates add up
        the steps; an endpoint q off the vertices sits at ``distance(p, q)``,
        summed from the LCA the walk ends at."""
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        if p == q:
            return [(0.0, p)], []
        if p.edge is not None and p.edge == q.edge:
            return [(0.0, p), (abs(p.offset - q.offset), q)], [p.edge]
        a, ca, b, cb = self._route(self._side(p), self._side(q))
        order, parent, parent_edge, dist = self._order, self._up, self._up_edge, self._dist
        up, up_edges, down, down_edges = [a], [], [b], []
        while up[-1] != down[-1]:
            if up[-1] > down[-1]:
                up_edges.append(parent_edge[up[-1]])
                up.append(parent[up[-1]])
            else:
                down_edges.append(parent_edge[down[-1]])
                down.append(parent[down[-1]])
        path = up + down[-2::-1]
        spans = up_edges + down_edges[::-1]
        nodes: list[tuple[float, TreePoint]] = []
        if not p.is_vertex():
            nodes.append((0.0, p))
            spans.insert(0, p.edge)
        s = ca
        nodes.append((s, TreePoint(vertex=order[a])))
        for prev, w in zip(path, path[1:]):
            s += dist[prev] + dist[w] - 2.0 * dist[min(prev, w)]
            nodes.append((s, TreePoint(vertex=order[w])))
        if not q.is_vertex():
            nodes.append((ca + (dist[a] + dist[b] - 2.0 * dist[up[-1]]) + cb, q))
            spans.append(q.edge)
        return nodes, spans

    # -- component bookkeeping (perpendiculars, Radon, flows) -----------------

    def _edge_at(self, x: str, eid: str) -> Edge:
        """Edge eid, which must have x as an endpoint (MalformedTree)."""
        e = self.edge(eid)
        if x not in e.ends:
            raise MalformedTree(f"edge {eid!r} is not incident to {x!r}")
        return e

    def _flag_edges(self, x: str, e: str, f: str) -> tuple[str, ...]:
        """The edges at x, if e and f are two of them (else FlagInvalid)."""
        if e == f:
            raise FlagInvalid(f"flag at {x!r} needs two distinct edges")
        inc = self.incident_edges(x)
        if e not in inc or f not in inc:
            raise FlagInvalid(f"edges {e!r}, {f!r} not both incident to {x!r}")
        return inc

    def subtree_vertices(self, x: str, via_edge: str) -> frozenset[str]:
        """Vertices of the component of X minus x entered through via_edge:
        a slice of the preorder when via_edge leads away from the root, the
        complement of x's rooted subtree when it leads toward it."""
        e = self._edge_at(x, via_edge)
        if e.infinite:
            return frozenset()
        child = max(map(self._pre.__getitem__, e.ends))
        n = self._size[child]
        if self._order[child] != x:
            return frozenset(self._order[child:child + n])
        return frozenset(self._order[:child] + self._order[child + n:])

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
        subtree behind it.  An unknown vertex or edge raises MalformedTree."""
        pre, parent, edge_of = self._pre, self._up, self._edges
        below = [0.0] * len(parent)
        for v, m in vertex_mass.items():
            below[self._position(v)] = float(m)
        for eid, m in edge_mass.items():
            ends = (edge_of.get(eid) or self.edge(eid)).ends
            i, j = pre[ends[0]], pre[ends[-1]]
            below[i if i > j else j] += m
        for i in range(len(below) - 1, 0, -1):
            below[parent[i]] += below[i]
        total = below[0]
        out: dict[str, float] = {}
        own = edge_mass.get
        for eid, e in edge_of.items():
            ends = e.ends
            if len(ends) == 1:
                out[eid] = float(own(eid, 0.0))
            elif pre[ends[1]] > pre[ends[0]]:
                out[eid] = below[pre[ends[1]]]
            else:
                out[eid] = total - below[pre[ends[0]]] + float(own(eid, 0.0))
        return out

    def onward_edge(self, v: str, came_by: str) -> str:
        """The edge by which a path entering vertex v through came_by is
        continued: the lowest-id other edge at v.  came_by must end at v
        (MalformedTree); a leaf raises LeafyTree."""
        self._edge_at(v, came_by)
        for eid in self._incident[v]:
            if eid != came_by:
                return eid
        raise LeafyTree(f"extension stuck at leaf {v!r}")

    def extension_walk(self, start: str, via_edge: str) -> TreeEnd:
        """The end reached by leaving `start` through `via_edge` and going
        on at every vertex along its onward edge, until an infinite edge.
        via_edge must end at `start` (MalformedTree)."""
        e, v = self._edge_at(start, via_edge), start
        while not e.infinite:
            v = e.ends[1] if e.ends[0] == v else e.ends[0]
            e = self._edges[self.onward_edge(v, e.id)]
        return TreeEnd(e.id)

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
        _segment_times(t0, t1)
        p = self.canonical_point(p)
        q = self.canonical_point(q)
        if p == q:
            return self.constant_geodesic(p, t0, t1)
        nodes, spans = self.path_nodes(p, q)
        speed = nodes[-1][0] / (t1 - t0)
        return TreeGeodesic(self, speed, t0, t1, t0, nodes, spans, None, None)

    def ray_to_end(self, p: TreePoint, end: TreeEnd, speed: float) -> "TreeGeodesic":
        speed = float(speed)
        p = self.canonical_point(p)
        u = self.end_attachment(end)
        if speed == 0.0:
            return self.constant_geodesic(p, 0.0, math.inf)
        if p.edge == end.edge:
            nodes, spans = [(0.0, p)], []
        else:
            nodes, spans = self.path_nodes(p, self.vertex_point(u))
        return TreeGeodesic(self, speed, 0.0, math.inf, 0.0, nodes, spans, None, end)

    def geodesic_between_ends(
        self,
        xi: TreeEnd,
        zeta: TreeEnd,
        speed: float = 1.0,
        anchor: TreePoint | None = None,
        anchor_time: float = 0.0,
    ) -> "TreeGeodesic":
        """Bi-infinite geodesic from xi (at -inf) to zeta (at +inf).

        ``anchor_time`` is the time at the anchor, a given point of the
        locus or by default the point nearest to the base point, read off
        the tree rooted there (``_anchor``).
        """
        if xi == zeta:
            raise EqualEnds(f"both ends are {xi!r}")
        u = self.end_attachment(xi)
        v = self.end_attachment(zeta)
        nodes, spans = self.path_nodes(self.vertex_point(u), self.vertex_point(v))
        prov = TreeGeodesic(
            self, speed, -math.inf, math.inf, 0.0, nodes, spans, xi, zeta
        )
        anchor_pt = self._anchor(xi, zeta) if anchor is None else self.canonical_point(anchor)
        s_a = prov.arc_of_point(anchor_pt)
        if s_a is None:
            raise MalformedTree("anchor does not lie on the geodesic locus")
        shifted = tuple((s - s_a, pt) for s, pt in nodes)
        return TreeGeodesic(
            self, speed, -math.inf, math.inf, anchor_time, shifted, spans, xi, zeta
        )


def _segment_times(t0: float, t1: float) -> None:
    """Finite t0 < t1, else a segment's speed could be 0 (a "ray")."""
    if not -math.inf < t0 < t1 < math.inf:
        raise OutOfInterval(f"need finite t0 < t1, got [{t0}, {t1}]")


class TreeGeodesic:
    """Constant-speed globally minimizing curve in the tree.

    The locus is stored as arc-parametrized nodes (every vertex on the path
    plus finite endpoints), the edge of each step between consecutive nodes
    (``spans``), and an optional boundary end on each open side;
    ``s(t) = speed * (t - t_origin)``.  Geodesics are built by the tree's
    constructors, which read the nodes and spans off ``path_nodes``.

    Its constructor alone checks the parameters, in this order: an interval
    of finite t0 < t1, finite t0 to t1 = inf, or (-inf, inf) (OutOfInterval,
    first, so that a NaN time is not taken for a NaN speed), a finite speed
    (NonFiniteValue) that is not negative (OutOfInterval), a finite origin.

    ``point_at_arc``, ``arc_of_point`` and ``traversals`` read one table of
    locus pieces, built on first use: each step, and each tail out to a
    boundary end, is ``(edge, s0, o, o_far, sign)`` with the arc s0 and edge
    offset o of its node, so offset = o + (s - s0) * sign on every piece.
    """

    __slots__ = (
        "tree", "speed", "t0", "t1", "t_origin",
        "nodes", "spans", "neg_end", "pos_end", "_pieces",
    )

    def __init__(self, tree, speed, t0, t1, t_origin, nodes, spans, neg_end, pos_end):
        t0, t1, speed, t_origin = float(t0), float(t1), float(speed), float(t_origin)
        if not (-math.inf < t0 < t1 <= math.inf or (t0, t1) == (-math.inf, math.inf)):
            raise OutOfInterval(f"geodesic interval [{t0}, {t1}] is not a segment, ray or line")
        if not math.isfinite(speed):
            raise NonFiniteValue(f"speed {speed} is not finite")
        if speed < 0.0:
            raise OutOfInterval(f"negative speed {speed}")
        if not math.isfinite(t_origin):
            raise NonFiniteValue(f"anchor time {t_origin} is not finite")
        self.tree = tree
        self.speed = speed
        self.t0 = t0
        self.t1 = t1
        self.t_origin = t_origin
        self.nodes = tuple(nodes)
        self.spans = tuple(spans)
        self.neg_end = neg_end
        self.pos_end = pos_end
        self._pieces = None

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

    def _piece_table(self) -> tuple[tuple[str, float, float, float, float], ...]:
        """The pieces in arc order: the negative tail, the steps, the
        positive tail.  o_far is the offset at a piece's far end (inf on a
        tail), and sign is +1.0 or -1.0."""
        if self._pieces is None:
            nodes, edges = self.nodes, self.tree.edges

            def offset(p: TreePoint, eid: str) -> float:
                if p.vertex is None:
                    return p.offset
                return 0.0 if p.vertex == edges[eid].ends[0] else edges[eid].length

            pieces = []
            if self.neg_end is not None:
                eid = self.neg_end.edge
                pieces.append((eid, nodes[0][0], offset(nodes[0][1], eid), math.inf, -1.0))
            for (s0, p), (_, q), eid in zip(nodes, nodes[1:], self.spans):
                o, o_far = offset(p, eid), offset(q, eid)
                pieces.append((eid, s0, o, o_far, 1.0 if o_far > o else -1.0))
            if self.pos_end is not None:
                eid = self.pos_end.edge
                pieces.append((eid, nodes[-1][0], offset(nodes[-1][1], eid), math.inf, 1.0))
            self._pieces = tuple(pieces)
        return self._pieces

    def arc_bounds(self) -> tuple[float, float]:
        lo = -math.inf if self.neg_end is not None else self.nodes[0][0]
        hi = math.inf if self.pos_end is not None else self.nodes[-1][0]
        return lo, hi

    def point_at_arc(self, s: float) -> TreePoint:
        """The point at arc s, snapped to a node within DUST of it on a
        step; a bounded side of the locus clamps s to its end node."""
        nodes = self.nodes
        if self.is_constant:
            return nodes[0][1]
        if math.isnan(s):
            raise MalformedTree("arc coordinate nan is not a number")
        i = bisect_right(nodes, s, key=itemgetter(0))
        if 0 < i < len(nodes):
            (sa, pa), (sb, pb) = nodes[i - 1], nodes[i]
            if s - sa <= DUST:
                return pa
            if sb - s <= DUST:
                return pb
        elif (self.pos_end if i else self.neg_end) is None:
            return nodes[max(i - 1, 0)][1]
        # node i - 1's step, or a tail: piece i - 1, or i behind a negative tail
        eid, s0, o, _, sign = self._piece_table()[i - (self.neg_end is None)]
        return self.tree.edge_point(eid, o + (s - s0) * sign)

    def evaluate(self, t: float) -> TreePoint:
        if not self.t0 - TOL <= t <= self.t1 + TOL:
            raise OutOfInterval(f"t={t} outside [{self.t0}, {self.t1}]")
        return self.point_at_arc(self.speed * (t - self.t_origin))

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
        for eid, s0, o, o_far, sign in self._piece_table():
            if eid == p.edge and min(o, o_far) - TOL <= p.offset <= max(o, o_far) + TOL:
                return s0 + (p.offset - o) * sign
        return None

    def traversals(self) -> list[tuple[str, float, float, float]]:
        """Edge sub-intervals covered by the locus.

        Returns tuples (edge id, low offset, high offset, direction) where
        direction is +1.0 if the offset increases along the parametrization
        and -1.0 if it decreases.  Infinite tails use math.inf as the high
        offset.
        """
        if self.is_constant:
            return []
        return [(eid, min(o, o_far), max(o, o_far), sign)
                for eid, _, o, o_far, sign in self._piece_table()]

    def tail(self) -> tuple[str, float, float, float] | None:
        """(edge, c, speed, t_last): from t_last, the time at the last node,
        on, the geodesic sits on its final infinite edge at offset
        c + speed * t.  A speed of at most DUST counts as constant, as on
        the boundary cone: a constant on an infinite edge gives speed 0 and
        t_last = -inf.  Any other constant, and a geodesic with no positive
        end, gives None."""
        if self.speed <= DUST:
            p = self.nodes[0][1]
            if p.edge is not None and self.tree.edges[p.edge].infinite:
                return p.edge, p.offset, 0.0, -math.inf
            return None
        if self.pos_end is None:
            return None
        eid, s0, o, _, _ = self._piece_table()[-1]
        speed = self.speed
        return eid, o - s0 - speed * self.t_origin, speed, self.t_origin + s0 / speed

    def restrict(self, t0: float, t1: float) -> "TreeGeodesic":
        if not (self.t0 - TOL <= t0 < t1 <= self.t1 + TOL):
            raise OutOfInterval(f"[{t0}, {t1}] not inside [{self.t0}, {self.t1}]")
        if self.is_constant:
            return self.tree.constant_geodesic(self.nodes[0][1], t0, t1)
        _segment_times(t0, t1)  # a moving restriction is a segment
        return self.tree.geodesic_segment(self.evaluate(t0), self.evaluate(t1), t0, t1)


# -- module-level operations -------------------------------------------------


def gromov_product(tree: MetricTree, xi: TreeEnd, zeta: TreeEnd) -> float:
    """Distance from the base point to the geodesic joining two ends;
    +infinity on the diagonal.  An unknown or finite edge raises
    MalformedTree, on the diagonal too.

    It is the base point's distance to the default anchor of
    ``geodesic_between_ends``, the LCA of the ends' nodes with the tree
    rooted at the base point, in O(1): 0 when the base point lies on the
    geodesic inside an edge."""
    if xi == zeta:
        tree.end(xi.edge)
        return math.inf
    return tree.distance(tree.basepoint, tree._anchor(xi, zeta))


def project_to_geodesic(tree: MetricTree, y: TreePoint, gamma: TreeGeodesic) -> TreePoint:
    """Nearest point of the locus of gamma: y itself when y lies on it, and
    otherwise the node of ``gamma.nodes`` nearest to y (the first in node
    order at the least distance).

    The locus is convex, so the nearest point is unique: where the path
    from y first meets the locus.  A path crosses an edge's interior only
    along the edge, so that point is a vertex of the locus, or its finite
    endpoint when the locus ends inside y's edge; a node either way."""
    if gamma.is_constant:
        raise ConstantGeodesic("projection on a constant geodesic is undefined")
    y = tree.canonical_point(y)
    if gamma.arc_of_point(y) is not None:
        return y
    row = tree.distance_matrix([y], [p for _, p in gamma.nodes])[0]
    return gamma.nodes[row.index(min(row))][1]


def perpendicular(tree: MetricTree, x: str, e: str, f: str) -> frozenset[str]:
    """Vertex set of the perpendicular of the flag (x, ef): x together with
    the components off x that meet neither e nor f.  A flag that is not
    two distinct edges at x raises FlagInvalid, as ``radon.Flag.make``."""
    out = {x}
    for g in tree._flag_edges(x, e, f):
        if g not in (e, f):
            out |= tree.subtree_vertices(x, g)
    return frozenset(out)
