"""Tree model tests: validation, path metric, geodesics, ends, projections.

Oracles: breadth-first path search for distances, dense locus sampling for
projections, direct definition checks for the small named trees.
"""

import itertools
import math
import re

import numpy as np
import pytest

import treeot as T
from treeot.errors import (
    ConstantGeodesic,
    EqualEnds,
    FlagInvalid,
    LeafyTree,
    MalformedTree,
    NonFiniteValue,
    OutOfInterval,
)
from treeot.metric_tree import DUST

import helpers


# -- validation -------------------------------------------------------------


def test_tripod_valid_with_leaves_flagged(tripod):
    report = tripod.report
    assert report.ok
    assert set(report.leaves) == {"a", "b", "c"}


def test_star3_valid_no_leaves(star3):
    report = star3.report
    assert report.ok
    assert report.leaves == ()
    assert set(report.infinite_edges) == {"r1", "r2", "r3"}


def test_triangle_rejected():
    with pytest.raises(MalformedTree):
        T.MetricTree(
            ["a", "b", "c"],
            [("e1", ("a", "b"), 1.0), ("e2", ("b", "c"), 1.0), ("e3", ("c", "a"), 1.0)],
            "a",
        )


def test_disconnected_rejected():
    with pytest.raises(MalformedTree):
        T.MetricTree(["a", "b", "c", "d"], [("e1", ("a", "b"), 1.0)], "a")


def test_nonpositive_length_rejected():
    with pytest.raises(MalformedTree):
        T.MetricTree(["a", "b"], [("e1", ("a", "b"), 0.0)], "a")


def test_two_endpoint_infinite_edge_rejected():
    with pytest.raises(MalformedTree):
        T.MetricTree(["a", "b"], [("e1", ("a", "b"), math.inf)], "a")


def test_self_loop_rejected():
    with pytest.raises(MalformedTree):
        T.MetricTree(["a"], [("e1", ("a", "a"), 1.0)], "a")


_TRIANGLE = [("e1", ("a", "b"), 1.0), ("e2", ("b", "c"), 1.0), ("e3", ("c", "a"), 1.0)]


@pytest.mark.parametrize("vertices, edges, message", [
    ([], [], "tree needs at least one vertex"),
    (["a", "b", "a"], [], "duplicate vertex names"),
    (["a", "b"], [("e", ("a", "b"), 1.0), ("e", ("b", "a"), 2.0)], "duplicate edge id 'e'"),
    (["a", "b"], [("e", ("a", "c"), 1.0)], "edge 'e' references unknown vertex"),
    (["a", "b"], [("e", ("a",), 1.0)], "finite edge 'e' must have two endpoints"),
    (["a", "b", "c"], [("e", ("a", "b", "c"), 1.0)], "finite edge 'e' must have two endpoints"),
    (["a", "b"], [("e", ("a", "b"), True)], "edge 'e' has length True, not a number"),
    (["a", "b"], [("e", ("a", "b"), 0.0)], "edge 'e' has nonpositive length"),
    (["a", "b"], [("e", ("a", "b"), -1.0)], "edge 'e' has nonpositive length"),
    (["a", "b"], [("e", ("a", "b"), math.nan)], "edge 'e' has nonpositive length"),
    (["a", "b"], [("e", ("a", "b"), math.inf)], "infinite edge 'e' must have exactly one endpoint"),
    (["a", "b"], [("e", (), math.inf)], "infinite edge 'e' must have exactly one endpoint"),
    (["a"], [("e", ("a", "a"), 1.0)], "edge 'e' is a self loop (cycle)"),
    # two bad edges: the first in input order is named, not the first by id
    (["a", "b", "c"], [("e1", ("a", "b"), 1.0), ("e3", ("b", "b"), 1.0), ("e2", ("b", "c"), -1.0)],
     "edge 'e3' is a self loop (cycle)"),
    (["a", "b", "c"], [("e1", ("a", "b"), 1.0), ("e3", ("b", "c"), -1.0), ("e2", ("b", "b"), 1.0)],
     "edge 'e3' has nonpositive length"),
    # the finite edges are counted apart from the rays
    (["a", "b", "c"], _TRIANGLE + [("r", ("a",), math.inf)],
     "graph is not a tree (connected=True, acyclic=False)"),
    (["a", "b", "c", "d"], _TRIANGLE + [("r", ("d",), math.inf)],
     "graph is not a tree (connected=False, acyclic=True)"),
])
def test_constructor_rejects_malformed_lists(vertices, edges, message):
    with pytest.raises(MalformedTree, match=f"^{re.escape(message)}$"):
        T.MetricTree(vertices, edges, "a")


def _rooted_copy(tree: T.MetricTree) -> tuple:
    """What the constructor derives from the lists, in order, with the LCA
    table; the edge map alone keeps the order of the input."""
    tree.lca(tree.vertices[0], tree.vertices[-1])
    return (tree._order, tree._up, tree._up_edge, tree._dist, tree._size,
            list(tree._incident.items()), tree.report, tree._lca_table)


def _shuffled_rebuilds(rng, tree: T.MetricTree, basepoint, times: int = 3):
    vertices = list(tree.vertices)
    edges = [(e.id, e.ends, e.length) for e in tree.edges.values()]
    for _ in range(times):
        rng.shuffle(vertices)
        rng.shuffle(edges)
        yield T.MetricTree(vertices, edges, basepoint)


@pytest.mark.parametrize("kind", ["vertex", "edge", "ray"])
def test_rooted_copy_does_not_depend_on_list_order(kind):
    # the sorted incident edges fix the preorder, hence every tie order
    rng = np.random.default_rng(47)
    for _ in range(30):
        tree = helpers.random_tree(rng, int(rng.integers(2, 40)), int(rng.integers(1, 6)))
        tree = _rebased(tree, helpers.random_basepoint(rng, tree, kind))
        want = _rooted_copy(tree)
        for again in _shuffled_rebuilds(rng, tree, tree.basepoint):
            assert _rooted_copy(again) == want


def test_comb_rooted_copy_does_not_depend_on_list_order():
    comb = T.comb_generator(2048, 3.0).tree
    want = _rooted_copy(comb)
    for again in _shuffled_rebuilds(np.random.default_rng(53), comb, comb.basepoint, 2):
        assert _rooted_copy(again) == want


def test_lca_table_rows_are_range_minima():
    # the reference is the map(min, ...) construction the levels replaced
    rng = np.random.default_rng(59)
    trees = [helpers.random_tree(rng, n, 2) for n in (1, 2, 3, 7, 64, 200)]
    for tree in trees + [T.comb_generator(2048, 3.0).tree]:
        table = tree._build_lca_table()
        want = [table[0]]
        while 2 ** len(want) <= len(table[0]):
            half = 2 ** (len(want) - 1)
            want.append(list(map(min, want[-1], want[-1][half:])))
        assert table == want


@pytest.mark.parametrize("ends", [("b",), ("a", "b")])
def test_negative_infinite_length_rejected(ends):
    # only +inf marks a ray; -inf is a nonpositive length, whatever the ends
    with pytest.raises(MalformedTree, match="nonpositive length"):
        T.MetricTree(["a", "b"], [("e", ("a", "b"), 1.0), ("r", ends, -math.inf)], "a")


@pytest.mark.parametrize("offset", [math.nan, math.inf, -math.inf])
def test_non_finite_offset_rejected(tripod, star3, offset):
    with pytest.raises(MalformedTree):
        tripod.edge_point("ea", offset)
    with pytest.raises(MalformedTree):
        star3.edge_point("r1", offset)
    with pytest.raises(MalformedTree):
        star3.canonical_point(T.TreePoint(edge="r1", offset=offset))


# -- canonical points ------------------------------------------------------------


def test_canonical_point_returns_canonical_points_as_they_are(tripod_completed):
    tree = tripod_completed
    rng = np.random.default_rng(167)
    for _ in range(200):
        p = helpers.random_point(rng, tree, max_ray_offset=1e6)
        assert tree.canonical_point(p) is p
        assert tree.canonical_point(tree.canonical_point(p)) is p
    for p in (T.TreePoint(vertex="o"), T.TreePoint("a"), T.TreePoint(edge="ea", offset=0.5),
              T.TreePoint(edge="ra", offset=1e300)):
        assert tree.canonical_point(p) is p


def _same_point(got, want):
    assert got == want
    assert type(got.offset) is float and math.copysign(1.0, got.offset) == 1.0


@pytest.mark.parametrize(
    "given, want",
    [
        # an int offset comes back as a float
        (T.TreePoint(edge="ea", offset=1), T.TreePoint("a")),
        (T.TreePoint(edge="ra", offset=2), T.TreePoint(edge="ra", offset=2.0)),
        (T.TreePoint(edge="ea", offset=np.float64(0.25)), T.TreePoint(edge="ea", offset=0.25)),
        # offsets within 1e-12 of either end snap to the endpoint
        (T.TreePoint(edge="ea", offset=1e-12), T.TreePoint("o")),
        (T.TreePoint(edge="ea", offset=-1e-12), T.TreePoint("o")),
        (T.TreePoint(edge="ea", offset=0.0), T.TreePoint("o")),
        (T.TreePoint(edge="ea", offset=1.0 - 1e-12), T.TreePoint("a")),
        (T.TreePoint(edge="ea", offset=1.0 + 1e-12), T.TreePoint("a")),
        (T.TreePoint(edge="ra", offset=5e-13), T.TreePoint("a")),
        # a vertex point sheds a stray edge or offset
        (T.TreePoint(vertex="a", edge="ea", offset=0.5), T.TreePoint("a")),
        (T.TreePoint(vertex="a", edge="ea"), T.TreePoint("a")),
        (T.TreePoint(vertex="a", offset=0.5), T.TreePoint("a")),
        (T.TreePoint(vertex="a", offset=-0.0), T.TreePoint("a")),
        (T.TreePoint(vertex="a", offset=0), T.TreePoint("a")),
        ("b", T.TreePoint("b")),
    ],
)
def test_canonical_point_rebuilds_non_canonical_points(tripod_completed, given, want):
    got = tripod_completed.canonical_point(given)
    assert got is not given
    _same_point(got, want)
    _same_point(tripod_completed.canonical_point(got), want)


@pytest.mark.parametrize(
    "given",
    [
        T.TreePoint("z"),
        T.TreePoint(vertex="z", edge="ea", offset=0.5),
        T.TreePoint(edge="zz", offset=0.5),
        T.TreePoint(),
        T.TreePoint(edge="ea", offset=1.0 + 1e-9),
        T.TreePoint(edge="ea", offset=-1e-9),
        T.TreePoint(edge="ra", offset=-1e-9),
        "z",
    ],
)
def test_canonical_point_rejects_unknown_names_and_offsets(tripod_completed, given):
    with pytest.raises(MalformedTree):
        tripod_completed.canonical_point(given)


# -- distance ---------------------------------------------------------------


def test_tripod_leaf_distance(tripod):
    a, b = tripod.vertex_point("a"), tripod.vertex_point("b")
    assert tripod.distance(a, b) == pytest.approx(2.0, abs=1e-12)
    assert tripod.distance(a, a) == 0.0


def test_distance_matches_bfs_oracle():
    rng = np.random.default_rng(7)
    for _ in range(30):
        tree = helpers.random_tree(rng, int(rng.integers(2, 12)), int(rng.integers(0, 3)))
        for _ in range(8):
            p = helpers.random_point(rng, tree)
            q = helpers.random_point(rng, tree)
            assert tree.distance(p, q) == pytest.approx(
                helpers.bfs_distance(tree, p, q), abs=1e-9
            )


# -- LCA table and batched distances ------------------------------------------


def _rebased(tree, basepoint):
    edges = [(e.id, e.ends, e.length) for e in tree.edges.values()]
    return T.MetricTree(tree.vertices, edges, basepoint)


def _lca_pairs(rng, tree):
    """u == v, root, ancestor/descendant, sibling and random vertex pairs."""
    names = tree.vertices
    parent = {v: helpers.parent_vertex(tree, v) for v in names}
    root = next(v for v, p in parent.items() if p is None)
    del parent[root]
    children = {}
    for v, p in parent.items():
        children.setdefault(p, []).append(v)
    pairs = [(v, v) for v in names[:5]] + [(root, v) for v in names[:5]]
    for v in list(parent)[:20]:
        pairs += [(v, parent[v]), (parent[v], v), (v, root)]
    for kids in children.values():
        if len(kids) > 1:
            pairs += [(kids[0], kids[1]), (kids[-1], kids[0])]
    for _ in range(40):
        pairs.append(tuple(names[int(i)] for i in rng.integers(0, len(names), 2)))
    return pairs


def test_lca_matches_parent_walk_on_random_trees():
    rng = np.random.default_rng(41)
    for n in (1, 2, 3, 5, 8, 17, 40, 130):
        tree = helpers.random_tree(rng, n, 2)
        for u, v in _lca_pairs(rng, tree):
            assert tree.lca(u, v) == helpers.naive_lca(tree, u, v)
            assert tree.lca(v, u) == tree.lca(u, v)


def test_lca_matches_parent_walk_on_deep_comb():
    comb = T.comb_generator(4096, 3.0).tree
    names = comb.vertices
    rng = np.random.default_rng(43)
    # rooted at the first vertex (a path: every pair is ancestor and
    # descendant) and at a middle one (pairs on both sides meet at the root)
    for tree in (comb, _rebased(comb, names[1500])):
        pairs = _lca_pairs(rng, tree) + [
            (names[0], names[-1]), (names[-1], names[0]), (names[1499], names[1501]),
            (names[0], names[4095]), (names[2047], names[2048]),
        ]
        for u, v in pairs:
            assert tree.lca(u, v) == helpers.naive_lca(tree, u, v)


def test_lca_and_vertex_distance_reject_unknown_vertex(tripod):
    for u, v in (("nope", "a"), ("a", "nope"), ("nope", "nope")):
        with pytest.raises(MalformedTree, match="nope"):
            tripod.lca(u, v)
        with pytest.raises(MalformedTree, match="nope"):
            tripod.vertex_distance(u, v)


def _spread_tree(rng, n_vertices, n_infinite):
    """Random tree whose finite lengths spread over 1e-6 .. 1e12, each edge
    stored in a random orientation, based inside a finite edge."""
    names = [f"w{i:03d}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        ends = (names[int(rng.integers(0, i))], names[i])
        ends = ends[::-1] if rng.random() < 0.5 else ends
        edges.append((f"e{i:03d}", ends, float(10.0 ** rng.uniform(-6, 12))))
    for k in range(n_infinite):
        edges.append((f"r{k:03d}", (names[int(rng.integers(0, n_vertices))],), math.inf))
    eid, _, length = edges[int(rng.integers(0, n_vertices - 1))]
    return T.MetricTree(names, edges, T.TreePoint(edge=eid, offset=0.5 * length))


def _spread_point(rng, tree):
    if rng.random() < 0.3:
        return tree.vertex_point(tree.vertices[int(rng.integers(0, len(tree.vertices)))])
    e = tree.edges[sorted(tree.edges)[int(rng.integers(0, len(tree.edges)))]]
    top = float(10.0 ** rng.uniform(-6, 12)) if e.infinite else e.length
    return tree.edge_point(e.id, float(rng.uniform(0, 1)) * top)


def test_distance_matrix_equals_distance_exactly():
    rng = np.random.default_rng(47)
    cases = []
    for trial in range(12):
        tree = helpers.random_tree(rng, int(rng.integers(1, 30)), int(rng.integers(1, 4)))
        finite = sorted(e.id for e in tree.edges.values() if not e.infinite)
        if finite and trial % 2:
            fe = tree.edges[finite[int(rng.integers(0, len(finite)))]]
            tree = _rebased(tree, tree.edge_point(fe.id, 0.5 * fe.length))
        pts = [tree.vertex_point(v) for v in tree.vertices[:4]]
        pts += [helpers.random_point(rng, tree) for _ in range(12)]
        for eid in (finite[:2] + list(tree.report.infinite_edges[:1])):
            e = tree.edges[eid]
            top = e.length if not e.infinite else 4.0
            # several points on one edge, so that same-edge pairs occur, and
            # a point given at offset 0, which canonicalises to a vertex
            pts += [tree.edge_point(eid, float(s) * top) for s in rng.uniform(0, 1, 3)]
            pts.append(T.TreePoint(edge=eid, offset=0.0))
        cases.append((tree, pts))
    # lengths over 18 decades, where rounding could favour a wrong exit
    for _ in range(8):
        tree = _spread_tree(rng, int(rng.integers(2, 30)), int(rng.integers(0, 4)))
        cases.append((tree, [_spread_point(rng, tree) for _ in range(24)]))
    for tree, pts in cases:
        rng.shuffle(pts)
        xs, ys = pts[: len(pts) // 2 + 1], pts[len(pts) // 3:]
        got = tree.distance_matrix(xs, ys)
        assert got == [[tree.distance(x, y) for y in ys] for x in xs]
        assert tree.distance_matrix(xs, []) == [[] for _ in xs]
        assert tree.distance_matrix([], ys) == []
        # path_nodes takes the same exits: its edges are the geodesic's, and
        # an endpoint off the vertices sits at the distance
        for x, row in zip(map(tree.canonical_point, xs), got):
            for y, d in zip(map(tree.canonical_point, ys), row):
                if x == y:
                    continue
                nodes, spans = tree.path_nodes(x, y)
                assert spans == helpers.bfs_edge_path(tree, x, y)
                assert nodes[-1][1] == y
                if not y.is_vertex():
                    assert nodes[-1][0] == d


def test_overflowing_distance_is_a_domain_error(star3):
    # Both edges are finite, but 1e308 + 1e308 is not a float.
    path = T.MetricTree(
        ["a", "b", "c"], [("e1", ("a", "b"), 1e308), ("e2", ("b", "c"), 1e308)], "a"
    )
    a, b, c = (path.vertex_point(v) for v in "abc")
    assert path.distance(a, b) == 1e308
    assert path.distance_matrix([a], [b, a]) == [[1e308, 0.0]]
    with pytest.raises(NonFiniteValue):
        path.distance(a, c)
    with pytest.raises(NonFiniteValue):
        path.distance(c, a)
    with pytest.raises(NonFiniteValue):
        path.distance_matrix([a, b], [b, c])
    # where root distances overflow, a distance is exact or a typed error,
    # never inf or NaN
    for x, y in ((b, c), (c, b), (c, c), (b, b)):
        for get in (lambda: path.distance(x, y), lambda: path.distance_matrix([x], [y])[0][0]):
            try:
                assert get() == (0.0 if x == y else 1e308)
            except NonFiniteValue:
                pass
    # two finite points far out on two rays
    far1, far2 = star3.edge_point("r1", 1e308), star3.edge_point("r2", 1e308)
    assert star3.distance(far1, star3.edge_point("r1", 1.0)) == 1e308 - 1.0
    with pytest.raises(NonFiniteValue):
        star3.distance(far1, far2)
    with pytest.raises(NonFiniteValue):
        star3.distance_matrix([far2], [far1])


def test_deep_comb_distances_are_exact():
    tree = T.comb_generator(16384, 3.0).tree
    rng = np.random.default_rng(53)
    pairs = [(1, 16384), (16384, 1), (8192, 8193), (5, 5)]
    pairs += [tuple(int(i) for i in rng.integers(1, 16385, 2)) for _ in range(200)]
    vertex = lambda a: tree.vertex_point(f"v{a:05d}")
    for a, b in pairs:
        assert tree.distance(vertex(a), vertex(b)) == float(abs(a - b))
    # points on the teeth, at integer offsets: every sum stays exact
    xs = [tree.edge_point(f"t{a:05d}", a % 7 + 1.0) for a, _ in pairs]
    ys = [vertex(b) for _, b in pairs] + [tree.edge_point(f"t{b:05d}", 3.0) for _, b in pairs]
    got = tree.distance_matrix(xs, ys)
    n = len(pairs)
    for i, (a, _) in enumerate(pairs):
        off = a % 7 + 1.0
        for j, (_, b) in enumerate(pairs):
            assert got[i][j] == off + abs(a - b)
            want = abs(off - 3.0) if a == b else off + abs(a - b) + 3.0
            assert got[i][n + j] == want


def test_four_point_condition():
    rng = np.random.default_rng(11)
    for _ in range(20):
        tree = helpers.random_tree(rng, 9, 2)
        pts = [helpers.random_point(rng, tree) for _ in range(4)]
        p, q, r, s = pts
        sums = sorted(
            [
                tree.distance(p, q) + tree.distance(r, s),
                tree.distance(p, r) + tree.distance(q, s),
                tree.distance(p, s) + tree.distance(q, r),
            ]
        )
        assert sums[2] - sums[1] <= 1e-9


# -- geodesic segments --------------------------------------------------------


def test_tripod_segment(tripod):
    g = tripod.geodesic_segment(
        tripod.vertex_point("a"), tripod.vertex_point("b"), 0.0, 1.0
    )
    assert g.speed == pytest.approx(2.0)
    assert [p.vertex for _, p in g.nodes] == ["a", "o", "b"]
    assert g.evaluate(0.5) == tripod.vertex_point("o")


def test_constant_segment(tripod):
    o = tripod.vertex_point("o")
    g = tripod.geodesic_segment(o, o, 0.0, 1.0)
    assert g.is_constant
    assert g.evaluate(0.3) == o


def test_segment_midpoints_match_oracle():
    rng = np.random.default_rng(13)
    count = 0
    while count < 50:
        tree = helpers.random_tree(rng, int(rng.integers(2, 10)), 1)
        p, q = helpers.random_point(rng, tree), helpers.random_point(rng, tree)
        if p == q:
            continue
        count += 1
        g = tree.geodesic_segment(p, q, 0.0, 1.0)
        mid = g.evaluate(0.5)
        # metric midpoint: equidistant and on the p-q path
        half = 0.5 * tree.distance(p, q)
        assert tree.distance(p, mid) == pytest.approx(half, abs=1e-9)
        assert tree.distance(mid, q) == pytest.approx(half, abs=1e-9)


def test_segment_speed_parametrization():
    rng = np.random.default_rng(17)
    tree = helpers.random_tree(rng, 8, 1)
    p, q = helpers.distinct_points(rng, tree, 2)
    g = tree.geodesic_segment(p, q, -1.0, 3.0)
    for s, t in [(-1.0, 0.2), (0.0, 3.0), (1.5, 2.5)]:
        assert tree.distance(g.evaluate(s), g.evaluate(t)) == pytest.approx(
            g.speed * abs(s - t), abs=1e-9
        )


def _locus_points(rng, tree):
    """Vertices, points inside finite edges and points on every ray."""
    pts = [tree.vertex_point(tree.vertices[int(i)]) for i in rng.choice(len(tree.vertices), 8, replace=False)]
    pts += [_spread_point(rng, tree) for _ in range(8)]
    pts += [tree.edge_point(r, float(10.0 ** rng.uniform(-3, 3))) for r in tree.report.infinite_edges]
    return list(dict.fromkeys(pts))


def test_locus_coordinates_are_distances_from_the_start():
    """Every node of a locus sits at ``distance`` from its start, bit for
    bit, so a segment over [0, 1] has speed ``distance(p, q)``: the
    certificate's costs and the geodesics cover the same distances.  Summing
    the steps instead misses by ulps on about half the vertex pairs."""
    rng = np.random.default_rng(229)
    for trial in range(8):
        tree = _spread_tree(rng, 40, 3) if trial % 2 else helpers.random_tree(rng, 40, 3)
        pts = _locus_points(rng, tree)
        for p, q in itertools.permutations(pts, 2):
            g = tree.geodesic_segment(p, q, 0.0, 1.0)
            assert g.speed == tree.distance(p, q)
            arcs = [s for s, _ in g.nodes]
            assert arcs == [tree.distance(p, x) for _, x in g.nodes]
            assert arcs == sorted(arcs)
        for p in pts:
            for end in tree.ends():
                ray = tree.ray_to_end(p, end, 1.0)
                assert [s for s, _ in ray.nodes] == [tree.distance(p, x) for _, x in ray.nodes]


def test_point_at_arc_stays_on_a_step_under_rounded_arcs():
    # Root distances near 1e12 are rounded to 2^-13, so the step from b up
    # to a spans 5.18017578125 of arc for its 5.18 of length.  The offset
    # that arc implies just before a once overshot a by more than DUST and
    # raised; it stops at a.
    tree = T.MetricTree(["r", "a", "b"], [("e1", ("r", "a"), 1e12), ("e2", ("a", "b"), 5.18)], "r")
    g = tree.geodesic_segment(T.TreePoint("b"), T.TreePoint("a"), 0.0, 1.0)
    (_, b), (sa, a) = g.nodes
    assert sa > 5.18 + 1e-4
    assert g.point_at_arc(sa - 2 * DUST) == a
    assert g.point_at_arc(1.0) == tree.edge_point("e2", 4.18)
    assert g.point_at_arc(DUST / 2) == b


def test_evaluate_returns_canonical_points():
    """``evaluate`` gives canonical points, exact ``TreePoint``s that
    ``canonical_point`` returns as they are: the distance kernel takes the
    points of the asymptotic check and the ray certificate without
    canonicalising them again."""
    rng = np.random.default_rng(233)
    for trial in range(6):
        tree = _spread_tree(rng, 20, 3) if trial % 2 else helpers.random_tree(rng, 20, 3)
        pts, ends = _locus_points(rng, tree), tree.ends()
        geodesics = [tree.geodesic_segment(p, q, -1.0, 2.0) for p, q in zip(pts, pts[1:])]
        geodesics += [tree.ray_to_end(p, ends[k % len(ends)], 0.5 + k) for k, p in enumerate(pts)]
        geodesics += [tree.geodesic_between_ends(xi, zeta, 1.5) for xi, zeta in itertools.permutations(ends, 2)]
        geodesics += [tree.constant_geodesic(p) for p in pts[:3]]
        for g in geodesics:
            lo = g.t0 if math.isfinite(g.t0) else -50.0
            hi = g.t1 if math.isfinite(g.t1) else 50.0
            times = [lo, hi] + [float(t) for t in rng.uniform(lo, hi, 12)]
            times += [g.t_origin + s / g.speed for s, _ in g.nodes] if g.speed else []
            for t in times:
                if not g.t0 <= t <= g.t1:
                    continue
                q = g.evaluate(t)
                assert type(q) is T.TreePoint
                assert tree.canonical_point(q) is q


def test_vertex_and_edge_points_are_exact_tree_points(tripod_completed):
    tree = tripod_completed
    for v in tree.vertices:
        got = tree.vertex_point(v)
        assert type(got) is T.TreePoint
        _same_point(got, T.TreePoint(vertex=v))
    for eid, offset, want in [
        ("ea", 0.25, T.TreePoint(edge="ea", offset=0.25)),
        ("ea", 0.0, T.TreePoint(vertex="o")),
        ("ea", 1.0, T.TreePoint(vertex="a")),
        ("ra", 7.5, T.TreePoint(edge="ra", offset=7.5)),
        ("ra", 3, T.TreePoint(edge="ra", offset=3.0)),
    ]:
        got = tree.edge_point(eid, offset)
        assert type(got) is T.TreePoint
        _same_point(got, want)


def test_along_geodesic_additivity():
    rng = np.random.default_rng(19)
    tree = helpers.random_tree(rng, 10, 2)
    p, q = helpers.distinct_points(rng, tree, 2)
    g = tree.geodesic_segment(p, q, 0.0, 1.0)
    for s, t, u in [(0.0, 0.3, 1.0), (0.1, 0.5, 0.9)]:
        d_su = tree.distance(g.evaluate(s), g.evaluate(u))
        d_st = tree.distance(g.evaluate(s), g.evaluate(t))
        d_tu = tree.distance(g.evaluate(t), g.evaluate(u))
        assert d_su == pytest.approx(d_st + d_tu, abs=1e-9)


def test_evaluate_out_of_interval(tripod):
    g = tripod.geodesic_segment(
        tripod.vertex_point("a"), tripod.vertex_point("b"), 0.0, 1.0
    )
    with pytest.raises(OutOfInterval):
        g.evaluate(1.5)
    with pytest.raises(OutOfInterval):
        g.evaluate(math.nan)
    assert g.evaluate(0.0) == tripod.vertex_point("a")
    assert g.evaluate(1.0) == tripod.vertex_point("b")


# -- rays ----------------------------------------------------------------------


def test_ray_along_edge(star3):
    ray = star3.ray_to_end(star3.vertex_point("o"), star3.end("r1"), 1.0)
    assert ray.evaluate(2.5) == star3.edge_point("r1", 2.5)
    assert ray.pos_end == star3.end("r1")


def test_ray_passes_center(star3):
    start = star3.edge_point("r2", 1.0)
    ray = star3.ray_to_end(start, star3.end("r1"), 1.0)
    assert ray.evaluate(1.0) == star3.vertex_point("o")
    assert ray.evaluate(3.0) == star3.edge_point("r1", 2.0)


def test_zero_speed_ray_is_constant(star3):
    p = star3.edge_point("r3", 0.7)
    ray = star3.ray_to_end(p, star3.end("r1"), 0.0)
    assert ray.is_constant
    assert ray.evaluate(100.0) == p


@pytest.mark.parametrize("speed, error", [(math.nan, NonFiniteValue), (math.inf, NonFiniteValue),
                                          (-1.0, OutOfInterval)])
def test_ray_and_complete_speeds_are_finite_and_not_negative(star3, speed, error):
    o, r1, r2 = star3.vertex_point("o"), star3.end("r1"), star3.end("r2")
    with pytest.raises(error):
        star3.ray_to_end(o, r1, speed)
    with pytest.raises(error):
        star3.geodesic_between_ends(r1, r2, speed=speed)


@pytest.mark.parametrize("anchor_time", [math.nan, math.inf, -math.inf])
def test_complete_anchor_time_is_finite(star3, anchor_time):
    o, r1, r2 = star3.vertex_point("o"), star3.end("r1"), star3.end("r2")
    with pytest.raises(NonFiniteValue, match="^anchor time"):
        star3.geodesic_between_ends(r1, r2, anchor=o, anchor_time=anchor_time)
    # the default anchor is at anchor_time too
    with pytest.raises(NonFiniteValue, match="^anchor time"):
        star3.geodesic_between_ends(r1, r2, anchor_time=anchor_time)


# -- Gromov products and geodesics between ends -----------------------------------


def test_gromov_product_star3(star3):
    assert T.gromov_product(star3, star3.end("r1"), star3.end("r2")) == 0.0
    assert T.gromov_product(star3, star3.end("r1"), star3.end("r1")) == math.inf


def test_gromov_product_interior_basepoint():
    tree = T.MetricTree(
        ["o"],
        [("r1", ("o",), math.inf), ("r2", ("o",), math.inf), ("r3", ("o",), math.inf)],
        T.TreePoint(edge="r1", offset=1.0),
    )
    assert T.gromov_product(tree, tree.end("r2"), tree.end("r3")) == pytest.approx(
        1.0, abs=1e-12
    )


@pytest.mark.parametrize("kind", ["vertex", "finite", "ray"])
def test_gromov_product_is_the_distance_to_the_anchor_between_the_ends(kind):
    # The product, read as the distance from the base point to the LCA of
    # the attachments, has the bits of the distance to the anchor of the
    # geodesic between the ends, and that anchor is the projection of the
    # base point onto the locus.  Only where the base point lies on that
    # geodesic inside an edge does the anchor, found by arc arithmetic, sit
    # up to about 1e-15 off it, where the product is 0 exactly.
    rng = np.random.default_rng({"vertex": 503, "finite": 509, "ray": 521}[kind])
    on_locus = 0
    for _ in range(30):
        base = helpers.random_tree(rng, int(rng.integers(2, 25)), int(rng.integers(2, 8)))
        edges = [(e.id, e.ends, e.length) for e in base.edges.values()]
        tree = T.MetricTree(base.vertices, edges, helpers.random_basepoint(rng, base, kind))
        ends = tree.ends()
        for xi, zeta in itertools.permutations(ends, 2):
            g = tree.geodesic_between_ends(xi, zeta)
            want = tree.distance(tree.basepoint, g.point_at_arc(0.0))
            got = T.gromov_product(tree, xi, zeta)
            proj = T.project_to_geodesic(tree, tree.basepoint, g)
            if tree.basepoint.is_vertex() or g.arc_of_point(tree.basepoint) is None:
                assert got == want and g.point_at_arc(0.0) == proj
            else:
                on_locus += 1
                assert got == 0.0 and want <= 1e-12 and proj == tree.basepoint
    assert on_locus > 0 if kind != "vertex" else on_locus == 0


def test_between_ends_star3(star3):
    g = star3.geodesic_between_ends(star3.end("r1"), star3.end("r2"))
    assert g.evaluate(0.0) == star3.vertex_point("o")
    assert g.evaluate(3.0) == star3.edge_point("r2", 3.0)
    assert g.evaluate(-3.0) == star3.edge_point("r1", 3.0)
    with pytest.raises(EqualEnds):
        star3.geodesic_between_ends(star3.end("r1"), star3.end("r1"))


def test_geodesic_kinds_read_their_pieces_on_star3(star3):
    """Ends, repr, points, arcs and traversals of a constant geodesic, a
    segment, a ray and a complete geodesic: every step and tail of a locus."""
    o, r1, r2, r3 = star3.vertex_point("o"), star3.end("r1"), star3.end("r2"), star3.end("r3")
    at = star3.edge_point
    p, q = at("r1", 2.0), at("r2", 0.5)

    const = star3.constant_geodesic(p)
    assert (const.source(), const.target()) == (p, p)
    assert repr(const) == "TreeGeodesic(TreePoint('r1'@2) -> TreePoint('r1'@2), speed=0)"
    assert const.point_at_arc(-1.0) == const.point_at_arc(5.0) == p
    assert const.arc_of_point(p) == 0.0
    assert const.arc_of_point(o) is None
    assert const.traversals() == []

    seg = star3.geodesic_segment(p, q, 0.0, 1.0)
    assert (seg.source(), seg.target()) == (p, q)
    assert repr(seg) == "TreeGeodesic(TreePoint('r1'@2) -> TreePoint('r2'@0.5), speed=2.5)"
    assert [seg.point_at_arc(s) for s in (-1.0, 0.5, 2.0, 2.25, 9.0)] == [
        p, at("r1", 1.5), o, at("r2", 0.25), q
    ]
    assert seg.arc_of_point(at("r1", 0.5)) == 1.5
    assert seg.arc_of_point(at("r2", 0.25)) == 2.25
    # within TOL before the start the arc is the one the offset implies
    assert -2e-10 < seg.arc_of_point(at("r1", 2.0 + 1e-10)) < 0.0
    assert seg.arc_of_point(at("r2", 1.0)) is None
    assert seg.arc_of_point(at("r3", 1.0)) is None
    assert seg.traversals() == [("r1", 0.0, 2.0, -1.0), ("r2", 0.0, 0.5, 1.0)]
    with pytest.raises(MalformedTree):
        seg.point_at_arc(math.nan)

    ray = star3.ray_to_end(p, r3, 2.0)
    assert (ray.source(), ray.target()) == (p, r3)
    assert repr(ray) == "TreeGeodesic(TreePoint('r1'@2) -> TreeEnd('r3'), speed=2)"
    assert ray.point_at_arc(5.0) == at("r3", 3.0)
    assert ray.arc_of_point(at("r3", 3.0)) == 5.0
    assert ray.traversals() == [("r1", 0.0, 2.0, -1.0), ("r3", 0.0, math.inf, 1.0)]
    tail = star3.ray_to_end(at("r3", 1.0), r3, 1.0)  # one node, then the tail
    assert tail.point_at_arc(2.0) == at("r3", 3.0)
    assert tail.arc_of_point(at("r3", 3.0)) == 2.0
    assert tail.arc_of_point(at("r3", 0.5)) is None
    assert tail.traversals() == [("r3", 1.0, math.inf, 1.0)]

    line = star3.geodesic_between_ends(r1, r2)
    assert (line.source(), line.target()) == (r1, r2)
    assert repr(line) == "TreeGeodesic(TreeEnd('r1') -> TreeEnd('r2'), speed=1)"
    assert [line.point_at_arc(s) for s in (-3.0, 0.0, 2.0)] == [at("r1", 3.0), o, at("r2", 2.0)]
    assert line.arc_of_point(at("r1", 3.0)) == -3.0
    assert line.arc_of_point(at("r2", 2.0)) == 2.0
    assert line.arc_of_point(at("r3", 1.0)) is None
    assert line.traversals() == [("r1", 0.0, math.inf, -1.0), ("r2", 0.0, math.inf, 1.0)]


def _comb_tree():
    """Base vertices u0..u6 with unit edges, an infinite tooth at each."""
    vs = [f"u{i}" for i in range(7)]
    edges = [(f"b{i}", (vs[i], vs[i + 1]), 1.0) for i in range(6)]
    edges += [(f"t{i}", (vs[i],), math.inf) for i in range(7)]
    return T.MetricTree(vs, edges, "u0")


def test_between_ends_comb_anchor():
    comb = _comb_tree()
    g = comb.geodesic_between_ends(comb.end("t2"), comb.end("t5"))
    # the locus runs t2 - u2 - .. - u5 - t5; u2 is nearest the base u0
    assert g.evaluate(0.0) == comb.vertex_point("u2")
    assert comb.distance(comb.basepoint, g.evaluate(0.0)) == pytest.approx(
        T.gromov_product(comb, comb.end("t2"), comb.end("t5"))
    )


def test_between_ends_reversal_same_anchor():
    comb = _comb_tree()
    g = comb.geodesic_between_ends(comb.end("t2"), comb.end("t5"))
    h = comb.geodesic_between_ends(comb.end("t5"), comb.end("t2"))
    assert g.evaluate(0.0) == h.evaluate(0.0)
    assert g.evaluate(1.5) == h.evaluate(-1.5)


def test_gromov_symmetry_random():
    rng = np.random.default_rng(23)
    for _ in range(10):
        tree = helpers.random_tree(rng, 8, 4)
        ends = tree.ends()
        i, j = rng.integers(0, len(ends), size=2)
        assert T.gromov_product(tree, ends[i], ends[j]) == pytest.approx(
            T.gromov_product(tree, ends[j], ends[i]), abs=1e-12
        )


# -- projection --------------------------------------------------------------------


def test_projection_branch_point(tripod):
    g = tripod.geodesic_segment(
        tripod.vertex_point("a"), tripod.vertex_point("b"), 0.0, 1.0
    )
    assert T.project_to_geodesic(tripod, tripod.vertex_point("c"), g) == tripod.vertex_point("o")


def test_projection_idempotent(tripod):
    g = tripod.geodesic_segment(
        tripod.vertex_point("a"), tripod.vertex_point("b"), 0.0, 1.0
    )
    y = tripod.edge_point("ea", 0.4)
    assert T.project_to_geodesic(tripod, y, g) == y


def test_projection_constant_rejected(tripod):
    g = tripod.constant_geodesic(tripod.vertex_point("o"))
    with pytest.raises(ConstantGeodesic):
        T.project_to_geodesic(tripod, tripod.vertex_point("a"), g)


def test_projection_matches_dense_sampling():
    rng = np.random.default_rng(29)
    for _ in range(8):
        tree = helpers.random_tree(rng, 8, 2, min_len=0.3, max_len=1.0)
        p, q = helpers.distinct_points(rng, tree, 2)
        g = tree.geodesic_segment(p, q, 0.0, 1.0)
        y = helpers.random_point(rng, tree)
        proj = T.project_to_geodesic(tree, y, g)
        assert tree.distance(y, proj) <= helpers.dense_projection(tree, y, g) + 1e-9


def test_projection_is_1_lipschitz():
    rng = np.random.default_rng(31)
    for _ in range(10):
        tree = helpers.random_tree(rng, 9, 2)
        p, q = helpers.distinct_points(rng, tree, 2)
        g = tree.geodesic_segment(p, q, 0.0, 1.0)
        y, z = helpers.random_point(rng, tree), helpers.random_point(rng, tree)
        py = T.project_to_geodesic(tree, y, g)
        pz = T.project_to_geodesic(tree, z, g)
        assert tree.distance(py, pz) <= tree.distance(y, z) + 1e-9


# -- perpendiculars ------------------------------------------------------------------


def test_perpendicular_star3(star3):
    assert T.perpendicular(star3, "o", "r1", "r2") == frozenset({"o"})


def test_perpendicular_barbell(barbell):
    assert T.perpendicular(barbell, "u", "r1", "r2") == frozenset({"u", "v"})
    assert T.perpendicular(barbell, "u", "euv", "r1") == frozenset({"u"})


def test_perpendicular_flag_validation(barbell):
    with pytest.raises(FlagInvalid):
        T.perpendicular(barbell, "u", "r1", "r1")
    with pytest.raises(FlagInvalid):
        T.perpendicular(barbell, "u", "r1", "r3")


def test_subtree_and_perpendicular_on_deep_comb():
    comb = T.comb_generator(4096, 3.0).tree
    names = comb.vertices
    edges = [(e.id, e.ends, e.length) for e in comb.edges.values()]
    # rooted at the first vertex, and again at a middle one, so that a
    # component toward the root lies on both sides of the preorder
    trees = (comb, T.MetricTree(names, edges, names[1500]))
    xs = (names[0], names[1], names[1500], names[2047], names[-2], names[-1])
    for tree in trees:
        for x in xs:
            inc = tree.incident_edges(x)
            for g in inc:
                want = helpers.component_vertices(tree, x, g)
                assert tree.subtree_vertices(x, g) == want
            for i, e in enumerate(inc):
                for f in inc[i + 1:]:
                    want = helpers.perpendicular_set(tree, x, e, f)
                    assert T.perpendicular(tree, x, e, f) == want


def test_subtree_vertices_rejects_edge_not_at_vertex(barbell):
    with pytest.raises(MalformedTree):
        barbell.subtree_vertices("u", "r3")


# -- base-point distances ------------------------------------------------------------


def test_basepoint_distances_match_distance():
    rng = np.random.default_rng(29)
    for _ in range(10):
        tree = helpers.random_tree(rng, 12, 3)
        edges = [(e.id, e.ends, e.length) for e in tree.edges.values()]
        finite = sorted(e.id for e in tree.edges.values() if not e.infinite)
        fe = tree.edges[finite[int(rng.integers(0, len(finite)))]]
        basepoints = [
            tree.vertex_point(tree.vertices[int(rng.integers(0, 12))]),
            tree.edge_point(fe.id, float(rng.uniform(0.05, 0.95)) * fe.length),
            tree.edge_point(tree.report.infinite_edges[0], float(rng.uniform(0.1, 5.0))),
        ]
        for bp in basepoints:
            rebased = T.MetricTree(tree.vertices, edges, bp)
            dist = rebased.basepoint_distances()
            assert set(dist) == set(tree.vertices)
            for v in tree.vertices:
                want = rebased.distance(rebased.basepoint, rebased.vertex_point(v))
                assert dist[v] == pytest.approx(want, abs=1e-12)


# -- rejections ----------------------------------------------------------------------


@pytest.mark.parametrize("t0, t1", [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf), (0.0, math.nan)])
def test_segment_needs_finite_times(tripod, t0, t1):
    # an infinite end time would give speed 0 and a constant "ray"
    a, b = tripod.vertex_point("a"), tripod.vertex_point("b")
    with pytest.raises(OutOfInterval, match=re.escape(f"need finite t0 < t1, got [{t0}, {t1}]")):
        tripod.geodesic_segment(a, b, t0, t1)


@pytest.mark.parametrize("t0, t1", [(math.inf, math.inf), (math.nan, math.nan), (-math.inf, 3.0), (5.0, 1.0)])
def test_constant_geodesic_needs_a_segment_ray_or_line_interval(tripod, t0, t1):
    message = f"geodesic interval [{t0}, {t1}] is not a segment, ray or line"
    with pytest.raises(OutOfInterval, match=f"^{re.escape(message)}$"):
        tripod.constant_geodesic(tripod.vertex_point("a"), t0, t1)


@pytest.mark.parametrize("speed, t0, t1, origin, error, message", [
    (math.nan, math.nan, 1.0, 0.0, OutOfInterval, "geodesic interval [nan, 1.0] is not a segment, ray or line"),
    (math.nan, 0.0, 1.0, math.nan, NonFiniteValue, "speed nan is not finite"),
    (-1.0, 0.0, math.inf, math.nan, OutOfInterval, "negative speed -1.0"),
    (1.0, -math.inf, math.inf, math.inf, NonFiniteValue, "anchor time inf is not finite"),
])
def test_geodesic_checks_interval_then_speed_then_time_origin(tripod, speed, t0, t1, origin, error, message):
    a = tripod.vertex_point("a")
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        T.TreeGeodesic(tripod, speed, t0, t1, origin, ((0.0, a),), (), None, None)


def test_constant_geodesic_restricts_to_a_ray(tripod):
    a = tripod.vertex_point("a")
    ray = tripod.constant_geodesic(a, -math.inf, math.inf).restrict(2.0, math.inf)
    assert (ray.interval_kind, ray.t0, ray.t_origin, ray.evaluate(10.0)) == ("ray", 2.0, 2.0, a)


def test_tail_gives_the_final_infinite_edge_from_the_last_node_on(tripod_completed):
    t = tripod_completed
    o, a = t.vertex_point("o"), t.vertex_point("a")
    cases = [
        (t.ray_to_end(o, t.end("ra"), 2.0), ("ra", -1.0, 2.0, 0.5)),
        # from inside a finite edge: 0.25 to o, then 1 more to a
        (t.ray_to_end(t.edge_point("eb", 0.25), t.end("ra"), 1.0), ("ra", -1.25, 1.0, 1.25)),
        # from a point on its own infinite edge: the last node is the start
        (t.ray_to_end(t.edge_point("ra", 3.0), t.end("ra"), 0.5), ("ra", 3.0, 0.5, 0.0)),
        # time 2 at o, so time 3 at b
        (t.geodesic_between_ends(t.end("ra"), t.end("rb"), anchor=o, anchor_time=2.0), ("rb", -3.0, 1.0, 3.0)),
        (t.constant_geodesic(t.edge_point("rc", 2.0), 0.0, math.inf), ("rc", 2.0, 0.0, -math.inf)),
    ]
    for g, want in cases:
        assert g.tail() == want
        eid, c, speed, t_last = want
        for time in (max(t_last, 0.0), 4.0, 10.5):
            assert g.evaluate(time) == t.edge_point(eid, c + speed * time)
    assert t.constant_geodesic(a, 0.0, math.inf).tail() is None
    assert t.constant_geodesic(t.edge_point("ea", 0.5), 0.0, math.inf).tail() is None
    assert t.geodesic_segment(o, t.edge_point("ra", 1.0), 0.0, 1.0).tail() is None


def _forked():
    """o with legs to a, b (each with an end) and to the leaf c."""
    return T.MetricTree(
        ["o", "a", "b", "c"],
        [("ea", ("o", "a"), 1.0), ("eb", ("o", "b"), 1.0), ("ec", ("o", "c"), 1.0),
         ("ra", ("a",), math.inf), ("rb", ("b",), math.inf)],
        "o",
    )


def _on_ec(t):
    """The same tree with its base point inside the finite edge ec."""
    edges = [(e.id, e.ends, e.length) for e in t.edges.values()]
    return T.MetricTree(t.vertices, edges, t.edge_point("ec", 0.5))


@pytest.mark.parametrize("call, error, message", [
    (lambda t: t.incident_edges("x"), MalformedTree, "unknown vertex 'x'"),
    (lambda t: t.parent_edge("zz"), MalformedTree, "unknown vertex 'zz'"),
    (lambda t: t.toward_basepoint("zz"), MalformedTree, "unknown vertex 'zz'"),
    (lambda t: t.mass_beyond({"zz": 1.0}, {}), MalformedTree, "unknown vertex 'zz'"),
    (lambda t: t.mass_beyond({}, {"zz": 1.0}), MalformedTree, "unknown edge 'zz'"),
    (lambda t: t.end("ea"), MalformedTree, "edge 'ea' is not infinite, carries no end"),
    (lambda t: t.onward_edge("c", "ec"), LeafyTree, "extension stuck at leaf 'c'"),
    # every name is checked where it is read, by one check per kind of name
    (lambda t: t.onward_edge("a", "eb"), MalformedTree, "edge 'eb' is not incident to 'a'"),
    (lambda t: t.extension_walk("zz", "ea"), MalformedTree, "edge 'ea' is not incident to 'zz'"),
    (lambda t: t.extension_walk("b", "ea"), MalformedTree, "edge 'ea' is not incident to 'b'"),
    (lambda t: t.end_attachment(T.TreeEnd("ec")), MalformedTree, "edge 'ec' is not infinite, carries no end"),
    (lambda t: t.geodesic_between_ends(T.TreeEnd("ec"), t.end("rb")), MalformedTree,
     "edge 'ec' is not infinite, carries no end"),
    (lambda t: T.gromov_product(t, T.TreeEnd("ec"), t.end("rb")), MalformedTree,
     "edge 'ec' is not infinite, carries no end"),
    (lambda t: T.gromov_product(t, T.TreeEnd("zz"), T.TreeEnd("zz")), MalformedTree, "unknown edge 'zz'"),
    # the end is checked before it is compared with the base point's edge
    (lambda t: T.gromov_product(_on_ec(t), T.TreeEnd("ec"), t.end("rb")), MalformedTree,
     "edge 'ec' is not infinite, carries no end"),
    (lambda t: _on_ec(t).geodesic_between_ends(T.TreeEnd("ec"), t.end("rb")), MalformedTree,
     "edge 'ec' is not infinite, carries no end"),
    (lambda t: T.ConeMeasure.from_atoms(t, [(T.TreeEnd("ec"), 0.0, 1.0)]), MalformedTree,
     "edge 'ec' is not infinite, carries no end"),
    (lambda t: T.perpendicular(t, "o", "ea", "ea"), FlagInvalid, "flag at 'o' needs two distinct edges"),
    (lambda t: t.geodesic_segment(t.vertex_point("a"), t.vertex_point("b"), 1.0, 1.0),
     OutOfInterval, "need finite t0 < t1, got [1.0, 1.0]"),
    (lambda t: t.ray_to_end(t.vertex_point("a"), T.TreeEnd("ea"), 1.0), MalformedTree,
     "edge 'ea' is not infinite, carries no end"),
    (lambda t: t.geodesic_between_ends(t.end("ra"), t.end("rb"), anchor=t.vertex_point("c")),
     MalformedTree, "anchor does not lie on the geodesic locus"),
    (lambda t: t.geodesic_segment(t.vertex_point("a"), t.vertex_point("b"), 0.0, 1.0).restrict(0.5, 2.0),
     OutOfInterval, "[0.5, 2.0] not inside [0.0, 1.0]"),
    # a moving restriction is a segment
    (lambda t: t.ray_to_end(t.vertex_point("o"), t.end("ra"), 1.0).restrict(0.0, math.inf),
     OutOfInterval, "need finite t0 < t1, got [0.0, inf]"),
    (lambda t: t.geodesic_between_ends(t.end("ra"), t.end("rb")).restrict(-math.inf, 0.0),
     OutOfInterval, "need finite t0 < t1, got [-inf, 0.0]"),
    (lambda t: t.constant_geodesic(t.vertex_point("c"), -math.inf, math.inf).restrict(-math.inf, 0.0),
     OutOfInterval, "geodesic interval [-inf, 0.0] is not a segment, ray or line"),
])
def test_tree_queries_reject_what_they_cannot_answer(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(_forked())
