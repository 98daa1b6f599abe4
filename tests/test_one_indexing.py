"""One indexing of the rooted tree: every structure a MetricTree keeps of
its rooted copy is a list by preorder position, so the only maps keyed by
vertex name are the name-to-position map ``_pre`` and the incident edges,
and no set of vertex names is kept beside them: membership of a name is a
lookup in one of the two (README, metric trees)."""

import math

import treeot as T


def test_only_pre_and_incident_are_keyed_by_vertex():
    tree = T.MetricTree(
        ["o", "a", "b", "c"],
        [("ea", ("o", "a"), 1.0), ("eb", ("o", "b"), 2.0), ("ec", ("b", "c"), 3.0),
         ("rc", ("c",), math.inf)],
        T.TreePoint(edge="eb", offset=0.5),
    )
    # run the queries that build state on first use, so that it is seen too
    points = [tree.vertex_point(v) for v in tree.vertices] + [tree.edge_point("rc", 1.0)]
    tree.distance_matrix(points, points)
    tree.path_nodes(points[0], points[-1])
    tree.basepoint_distances()
    vertices = set(tree.vertices)
    keyed = sorted(
        name for name, value in vars(tree).items()
        if isinstance(value, (dict, set, frozenset)) and vertices & set(value)
    )
    assert keyed == ["_incident", "_pre"]
