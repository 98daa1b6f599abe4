"""Geodesic loci: every constructor's spans against an independent
edge-set reference, the geodesics of the Radon reconstruction, and rays
extended from Dirac-based segment plans."""

import itertools

import numpy as np
import pytest

import treeot as T
from treeot.radon import all_flags, geodesic_through_edge, geodesic_through_flag

import helpers

TIMES = np.linspace(-4.0, 4.0, 9)


def _dirac_segment_plan(rng, tree, x, n_atoms):
    mu = helpers.random_measure(rng, tree, n_atoms)
    return T.interpolate(tree, T.DiscreteMeasure.dirac(tree, x), mu)


def test_spans_of_segments_rays_and_complete_geodesics():
    rng = np.random.default_rng(211)
    for _ in range(12):
        tree = helpers.random_tree(rng, int(rng.integers(2, 10)), int(rng.integers(2, 4)))
        p, q = helpers.distinct_points(rng, tree, 2)
        helpers.assert_spans(tree, tree.geodesic_segment(p, q, 0.0, 1.0))
        for end in tree.ends():
            helpers.assert_spans(tree, tree.ray_to_end(p, end, 1.5))
        for xi, zeta in itertools.permutations(tree.ends(), 2):
            helpers.assert_spans(tree, tree.geodesic_between_ends(xi, zeta))


def test_spans_of_extended_rays_and_radon_geodesics():
    rng = np.random.default_rng(223)
    for _ in range(6):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 8)))
        x = helpers.random_point(rng, tree)
        ray = T.extend_from_dirac(tree, _dirac_segment_plan(rng, tree, x, 4))
        for g, _ in ray.atoms:
            helpers.assert_spans(tree, g)
        for flag in all_flags(tree):
            helpers.assert_spans(tree, geodesic_through_flag(tree, flag))
        for eid in tree.edges:
            helpers.assert_spans(tree, geodesic_through_edge(tree, eid))


def _assert_unit_complete(tree, gamma):
    for s, t in itertools.combinations(TIMES, 2):
        d = helpers.bfs_distance(tree, gamma.evaluate(s), gamma.evaluate(t))
        assert abs(d - abs(s - t)) <= 1e-12


def test_radon_geodesics_run_through_their_flag_and_edge():
    # edge lengths are at least 0.2, so 0.1 on either side of the vertex
    # lies on the edges the geodesic enters
    rng = np.random.default_rng(227)
    for _ in range(4):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 7)))
        for flag in all_flags(tree):
            gamma = geodesic_through_flag(tree, flag)
            assert gamma.evaluate(0.0) == tree.vertex_point(flag.vertex)
            assert gamma.evaluate(-0.1).edge == flag.edges[0]
            assert gamma.evaluate(0.1).edge == flag.edges[1]
            _assert_unit_complete(tree, gamma)
        for eid in sorted(tree.edges):
            gamma = geodesic_through_edge(tree, eid)
            assert gamma.evaluate(0.0) == tree.vertex_point(tree.edge(eid).ends[0])
            assert gamma.evaluate(0.1).edge == eid
            _assert_unit_complete(tree, gamma)


def _assert_extends(tree, seg, ray):
    for t in np.linspace(0.0, 1.0, 11):
        assert helpers.bfs_distance(tree, seg.evaluate(t), ray.evaluate(t)) <= 1e-12


def test_extended_rays_agree_with_their_segments():
    rng = np.random.default_rng(229)
    for _ in range(8):
        tree = helpers.random_radon_tree(rng, int(rng.integers(2, 8)))
        x = helpers.random_point(rng, tree)
        plan = _dirac_segment_plan(rng, tree, x, 3)
        ray = T.extend_from_dirac(tree, plan)
        for (seg, m), (g, n) in zip(plan.atoms, ray.atoms):
            assert m == n and g.t0 == 0.0 and g.pos_end is not None
            _assert_extends(tree, seg, g)


@pytest.mark.parametrize(
    "start, far, end",
    [
        (("ea", 0.5), ("ra", 2.0), "ra"),  # stops mid-way along ra, moving out
        (("ra", 5.0), ("ra", 2.0), "rb"),  # moves in along ra, then lowest ids
        (("ea", 0.5), ("eb", 0.25), "rb"),  # stops inside eb, moving toward b
        (("ea", 0.5), ("eb", 0.75), "rb"),
    ],
)
def test_extension_past_a_point_inside_an_edge(tripod_completed, start, far, end):
    tc = tripod_completed
    seg = tc.geodesic_segment(tc.edge_point(*start), tc.edge_point(*far), 0.0, 1.0)
    plan = T.DynamicalPlan.from_atoms(tc, [(seg, 1.0)])
    ray = T.extend_from_dirac(tc, plan).atoms[0][0]
    assert ray.pos_end == tc.end(end)
    _assert_extends(tc, seg, ray)


def test_extension_starts_at_zero(tripod_completed):
    # a start time within the tolerance of 0 extends to a ray from exactly 0
    tc = tripod_completed
    seg = tc.geodesic_segment(tc.vertex_point("o"), tc.vertex_point("a"), 1e-10, 1.0)
    ray = T.extend_from_dirac(tc, T.DynamicalPlan.from_atoms(tc, [(seg, 1.0)]))
    g = ray.atoms[0][0]
    assert (g.t0, g.t_origin) == (0.0, 0.0)
    assert g.evaluate(0.0) == tc.vertex_point("o")
