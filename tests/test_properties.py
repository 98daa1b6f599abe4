"""Cross-cutting randomized properties over all geodesic kinds.

The earlier module tests pin the named examples; these runs sweep rays and
bi-infinite geodesics too, since arc bookkeeping (tails, anchors, negative
arc coordinates) is where off-by-one geometry would hide.
"""

import math

import numpy as np
import pytest

import treeot as T

import helpers


def _random_geodesic(rng, tree):
    """A segment, ray, or bi-infinite geodesic, uniformly over kinds that
    the tree supports."""
    ends = list(tree.ends())
    kinds = ["segment"]
    if ends:
        kinds.append("ray")
    if len(ends) >= 2:
        kinds.append("complete")
    kind = kinds[int(rng.integers(0, len(kinds)))]
    if kind == "segment":
        p, q = helpers.distinct_points(rng, tree, 2)
        return tree.geodesic_segment(p, q, 0.0, float(rng.uniform(0.5, 2.0)))
    if kind == "ray":
        p = helpers.random_point(rng, tree)
        e = ends[int(rng.integers(0, len(ends)))]
        return tree.ray_to_end(p, e, float(rng.uniform(0.3, 2.0)))
    i, j = rng.choice(len(ends), size=2, replace=False)
    return tree.geodesic_between_ends(
        ends[int(i)], ends[int(j)], speed=float(rng.uniform(0.3, 2.0))
    )


def _random_time(rng, g):
    lo = g.t0 if math.isfinite(g.t0) else -8.0
    hi = g.t1 if math.isfinite(g.t1) else 8.0
    return float(rng.uniform(lo, hi))


def test_constant_speed_everywhere():
    rng = np.random.default_rng(211)
    for _ in range(25):
        tree = helpers.random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(0, 4)))
        g = _random_geodesic(rng, tree)
        for _ in range(4):
            s, t = _random_time(rng, g), _random_time(rng, g)
            assert tree.distance(g.evaluate(s), g.evaluate(t)) == pytest.approx(
                g.speed * abs(s - t), abs=1e-9
            )


def test_projection_oracle_all_kinds():
    rng = np.random.default_rng(223)
    for _ in range(10):
        tree = helpers.random_tree(rng, int(rng.integers(2, 7)), 3, min_len=0.3, max_len=1.0)
        g = _random_geodesic(rng, tree)
        if g.is_constant:
            continue
        y = helpers.random_point(rng, tree)
        proj = T.project_to_geodesic(tree, y, g)
        assert g.arc_of_point(proj) is not None
        assert tree.distance(y, proj) <= helpers.dense_projection(tree, y, g) + 1e-9


def test_arc_of_point_inverts_point_at_arc():
    rng = np.random.default_rng(227)
    for _ in range(25):
        tree = helpers.random_tree(rng, int(rng.integers(2, 9)), int(rng.integers(1, 4)))
        g = _random_geodesic(rng, tree)
        if g.is_constant:
            continue
        lo, hi = g.arc_bounds()
        s = float(rng.uniform(max(lo, -9.0), min(hi, 9.0)))
        back = g.arc_of_point(g.point_at_arc(s))
        assert back == pytest.approx(s, abs=1e-9)


def test_traversal_lengths_cover_the_speed():
    # summed finite traversal lengths of a segment equal its length
    rng = np.random.default_rng(229)
    for _ in range(20):
        tree = helpers.random_tree(rng, int(rng.integers(2, 9)), 1)
        p, q = helpers.distinct_points(rng, tree, 2)
        g = tree.geodesic_segment(p, q, 0.0, 1.0)
        total = sum(hi - lo for _, lo, hi, _ in g.traversals())
        assert total == pytest.approx(tree.distance(p, q), abs=1e-9)


def test_between_ends_anchor_is_projection_of_basepoint():
    rng = np.random.default_rng(233)
    for _ in range(20):
        tree = helpers.random_tree(rng, int(rng.integers(2, 8)), int(rng.integers(2, 5)))
        ends = list(tree.ends())
        if len(ends) < 2:
            continue
        i, j = rng.choice(len(ends), size=2, replace=False)
        g = tree.geodesic_between_ends(ends[int(i)], ends[int(j)])
        anchor = g.evaluate(0.0)
        assert anchor == T.project_to_geodesic(tree, tree.basepoint, g)
        assert tree.distance(tree.basepoint, anchor) == pytest.approx(
            T.gromov_product(tree, ends[int(i)], ends[int(j)]), abs=1e-12
        )


def _hops(tree, w):
    n = 0
    while (w := helpers.parent_vertex(tree, w)) is not None:
        n += 1
    return n


@pytest.mark.parametrize("min_len, max_len", [(1e3, 1e4), (1e6, 1e7)])
def test_projection_of_a_vertex_is_a_vertex_at_long_edges(min_len, max_len):
    # The projection of a vertex y onto the geodesic between the ends at u
    # and v is the median of y, u and v: the deepest of their three
    # pairwise LCAs.  The Gromov product of the ends is then the base
    # point's distance to lca(u, v), bit for bit.
    rng = np.random.default_rng(241)
    for _ in range(12):
        tree = helpers.random_tree(
            rng, int(rng.integers(3, 12)), int(rng.integers(2, 6)), min_len, max_len
        )
        ends = list(tree.ends())
        for _ in range(4):
            i, j = rng.choice(len(ends), size=2, replace=False)
            xi, zeta = ends[int(i)], ends[int(j)]
            u, v = tree.end_attachment(xi), tree.end_attachment(zeta)
            g = tree.geodesic_between_ends(xi, zeta)
            locus = {p for _, p in g.nodes}
            for y in tree.vertices:
                proj = T.project_to_geodesic(tree, tree.vertex_point(y), g)
                assert proj in locus
                median = max(
                    (helpers.naive_lca(tree, a, b) for a, b in [(y, u), (y, v), (u, v)]),
                    key=lambda w: _hops(tree, w),
                )
                assert proj == tree.vertex_point(median)
            lca = tree.vertex_point(helpers.naive_lca(tree, u, v))
            assert T.gromov_product(tree, xi, zeta) == tree.distance(tree.basepoint, lca)


def test_asymptotic_certified_limit_across_bases():
    # plans from different base points: no monotonicity claim, but the
    # certified limit still matches the cone distance of the ends
    rng = np.random.default_rng(239)
    for _ in range(10):
        tree = helpers.random_tree(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        ends = list(tree.ends())
        if len(ends) < 2:
            continue
        def plan():
            x = helpers.random_point(rng, tree)
            k = int(rng.integers(1, 4))
            masses = helpers.dyadic_masses(rng, k) if k > 1 else [1.0]
            nu = T.ConeMeasure.from_atoms(
                tree,
                [
                    (ends[int(rng.integers(0, len(ends)))],
                     [0.5, 1.0, 1.5][int(rng.integers(0, 3))],
                     m)
                    for m in masses
                ],
            )
            return T.ray_from_asymptotic_measure(tree, x, nu)
        report = T.asymptotic_formula_check(tree, plan(), plan())
        assert report.certified_limit == pytest.approx(report.target, abs=1e-9)
        helpers.assert_classified_by_target(report)


def test_same_asymptotic_measure_from_two_bases_is_bounded():
    # rays of one cone measure issued from x and from y stay within d(x, y)
    # of each other, so W is bounded and the classification is "asymptotic",
    # also when the order of the atoms and non-dyadic masses leave rounding
    # dust on couplings of positive slope
    rng = np.random.default_rng(241)
    for _ in range(20):
        tree = helpers.random_tree(rng, int(rng.integers(2, 6)), int(rng.integers(2, 5)))
        ends = list(tree.ends())
        k = int(rng.integers(2, 6))
        masses = rng.uniform(0.1, 1.0, size=k)
        masses /= masses.sum()
        atoms = [
            (ends[int(rng.integers(0, len(ends)))], [0.5, 1.0, 1.5][int(rng.integers(0, 3))], float(m))
            for m in masses
        ]
        order = rng.permutation(k)
        x, y = helpers.random_point(rng, tree), helpers.random_point(rng, tree)
        mu = T.ray_from_asymptotic_measure(tree, x, T.ConeMeasure.from_atoms(tree, atoms))
        sigma = T.ray_from_asymptotic_measure(
            tree, y, T.ConeMeasure.from_atoms(tree, [atoms[i] for i in order])
        )
        report = T.asymptotic_formula_check(tree, mu, sigma)
        assert report.classification == "asymptotic"
        assert report.certified_limit <= 1e-6
        # the dust also reaches the rows, by about 1e-9 * t at t = 1e6
        assert all(t * r <= tree.distance(x, y) + 1e-6 * (1.0 + t) for t, r in report.rows)


def test_radon_roundtrip_larger_tree():
    rng = np.random.default_rng(241)
    tree = helpers.random_radon_tree(rng, 30)
    mu = helpers.random_measure(rng, tree, 8)
    report = T.measure_radon_roundtrip(tree, mu)
    assert report.max_error <= 1e-9


def test_w2_log_env_does_not_change_output(tmp_path):
    import json
    import os
    import subprocess
    import sys

    tree = tmp_path / "t.json"
    tree.write_text(
        json.dumps(
            {
                "vertices": ["o", "a"],
                "edges": [{"id": "ea", "ends": ["o", "a"], "length": "1"}],
                "basepoint": {"vertex": "o"},
            }
        )
    )
    env = dict(os.environ, W2_LOG="debug")
    out = subprocess.run(
        [sys.executable, "-m", "treeot.cli", "validate", "--tree", str(tree)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["ok"] is True
