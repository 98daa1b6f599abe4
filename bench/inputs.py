"""Seeded input generators for the benchmark.

Everything here is plain data drawn from ``random.Random``: edge lists,
points and masses.  Nothing imports treeot, so the same description can be
fed to the library (see ``workloads``) and to the independent checks (see
``oracle``).  Points are tuples: ``("v", vertex)`` or ``("e", edge, offset)``
with the offset measured from the edge's first endpoint, as in the library.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class RawTree:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, tuple[str, ...], float], ...]  # (id, ends, length)
    basepoint: str  # always a vertex

    def finite_edges(self):
        return [e for e in self.edges if not math.isinf(e[2])]

    def rays(self) -> list[str]:
        return [eid for eid, _, length in self.edges if math.isinf(length)]


def stream(workload: str, seed: int) -> random.Random:
    """Independent random stream per workload and seed."""
    return random.Random(f"treeot-bench:{workload}:{seed}")


def random_tree(rng: random.Random, n_vertices: int, n_rays: int, tag: str = "w") -> RawTree:
    """Random recursive tree with edge lengths in [0.2, 2] and rays hung on
    random vertices."""
    names = [f"{tag}{i:03d}" for i in range(n_vertices)]
    edges = []
    for i in range(1, n_vertices):
        parent = rng.randrange(i)
        edges.append((f"e{i:03d}", (names[parent], names[i]), rng.uniform(0.2, 2.0)))
    for k in range(n_rays):
        edges.append((f"r{k:02d}", (names[rng.randrange(n_vertices)],), math.inf))
    return RawTree(tuple(names), tuple(edges), names[rng.randrange(n_vertices)])


def cubic_tree(rng: random.Random, n_vertices: int) -> RawTree:
    """Leaf-free tree in which every vertex has valency exactly 3 (finite
    edges plus rays), so it is a valid Radon tree.  The Radon forward cost,
    a sum over each flag's perpendicular, is V*(V+2) for every such shape."""
    names = [f"c{i:03d}" for i in range(n_vertices)]
    degree = [0] * n_vertices
    open_ = [0]
    edges = []
    for i in range(1, n_vertices):
        parent = open_[rng.randrange(len(open_))]
        edges.append((f"e{i:03d}", (names[parent], names[i]), rng.uniform(0.5, 2.0)))
        degree[parent] += 1
        degree[i] = 1
        if degree[parent] == 3:
            open_.remove(parent)
        open_.append(i)
    k = 0
    for i in range(n_vertices):
        for _ in range(3 - degree[i]):
            edges.append((f"r{k:03d}", (names[i],), math.inf))
            k += 1
    return RawTree(tuple(names), tuple(edges), names[rng.randrange(n_vertices)])


def random_point(rng: random.Random, tree: RawTree):
    """A vertex (30%), an interior point of a finite edge (55%) or a point
    on a ray (15%); interior offsets keep 5% clear of the endpoints so no
    point snaps to a vertex."""
    u = rng.random()
    if u < 0.30:
        return ("v", rng.choice(tree.vertices))
    if u < 0.85:
        eid, _, length = rng.choice(tree.finite_edges())
        return ("e", eid, rng.uniform(0.05 * length, 0.95 * length))
    return ("e", rng.choice(tree.rays()), rng.uniform(0.1, 3.0))


def distinct_points(rng: random.Random, tree: RawTree, n: int) -> list:
    out: list = []
    while len(out) < n:
        p = random_point(rng, tree)
        if p not in out:
            out.append(p)
    return out


def masses(rng: random.Random, n: int) -> list[float]:
    w = [rng.uniform(0.5, 1.5) for _ in range(n)]
    total = sum(w)
    return [x / total for x in w]


def measure(rng: random.Random, tree: RawTree, n: int) -> list:
    """Atoms (point, mass) with distinct points."""
    return list(zip(distinct_points(rng, tree, n), masses(rng, n)))


def cone_measure(rng: random.Random, tree: RawTree, n: int) -> list:
    """Atoms (ray id, speed, mass) with speeds in [0.5, 2]."""
    rays = tree.rays()
    return [
        (rng.choice(rays), rng.uniform(0.5, 2.0), m) for m in masses(rng, n)
    ]


def split_boundary(rng: random.Random, tree: RawTree, n_minus: int, n_plus: int):
    """Two boundary measures on disjoint sets of ends: atoms (ray id, mass)."""
    rays = tree.rays()
    rng.shuffle(rays)
    minus = sorted(rays[:n_minus])
    plus = sorted(rays[n_minus:n_minus + n_plus])
    return (
        list(zip(minus, masses(rng, n_minus))),
        list(zip(plus, masses(rng, n_plus))),
    )


def vertex_function(rng: random.Random, tree: RawTree) -> dict[str, int]:
    return {v: rng.randint(-5, 9) for v in tree.vertices}
