"""Independent checks of the library's outputs.

Nothing here calls treeot's algorithms.  Distances come from breadth-first
search over the raw edge lists of ``inputs``; optimal transport values from
scipy's HiGHS ``linprog`` (scipy is installed but is not a dependency of
treeot, so it is imported only here, after timing has ended); Radon values
from perpendicular sets found by search; realizability sums from suffix sums
of the comb's end masses.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from dataclasses import fields, is_dataclass

from inputs import RawTree

REL = 1e-9


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(got: float, want: float, rel: float = REL, slack: float = 0.0) -> bool:
    """|got - want| <= rel * max(1, |want|) + slack."""
    return abs(got - want) <= rel * max(1.0, abs(want)) + slack


# -- distances -----------------------------------------------------------------


class Metric:
    """Path metric of a raw tree by breadth-first search from each vertex."""

    def __init__(self, raw: RawTree):
        self.raw = raw
        self.edge = {eid: (ends, length) for eid, ends, length in raw.edges}
        self.adj: dict[str, list[tuple[str, str, float]]] = {v: [] for v in raw.vertices}
        for eid, ends, length in raw.edges:
            if math.isinf(length):
                continue
            a, b = ends
            self.adj[a].append((b, eid, length))
            self.adj[b].append((a, eid, length))
        self._from: dict[str, dict[str, float]] = {}

    def from_vertex(self, u: str) -> dict[str, float]:
        dist = self._from.get(u)
        if dist is None:
            dist = {u: 0.0}
            queue = deque([u])
            while queue:
                w = queue.popleft()
                for x, _, length in self.adj[w]:
                    if x not in dist:
                        dist[x] = dist[w] + length
                        queue.append(x)
            self._from[u] = dist
        return dist

    def exits(self, p) -> list[tuple[str, float]]:
        if p[0] == "v":
            return [(p[1], 0.0)]
        ends, length = self.edge[p[1]]
        if math.isinf(length):
            return [(ends[0], p[2])]
        return [(ends[0], p[2]), (ends[1], length - p[2])]

    def dist(self, p, q) -> float:
        if p[0] == "e" and q[0] == "e" and p[1] == q[1]:
            return abs(p[2] - q[2])
        return min(
            ca + self.from_vertex(a)[b] + cb
            for a, ca in self.exits(p)
            for b, cb in self.exits(q)
        )

    def component(self, start: str, banned: set[str]) -> set[str]:
        """Vertices reachable from start without crossing a banned edge."""
        seen = {start}
        queue = deque([start])
        while queue:
            w = queue.popleft()
            for x, eid, _ in self.adj[w]:
                if eid not in banned and x not in seen:
                    seen.add(x)
                    queue.append(x)
        return seen

    def perpendicular(self, x: str, e: str, f: str) -> set[str]:
        return self.component(x, {e, f})

    def gromov(self, u: str, v: str) -> float:
        """Distance from the base vertex to the path u..v (both vertices)."""
        d0 = self.from_vertex(self.raw.basepoint)
        return 0.5 * (d0[u] + d0[v] - self.from_vertex(u)[v])

    def ray_vertex(self, ray: str) -> str:
        return self.edge[ray][0][0]

    def edge_flows(self, signed: dict[str, float]) -> dict[str, float]:
        """Signed end mass beyond each edge in its stored orientation (for a
        ray: its own end's mass)."""
        out = {}
        for eid, (ends, length) in self.edge.items():
            if math.isinf(length):
                out[eid] = signed.get(eid, 0.0)
                continue
            far = self.component(ends[1], {eid})
            out[eid] = sum(m for r, m in signed.items() if self.ray_vertex(r) in far)
        return out

    def realizability(self, signed: dict[str, float]) -> float:
        """Sum over vertices of the specific flow times the squared distance
        to the base vertex, from the definition of the flows."""
        flows = self.edge_flows(signed)
        d0 = self.from_vertex(self.raw.basepoint)
        total = 0.0
        for x in self.raw.vertices:
            outgoing = {}
            for eid, (ends, length) in self.edge.items():
                if x not in ends:
                    continue
                f = flows[eid]
                outgoing[eid] = f if ends[0] == x else -f
            phi = sum(f for f in outgoing.values() if f > 0.0)
            if x != self.raw.basepoint:
                toward = min(
                    (eid for eid in outgoing if not math.isinf(self.edge[eid][1])),
                    key=lambda eid: d0[self._other(eid, x)],
                )
                phi -= abs(outgoing[toward])
            total += phi * d0[x] ** 2
        return total

    def _other(self, eid: str, x: str) -> str:
        a, b = self.edge[eid][0]
        return b if a == x else a

    def leaves(self) -> tuple[list[str], list[str]]:
        """Vertices of valency 1 and of valency 2 (rays included)."""
        valency = {v: 0 for v in self.raw.vertices}
        for _, ends, _ in self.raw.edges:
            for v in ends:
                valency[v] += 1
        return (
            sorted(v for v, k in valency.items() if k == 1),
            sorted(v for v, k in valency.items() if k == 2),
        )


def cone_distance(a, b) -> float:
    """Cone metric over the ends of a tree: |s - t| for the same end,
    s + t for distinct ends."""
    (ea, sa), (eb, sb) = a, b
    return abs(sa - sb) if ea == eb else sa + sb


def comb_realizability(depth: int, exponent: float) -> float:
    """Sum of specific flows times squared base distance on the depth
    truncation of the comb, from suffix sums of the signed tooth masses."""
    raw = [float(n) ** (-exponent) for n in range(1, depth + 1)]
    z_minus = math.fsum(raw[0::2])
    z_plus = math.fsum(raw[1::2])
    signed = [
        raw[n - 1] / z_plus if n % 2 == 0 else -raw[n - 1] / z_minus
        for n in range(1, depth + 1)
    ]
    beyond = [0.0] * (depth + 2)  # beyond[n]: signed mass on teeth n..depth
    for n in range(depth, 0, -1):
        beyond[n] = beyond[n + 1] + signed[n - 1]
    total = 0.0
    for n in range(2, depth + 1):
        outgoing = [-beyond[n], signed[n - 1]] + ([beyond[n + 1]] if n < depth else [])
        phi0 = sum(f for f in outgoing if f > 0.0) - abs(beyond[n])
        total += phi0 * float(n - 1) ** 2
    return total


# -- linear programs -------------------------------------------------------------


def transport_lp(cost: list[list[float]], a: list[float], b: list[float]) -> float:
    """Optimal value of the transportation LP, solved by HiGHS."""
    import numpy as np
    from scipy.optimize import linprog

    m, n = len(a), len(b)
    A = np.zeros((m + n, m * n))
    for i in range(m):
        A[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A[m + j, j::n] = 1.0
    scale = sum(a) / sum(b)
    rhs = np.array(list(a) + [x * scale for x in b])
    res = linprog(
        np.asarray(cost, dtype=float).ravel(), A_eq=A, b_eq=rhs,
        bounds=(0, None), method="highs",
    )
    require(res.status == 0, f"HiGHS failed: {res.message}")
    return float(res.fun)


# -- plans -----------------------------------------------------------------------


def point_key(p):
    """Raw tuple of a library TreePoint."""
    return ("v", p.vertex) if p.vertex is not None else ("e", p.edge, p.offset)


def check_marginals(rows: dict, cols: dict, mu: list, nu: list, slack: float = 0.0) -> None:
    """Row and column sums of a plan against the generated atoms."""
    for sums, atoms, side in ((rows, mu, "source"), (cols, nu, "target")):
        sums = dict(sums)
        for p, m in atoms:
            got = sums.pop(p, 0.0)
            require(abs(got - m) <= REL + slack, f"{side} mass at {p} is {got}, want {m}")
        require(
            all(abs(m) <= REL + slack for m in sums.values()),
            f"{side} mass outside the support",
        )


def add(sums: dict, key, m: float) -> None:
    sums[key] = sums.get(key, 0.0) + m


def cycle_gain(metric: Metric, entries, witness) -> float:
    """Per-unit cost change of shifting each listed entry's target to the
    next listed entry's target (squared distances)."""
    L = len(witness)
    gain = 0.0
    for k in range(L):
        x, y, _ = entries[witness[k]]
        _, y_next, _ = entries[witness[(k + 1) % L]]
        gain += metric.dist(x, y_next) ** 2 - metric.dist(x, y) ** 2
    return gain


# -- output fingerprints -----------------------------------------------------------


def _canon(obj):
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, bytes):
        return obj.decode("utf-8", "replace")
    if isinstance(obj, (tuple, list)):
        return [_canon(x) for x in obj]
    if isinstance(obj, dict):
        items = [(_canon(k), _canon(v)) for k, v in obj.items()]
        return sorted(items, key=repr)
    if type(obj).__name__ == "TreeGeodesic":
        return ["G", _canon([obj.speed, obj.t0, obj.t1, obj.t_origin]),
                _canon(obj.nodes), _canon(obj.neg_end), _canon(obj.pos_end)]
    if is_dataclass(obj):
        return [type(obj).__name__] + [_canon(getattr(obj, f.name)) for f in fields(obj)]
    raise TypeError(f"cannot fingerprint {type(obj).__name__}")


def fingerprint(obj) -> str:
    """Digest of an output that changes with any bit of any float in it."""
    return hashlib.sha256(repr(_canon(obj)).encode()).hexdigest()
