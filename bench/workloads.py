"""The four benchmark workloads.

A workload turns the seeded raw inputs of ``inputs`` into library objects
(``build``), exposes one round of operations as ``ops`` (a list of
``(key, callable)``; the runner repeats whole rounds), and checks the output
of each distinct operation against ``oracle`` (``check``).  The library
module is passed in as ``T`` so that the runner controls when it is
imported.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import inputs as gen
from oracle import (
    REL,
    Metric,
    add,
    check_marginals,
    close,
    comb_realizability,
    cone_distance,
    cycle_gain,
    point_key,
    require,
    transport_lp,
)


def lib_tree(T, raw: gen.RawTree):
    return T.MetricTree(raw.vertices, raw.edges, raw.basepoint)


def lib_point(tree, p):
    if p[0] == "v":
        return tree.vertex_point(p[1])
    return tree.edge_point(p[1], p[2])


def lib_measure(T, tree, atoms):
    return T.DiscreteMeasure.from_atoms(tree, [(lib_point(tree, p), m) for p, m in atoms])


def lib_ray_plan(T, tree, x, cone_atoms):
    nu = T.ConeMeasure.from_atoms(tree, [(tree.end(e), s, m) for e, s, m in cone_atoms])
    return T.ray_from_asymptotic_measure(tree, lib_point(tree, x), nu)


def lib_boundary(T, tree, atoms):
    return T.BoundaryMeasure.from_atoms(tree, [(tree.end(e), m) for e, m in atoms])


def squared_cost(metric: Metric, xs, ys) -> list[list[float]]:
    return [[metric.dist(x, y) ** 2 for y in ys] for x in xs]


def cone_target(c1, c2) -> float:
    """W_infinity of two cone measures by HiGHS on the squared cone cost."""
    cost = [[cone_distance((e, s), (f, t)) ** 2 for f, t, _ in c2] for e, s, _ in c1]
    return math.sqrt(max(0.0, transport_lp(cost, [m for *_, m in c1], [m for *_, m in c2])))


def d0_second_moment(metric: Metric, minus, plus) -> float:
    """Minus the optimum of the transport with cost -D0^2 (D0 by search)."""
    cost = [
        [-metric.gromov(metric.ray_vertex(a), metric.ray_vertex(b)) ** 2 for b, _ in plus]
        for a, _ in minus
    ]
    return -transport_lp(cost, [m for _, m in minus], [m for _, m in plus])


def check_complete_plan(metric: Metric, atoms, minus, plus, slack: float = 0.0) -> None:
    """atoms: (neg end, pos end, speed, point at t=0, mass).  Unit speeds,
    end marginals equal to the inputs, second moment at t=0 equal to the
    -D0^2 optimum."""
    neg: dict = {}
    pos: dict = {}
    moment = 0.0
    for a, b, speed, x0, m in atoms:
        require(abs(speed - 1.0) <= 1e-9 + slack, f"atom speed {speed}, want 1")
        add(neg, a, m)
        add(pos, b, m)
        moment += m * metric.dist(("v", metric.raw.basepoint), x0) ** 2
    check_marginals(neg, pos, minus, plus, slack * len(atoms))
    want = d0_second_moment(metric, minus, plus)
    require(close(moment, want, slack=slack * len(atoms)),
            f"second moment at t=0 is {moment}, -D0^2 optimum gives {want}")


# -- w2_solve ----------------------------------------------------------------------


class W2Solve:
    """One wasserstein2 call per operation, 25 x 25 atoms on 200-vertex trees."""

    name = "w2_solve"
    INSTANCES = 64
    VERTICES, RAYS, ATOMS = 200, 3, 25

    def __init__(self, T, seed: int, workdir: Path):
        self.T, self.seed = T, seed

    def build(self) -> None:
        T = self.T
        rng = gen.stream(self.name, self.seed)
        self.raw, self.ops = [], []
        for i in range(self.INSTANCES):
            raw = gen.random_tree(rng, self.VERTICES, self.RAYS)
            mu = gen.measure(rng, raw, self.ATOMS)
            nu = gen.measure(rng, raw, self.ATOMS)
            tree = lib_tree(T, raw)
            args = (tree, lib_measure(T, tree, mu), lib_measure(T, tree, nu))
            self.raw.append((raw, mu, nu))
            self.ops.append((i, lambda a=args: T.wasserstein2(*a)))

    def check(self, key, out) -> None:
        raw, mu, nu = self.raw[key]
        metric = Metric(raw)
        xs, ys = [p for p, _ in mu], [p for p, _ in nu]
        a, b = [m for _, m in mu], [m for _, m in nu]
        cost = squared_cost(metric, xs, ys)
        optimum = transport_lp(cost, a, b)
        require(close(out.distance ** 2, optimum),
                f"W2^2 = {out.distance ** 2}, HiGHS gives {optimum}")

        rows: dict = {}
        cols: dict = {}
        primal = 0.0
        for x, y, m in out.plan.entries:
            x, y = point_key(x), point_key(y)
            add(rows, x, m)
            add(cols, y, m)
            primal += m * cost[xs.index(x)][ys.index(y)]
        check_marginals(rows, cols, mu, nu)
        require(close(primal, optimum), f"plan cost {primal}, HiGHS gives {optimum}")

        u, v = out.plan.potentials
        scale = 1.0 + max(max(row) for row in cost)
        worst = max(u[i] + v[j] - cost[i][j] for i in range(len(u)) for j in range(len(v)))
        require(worst <= REL * scale, f"dual infeasible by {worst}")
        dual = sum(ai * ui for ai, ui in zip(a, u)) + sum(bj * vj for bj, vj in zip(b, v))
        require(abs(dual - primal) <= REL * scale, f"dual value {dual} != plan cost {primal}")


# -- certify -----------------------------------------------------------------------


class Certify:
    """Certificates on solved plans: full cyclical monotonicity through
    interpolate, a failing check on a corrupted plan, and the asymptotic
    formula on two ray plans."""

    name = "certify"
    INSTANCES = 12
    RAYS, RAY_ATOMS = 3, 6
    SIDES = 55  # atoms of mu plus atoms of nu; mu has 25..30

    def __init__(self, T, seed: int, workdir: Path):
        self.T, self.seed = T, seed

    def build(self) -> None:
        T = self.T
        rng = gen.stream(self.name, self.seed)
        self.raw, self.ops = [], []
        for i in range(self.INSTANCES):
            raw = gen.random_tree(rng, rng.randint(150, 200), self.RAYS)
            m = 25 + i % 6
            mu = gen.measure(rng, raw, m)
            nu = gen.measure(rng, raw, self.SIDES - m)
            x1, x2 = gen.distinct_points(rng, raw, 2)
            c1 = gen.cone_measure(rng, raw, self.RAY_ATOMS)
            c2 = gen.cone_measure(rng, raw, self.RAY_ATOMS)

            tree = lib_tree(T, raw)
            mu_l, nu_l = lib_measure(T, tree, mu), lib_measure(T, tree, nu)
            plan = T.wasserstein2(tree, mu_l, nu_l).plan
            bad = self.corrupt(T, Metric(raw), rng, plan)
            ray1 = lib_ray_plan(T, tree, x1, c1)
            ray2 = lib_ray_plan(T, tree, x2, c2)
            self.raw.append((raw, mu, nu, c1, c2, plan, bad))
            self.ops.append((i, lambda a=(tree, mu_l, nu_l, plan, bad, ray1, ray2): (
                T.interpolate(a[0], a[1], a[2], a[3]),
                T.is_cyclically_monotone(a[0], a[4], full=True),
                T.asymptotic_formula_check(a[0], a[5], a[6]),
            )))

    @staticmethod
    def corrupt(T, metric: Metric, rng, plan):
        """Cross two entries on their common mass; the pair is drawn among
        those whose crossing costs more than 1e-6 more per unit."""
        entries = [(point_key(x), point_key(y), m) for x, y, m in plan.entries]
        d2 = lambda p, q: metric.dist(p, q) ** 2
        pairs = [
            (i, j)
            for i in range(len(entries))
            for j in range(i + 1, len(entries))
            if d2(entries[i][0], entries[j][1]) + d2(entries[j][0], entries[i][1])
            - d2(entries[i][0], entries[i][1]) - d2(entries[j][0], entries[j][1]) > 1e-6
        ]
        i, j = rng.choice(pairs)
        (x1, y1, m1), (x2, y2, m2) = plan.entries[i], plan.entries[j]
        delta = min(m1, m2)
        cells: dict = {}
        for k, (x, y, m) in enumerate(plan.entries):
            if k not in (i, j):
                add(cells, (x, y), m)
        for x, y, m in ((x1, y1, m1 - delta), (x2, y2, m2 - delta), (x1, y2, delta), (x2, y1, delta)):
            if m > 1e-12:
                add(cells, (x, y), m)
        return T.TransportPlan(tuple((x, y, m) for (x, y), m in cells.items()))

    def check(self, key, out) -> None:
        raw, mu, nu, c1, c2, plan, bad = self.raw[key]
        dyn, cert, report = out
        metric = Metric(raw)

        # interpolate returned, so the full check passed; the plan must
        # indeed be optimal.
        xs, ys = [p for p, _ in mu], [p for p, _ in nu]
        cost = squared_cost(metric, xs, ys)
        optimum = transport_lp(cost, [m for _, m in mu], [m for _, m in nu])
        entries = [(point_key(x), point_key(y), m) for x, y, m in plan.entries]
        primal = sum(m * cost[xs.index(x)][ys.index(y)] for x, y, m in entries)
        require(close(primal, optimum), f"plan cost {primal}, HiGHS gives {optimum}")

        require(len(dyn.atoms) == len(entries), "interpolation lost atoms")
        at0: dict = {}
        at1: dict = {}
        for (g, m), (x, y, mp) in zip(dyn.atoms, entries):
            p0, p1 = point_key(g.evaluate(0.0)), point_key(g.evaluate(1.0))
            require((p0, p1) == (x, y), f"atom runs {p0} -> {p1}, plan entry {x} -> {y}")
            require(abs(m - mp) <= 1e-12, "atom mass differs from the plan entry")
            d = metric.dist(x, y)
            require(abs(g.speed - d) <= 1e-9 * (1.0 + d), f"atom speed {g.speed}, distance {d}")
            add(at0, p0, m)
            add(at1, p1, m)
        check_marginals(at0, at1, mu, nu)

        require(not cert.passed and cert.witness, "corrupted plan passed the full check")
        bad_entries = [(point_key(x), point_key(y), m) for x, y, m in bad.entries]
        gain = cycle_gain(metric, bad_entries, cert.witness)
        require(gain < -1e-9, f"shifting along the witness changes the cost by {gain}")
        require(close(gain, cert.improvement), f"witness gain {gain}, reported {cert.improvement}")

        target = cone_target(c1, c2)
        require(close(report.target, target), f"target {report.target}, HiGHS gives {target}")
        require(close(report.certified_limit, target),
                f"certified limit {report.certified_limit}, target {target}")


# -- tree_scale --------------------------------------------------------------------


class TreeScale:
    """One large-tree pipeline per operation; every tree is built inside it."""

    name = "tree_scale"
    INSTANCES = 4
    COMB_DEPTH, COMB_EXPONENT = 2048, 3.0
    QUERIES = 1000
    RADON_VERTICES = 300
    ENDED_VERTICES, ENDS = 20, 8

    def __init__(self, T, seed: int, workdir: Path):
        self.T, self.seed = T, seed

    def build(self) -> None:
        T = self.T
        rng = gen.stream(self.name, self.seed)
        width = len(str(self.COMB_DEPTH))
        self.raw, self.ops = [], []
        for i in range(self.INSTANCES):
            pairs = [
                (rng.randint(1, self.COMB_DEPTH), rng.randint(1, self.COMB_DEPTH))
                for _ in range(self.QUERIES)
            ]
            queries = [
                (T.TreePoint(vertex=f"v{a:0{width}d}"), T.TreePoint(vertex=f"v{b:0{width}d}"))
                for a, b in pairs
            ]
            cubic = gen.cubic_tree(rng, self.RADON_VERTICES)
            h = gen.vertex_function(rng, cubic)
            ended = gen.random_tree(rng, self.ENDED_VERTICES, 2 * self.ENDS, tag="b")
            minus, plus = gen.split_boundary(rng, ended, self.ENDS, self.ENDS)
            self.raw.append((pairs, cubic, h, ended, minus, plus))
            self.ops.append((i, lambda a=(queries, cubic, h, ended, minus, plus): self.run(*a)))

    def run(self, queries, cubic, h, ended, minus, plus):
        T = self.T
        comb = T.comb_generator(self.COMB_DEPTH, self.COMB_EXPONENT)
        table = T.flow_table(comb.tree, comb.nu_minus, comb.nu_plus)
        real = T.realizability_sum(comb.tree, table)
        dists = [comb.tree.distance(p, q) for p, q in queries]

        tree = lib_tree(T, cubic)
        data = T.combinatorial_radon(tree, T.VertexFunction.from_mapping(tree, h))
        back = T.radon_invert(tree, data, float(sum(h.values())))

        etree = lib_tree(T, ended)
        geo = T.construct_geodesic(
            etree, lib_boundary(T, etree, minus), lib_boundary(T, etree, plus)
        )
        return real, dists, data, back, geo

    def check(self, key, out) -> None:
        pairs, cubic, h, ended, minus, plus = self.raw[key]
        real, dists, data, back, geo = out
        require(len(dists) == len(pairs), "lost distance queries")
        for (a, b), d in zip(pairs, dists):
            require(d == float(abs(a - b)), f"comb distance v{a}..v{b} is {d}")

        want = comb_realizability(self.COMB_DEPTH, self.COMB_EXPONENT)
        require(close(real.value, want), f"realizability {real.value}, suffix sums give {want}")
        require(real.verdict == "DIVERGES", f"verdict {real.verdict}, want DIVERGES")

        require(back.as_dict() == h, "radon_invert did not return the function exactly")
        require(len(data) == 3 * len(cubic.vertices), f"{len(data)} flags on a cubic tree")
        metric = Metric(cubic)
        for flag, got in data.items():
            want = sum(h[v] for v in metric.perpendicular(flag.vertex, *flag.edges))
            require(got == want, f"Radon value at {flag} is {got}, perpendicular sum {want}")

        atoms = [
            (g.neg_end.edge, g.pos_end.edge, g.speed, point_key(g.evaluate(0.0)), m)
            for g, m in geo.atoms
        ]
        check_complete_plan(Metric(ended), atoms, minus, plus)


# -- cli ---------------------------------------------------------------------------


def _num(x: float) -> str:
    return "inf" if math.isinf(x) else repr(x)


def _r12(x: float) -> float:
    return x if math.isinf(x) else float(f"{x:.12f}")


def _pr12(p) -> tuple:
    return p if p[0] == "v" else (p[0], p[1], _r12(p[2]))


def _point_json(p) -> dict:
    return {"vertex": p[1]} if p[0] == "v" else {"edge": p[1], "offset": _num(p[2])}


def _parse_point(doc) -> tuple:
    return ("v", doc["vertex"]) if "vertex" in doc else ("e", doc["edge"], float(doc["offset"]))


PRINTED = 5e-13  # half a unit in the 12th printed decimal


class Cli:
    """One `treeot <subcommand>` child process per operation, cycling through
    all 13 subcommands on small input files."""

    name = "cli"
    COMB_DEPTH = 256

    def __init__(self, T, seed: int, workdir: Path):
        self.T, self.seed, self.dir = T, seed, workdir
        src = Path(T.__file__).resolve().parent.parent
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.env.pop("W2_LOG", None)

    def write(self, name: str, doc) -> str:
        path = self.dir / name
        path.write_text(json.dumps(doc, sort_keys=True))
        return str(path)

    def tree_file(self, name: str, raw: gen.RawTree) -> str:
        return self.write(name, {
            "vertices": list(raw.vertices),
            "edges": [{"id": e, "ends": list(ends), "length": _num(L)} for e, ends, L in raw.edges],
            "basepoint": {"vertex": raw.basepoint},
        })

    def inprocess(self, argv: list[str]) -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = self.T.cli.run(argv)
        require(code == 0, f"treeot {argv[0]} exited {code} in process")
        return out.getvalue()

    def build(self) -> None:
        import treeot.cli  # noqa: F401  (makes T.cli available)

        rng = gen.stream(self.name, self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        small = gen.random_tree(rng, 30, 3)
        mu, nu = gen.measure(rng, small, 6), gen.measure(rng, small, 6)
        p, q = gen.distinct_points(rng, small, 2)
        x1, x2 = gen.distinct_points(rng, small, 2)
        c1, c2 = gen.cone_measure(rng, small, 4), gen.cone_measure(rng, small, 4)
        ended = gen.random_tree(rng, 12, 8, tag="b")
        minus, plus = gen.split_boundary(rng, ended, 4, 4)
        cubic = gen.cubic_tree(rng, 16)
        h = gen.vertex_function(rng, cubic)
        # Files carry numbers at the 12 decimals the CLI prints, so that a
        # point read back from the w2 output is the point of the input.
        small, ended, cubic = (gen.RawTree(t.vertices, tuple((e, ends, _r12(L)) for e, ends, L in t.edges),
                                           t.basepoint) for t in (small, ended, cubic))
        mu, nu = ([(_pr12(x), _r12(m)) for x, m in atoms] for atoms in (mu, nu))
        p, q, x1, x2 = map(_pr12, (p, q, x1, x2))
        c1, c2 = ([(e, _r12(s), _r12(m)) for e, s, m in atoms] for atoms in (c1, c2))
        minus, plus = ([(e, _r12(m)) for e, m in atoms] for atoms in (minus, plus))
        self.raw = dict(small=small, mu=mu, nu=nu, p=p, q=q, c1=c1, c2=c2,
                        ended=ended, minus=minus, plus=plus, cubic=cubic, h=h)

        t_small = self.tree_file("small.json", small)
        t_ended = self.tree_file("ended.json", ended)
        t_cubic = self.tree_file("cubic.json", cubic)
        measure = lambda atoms: {"atoms": [{"point": _point_json(x), "mass": _num(m)} for x, m in atoms]}
        f_mu, f_nu = self.write("mu.json", measure(mu)), self.write("nu.json", measure(nu))
        ray_plan = lambda x, atoms: {
            "interval": {"kind": "ray", "t0": "0", "t1": "inf"},
            "atoms": [{"geodesic": {"kind": "ray", "start": _point_json(x), "end": e, "speed": _num(s)},
                       "mass": _num(m)} for e, s, m in atoms],
        }
        f_ray1, f_ray2 = self.write("ray1.json", ray_plan(x1, c1)), self.write("ray2.json", ray_plan(x2, c2))
        cone = lambda atoms: {"atoms": [{"end": e, "speed": _num(s), "mass": _num(m)} for e, s, m in atoms]}
        f_c1, f_c2 = self.write("cone1.json", cone(c1)), self.write("cone2.json", cone(c2))
        boundary = lambda atoms: {"atoms": [{"end": e, "mass": _num(m)} for e, m in atoms]}
        f_minus, f_plus = self.write("minus.json", boundary(minus)), self.write("plus.json", boundary(plus))
        f_h = self.write("h.json", {"values": {v: str(x) for v, x in h.items()}})

        w2 = json.loads(self.inprocess(["w2", "--tree", t_small, "--mu", f_mu, "--nu", f_nu]))
        f_plan = self.write("plan.json", w2["plan"])
        radon = json.loads(self.inprocess(["radon", "--tree", t_cubic, "--function", f_h]))
        f_data = self.write("radon_data.json", radon["data"])

        argvs = [
            ["validate", "--tree", t_small],
            ["distance", "--tree", t_small, "--p", json.dumps(_point_json(p)),
             "--q", json.dumps(_point_json(q))],
            ["w2", "--tree", t_small, "--mu", f_mu, "--nu", f_nu],
            ["interpolate", "--tree", t_small, "--mu", f_mu, "--nu", f_nu, "--plan", f_plan],
            ["certify-plan", "--tree", t_small, "--plan", f_plan, "--full"],
            ["asymptotic", "--tree", t_small, "--mu", f_ray1, "--sigma", f_ray2],
            ["w-infinity", "--tree", t_small, "--nu1", f_c1, "--nu2", f_c2],
            ["flows", "--tree", t_ended, "--minus", f_minus, "--plus", f_plus],
            ["realizability", "--tree", t_ended, "--minus", f_minus, "--plus", f_plus],
            ["build-geodesic", "--tree", t_ended, "--minus", f_minus, "--plus", f_plus],
            ["radon", "--tree", t_cubic, "--function", f_h],
            ["radon-invert", "--tree", t_cubic, "--data", f_data, "--total", radon["total"]],
            ["comb", "--depth", str(self.COMB_DEPTH), "--exponent", "3"],
        ]
        self.argv = {argv[0]: argv for argv in argvs}
        self.ops = [(argv[0], lambda a=argv: self.child(a)) for argv in argvs]

    def child(self, argv: list[str]):
        proc = subprocess.run(
            [sys.executable, "-m", "treeot.cli", *argv],
            env=self.env, capture_output=True, timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"treeot {argv[0]} exited {proc.returncode}: {proc.stderr.decode()[-500:]}"
            )
        return proc.stdout

    def traced_extra(self, key, tracer) -> bytes:
        """Traced runs only: the same subcommand in process (its spans give
        the serialization and cli.run layers), then a bare interpreter and a
        bare `import treeot` child for the start-up layers."""
        text = self.inprocess(self.argv[key])
        wall = {}
        for name, code in (("interpreter", "pass"), ("import", "import treeot")):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], env=self.env, check=True, timeout=120)
            wall[name] = time.perf_counter() - t0
        tracer.record("cli.interpreter_s", wall["interpreter"])
        tracer.record("cli.import_s", wall["import"] - wall["interpreter"])
        return text.encode()

    def check(self, key, out) -> None:
        r = self.raw
        text = out.decode()
        if key == "asymptotic":
            last = text.strip().splitlines()[-1].split(",")
            require(last[0] == "inf", "asymptotic CSV lacks the limit row")
            target = cone_target(r["c1"], r["c2"])
            for value in (float(last[1]), float(last[2])):
                require(close(value, target, slack=PRINTED), f"asymptotic row {last}, HiGHS gives {target}")
            return
        doc = json.loads(text)
        getattr(self, "check_" + key.replace("-", "_"))(doc, r)

    def check_validate(self, doc, r):
        leaves, val2 = Metric(r["small"]).leaves()
        require(doc["ok"] is True, "tree reported not ok")
        require(doc["infinite_edges"] == sorted(r["small"].rays()), "wrong infinite edges")
        require(doc["leaves"] == leaves and doc["valency2"] == val2, "wrong leaves or valency-2 list")

    def check_distance(self, doc, r):
        want = Metric(r["small"]).dist(r["p"], r["q"])
        require(close(float(doc["distance"]), want, slack=PRINTED), f"distance {doc['distance']}, BFS {want}")

    def _transport(self, r):
        metric = Metric(r["small"])
        cost = squared_cost(metric, [p for p, _ in r["mu"]], [p for p, _ in r["nu"]])
        return metric, transport_lp(cost, [m for _, m in r["mu"]], [m for _, m in r["nu"]])

    def check_w2(self, doc, r):
        metric, optimum = self._transport(r)
        w = float(doc["distance"])
        require(close(w, math.sqrt(optimum), slack=PRINTED), f"w2 {w}, HiGHS gives {math.sqrt(optimum)}")
        rows: dict = {}
        cols: dict = {}
        for e in doc["plan"]:
            add(rows, _parse_point(e["source"]), float(e["mass"]))
            add(cols, _parse_point(e["target"]), float(e["mass"]))
        check_marginals(rows, cols, r["mu"], r["nu"], slack=PRINTED * len(doc["plan"]))

    def check_interpolate(self, doc, r):
        metric, optimum = self._transport(r)
        rows: dict = {}
        cols: dict = {}
        cost = 0.0
        for a in doc["atoms"]:
            g, m = a["geodesic"], float(a["mass"])
            start, stop = (g["point"], g["point"]) if g["kind"] == "constant" else (g["start"], g["stop"])
            x, y = _parse_point(start), _parse_point(stop)
            add(rows, x, m)
            add(cols, y, m)
            cost += m * metric.dist(x, y) ** 2
        check_marginals(rows, cols, r["mu"], r["nu"], slack=PRINTED * len(doc["atoms"]))
        require(close(cost, optimum, slack=1e-11), f"interpolation cost {cost}, HiGHS gives {optimum}")

    def check_certify_plan(self, doc, r):
        require(doc["cyclically_monotone"] is True and doc["witness"] is None,
                "the optimal w2 plan failed the full check")

    def check_w_infinity(self, doc, r):
        target = cone_target(r["c1"], r["c2"])
        require(close(float(doc["distance"]), target, slack=PRINTED), f"w-infinity {doc['distance']}, HiGHS {target}")

    def _signed(self, r) -> dict:
        signed = {e: m for e, m in r["plus"]}
        signed.update({e: -m for e, m in r["minus"]})
        return signed

    def check_flows(self, doc, r):
        flows = Metric(r["ended"]).edge_flows(self._signed(r))
        require(len(doc["edges"]) == len(flows), "flow table misses edges")
        for row in doc["edges"]:
            want = flows[row["edge"]]
            require(close(float(row["flow"]), want, slack=PRINTED), f"flow on {row['edge']} {row['flow']}, want {want}")

    def check_realizability(self, doc, r):
        want = Metric(r["ended"]).realizability(self._signed(r))
        require(doc["verdict"] == "FINITE", f"verdict {doc['verdict']}")
        require(close(float(doc["value"]), want, slack=PRINTED * 40), f"realizability {doc['value']}, want {want}")

    def check_build_geodesic(self, doc, r):
        atoms = []
        for a in doc["atoms"]:
            g = a["geodesic"]
            require(g["kind"] == "complete" and float(g["anchor_time"]) == 0.0, "not a complete plan anchored at 0")
            atoms.append((g["neg_end"], g["pos_end"], float(g["speed"]), _parse_point(g["anchor"]), float(a["mass"])))
        check_complete_plan(Metric(r["ended"]), atoms, r["minus"], r["plus"], slack=1e-11)

    def check_radon(self, doc, r):
        metric, h = Metric(r["cubic"]), r["h"]
        require(len(doc["data"]) == 3 * len(h), "wrong number of flags")
        for row in doc["data"]:
            want = sum(h[v] for v in metric.perpendicular(row["vertex"], *row["edges"]))
            require(row["value"] == str(want), f"Radon value {row['value']}, perpendicular sum {want}")
        require(doc["total"] == str(sum(h.values())), "wrong total")

    def check_radon_invert(self, doc, r):
        require(doc == {v: str(x) for v, x in r["h"].items()}, "radon-invert did not return the function")

    def check_comb(self, doc, r):
        want = comb_realizability(self.COMB_DEPTH, 3.0)
        require(close(float(doc["value"]), want, slack=PRINTED), f"comb value {doc['value']}, want {want}")
        require(doc["verdict"] == "DIVERGES", f"verdict {doc['verdict']}")


WORKLOADS = {w.name: w for w in (W2Solve, Certify, TreeScale, Cli)}
