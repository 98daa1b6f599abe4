"""Show that every output check rejects a deliberately wrong output.

    python3 bench/selftest.py

For each workload it builds the inputs of one seed, runs each distinct
operation once, requires the true output to pass its check, and then
requires each mutation below to fail it: perturbed distances, plans with two
targets swapped, Radon values off by one, and the like.  Prints one line per
mutation and exits 1 if any wrong output got through.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import treeot as T  # noqa: E402

from oracle import CheckFailed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
EPS = 1e-6


def swap_targets(entries, i, j):
    """Entries i and j exchange their targets, masses stay."""
    entries = list(entries)
    (xi, yi, mi), (xj, yj, mj) = entries[i], entries[j]
    entries[i], entries[j] = (xi, yj, mi), (xj, yi, mj)
    return tuple(entries)


def distinct_pair(items, key):
    """Indices of two items whose keys differ."""
    for j in range(1, len(items)):
        if key(items[j]) != key(items[0]):
            return 0, j
    raise ValueError("all items share the key")


def w2_mutations(out):
    dist, plan = out
    i, j = distinct_pair(plan.entries, lambda e: e[1])
    u, v = plan.potentials
    yield "distance perturbed", out._replace(distance=dist * (1 + EPS))
    yield "two targets swapped", out._replace(
        plan=T.TransportPlan(swap_targets(plan.entries, i, j), plan.potentials))
    yield "potential raised", out._replace(
        plan=T.TransportPlan(plan.entries, ((u[0] + EPS,) + u[1:], v)))


def certify_mutations(out):
    dyn, cert, report = out
    atoms = list(dyn.atoms)
    i, j = distinct_pair(atoms, lambda a: a[0].target())
    tree = atoms[0][0].tree
    (gi, mi), (gj, mj) = atoms[i], atoms[j]
    atoms[i] = (tree.geodesic_segment(gi.source(), gj.target(), 0.0, 1.0), mi)
    atoms[j] = (tree.geodesic_segment(gj.source(), gi.target(), 0.0, 1.0), mj)
    swapped = T.DynamicalPlan(tuple(atoms), dyn.kind, dyn.t0, dyn.t1)
    yield "interpolation with two targets swapped", (swapped, cert, report)
    passed = T.MonotonicityCertificate(True, cert.max_cycle, None, 0.0)
    yield "corrupted plan reported monotone", (dyn, passed, report)
    off = T.MonotonicityCertificate(False, cert.max_cycle, cert.witness, cert.improvement * (1 + EPS))
    yield "cycle improvement perturbed", (dyn, off, report)
    yield "certified limit perturbed", (dyn, cert, _replace(report, certified_limit=report.certified_limit + EPS))
    yield "target perturbed", (dyn, cert, _replace(report, target=report.target + EPS))


def _replace(obj, **changes):
    return dataclasses.replace(obj, **changes)


def tree_scale_mutations(out):
    real, dists, data, back, geo = out
    yield "comb distance perturbed", (real, [dists[0] + EPS] + dists[1:], data, back, geo)
    yield "realizability value perturbed", (_replace(real, value=real.value * (1 + EPS)), dists, data, back, geo)
    yield "verdict changed", (_replace(real, verdict="CONVERGES"), dists, data, back, geo)
    flag = next(iter(data))
    yield "Radon value off by one", (real, dists, {**data, flag: data[flag] + 1}, back, geo)
    values = dict(back.values)
    v0 = next(iter(values))
    wrong = T.VertexFunction(tuple({**values, v0: values[v0] + 1}.items()), back.total + 1)
    yield "inverted value off by one", (real, dists, data, wrong, geo)
    atoms = list(geo.atoms)
    tree = atoms[0][0].tree
    g, m = atoms[0]
    atoms[0] = (tree.geodesic_between_ends(g.neg_end, g.pos_end, speed=1 + EPS), m)
    yield "geodesic speed perturbed", (real, dists, data, back, T.DynamicalPlan(tuple(atoms), geo.kind, geo.t0, geo.t1))
    atoms = list(geo.atoms)
    i, j = distinct_pair(atoms, lambda a: (a[0].pos_end, a[1]))
    (gi, mi), (gj, mj) = atoms[i], atoms[j]
    atoms[i], atoms[j] = (gi, mj), (gj, mi)
    yield "geodesic masses swapped", (real, dists, data, back, T.DynamicalPlan(tuple(atoms), geo.kind, geo.t0, geo.t1))


def cli_mutations(key, out):
    text = out.decode()
    if key == "asymptotic":
        lines = text.strip().splitlines()
        t, ratio, target, err = lines[-1].split(",")
        lines[-1] = ",".join((t, f"{float(ratio) + EPS:.12f}", target, err))
        yield "limit perturbed", ("\n".join(lines) + "\n").encode()
        return
    doc = json.loads(text)
    mutated = []
    if key in ("distance", "w2", "w-infinity"):
        mutated.append(("distance perturbed", {**doc, "distance": f"{float(doc['distance']) + EPS:.12f}"}))
    if key == "w2":
        plan = doc["plan"]
        i, j = distinct_pair(plan, lambda e: json.dumps(e["target"]))
        plan = [dict(e) for e in plan]
        plan[i]["target"], plan[j]["target"] = plan[j]["target"], plan[i]["target"]
        mutated.append(("two targets swapped", {**doc, "plan": plan}))
    if key == "interpolate":
        atoms = [json.loads(json.dumps(a)) for a in doc["atoms"]]
        segs = [a for a in atoms if a["geodesic"]["kind"] == "segment"]
        i, j = distinct_pair(segs, lambda a: json.dumps(a["geodesic"]["stop"]))
        segs[i]["geodesic"]["stop"], segs[j]["geodesic"]["stop"] = segs[j]["geodesic"]["stop"], segs[i]["geodesic"]["stop"]
        mutated.append(("two targets swapped", {**doc, "atoms": atoms}))
    if key == "validate":
        mutated.append(("leaf list changed", {**doc, "leaves": doc["leaves"] + ["w999"]}))
    if key == "certify-plan":
        mutated.append(("reported not monotone", {**doc, "cyclically_monotone": False}))
    if key == "flows":
        edges = [dict(e) for e in doc["edges"]]
        edges[0]["flow"] = f"{float(edges[0]['flow']) + EPS:.12f}"
        mutated.append(("flow perturbed", {**doc, "edges": edges}))
    if key in ("realizability", "comb"):
        mutated.append(("value perturbed", {**doc, "value": f"{float(doc['value']) * (1 + EPS):.12f}"}))
        mutated.append(("verdict changed", {**doc, "verdict": "INCONCLUSIVE"}))
    if key == "build-geodesic":
        atoms = [json.loads(json.dumps(a)) for a in doc["atoms"]]
        atoms[0]["geodesic"]["speed"] = f"{1 + EPS:.12f}"
        mutated.append(("speed perturbed", {**doc, "atoms": atoms}))
    if key == "radon":
        data = [dict(r) for r in doc["data"]]
        data[0]["value"] = str(int(data[0]["value"]) + 1)
        mutated.append(("Radon value off by one", {**doc, "data": data}))
    if key == "radon-invert":
        v0 = next(iter(doc))
        mutated.append(("inverted value off by one", {**doc, v0: str(int(doc[v0]) + 1)}))
    for name, mdoc in mutated:
        yield name, json.dumps(mdoc).encode()


MUTATIONS = {
    "w2_solve": lambda key, out: w2_mutations(out),
    "certify": lambda key, out: certify_mutations(out),
    "tree_scale": lambda key, out: tree_scale_mutations(out),
    "cli": cli_mutations,
}


def main() -> int:
    escaped = 0
    workdir = BENCH.parent / ".bench_run" / "selftest"
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(T, SEED, workdir / name)
            wl.build()
            ops = wl.ops[:2] if name != "cli" else wl.ops
            for key, fn in ops:
                out = fn()
                wl.check(key, out)
                for what, wrong in MUTATIONS[name](key, out):
                    try:
                        wl.check(key, wrong)
                    except CheckFailed as err:
                        print(f"caught   {name} {key!r}: {what} ({err})")
                    else:
                        escaped += 1
                        print(f"ESCAPED  {name} {key!r}: {what}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"{escaped} wrong outputs passed a check")
    return 1 if escaped else 0


if __name__ == "__main__":
    sys.exit(main())
