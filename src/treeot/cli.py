"""Command line surface.

One subcommand per pipeline stage: load trees and measures from JSON, run a
computation, emit a JSON certificate or a CSV table.  Exit codes: 0 on
success, 1 on domain errors (non-antipodal inputs, malformed trees, ...),
2 on usage or parse errors, and on files that cannot be read or written.
Output is deterministic byte for byte.  No environment variable is read.

Each subcommand imports its library functions in its own branch of
``_dispatch``, so a ``treeot <subcommand>`` process loads only the modules
that subcommand runs: ``validate`` and ``distance`` load ``metric_tree``
and ``serialization`` alone.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import serialization as io
from .errors import TreeOTError


def _decode(text: str):
    """A JSON document; one nested too deep for the decoder is an input
    error like any other malformed document, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON document nested too deep") from None


def _load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _decode(fh.read())


def _load_tree(path: str):
    return io.tree_from_json(_load_json(path))


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


SCHEMA_HELP = """\
file schemas (numbers may be decimal strings; "inf" for infinite lengths):
  tree        {"vertices":[...], "edges":[{"id","ends":[1 or 2 vertices],"length"}],
               "basepoint": point}
  point       {"vertex":"o"} | {"edge":"e1","offset":"0.5"}
  measure     {"atoms":[{"point": point, "mass":"0.5"}, ...]}
  boundary    {"atoms":[{"end":"r1","mass":"0.5"}, ...]}
  cone        {"atoms":[{"end":"r1"|"apex","speed":"1","mass":"0.5"}, ...]}
  plan        {"entries":[{"source": point,"target": point,"mass":"0.5"}, ...]}
              (a bare entry list is accepted too)
  dyn. plan   {"interval":{"kind":"segment|ray|complete","t0","t1"},
               "atoms":[{"geodesic":{...},"mass"}, ...]}
  radon data  [{"vertex":"u","edges":["r1","r2"],"value":"7"}, ...]
  function    {"values":{"u":"2","v":"5"}}
"""


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="treeot",
        description="Exact quadratic optimal transport on metric trees.",
        epilog=SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_, *specs):
        p = sub.add_parser(name, help=help_)
        for flags, kw in specs:
            p.add_argument(flags, **kw)
        p.add_argument("--out", help="write the result here instead of stdout")
        return p

    tree_arg = ("--tree", {"required": True, "help": "tree JSON file"})
    add("validate", "structural report of a tree", tree_arg)
    add(
        "distance", "distance between two points", tree_arg,
        ("--p", {"required": True, "help": "point JSON (inline)"}),
        ("--q", {"required": True, "help": "point JSON (inline)"}),
    )
    add(
        "w2", "quadratic Wasserstein distance and optimal plan", tree_arg,
        ("--mu", {"required": True, "help": "measure JSON file"}),
        ("--nu", {"required": True, "help": "measure JSON file"}),
    )
    add(
        "interpolate", "displacement interpolation on [0, 1]", tree_arg,
        ("--mu", {"required": True}), ("--nu", {"required": True}),
        ("--plan", {"help": "optional transport plan JSON file (must be optimal)"}),
    )
    add(
        "certify-plan", "optimality certificates for a plan", tree_arg,
        ("--plan", {"required": True, "help": "transport or dynamical plan JSON"}),
        ("--full", {"action": "store_true",
                    "help": "deprecated: the check always covers every cycle length"}),
    )
    add(
        "asymptotic", "ratio table for two ray plans (CSV)", tree_arg,
        ("--mu", {"required": True, "help": "dynamical ray plan JSON"}),
        ("--sigma", {"required": True, "help": "dynamical ray plan JSON"}),
        ("--grid", {"default": "default", "help": "'default' or comma separated t"}),
    )
    add(
        "w-infinity", "cone Wasserstein distance of two cone measures", tree_arg,
        ("--nu1", {"required": True}), ("--nu2", {"required": True}),
    )
    add(
        "flows", "flow table of two antipodal boundary measures", tree_arg,
        ("--minus", {"required": True}), ("--plus", {"required": True}),
    )
    add(
        "realizability", "specific-flow realizability sum", tree_arg,
        ("--minus", {"required": True}), ("--plus", {"required": True}),
    )
    add(
        "build-geodesic", "complete geodesic with prescribed ends", tree_arg,
        ("--minus", {"required": True}), ("--plus", {"required": True}),
    )
    add(
        "radon", "combinatorial Radon transform of a vertex function", tree_arg,
        ("--function", {"required": True, "help": "vertex function JSON file"}),
    )
    add(
        "radon-invert", "invert combinatorial Radon data", tree_arg,
        ("--data", {"required": True, "help": "flag data JSON file"}),
        ("--total", {"required": True, "help": "total of the vertex function"}),
    )
    add(
        "comb", "generate a comb truncation and its realizability verdict",
        ("--depth", {"type": int, "required": True}),
        ("--exponent", {"type": float, "required": True}),
        ("--emit-tree", {"action": "store_true", "help": (
            "also print the tree and both boundary measures; their masses "
            "carry 12 decimals, so the realizability of what reads back "
            "drifts from 'value' (exponent 3: 1.0e-12 at depth 8, 1.7e-9 at "
            "64, 1.3e-7 at 256)")}),
    )
    return ap


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _emit(_dispatch(args), args.out)
    except TreeOTError as err:
        sys.stderr.write(
            io.dumps({"error": type(err).__name__, "message": str(err)})
        )
        return 1
    except (KeyError, OSError, ValueError) as err:
        sys.stderr.write(f"input error: {err}\n")
        return 2
    return 0


def _dispatch(args) -> str:
    cmd = args.command
    if cmd == "comb":
        from .ends import comb_generator, flow_table, realizability_sum

        inst = comb_generator(args.depth, args.exponent)
        table = flow_table(inst.tree, inst.nu_minus, inst.nu_plus)
        res = realizability_sum(inst.tree, table)
        doc = {
            "depth": args.depth,
            "mass_exponent": io.fmt(args.exponent),
            "value": io.fmt(res.value),
            "depths": list(res.depths),
            "partial_sums": [io.fmt(s) for s in res.partial_sums],
            "verdict": res.verdict,
        }
        if args.emit_tree:
            doc["tree"] = io.tree_to_json(inst.tree)
            doc["nu_minus"] = io.boundary_measure_to_json(inst.nu_minus)
            doc["nu_plus"] = io.boundary_measure_to_json(inst.nu_plus)
        return io.dumps(doc)

    tree = _load_tree(args.tree)

    if cmd == "validate":
        r = tree.report
        return io.dumps(
            {
                "connected": r.connected,
                "acyclic": r.acyclic,
                "leaves": list(r.leaves),
                "valency2": list(r.valency2),
                "infinite_edges": list(r.infinite_edges),
                "ok": r.ok,
            }
        )

    if cmd == "distance":
        p = io.point_from_json(tree, _decode(args.p))
        q = io.point_from_json(tree, _decode(args.q))
        return io.dumps({"distance": io.fmt(tree.distance(p, q))})

    if cmd == "w2":
        from .transport import wasserstein2

        mu = io.measure_from_json(tree, _load_json(args.mu))
        nu = io.measure_from_json(tree, _load_json(args.nu))
        dist, plan = wasserstein2(tree, mu, nu)
        return io.dumps(
            {"distance": io.fmt(dist), "plan": io.plan_to_json(plan)["entries"]}
        )

    if cmd == "interpolate":
        from .dynamics import interpolate

        mu = io.measure_from_json(tree, _load_json(args.mu))
        nu = io.measure_from_json(tree, _load_json(args.nu))
        plan = io.plan_from_json(tree, _load_json(args.plan)) if args.plan else None
        dyn = interpolate(tree, mu, nu, plan)
        return io.dumps(io.dynamical_plan_to_json(dyn))

    if cmd == "certify-plan":
        doc = _load_json(args.plan)
        if isinstance(doc, dict) and "interval" in doc:
            from .dynamics import is_optimal_dynamical

            dyn = io.dynamical_plan_from_json(tree, doc)
            cert = is_optimal_dynamical(tree, dyn)
            return io.dumps(
                {
                    "kind": "dynamical",
                    "optimal": cert.passed,
                    "antagonist_pairs": [list(w) for w in cert.witnesses],
                }
            )
        from .transport import is_cyclically_monotone

        plan = io.plan_from_json(tree, doc)
        cert = is_cyclically_monotone(tree, plan)
        return io.dumps(
            {
                "kind": "transport",
                "cyclically_monotone": cert.passed,
                "max_cycle": cert.max_cycle,
                "witness": list(cert.witness) if cert.witness else None,
                "improvement": io.fmt(cert.improvement),
            }
        )

    if cmd == "asymptotic":
        from .boundary import asymptotic_formula_check

        mu = io.dynamical_plan_from_json(tree, _load_json(args.mu))
        sigma = io.dynamical_plan_from_json(tree, _load_json(args.sigma))
        grid = (
            None
            if args.grid == "default"
            else [float(x) for x in args.grid.split(",")]
        )
        report = asymptotic_formula_check(tree, mu, sigma, grid)
        return report.csv()

    if cmd == "w-infinity":
        from .boundary import w_infinity

        nu1 = io.cone_measure_from_json(tree, _load_json(args.nu1))
        nu2 = io.cone_measure_from_json(tree, _load_json(args.nu2))
        dist, entries = w_infinity(tree, nu1, nu2)
        rows = [
            {
                "from": {"end": "apex" if a[0] is None else a[0].edge, "speed": io.fmt(a[1])},
                "to": {"end": "apex" if b[0] is None else b[0].edge, "speed": io.fmt(b[1])},
                "mass": io.fmt(m),
            }
            for a, b, m in entries
        ]
        return io.dumps({"distance": io.fmt(dist), "plan": rows})

    if cmd in ("flows", "realizability", "build-geodesic"):
        from .ends import construct_geodesic, flow_table, realizability_sum

        minus = io.boundary_measure_from_json(tree, _load_json(args.minus))
        plus = io.boundary_measure_from_json(tree, _load_json(args.plus))
        if cmd == "flows":
            table = flow_table(tree, minus, plus)
            return io.dumps(io.flow_table_to_json(tree, table))
        if cmd == "realizability":
            res = realizability_sum(tree, flow_table(tree, minus, plus))
            return io.dumps({"value": io.fmt(res.value), "verdict": res.verdict})
        plan = construct_geodesic(tree, minus, plus)
        return io.dumps(io.dynamical_plan_to_json(plan))

    if cmd == "radon":
        from .radon import combinatorial_radon

        h = io.vertex_function_from_json(tree, _load_json(args.function))
        data = combinatorial_radon(tree, h)
        return io.dumps(
            {"data": io.radon_data_to_json(data), "total": io.fmt_exact(h.total)}
        )

    if cmd == "radon-invert":
        from .radon import radon_invert

        data = io.radon_data_from_json(tree, _load_json(args.data))
        h = radon_invert(tree, data, io.parse_number(args.total))
        return io.dumps(io.vertex_function_to_json(h))

    raise AssertionError(f"unhandled command {cmd}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
