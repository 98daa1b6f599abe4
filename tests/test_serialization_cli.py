"""JSON round trips for every artifact and end-to-end CLI runs."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import treeot as T
from treeot import serialization as io

import helpers

TRIPOD_JSON = {
    "vertices": ["o", "a", "b", "c"],
    "edges": [
        {"id": "ea", "ends": ["o", "a"], "length": "1"},
        {"id": "eb", "ends": ["o", "b"], "length": "1"},
        {"id": "ec", "ends": ["o", "c"], "length": "1"},
    ],
    "basepoint": {"vertex": "o"},
}

STAR3_JSON = {
    "vertices": ["o"],
    "edges": [
        {"id": "r1", "ends": ["o"], "length": "inf"},
        {"id": "r2", "ends": ["o"], "length": "inf"},
        {"id": "r3", "ends": ["o"], "length": "inf"},
    ],
    "basepoint": {"vertex": "o"},
}

BARBELL_JSON = {
    "vertices": ["u", "v"],
    "edges": [
        {"id": "euv", "ends": ["u", "v"], "length": "1"},
        {"id": "r1", "ends": ["u"], "length": "inf"},
        {"id": "r2", "ends": ["u"], "length": "inf"},
        {"id": "r3", "ends": ["v"], "length": "inf"},
        {"id": "r4", "ends": ["v"], "length": "inf"},
    ],
    "basepoint": {"vertex": "u"},
}


def cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "treeot.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture
def files(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


# -- round trips -------------------------------------------------------------------


def test_tree_round_trip():
    tree = io.tree_from_json(TRIPOD_JSON)
    again = io.tree_from_json(io.tree_to_json(tree))
    assert again.vertices == tree.vertices
    assert set(again.edges) == set(tree.edges)
    assert again.basepoint == tree.basepoint


def test_point_round_trip():
    tree = io.tree_from_json(TRIPOD_JSON)
    p = tree.edge_point("ea", 0.5)
    assert io.point_from_json(tree, io.point_to_json(p)) == p
    v = tree.vertex_point("a")
    assert io.point_from_json(tree, io.point_to_json(v)) == v


def test_measure_and_plan_round_trip():
    tree = io.tree_from_json(TRIPOD_JSON)
    mu = T.DiscreteMeasure.from_atoms(
        tree, [(tree.vertex_point("a"), 0.5), (tree.edge_point("eb", 0.25), 0.5)]
    )
    assert io.measure_from_json(tree, io.measure_to_json(mu)).atoms == mu.atoms
    nu = T.DiscreteMeasure.dirac(tree, tree.vertex_point("c"))
    plan = T.wasserstein2(tree, mu, nu).plan
    back = io.plan_from_json(tree, io.plan_to_json(plan))
    assert back.entries == plan.entries


def test_dynamical_plan_round_trip():
    tree = io.tree_from_json(STAR3_JSON)
    o = tree.vertex_point("o")
    plan = T.DynamicalPlan.from_atoms(
        tree,
        [
            (tree.geodesic_between_ends(tree.end("r1"), tree.end("r2")), 0.25),
            (tree.geodesic_between_ends(tree.end("r1"), tree.end("r3")), 0.75),
        ],
    )
    back = io.dynamical_plan_from_json(tree, io.dynamical_plan_to_json(plan))
    assert back.atoms == plan.atoms

    ray = T.DynamicalPlan.from_atoms(
        tree,
        [
            (tree.ray_to_end(o, tree.end("r1"), 0.5), 0.5),
            (tree.constant_geodesic(o, 0.0, math.inf), 0.5),
        ],
    )
    back = io.dynamical_plan_from_json(tree, io.dynamical_plan_to_json(ray))
    assert back.atoms == ray.atoms


def test_cone_and_boundary_measures_round_trip():
    tree = io.tree_from_json(STAR3_JSON)
    nu = T.ConeMeasure.from_atoms(
        tree, [(tree.end("r1"), 1.5, 0.5), (None, 0.0, 0.5)]
    )
    assert io.cone_measure_from_json(tree, io.cone_measure_to_json(nu)).atoms == nu.atoms
    bm = T.BoundaryMeasure.from_atoms(
        tree, [(tree.end("r1"), 0.25), (tree.end("r2"), 0.75)]
    )
    assert (
        io.boundary_measure_from_json(tree, io.boundary_measure_to_json(bm)).atoms
        == bm.atoms
    )


def test_radon_data_round_trip():
    tree = io.tree_from_json(BARBELL_JSON)
    h = T.VertexFunction.from_mapping(tree, {"u": 2.0, "v": 5.0})
    data = T.combinatorial_radon(tree, h)
    doc = io.radon_data_to_json(data)
    back = io.radon_data_from_json(tree, doc)
    assert back == data


# -- CLI ------------------------------------------------------------------------------


def test_cli_validate(files):
    out = cli("validate", "--tree", files("t.json", TRIPOD_JSON))
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["ok"] is True
    assert sorted(doc["leaves"]) == ["a", "b", "c"]


def test_cli_distance(files):
    out = cli(
        "distance",
        "--tree", files("t.json", TRIPOD_JSON),
        "--p", '{"vertex":"a"}',
        "--q", '{"vertex":"b"}',
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["distance"] == "2.000000000000"


def test_cli_w2_tripod(files):
    tree = files("t.json", TRIPOD_JSON)
    mu = files("mu.json", {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]})
    nu = files(
        "nu.json",
        {
            "atoms": [
                {"point": {"vertex": "b"}, "mass": "0.5"},
                {"point": {"vertex": "c"}, "mass": "0.5"},
            ]
        },
    )
    out = cli("w2", "--tree", tree, "--mu", mu, "--nu", nu)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["distance"] == "2.000000000000"
    assert len(doc["plan"]) == 2


def test_cli_radon_invert(files):
    tree = files("t.json", BARBELL_JSON)
    data = files(
        "r.json",
        [
            {"vertex": "u", "edges": ["r1", "r2"], "value": "7"},
            {"vertex": "u", "edges": ["euv", "r1"], "value": "2"},
            {"vertex": "u", "edges": ["euv", "r2"], "value": "2"},
            {"vertex": "v", "edges": ["r3", "r4"], "value": "7"},
            {"vertex": "v", "edges": ["euv", "r3"], "value": "5"},
            {"vertex": "v", "edges": ["euv", "r4"], "value": "5"},
        ],
    )
    out = cli("radon-invert", "--tree", tree, "--data", data, "--total", "7")
    assert out.returncode == 0
    assert json.loads(out.stdout) == {"u": "2", "v": "5"}


def test_cli_radon_then_invert(files):
    tree = files("t.json", BARBELL_JSON)
    fn = files("h.json", {"values": {"u": "2", "v": "5"}})
    out = cli("radon", "--tree", tree, "--function", fn)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["total"] == "7"
    assert len(doc["data"]) == 6


def test_cli_asymptotic_csv(files, tmp_path):
    tree = files("t.json", STAR3_JSON)
    mu_doc = {
        "interval": {"kind": "ray", "t0": "0", "t1": "inf"},
        "atoms": [
            {"geodesic": {"kind": "ray", "start": {"vertex": "o"}, "end": "r1", "speed": "1"}, "mass": "0.5"},
            {"geodesic": {"kind": "ray", "start": {"vertex": "o"}, "end": "r2", "speed": "1"}, "mass": "0.5"},
        ],
    }
    si_doc = {
        "interval": {"kind": "ray", "t0": "0", "t1": "inf"},
        "atoms": [
            {"geodesic": {"kind": "ray", "start": {"vertex": "o"}, "end": "r1", "speed": "1"}, "mass": "1"}
        ],
    }
    out = cli(
        "asymptotic",
        "--tree", tree,
        "--mu", files("mu.json", mu_doc),
        "--sigma", files("si.json", si_doc),
        "--grid", "default",
    )
    assert out.returncode == 0
    lines = out.stdout.strip().splitlines()
    assert lines[0] == "t,ratio,target,abs_error"
    target = lines[-1].split(",")[2]
    assert target == f"{math.sqrt(2):.12f}"


def test_cli_flows_and_realizability(files):
    tree = files("t.json", BARBELL_JSON)
    minus = files(
        "m.json", {"atoms": [{"end": "r1", "mass": "0.5"}, {"end": "r2", "mass": "0.5"}]}
    )
    plus = files(
        "p.json", {"atoms": [{"end": "r3", "mass": "0.5"}, {"end": "r4", "mass": "0.5"}]}
    )
    out = cli("flows", "--tree", tree, "--minus", minus, "--plus", plus)
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    euv = next(e for e in doc["edges"] if e["edge"] == "euv")
    assert euv["sign"] == "positive"
    out = cli("realizability", "--tree", tree, "--minus", minus, "--plus", plus)
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "FINITE"
    # every joining geodesic passes through the base point u, so D0 = 0
    assert doc["value"] == "0.000000000000"


def test_cli_build_geodesic_round_trip(files):
    tree_path = files("t.json", BARBELL_JSON)
    minus = files(
        "m.json", {"atoms": [{"end": "r1", "mass": "0.5"}, {"end": "r2", "mass": "0.5"}]}
    )
    plus = files(
        "p.json", {"atoms": [{"end": "r3", "mass": "0.5"}, {"end": "r4", "mass": "0.5"}]}
    )
    out = cli("build-geodesic", "--tree", tree_path, "--minus", minus, "--plus", plus)
    assert out.returncode == 0
    tree = io.tree_from_json(BARBELL_JSON)
    plan = io.dynamical_plan_from_json(tree, json.loads(out.stdout))
    assert T.validate_complete_plan(plan).passed


def test_cli_certify_plan_kinds(files, tmp_path):
    tree_path = files("t.json", TRIPOD_JSON)
    tree = io.tree_from_json(TRIPOD_JSON)
    plan = T.TransportPlan(
        (
            (tree.vertex_point("a"), tree.vertex_point("b"), 0.5),
            (tree.vertex_point("b"), tree.vertex_point("a"), 0.5),
        )
    )
    plan_path = files("plan.json", io.plan_to_json(plan))
    out = cli("certify-plan", "--tree", tree_path, "--plan", plan_path, "--full")
    doc = json.loads(out.stdout)
    assert doc["kind"] == "transport"
    assert doc["cyclically_monotone"] is False

    dyn = T.DynamicalPlan.from_atoms(
        tree,
        [
            (tree.geodesic_segment(tree.vertex_point("a"), tree.vertex_point("b"), 0, 1), 0.5),
            (tree.geodesic_segment(tree.vertex_point("b"), tree.vertex_point("a"), 0, 1), 0.5),
        ],
    )
    dyn_path = files("dyn.json", io.dynamical_plan_to_json(dyn))
    out = cli("certify-plan", "--tree", tree_path, "--plan", dyn_path)
    doc = json.loads(out.stdout)
    assert doc["kind"] == "dynamical"
    assert doc["optimal"] is False
    assert doc["antagonist_pairs"]


def test_cli_winfinity(files):
    tree = files("t.json", STAR3_JSON)
    nu1 = files("n1.json", {"atoms": [{"end": "r1", "speed": "1", "mass": "1"}]})
    nu2 = files(
        "n2.json",
        {
            "atoms": [
                {"end": "r1", "speed": "1", "mass": "0.5"},
                {"end": "r2", "speed": "1", "mass": "0.5"},
            ]
        },
    )
    out = cli("w-infinity", "--tree", tree, "--nu1", nu1, "--nu2", nu2)
    doc = json.loads(out.stdout)
    assert doc["distance"] == f"{math.sqrt(2):.12f}"


def test_cli_interpolate(files):
    tree = files("t.json", TRIPOD_JSON)
    mu = files("mu.json", {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]})
    nu = files("nu.json", {"atoms": [{"point": {"vertex": "b"}, "mass": "1"}]})
    out = cli("interpolate", "--tree", tree, "--mu", mu, "--nu", nu)
    doc = json.loads(out.stdout)
    assert doc["interval"]["kind"] == "segment"
    assert len(doc["atoms"]) == 1


def test_cli_comb(files):
    out = cli("comb", "--depth", "64", "--exponent", "3")
    assert out.returncode == 0
    doc = json.loads(out.stdout)
    assert doc["verdict"] == "DIVERGES"
    assert len(doc["partial_sums"]) == 13


def test_cli_deep_comb_sheds_dust_and_diverges():
    # the deepest teeth carry less than 1e-12 each; together they hold more
    # than the 1e-9 mass tolerance, so the total is checked before they go
    out = cli("comb", "--depth", "16384", "--exponent", "3")
    assert out.returncode == 0, out.stdout + out.stderr
    assert json.loads(out.stdout)["verdict"] == "DIVERGES"


def test_cli_w2_output_feeds_certify_plan(files, tmp_path):
    tree = files("t.json", TRIPOD_JSON)
    mu = files("mu.json", {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]})
    nu = files(
        "nu.json",
        {
            "atoms": [
                {"point": {"vertex": "b"}, "mass": "0.5"},
                {"point": {"vertex": "c"}, "mass": "0.5"},
            ]
        },
    )
    out = cli("w2", "--tree", tree, "--mu", mu, "--nu", nu)
    plan_path = tmp_path / "emitted.json"
    plan_path.write_text(json.dumps(json.loads(out.stdout)["plan"]))
    out = cli("certify-plan", "--tree", tree, "--plan", str(plan_path), "--full")
    assert out.returncode == 0
    assert json.loads(out.stdout)["cyclically_monotone"] is True


ALIGNED_JSON = {
    "vertices": ["y2", "y", "y1"],
    "edges": [
        {"id": "e1", "ends": ["y2", "y"], "length": "1"},
        {"id": "e2", "ends": ["y", "y1"], "length": "1"},
    ],
    "basepoint": {"vertex": "y"},
}


def test_cli_certify_plan_checks_every_cycle_length(files, capsys):
    # y2 -> y1 and y -> y is beaten by the 2-cycle y2 -> y, y -> y1 (gain 2);
    # --full is deprecated and changes no output byte.
    from treeot import cli as treeot_cli

    tree = files("t.json", ALIGNED_JSON)
    plan = files(
        "plan.json",
        {
            "entries": [
                {"source": {"vertex": "y2"}, "target": {"vertex": "y1"}, "mass": "0.5"},
                {"source": {"vertex": "y"}, "target": {"vertex": "y"}, "mass": "0.5"},
            ]
        },
    )
    outputs = []
    for extra in ([], ["--full"]):
        argv = ["certify-plan", "--tree", tree, "--plan", plan, *extra]
        assert treeot_cli.run(argv) == 0
        outputs.append(capsys.readouterr().out)
    assert len(set(outputs)) == 1
    doc = json.loads(outputs[0])
    assert doc["cyclically_monotone"] is False
    assert doc["witness"] == [0, 1]
    assert doc["improvement"] == "-2.000000000000"
    assert doc["max_cycle"] == 2


def test_cli_certify_plan_rejects_max_cycle(files):
    tree = files("t.json", ALIGNED_JSON)
    plan = files("plan.json", {"entries": [
        {"source": {"vertex": "y"}, "target": {"vertex": "y"}, "mass": "1"},
    ]})
    out = cli("certify-plan", "--tree", tree, "--plan", plan, "--max-cycle", "3")
    assert out.returncode == 2
    assert out.stdout == ""
    assert "unrecognized arguments: --max-cycle 3" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_certify_plan_segment_optimal_despite_antagonism(files, capsys):
    # a -> q and q -> b cross the edge p-q in opposite directions, yet the
    # plan is the unique optimum (cost 121 against 200 for a -> b, q -> q):
    # on a segment plan the endpoint coupling decides, not antagonism.
    from treeot import cli as treeot_cli

    tree = files(
        "t.json",
        {
            "vertices": ["p", "a", "b", "q"],
            "edges": [
                {"id": "ea", "ends": ["p", "a"], "length": "10"},
                {"id": "eb", "ends": ["p", "b"], "length": "10"},
                {"id": "eq", "ends": ["p", "q"], "length": "1"},
            ],
            "basepoint": {"vertex": "p"},
        },
    )
    atoms = lambda *vs: {"atoms": [{"point": {"vertex": v}, "mass": "0.5"} for v in vs]}
    mu, nu = files("mu.json", atoms("a", "q")), files("nu.json", atoms("q", "b"))
    assert treeot_cli.run(["interpolate", "--tree", tree, "--mu", mu, "--nu", nu]) == 0
    dyn = files("dyn.json", json.loads(capsys.readouterr().out))
    assert treeot_cli.run(["certify-plan", "--tree", tree, "--plan", dyn]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["antagonist_pairs"] == [[0, 1, "eq"]]
    assert doc["optimal"] is True


def test_cli_plan_feeds_interpolate_past_12_decimals(files, capsys):
    # w2 prints the offset 0.1234567890123456 at 12 decimals; interpolate
    # snaps the printed point back onto the input's atom
    from treeot import cli as treeot_cli

    tree = files("t.json", TRIPOD_JSON)
    mu = files("mu.json", {"atoms": [
        {"point": {"edge": "ea", "offset": "0.1234567890123456"}, "mass": "0.5"},
        {"point": {"vertex": "b"}, "mass": "0.5"},
    ]})
    nu = files("nu.json", {"atoms": [
        {"point": {"vertex": "c"}, "mass": "0.5"},
        {"point": {"edge": "eb", "offset": "0.25"}, "mass": "0.5"},
    ]})
    assert treeot_cli.run(["w2", "--tree", tree, "--mu", mu, "--nu", nu]) == 0
    plan = files("plan.json", json.loads(capsys.readouterr().out)["plan"])
    assert treeot_cli.run(["interpolate", "--tree", tree, "--mu", mu, "--nu", nu]) == 0
    solved = capsys.readouterr().out
    argv = ["interpolate", "--tree", tree, "--mu", mu, "--nu", nu, "--plan", plan]
    assert treeot_cli.run(argv) == 0
    assert capsys.readouterr().out == solved


def test_cli_round_trip_at_scale(tmp_path):
    # w2 -> interpolate --plan -> certify-plan on 100 atoms per side, every
    # file read back through the CLI's own readers (inputs at 12 decimals).
    from treeot import cli as treeot_cli

    rng = np.random.default_rng(67)
    tree = helpers.random_tree(rng, 300, 3)
    mu = helpers.random_measure(rng, tree, 100)
    nu = helpers.random_measure(rng, tree, 100)
    path = {name: str(tmp_path / f"{name}.json") for name in
            ("tree", "mu", "nu", "w2", "plan", "dyn", "cert", "dyn_cert")}
    for name, doc in (("tree", io.tree_to_json(tree)), ("mu", io.measure_to_json(mu)),
                      ("nu", io.measure_to_json(nu))):
        Path(path[name]).write_text(json.dumps(doc))

    def run(*argv, out):
        assert treeot_cli.run([*argv, "--tree", path["tree"], "--out", path[out]]) == 0
        return json.loads(Path(path[out]).read_text())

    w2 = run("w2", "--mu", path["mu"], "--nu", path["nu"], out="w2")
    Path(path["plan"]).write_text(json.dumps(w2["plan"]))
    assert len(w2["plan"]) >= 100
    run("interpolate", "--mu", path["mu"], "--nu", path["nu"], "--plan", path["plan"],
        out="dyn")
    cert = run("certify-plan", "--plan", path["plan"], "--full", out="cert")
    assert cert["cyclically_monotone"] is True
    assert cert["max_cycle"] == len(w2["plan"])
    assert run("certify-plan", "--plan", path["dyn"], out="dyn_cert")["optimal"] is True


def test_cli_determinism(files):
    tree = files("t.json", TRIPOD_JSON)
    mu = files("mu.json", {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]})
    nu = files(
        "nu.json",
        {
            "atoms": [
                {"point": {"vertex": "b"}, "mass": "0.5"},
                {"point": {"vertex": "c"}, "mass": "0.5"},
            ]
        },
    )
    first = cli("w2", "--tree", tree, "--mu", mu, "--nu", nu)
    second = cli("w2", "--tree", tree, "--mu", mu, "--nu", nu)
    assert first.stdout == second.stdout


def test_cli_exit_codes(files, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    out = cli("validate", "--tree", str(bad))
    assert out.returncode == 2

    tree = files("t.json", STAR3_JSON)
    same = files("same.json", {"atoms": [{"end": "r1", "mass": "1"}]})
    out = cli("flows", "--tree", tree, "--minus", same, "--plus", same)
    assert out.returncode == 1
    err = json.loads(out.stderr)
    assert err["error"] == "NotAntipodal"

    triangle = files(
        "tri.json",
        {
            "vertices": ["a", "b", "c"],
            "edges": [
                {"id": "e1", "ends": ["a", "b"], "length": "1"},
                {"id": "e2", "ends": ["b", "c"], "length": "1"},
                {"id": "e3", "ends": ["c", "a"], "length": "1"},
            ],
            "basepoint": {"vertex": "a"},
        },
    )
    out = cli("validate", "--tree", triangle)
    assert out.returncode == 1
    assert json.loads(out.stderr)["error"] == "MalformedTree"


def test_cli_solver_failure_is_typed(files, monkeypatch, capsys):
    # A solver returning infeasible duals must fail the certificate and end
    # as a JSON domain error (exit 1), not a traceback.
    from treeot import cli as treeot_cli
    from treeot import transport

    real = transport.transportation_simplex

    def bad_duals(*args):
        sol = real(*args)
        return sol._replace(u=[ui + 1.0 for ui in sol.u])

    monkeypatch.setattr(transport, "transportation_simplex", bad_duals)
    tree = files("t.json", TRIPOD_JSON)
    mu = files("mu.json", {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]})
    nu = files("nu.json", {"atoms": [{"point": {"vertex": "b"}, "mass": "1"}]})
    assert treeot_cli.run(["w2", "--tree", tree, "--mu", mu, "--nu", nu]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert "Traceback" not in out.err
    assert json.loads(out.err) == {
        "error": "SolverFailure",
        "message": "dual feasibility violated: plan not optimal",
    }


# -- malformed inputs end as typed errors ----------------------------------------------

AT_A = {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]}
AT_B = {"atoms": [{"point": {"vertex": "b"}, "mass": "1"}]}
ON_R1 = {"atoms": [{"end": "r1", "mass": "1"}]}
RAY_AT_5 = {"interval": {"kind": "ray", "t0": "0", "t1": "inf"}, "atoms": [{"geodesic": 5, "mass": "1"}]}
SEGMENT_AT_5 = {"interval": {"kind": "segment", "t0": "0", "t1": "1"}, "atoms": [{"geodesic": 5, "mass": "1"}]}

# name: (subcommand, tree, options); a str option is passed inline, any
# other value is written to a file whose path is passed.
WRONG_SHAPES = {
    "tree is a list": ("validate", [1, 2], {}),
    "vertex name is a list": ("validate", {**TRIPOD_JSON, "vertices": [["o"], "a", "b", "c"]}, {}),
    "edge id is a number": (
        "validate", {**TRIPOD_JSON, "edges": [{"id": 5, "ends": ["o", "a"], "length": "1"}]}, {},
    ),
    "atoms is a string": ("w2", TRIPOD_JSON, {"--mu": {"atoms": "x"}, "--nu": AT_B}),
    "point is a string": ("w2", TRIPOD_JSON, {"--mu": {"atoms": [{"point": "a", "mass": "1"}]}, "--nu": AT_B}),
    "inline point is a list": ("distance", TRIPOD_JSON, {"--p": "[1]", "--q": '{"vertex":"a"}'}),
    "function values is a list": ("radon", BARBELL_JSON, {"--function": {"values": [1, 2]}}),
    "radon data is a list of numbers": ("radon-invert", BARBELL_JSON, {"--data": [1, 2], "--total": "0"}),
    "plan is a list of numbers": ("certify-plan", TRIPOD_JSON, {"--plan": [1, 2]}),
    "dynamical geodesic is a number": ("certify-plan", TRIPOD_JSON, {"--plan": SEGMENT_AT_5}),
    "ray geodesic is a number": ("asymptotic", STAR3_JSON, {"--mu": RAY_AT_5, "--sigma": RAY_AT_5}),
    "boundary end is a list": (
        "flows", STAR3_JSON, {"--minus": {"atoms": [{"end": ["r1"], "mass": "1"}]}, "--plus": ON_R1},
    ),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_cli_wrong_json_shape_is_a_parse_error(files, case):
    command, tree, options = WRONG_SHAPES[case]
    argv = [command, "--tree", files("t.json", tree)]
    for k, (flag, value) in enumerate(options.items()):
        argv += [flag, value if isinstance(value, str) else files(f"in{k}.json", value)]
    out = cli(*argv)
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("input error: ")
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize(
    "mu", [{"atoms": [{"point": {"vertex": "a"}, "mass": "nan"}, {"point": {"vertex": "b"}, "mass": "1"}]},
           {"atoms": [{"point": {"vertex": "a"}, "mass": "nan"}]}],
)
def test_cli_nan_mass_is_a_domain_error(files, mu):
    tree = files("t.json", TRIPOD_JSON)
    out = cli("w2", "--tree", tree, "--mu", files("mu.json", mu), "--nu", files("nu.json", AT_B))
    assert out.returncode == 1
    assert out.stdout == ""
    assert json.loads(out.stderr)["error"] == "MarginalMismatch"


def test_cli_nan_offset_is_a_domain_error(files):
    tree = files("t.json", TRIPOD_JSON)
    out = cli("distance", "--tree", tree, "--p", '{"edge":"ea","offset":"nan"}', "--q", '{"vertex":"a"}')
    assert out.returncode == 1
    assert out.stdout == ""
    assert json.loads(out.stderr)["error"] == "MalformedTree"


@pytest.mark.parametrize("exponent", ["inf", "1e308", "nan"])
def test_cli_comb_non_finite_exponent_is_a_usage_error(exponent):
    out = cli("comb", "--depth", "10", "--exponent", exponent)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("input error: ")


def _domain_error(out) -> dict:
    """The CLI exited 1 with a JSON error object and nothing else."""
    assert out.returncode == 1, out.stderr
    assert out.stdout == ""
    assert "Traceback" not in out.stderr
    return json.loads(out.stderr)


def _cone(*atoms):
    return {"atoms": [{"end": e, "speed": s, "mass": m} for e, s, m in atoms]}


def test_cli_w_infinity_nan_speed_is_a_domain_error(files):
    tree = files("t.json", STAR3_JSON)
    nu1 = files("nu1.json", _cone(("r1", "nan", "0.5"), ("r2", "1", "0.5")))
    nu2 = files("nu2.json", _cone(("r1", "1", "1")))
    assert _domain_error(cli("w-infinity", "--tree", tree, "--nu1", nu1, "--nu2", nu2))["error"] == "MarginalMismatch"


def test_cli_radon_nan_value_is_a_domain_error(files):
    tree = files("t.json", BARBELL_JSON)
    h = files("h.json", {"values": {"u": "2", "v": "nan"}})
    assert _domain_error(cli("radon", "--tree", tree, "--function", h))["error"] == "NonFiniteValue"


def test_cli_infinite_cost_is_a_solver_failure(files):
    # 1e308 + 1e308 is an infinite cone distance, whose square is inf: the
    # solver rejects the cost rather than return a plan for it.
    tree = files("t.json", STAR3_JSON)
    nu1 = files("nu1.json", _cone(("r1", "1e308", "1")))
    nu2 = files("nu2.json", _cone(("r2", "1e308", "1")))
    err = _domain_error(cli("w-infinity", "--tree", tree, "--nu1", nu1, "--nu2", nu2))
    assert err == {"error": "SolverFailure", "message": "non-finite cost"}


def test_cli_w2_overflowing_square_is_a_domain_error(files):
    long_leg = {**TRIPOD_JSON, "edges": [{"id": "ea", "ends": ["o", "a"], "length": "1e308"}] + TRIPOD_JSON["edges"][1:]}
    tree = files("t.json", long_leg)
    mu, nu = files("mu.json", AT_A), files("nu.json", AT_B)
    assert _domain_error(cli("w2", "--tree", tree, "--mu", mu, "--nu", nu))["error"] == "NonFiniteValue"


def test_cli_w_infinity_overflowing_square_is_a_domain_error(files):
    tree = files("t.json", STAR3_JSON)
    nu1 = files("nu1.json", _cone(("r1", "1e308", "1")))
    nu2 = files("nu2.json", _cone(("r1", "1", "1")))
    assert _domain_error(cli("w-infinity", "--tree", tree, "--nu1", nu1, "--nu2", nu2))["error"] == "NonFiniteValue"


def test_cli_overflowing_distance_is_a_domain_error(files):
    # Two finite edges of 1e308: the distance from a to c overflows.
    path = {
        "vertices": ["a", "b", "c"],
        "edges": [
            {"id": "e1", "ends": ["a", "b"], "length": "1e308"},
            {"id": "e2", "ends": ["b", "c"], "length": "1e308"},
        ],
        "basepoint": {"vertex": "a"},
    }
    tree = files("t.json", path)
    out = cli("distance", "--tree", tree, "--p", '{"vertex":"a"}', "--q", '{"vertex":"c"}')
    assert _domain_error(out)["error"] == "NonFiniteValue"
    out = cli("distance", "--tree", tree, "--p", '{"vertex":"a"}', "--q", '{"vertex":"b"}')
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["distance"] != "inf"


def test_cli_negative_infinite_length_is_a_domain_error(files):
    doc = {
        "vertices": ["a", "b"],
        "edges": [
            {"id": "e", "ends": ["a", "b"], "length": "1"},
            {"id": "r", "ends": ["b"], "length": "-inf"},
        ],
        "basepoint": {"vertex": "a"},
    }
    tree = files("t.json", doc)
    for out in (
        cli("validate", "--tree", tree),
        cli("distance", "--tree", tree, "--p", '{"vertex":"a"}', "--q", '{"edge":"r","offset":"5"}'),
    ):
        assert _domain_error(out) == {
            "error": "MalformedTree", "message": "edge 'r' has nonpositive length",
        }


# W2_LOG is no longer read: at every level stderr stays empty.
@pytest.mark.parametrize(
    "level, logged",
    [(None, ""), ("quiet", ""), ("bogus", ""), ("info", ""), ("debug", "")],
)
def test_w2_log_writes_only_the_command_line_to_stderr(files, level, logged):
    tree = files("t.json", TRIPOD_JSON)
    env = {k: v for k, v in os.environ.items() if k != "W2_LOG"}
    if level is not None:
        env["W2_LOG"] = level
    out = subprocess.run(
        [sys.executable, "-m", "treeot.cli", "validate", "--tree", tree],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert out.stderr == logged
    assert json.loads(out.stdout)["ok"] is True


def test_import_loads_no_logging():
    # The CLI logs nothing, so neither import loads logging.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "W2_LOG"}
    out = subprocess.run(
        [sys.executable, "-c", "import treeot, treeot.cli, sys; assert 'logging' not in sys.modules"],
        env={**env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_import_loads_no_numpy():
    # numpy is loaded by the cyclical-monotonicity search only; this process
    # has numpy already, so the import is checked in a fresh interpreter.
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", "import treeot, treeot.cli, sys; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_connected_plan_is_certified_without_numpy(files, capsys):
    # With numpy unimportable in a fresh interpreter, certify-plan and
    # interpolate --plan still run on a solved plan whose support is
    # connected, and print what they print here.
    from treeot import cli as treeot_cli

    rng = np.random.default_rng(97)
    tree = helpers.random_tree(rng, 20, 2)
    mu, nu = helpers.random_measure(rng, tree, 6), helpers.random_measure(rng, tree, 6)
    t = files("t.json", io.tree_to_json(tree))
    m, n = files("mu.json", io.measure_to_json(mu)), files("nu.json", io.measure_to_json(nu))
    assert treeot_cli.run(["w2", "--tree", t, "--mu", m, "--nu", n]) == 0
    doc = json.loads(capsys.readouterr().out)["plan"]
    assert helpers.support_components(io.plan_from_json(tree, doc)) == 1
    plan = files("plan.json", doc)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys; sys.modules['numpy'] = None; from treeot import cli; sys.exit(cli.run(sys.argv[1:]))"
    outputs = []
    for argv in (
        ["certify-plan", "--tree", t, "--plan", plan],
        ["interpolate", "--tree", t, "--mu", m, "--nu", n, "--plan", plan],
    ):
        assert treeot_cli.run(argv) == 0
        want = capsys.readouterr().out
        outputs.append(json.loads(want))
        out = subprocess.run(
            [sys.executable, "-c", code, *argv],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0, out.stderr
        assert out.stdout == want
    assert outputs[0]["cyclically_monotone"] is True
    assert outputs[1]["atoms"]
