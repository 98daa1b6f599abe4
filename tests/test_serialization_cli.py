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


def test_cli_radon_invert_output_is_not_a_function_file(files, tmp_path):
    # radon-invert prints the bare values; radon --function reads them under
    # "values", and its input error names the missing key and its shape.
    tree = files("t.json", BARBELL_JSON)
    out = cli("radon-invert", "--tree", tree, "--data", files("r.json", RADON_DATA), "--total", "7")
    assert out.returncode == 0, out.stderr
    fn = tmp_path / "h.json"
    fn.write_text(out.stdout)
    again = cli("radon", "--tree", tree, "--function", str(fn))
    assert again.returncode == 2
    assert again.stdout == ""
    assert again.stderr == (
        "input error: missing key 'values': expected a JSON object under it, "
        'got {"u": "2", "v": "5"}\n'
    )


def test_cli_radon_output_inverts_near_1e9(files, capsys):
    # radon-invert reads back what radon prints for 6-decimal values near
    # 1e9, in process through cli.run
    from treeot import cli as treeot_cli

    rng = np.random.default_rng(0)
    tree = helpers.random_cubic_tree(rng, 12)
    values = {v: f"{rng.uniform(1e9, 3e9):.6f}" for v in tree.vertices}
    t = files("t.json", io.tree_to_json(tree))
    fn = files("h.json", {"values": values})
    assert treeot_cli.run(["radon", "--tree", t, "--function", fn]) == 0
    doc = json.loads(capsys.readouterr().out)
    data = files("r.json", doc["data"])
    assert treeot_cli.run(["radon-invert", "--tree", t, "--data", data, "--total", doc["total"]]) == 0
    back = json.loads(capsys.readouterr().out)
    assert back.keys() == values.keys()
    assert all(abs(float(back[v]) - float(x)) <= 1e-12 * 3e9 for v, x in values.items())


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


# Edges of 1e3-1e4: the anchor of r0 -> r1 is the vertex v1 itself, not a
# point a few ulps into e7.
LONG_EDGES_JSON = {
    "vertices": [f"v{i}" for i in range(8)],
    "edges": [
        {"id": "e1", "ends": ["v0", "v1"], "length": "9311.363"},
        {"id": "e2", "ends": ["v1", "v2"], "length": "9191.002"},
        {"id": "e3", "ends": ["v2", "v3"], "length": "3805.931"},
        {"id": "e4", "ends": ["v0", "v4"], "length": "1191.311"},
        {"id": "e5", "ends": ["v0", "v5"], "length": "5339.639"},
        {"id": "e6", "ends": ["v5", "v6"], "length": "3799.256"},
        {"id": "e7", "ends": ["v1", "v7"], "length": "9993.219"},
        {"id": "r0", "ends": ["v1"], "length": "inf"},
        {"id": "r1", "ends": ["v7"], "length": "inf"},
        {"id": "r2", "ends": ["v5"], "length": "inf"},
        {"id": "r3", "ends": ["v0"], "length": "inf"},
    ],
    "basepoint": {"vertex": "v0"},
}


def test_cli_build_geodesic_anchor_is_a_vertex_at_long_edges(files):
    tree = files("t.json", LONG_EDGES_JSON)
    minus = files("m.json", {"atoms": [{"end": "r0", "mass": "1"}]})
    plus = files("p.json", {"atoms": [{"end": "r1", "mass": "1"}]})
    out = cli("build-geodesic", "--tree", tree, "--minus", minus, "--plus", plus)
    assert out.returncode == 0, out.stderr
    [atom] = json.loads(out.stdout)["atoms"]
    assert atom["geodesic"]["anchor"] == {"vertex": "v1"}


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


def test_cli_comb_emitted_tree_reads_back():
    # The emitted masses carry 12 decimals and each rounding is weighted by
    # a squared base distance, so the depth stays small (at depth 64 the
    # read-back value is 1.7e-9 off).
    out = cli("comb", "--depth", "8", "--exponent", "3", "--emit-tree")
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout)
    tree = io.tree_from_json(doc["tree"])
    minus = io.boundary_measure_from_json(tree, doc["nu_minus"])
    plus = io.boundary_measure_from_json(tree, doc["nu_plus"])
    res = T.realizability_sum(tree, T.flow_table(tree, minus, plus))
    assert res.verdict == "FINITE"
    assert abs(res.value - float(doc["value"])) <= 1e-9


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


def test_cli_certify_plan_overtaking_rays_not_optimal(files, capsys):
    # the ray from o at speed 2 overtakes the one from r1@10 at speed 1 at
    # t = 10, with no antagonist pair: the (0, 20) coupling is not optimal
    from treeot import cli as treeot_cli

    ray = lambda start, speed: {
        "geodesic": {"kind": "ray", "start": start, "end": "r1", "speed": speed}, "mass": "0.5",
    }
    plan = files("rays.json", {
        "interval": {"kind": "ray", "t0": "0", "t1": "inf"},
        "atoms": [ray({"edge": "r1", "offset": "10"}, "1"), ray({"vertex": "o"}, "2")],
    })
    tree = files("t.json", STAR3_JSON)
    assert treeot_cli.run(["certify-plan", "--tree", tree, "--plan", plan]) == 0
    assert capsys.readouterr().out == '{"antagonist_pairs":[],"kind":"dynamical","optimal":false}\n'


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


def _ray_plan(*atoms):
    return {"interval": {"kind": "ray", "t0": "0", "t1": "inf"},
            "atoms": [{"geodesic": {"kind": "ray", "start": start, "end": end, "speed": speed}, "mass": mass}
                      for start, end, speed, mass in atoms]}


# `flows` on the two _ended trees below, up to the base-point vertex o's entry.
_ENDED_FLOWS = (
    '{"edges":[{"edge":"ea","flow":"-0.100000000000","orientation":["o","a"],"sign":"negative"},'
    '{"edge":"eb","flow":"0.450000000000","orientation":["o","b"],"sign":"positive"},'
    '{"edge":"ec","flow":"0.700000000000","orientation":["c","o"],"sign":"positive"},'
    '{"edge":"ed","flow":"0.200000000000","orientation":["a","d"],"sign":"positive"},'
    '{"edge":"ra","flow":"-0.300000000000","orientation":["a","inf"],"sign":"negative"},'
    '{"edge":"rb","flow":"0.450000000000","orientation":["b","inf"],"sign":"positive"},'
    '{"edge":"rc","flow":"-0.700000000000","orientation":["c","inf"],"sign":"negative"},'
    '{"edge":"rd","flow":"0.200000000000","orientation":["d","inf"],"sign":"positive"},'
    '{"edge":"ro","flow":"0.350000000000","orientation":["o","inf"],"sign":"positive"}],'
    '"vertices":[{"flow":"0.300000000000","specific_flow":"0.200000000000","vertex":"a"},'
    '{"flow":"0.450000000000","specific_flow":"0.000000000000","vertex":"b"},'
    '{"flow":"0.700000000000","specific_flow":"0.000000000000","vertex":"c"},'
    '{"flow":"0.200000000000","specific_flow":"0.000000000000","vertex":"d"},'
)

# stdout of each run, recorded once; equal bytes on every supported Python.
PINNED_GEODESIC_OUTPUTS = {
    "interpolate": (
        '{"atoms":['
        '{"geodesic":{"kind":"segment","start":{"edge":"r1","offset":"1.500000000000"},'
        '"stop":{"edge":"euv","offset":"0.375000000000"},"t0":"0.000000000000","t1":"1.000000000000"},'
        '"mass":"0.500000000000"},'
        '{"geodesic":{"kind":"segment","start":{"vertex":"v"},'
        '"stop":{"edge":"r3","offset":"0.250000000000"},"t0":"0.000000000000","t1":"1.000000000000"},'
        '"mass":"0.500000000000"}],'
        '"interval":{"kind":"segment","t0":"0.000000000000","t1":"1.000000000000"}}\n'
    ),
    "build-geodesic": (
        '{"atoms":['
        '{"geodesic":{"anchor":{"vertex":"u"},"anchor_time":"0.000000000000",'
        '"kind":"complete","neg_end":"r1","pos_end":"r3","speed":"1.000000000000"},'
        '"mass":"0.250000000000"},'
        '{"geodesic":{"anchor":{"vertex":"u"},"anchor_time":"0.000000000000",'
        '"kind":"complete","neg_end":"r2","pos_end":"r3","speed":"1.000000000000"},'
        '"mass":"0.250000000000"},'
        '{"geodesic":{"anchor":{"vertex":"u"},"anchor_time":"0.000000000000",'
        '"kind":"complete","neg_end":"r2","pos_end":"r4","speed":"1.000000000000"},'
        '"mass":"0.500000000000"}],'
        '"interval":{"kind":"complete","t0":"-inf","t1":"inf"}}\n'
    ),
    "asymptotic": (
        't,ratio,target,abs_error\n'
        '1,2.850438562748,1.561249499600,1.289189063148\n'
        '10,1.642216489991,1.561249499600,0.080966990392\n'
        '100,1.568548293805,1.561249499600,0.007298794206\n'
        '1000,1.561971010454,1.561249499600,0.000721510855\n'
        '10000,1.561321566614,1.561249499600,0.000072067015\n'
        '1000000,1.561250220177,1.561249499600,0.000000720578\n'
        'inf,1.561249499600,1.561249499600,0.000000000000\n'
    ),
    "certify-plan": (
        '{"antagonist_pairs":[[0,1,"r1"]],"kind":"dynamical","optimal":false}\n'
    ),
    # a base point inside a finite edge, and one on an infinite edge
    "validate edge-basepoint": (
        '{"acyclic":true,"connected":true,"infinite_edges":["ra","rb","rc","rd","ro"],'
        '"leaves":[],"ok":true,"valency2":["b","c","d"]}\n'
    ),
    "distance edge-basepoint": '{"distance":"1.800000000000"}\n',
    "flows edge-basepoint": (
        _ENDED_FLOWS + '{"flow":"0.800000000000","specific_flow":"0.100000000000","vertex":"o"}]}\n'
    ),
    "realizability edge-basepoint": '{"value":"2.404750000000","verdict":"FINITE"}\n',
    "flows ray-basepoint": (
        _ENDED_FLOWS + '{"flow":"0.800000000000","specific_flow":"0.350000000000","vertex":"o"}]}\n'
    ),
    "realizability ray-basepoint": '{"value":"7.282000000000","verdict":"FINITE"}\n',
}


def _ended(basepoint):
    """Five vertices with an end at each; ec is stored deeper end last."""
    return {
        "vertices": ["o", "a", "b", "c", "d"],
        "edges": [
            {"id": "ea", "ends": ["o", "a"], "length": "1.1"},
            {"id": "ed", "ends": ["a", "d"], "length": "0.4"},
            {"id": "eb", "ends": ["o", "b"], "length": "2.5"},
            {"id": "ec", "ends": ["c", "o"], "length": "3.3"},
            *({"id": f"r{v}", "ends": [v], "length": "inf"} for v in "abcdo"),
        ],
        "basepoint": basepoint,
    }


def test_cli_geodesic_outputs_are_pinned_bytes(files):
    barbell, star3 = files("barbell.json", BARBELL_JSON), files("star3.json", STAR3_JSON)
    mu = files("mu.json", {"atoms": [{"point": {"edge": "r1", "offset": "1.5"}, "mass": "0.5"},
                                     {"point": {"vertex": "v"}, "mass": "0.5"}]})
    nu = files("nu.json", {"atoms": [{"point": {"edge": "r3", "offset": "0.25"}, "mass": "0.5"},
                                     {"point": {"edge": "euv", "offset": "0.375"}, "mass": "0.5"}]})
    minus = files("minus.json", {"atoms": [{"end": "r1", "mass": "0.25"}, {"end": "r2", "mass": "0.75"}]})
    plus = files("plus.json", PLUS)
    # the two rays run through r1 in opposite directions
    rays = files("rays.json", _ray_plan(({"edge": "r1", "offset": "2"}, "r2", "1.5", "0.5"),
                                        ({"vertex": "o"}, "r1", "1", "0.5")))
    sigma = files("sigma.json", _ray_plan(({"edge": "r2", "offset": "0.5"}, "r2", "2", "0.75"),
                                          ({"edge": "r3", "offset": "1"}, "r1", "0.5", "0.25")))
    on_edge = files("on_edge.json", _ended({"edge": "ec", "offset": "1.25"}))
    on_ray = files("on_ray.json", _ended({"edge": "rb", "offset": "0.7"}))
    ends = ("--minus", files("ends_minus.json", {"atoms": [{"end": "ra", "mass": "0.3"}, {"end": "rc", "mass": "0.7"}]}),
            "--plus", files("ends_plus.json", {"atoms": [{"end": "rb", "mass": "0.45"}, {"end": "rd", "mass": "0.2"},
                                                         {"end": "ro", "mass": "0.35"}]}))
    runs = {
        "interpolate": ("--tree", barbell, "--mu", mu, "--nu", nu),
        "build-geodesic": ("--tree", barbell, "--minus", minus, "--plus", plus),
        "asymptotic": ("--tree", star3, "--mu", rays, "--sigma", sigma),
        "certify-plan": ("--tree", star3, "--plan", rays),
        "validate edge-basepoint": ("--tree", on_edge),
        "distance edge-basepoint": ("--tree", on_edge, "--p", '{"edge":"ea","offset":"0.5"}',
                                    "--q", '{"edge":"ec","offset":"2"}'),
        "flows edge-basepoint": ("--tree", on_edge, *ends),
        "realizability edge-basepoint": ("--tree", on_edge, *ends),
        "flows ray-basepoint": ("--tree", on_ray, *ends),
        "realizability ray-basepoint": ("--tree", on_ray, *ends),
    }
    for name, args in runs.items():
        out = cli(name.split()[0], *args)
        assert (out.returncode, out.stderr) == (0, ""), name
        assert out.stdout == PINNED_GEODESIC_OUTPUTS[name], name


def _measure_runs(files):
    """Runs of the subcommands the geodesic pins leave out, and runs whose
    inputs give one key several masses (merged left to right)."""
    barbell, star3 = files("barbell.json", BARBELL_JSON), files("star3.json", STAR3_JSON)
    tripod = files("tripod.json", TRIPOD_JSON)
    point = lambda p, m: {"point": p, "mass": m}
    cone = lambda e, s, m: {"end": e, "speed": s, "mass": m}
    a, eb = {"vertex": "a"}, {"edge": "eb", "offset": "0.5"}
    ends = ("--plus", files("ends_plus.json", {"atoms": [{"end": "rb", "mass": "0.45"}, {"end": "rd", "mass": "0.2"},
                                                         {"end": "ro", "mass": "0.35"}]}))
    return {
        "w2": ("--tree", tripod,
               "--mu", files("w2_mu.json", {"atoms": [point(a, "0.4"), point(eb, "0.6")]}),
               "--nu", files("w2_nu.json", {"atoms": [point({"vertex": "c"}, "0.5"),
                                                      point({"edge": "ea", "offset": "0.25"}, "0.5")]})),
        "w2 repeated-point": ("--tree", tripod,
                              "--mu", files("w2_mu2.json", {"atoms": [point(a, "0.1"), point(eb, "0.6"),
                                                                      point(a, "0.3")]}),
                              "--nu", files("w2_nu2.json", {"atoms": [point({"vertex": "c"}, "0.5"),
                                                                      point({"vertex": "c"}, "0.25"),
                                                                      point({"edge": "ea", "offset": "0.25"}, "0.25")]})),
        "w-infinity": ("--tree", star3,
                       "--nu1", files("c1.json", {"atoms": [cone("r1", "1", "0.5"), cone("r2", "2", "0.5")]}),
                       "--nu2", files("c2.json", {"atoms": [cone("r3", "1.5", "0.75"), cone("apex", "0", "0.25")]})),
        "w-infinity repeated-key": ("--tree", star3,
                                    "--nu1", files("c3.json", {"atoms": [cone("r1", "1", "0.3"), cone("r2", "2", "0.5"),
                                                                         cone("r1", "1", "0.2")]}),
                                    "--nu2", files("c4.json", {"atoms": [cone("r1", "1.5", "0.75"),
                                                                         cone("apex", "0", "0.25")]})),
        "flows repeated-end": ("--tree", files("on_edge.json", _ended({"edge": "ec", "offset": "1.25"})),
                               "--minus", files("minus3.json", {"atoms": [{"end": "ra", "mass": "0.1"},
                                                                          {"end": "rc", "mass": "0.7"},
                                                                          {"end": "ra", "mass": "0.2"}]}),
                               *ends),
        "build-geodesic repeated-end": ("--tree", barbell,
                                        "--minus", files("minus2.json", {"atoms": [{"end": "r1", "mass": "0.125"},
                                                                                   {"end": "r2", "mass": "0.75"},
                                                                                   {"end": "r1", "mass": "0.125"}]}),
                                        "--plus", files("plus.json", PLUS)),
        "radon": ("--tree", barbell, "--function", files("h.json", {"values": {"u": "2", "v": "5"}})),
        "radon-invert": ("--tree", barbell, "--total", "7", "--data", files("r.json", [
            {"vertex": "u", "edges": ["r1", "r2"], "value": "7"},
            {"vertex": "u", "edges": ["euv", "r1"], "value": "2"},
            {"vertex": "u", "edges": ["euv", "r2"], "value": "2"},
            {"vertex": "v", "edges": ["r3", "r4"], "value": "7"},
            {"vertex": "v", "edges": ["euv", "r3"], "value": "5"},
            {"vertex": "v", "edges": ["euv", "r4"], "value": "5"},
        ])),
        "comb": ("--depth", "64", "--exponent", "3"),
    }


# stdout of each run, recorded once; equal bytes on every supported Python.
# Split atoms print as the unsplit ones they sum to.
PINNED_MEASURE_OUTPUTS = {
    "w2": (
        '{"distance":"1.185854122563","plan":['
        '{"mass":"0.400000000000","source":{"vertex":"a"},"target":{"edge":"ea","offset":"0.250000000000"}},'
        '{"mass":"0.500000000000","source":{"edge":"eb","offset":"0.500000000000"},"target":{"vertex":"c"}},'
        '{"mass":"0.100000000000","source":{"edge":"eb","offset":"0.500000000000"},'
        '"target":{"edge":"ea","offset":"0.250000000000"}}]}\n'
    ),
    "w2 repeated-point": (
        '{"distance":"1.445899374092","plan":['
        '{"mass":"0.150000000000","source":{"vertex":"a"},"target":{"vertex":"c"}},'
        '{"mass":"0.250000000000","source":{"vertex":"a"},"target":{"edge":"ea","offset":"0.250000000000"}},'
        '{"mass":"0.600000000000","source":{"edge":"eb","offset":"0.500000000000"},"target":{"vertex":"c"}}]}\n'
    ),
    "w-infinity": (
        '{"distance":"2.680951323691","plan":['
        '{"from":{"end":"r1","speed":"1.000000000000"},"mass":"0.500000000000",'
        '"to":{"end":"r3","speed":"1.500000000000"}},'
        '{"from":{"end":"r2","speed":"2.000000000000"},"mass":"0.250000000000",'
        '"to":{"end":"r3","speed":"1.500000000000"}},'
        '{"from":{"end":"r2","speed":"2.000000000000"},"mass":"0.250000000000",'
        '"to":{"end":"apex","speed":"0.000000000000"}}]}\n'
    ),
    "w-infinity repeated-key": (
        '{"distance":"2.046338192968","plan":['
        '{"from":{"end":"r1","speed":"1.000000000000"},"mass":"0.500000000000",'
        '"to":{"end":"r1","speed":"1.500000000000"}},'
        '{"from":{"end":"r2","speed":"2.000000000000"},"mass":"0.250000000000",'
        '"to":{"end":"r1","speed":"1.500000000000"}},'
        '{"from":{"end":"r2","speed":"2.000000000000"},"mass":"0.250000000000",'
        '"to":{"end":"apex","speed":"0.000000000000"}}]}\n'
    ),
    "flows repeated-end": PINNED_GEODESIC_OUTPUTS["flows edge-basepoint"],
    "build-geodesic repeated-end": PINNED_GEODESIC_OUTPUTS["build-geodesic"],
    "radon": (
        '{"data":[{"edges":["euv","r1"],"value":"2","vertex":"u"},{"edges":["euv","r2"],"value":"2","vertex":"u"},'
        '{"edges":["r1","r2"],"value":"7","vertex":"u"},{"edges":["euv","r3"],"value":"5","vertex":"v"},'
        '{"edges":["euv","r4"],"value":"5","vertex":"v"},{"edges":["r3","r4"],"value":"7","vertex":"v"}],'
        '"total":"7"}\n'
    ),
    "radon-invert": '{"u":"2","v":"5"}\n',
    "comb": (
        '{"depth":64,"depths":[1,2,4,8,16,32,64,128,256,512,1024,2048,4096],"mass_exponent":"3.000000000000",'
        '"partial_sums":["0.000000000000","0.000000000000","0.142857142857","0.363665739043","0.635352331074",'
        '"0.935304855482","1.249934624530","1.571992516523","1.897775393960","2.225420708354","2.553996542451",'
        '"2.883037292066","3.212310371146"],"value":"1.249934624530","verdict":"DIVERGES"}\n'
    ),
}


def test_cli_measure_outputs_are_pinned_bytes(files):
    for name, args in _measure_runs(files).items():
        out = cli(name.split()[0], *args)
        assert (out.returncode, out.stderr) == (0, ""), name
        assert out.stdout == PINNED_MEASURE_OUTPUTS[name], name


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


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_cli_unwritable_out_is_an_input_error(files, tmp_path, where):
    # An --out that cannot be opened ends like an unreadable input: exit 2
    # and one "input error" line, not a traceback.
    out_path = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
    out = cli("validate", "--tree", files("t.json", TRIPOD_JSON), "--out", str(out_path))
    assert out.returncode == 2
    assert out.stderr.startswith("input error: ")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_cli_solver_failure_is_typed(files, monkeypatch, capsys):
    # A solver returning infeasible duals must fail the certificate and end
    # as a JSON domain error (exit 1), not a traceback.
    from treeot import cli as treeot_cli
    from treeot import transport

    real = transport.transportation_simplex

    def bad_duals(*args, **kwargs):
        sol = real(*args, **kwargs)
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


@pytest.mark.parametrize("where", ["tree file", "inline point"])
def test_cli_deeply_nested_json_is_an_input_error(files, tmp_path, where):
    # Nesting past the decoder's recursion limit ends like any malformed
    # document: exit 2 and one "input error" line, not a traceback.  50,000
    # levels pass the C recursion limit of newer Pythons too, and as one
    # inline argument stay below the kernel's 128 KiB per argument.
    nested = "[" * 50000 + "]" * 50000
    if where == "tree file":
        path = tmp_path / "deep.json"
        path.write_text(nested)
        out = cli("validate", "--tree", str(path))
    else:
        tree = files("t.json", TRIPOD_JSON)
        out = cli("distance", "--tree", tree, "--p", nested, "--q", '{"vertex":"a"}')
    assert out.returncode == 2, out.stderr
    assert out.stderr.startswith("input error: ") and out.stderr.count("\n") == 1
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


_NO_LENGTH = {**TRIPOD_JSON, "edges": [{"id": "ea", "ends": ["o", "a"]}] + TRIPOD_JSON["edges"][1:]}
_RAY_NO_SPEED = {"kind": "ray", "start": {"vertex": "o"}, "end": "r1"}
_RAY = {**_RAY_NO_SPEED, "speed": "1"}
_RAY_PLAN = {"interval": {"kind": "ray", "t0": "0", "t1": "inf"}, "atoms": [{"geodesic": _RAY, "mass": "1"}]}

# name: (subcommand, tree, options, the message after "input error: "), as
# in WRONG_SHAPES; every required number is read by one helper that names
# the missing key.
MISSING_KEYS = {
    "edge length": ("validate", _NO_LENGTH, {},
                    'missing key \'length\': expected a number under it, got {"id": "ea", "ends": ["o", "a"]}'),
    "atom mass": ("w2", TRIPOD_JSON, {"--mu": {"atoms": [{"point": {"vertex": "a"}}]}, "--nu": AT_B},
                  'missing key \'mass\': expected a number under it, got {"point": {"vertex": "a"}}'),
    "atom point": ("w2", TRIPOD_JSON, {"--mu": {"atoms": [{"mass": "1"}]}, "--nu": AT_B},
                   'missing key \'point\': expected a JSON object under it, got {"mass": "1"}'),
    "inline point offset": ("distance", TRIPOD_JSON, {"--p": '{"edge": "ea"}', "--q": '{"vertex": "a"}'},
                            'missing key \'offset\': expected a number under it, got {"edge": "ea"}'),
    "plan entry target": (
        "certify-plan", TRIPOD_JSON, {"--plan": [{"source": {"vertex": "a"}, "mass": "1"}]},
        'missing key \'target\': expected a JSON object under it, got {"source": {"vertex": "a"}, "mass": "1"}',
    ),
    "plan entry mass": (
        "certify-plan", TRIPOD_JSON, {"--plan": [{"source": {"vertex": "a"}, "target": {"vertex": "b"}}]},
        'missing key \'mass\': expected a number under it, got {"source": {"vertex": "a"}, "target": {"',
    ),
    "ray speed": (
        "asymptotic", STAR3_JSON,
        {"--mu": {**_RAY_PLAN, "atoms": [{"geodesic": _RAY_NO_SPEED, "mass": "1"}]}, "--sigma": _RAY_PLAN},
        'missing key \'speed\': expected a number under it, got {"kind": "ray", "start": {"vertex": "o"}',
    ),
    "interval t1": ("asymptotic", STAR3_JSON, {"--mu": {**_RAY_PLAN, "interval": {"kind": "ray", "t0": "0"}},
                                                "--sigma": _RAY_PLAN},
                    'missing key \'t1\': expected a number under it, got {"kind": "ray", "t0": "0"}'),
    "plan atom geodesic": ("asymptotic", STAR3_JSON, {"--mu": {**_RAY_PLAN, "atoms": [{"mass": "1"}]},
                                                      "--sigma": _RAY_PLAN},
                           'missing key \'geodesic\': expected a JSON object under it, got {"mass": "1"}'),
    "boundary mass": ("flows", STAR3_JSON, {"--minus": {"atoms": [{"end": "r1"}]}, "--plus": ON_R1},
                      'missing key \'mass\': expected a number under it, got {"end": "r1"}'),
    "cone speed": ("w-infinity", STAR3_JSON, {"--nu1": {"atoms": [{"end": "r1", "mass": "1"}]},
                                              "--nu2": {"atoms": [{"end": "r2", "speed": "1", "mass": "1"}]}},
                   'missing key \'speed\': expected a number under it, got {"end": "r1", "mass": "1"}'),
    "radon value": ("radon-invert", BARBELL_JSON, {"--data": [{"vertex": "u", "edges": ["r1", "r2"]}],
                                                   "--total": "0"},
                    'missing key \'value\': expected a number under it, got {"vertex": "u", "edges": ["r1", "r2"]}'),
}


@pytest.mark.parametrize("case", sorted(MISSING_KEYS))
def test_cli_missing_key_is_named(files, case):
    command, tree, options, message = MISSING_KEYS[case]
    argv = [command, "--tree", files("t.json", tree)]
    for k, (flag, value) in enumerate(options.items()):
        argv += [flag, value if isinstance(value, str) else files(f"in{k}.json", value)]
    out = cli(*argv)
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr == f"input error: {message}\n"


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


def test_cli_w_infinity_negative_speed_is_a_domain_error(files):
    tree = files("t.json", STAR3_JSON)
    nu1 = files("nu1.json", _cone(("r1", "-1", "1")))
    nu2 = files("nu2.json", _cone(("r2", "0", "1")))
    assert _domain_error(cli("w-infinity", "--tree", tree, "--nu1", nu1, "--nu2", nu2))["error"] == "OutOfInterval"


def test_cli_w_infinity_moving_atom_without_an_end_is_a_domain_error(files):
    tree = files("t.json", STAR3_JSON)
    nu1 = files("nu1.json", {"atoms": [{"speed": "1", "mass": "1"}]})
    nu2 = files("nu2.json", _cone(("r1", "1", "1")))
    assert _domain_error(cli("w-infinity", "--tree", tree, "--nu1", nu1, "--nu2", nu2)) == {
        "error": "MarginalMismatch", "message": "moving cone atom needs an end",
    }


def test_cli_radon_nan_value_is_a_domain_error(files):
    tree = files("t.json", BARBELL_JSON)
    h = files("h.json", {"values": {"u": "2", "v": "nan"}})
    assert _domain_error(cli("radon", "--tree", tree, "--function", h))["error"] == "NonFiniteValue"


def test_cli_radon_invert_overflow_is_a_domain_error(files):
    # At u: (3 * 1.7e308) / 2 + 1.7e308 / 2 = 3.4e308, beyond the float range.
    tree = files("t.json", BARBELL_JSON)
    data = files("r.json", [{**row, "value": "1.7e308"} for row in RADON_DATA])
    err = _domain_error(cli("radon-invert", "--tree", tree, "--data", data, "--total=-1.7e308"))
    assert err["error"] == "NonFiniteValue"
    assert "'u'" in err["message"]


def test_cli_radon_invert_repeated_flag_is_an_input_error(files):
    # The first row gives u's flag on r1, r2 a wrong value, with its edges
    # listed in reverse order; the second gives the right one.
    tree = files("t.json", BARBELL_JSON)
    data = files("r.json", [{"vertex": "u", "edges": ["r2", "r1"], "value": "99"}] + RADON_DATA)
    out = cli("radon-invert", "--tree", tree, "--data", data, "--total", "7")
    assert out.returncode == 2, out.stderr
    assert out.stdout == ""
    assert out.stderr.startswith("input error: ")
    assert "'u'" in out.stderr and "['r1', 'r2']" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_infinite_cone_distance_is_a_domain_error(files):
    # 1e308 + 1e308 is an infinite cone distance.  w_infinity solves on the
    # star of the ends, where the atoms sit at their speeds along their
    # rays, so the star's distance overflows, as any tree's would.
    tree = files("t.json", STAR3_JSON)
    nu1 = files("nu1.json", _cone(("r1", "1e308", "1")))
    nu2 = files("nu2.json", _cone(("r2", "1e308", "1")))
    err = _domain_error(cli("w-infinity", "--tree", tree, "--nu1", nu1, "--nu2", nu2))
    assert err == {
        "error": "NonFiniteValue",
        "message": "distance from TreePoint('r1'@1e+308) to TreePoint('r2'@1e+308) overflows the float range",
    }


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


@pytest.mark.parametrize("grid", ["0", "1,0", "nan", "inf"])
def test_cli_asymptotic_grid_time_not_finite_and_positive_is_a_domain_error(files, grid):
    plan = files("plan.json", RAY_PLAN)
    out = cli("asymptotic", "--tree", files("t.json", STAR3_JSON), "--mu", plan, "--sigma", plan, "--grid", grid)
    assert _domain_error(out)["error"] == "OutOfInterval"


def _one_atom_plan(geodesic, kind):
    return {"interval": {"kind": kind, "t0": "-inf" if kind == "complete" else "0", "t1": "inf"},
            "atoms": [{"geodesic": geodesic, "mass": "1"}]}


@pytest.mark.parametrize("speed, error", [("nan", "NonFiniteValue"), ("inf", "NonFiniteValue"),
                                          ("-1", "OutOfInterval")])
def test_cli_ray_speed_not_finite_or_negative_is_a_domain_error(files, speed, error):
    tree = files("t.json", STAR3_JSON)
    bad = files("bad.json", _one_atom_plan({**RAY, "end": "r1", "speed": speed}, "ray"))
    assert _domain_error(cli("certify-plan", "--tree", tree, "--plan", bad))["error"] == error
    good = files("good.json", RAY_PLAN)
    assert _domain_error(cli("asymptotic", "--tree", tree, "--mu", bad, "--sigma", good))["error"] == error


@pytest.mark.parametrize("field", ["speed", "anchor_time"])
def test_cli_complete_geodesic_nan_speed_or_anchor_time_is_a_domain_error(files, field):
    geodesic = {"kind": "complete", "neg_end": "r1", "pos_end": "r2", "speed": "1",
                "anchor": {"vertex": "o"}, "anchor_time": "0", field: "nan"}
    tree = files("t.json", STAR3_JSON)
    plan = files("plan.json", _one_atom_plan(geodesic, "complete"))
    assert _domain_error(cli("certify-plan", "--tree", tree, "--plan", plan))["error"] == "NonFiniteValue"


@pytest.mark.parametrize("length", ["1__0", "_1", "1_", "sNaN", "0x10"])
def test_cli_number_outside_float_syntax_is_a_domain_error(files, length):
    doc = {**TRIPOD_JSON, "edges": [{"id": "ea", "ends": ["o", "a"], "length": length}]}
    doc["vertices"] = ["o", "a"]
    err = _domain_error(cli("validate", "--tree", files("t.json", doc)))
    assert err == {"error": "MalformedTree", "message": f"not a decimal string: {length!r}"}


def test_parse_number_reads_what_float_reads():
    for text, value in [("1_000", 1000.0), (" 2.5 ", 2.5), ("Infinity", math.inf), ("-INF", -math.inf),
                        ("1e400", math.inf), ("0.1", 0.1), ("1e-400", 0.0)]:
        assert io.parse_number(text) == value
    assert math.isnan(io.parse_number("nan"))


def test_parse_number_rejects_booleans_and_integers_beyond_floats():
    for v in (True, False):
        with pytest.raises(T.MalformedTree, match=f"^expected a number, got {v}$"):
            io.parse_number(v)
    for v in (10**400, -(10**400)):
        with pytest.raises(T.MalformedTree, match="^integer of 1329 bits exceeds the float range$"):
            io.parse_number(v)


def _two_vertices(length):
    return {"vertices": ["a", "b"], "edges": [{"id": "e", "ends": ["a", "b"], "length": length}],
            "basepoint": {"vertex": "a"}}


def test_cli_boolean_number_is_a_domain_error(files):
    tree = files("t.json", _two_vertices(True))
    for out in (
        cli("validate", "--tree", tree),
        cli("distance", "--tree", tree, "--p", '{"vertex":"a"}', "--q", '{"vertex":"b"}'),
    ):
        assert _domain_error(out) == {"error": "MalformedTree", "message": "expected a number, got True"}
    mu = files("mu.json", {"atoms": [{"point": {"vertex": "a"}, "mass": True}]})
    out = cli("w2", "--tree", files("tripod.json", TRIPOD_JSON), "--mu", mu, "--nu", files("nu.json", AT_B))
    assert _domain_error(out) == {"error": "MalformedTree", "message": "expected a number, got True"}


@pytest.mark.parametrize("sign", [1, -1])
def test_cli_integer_beyond_float_range_is_a_domain_error(files, sign):
    out = cli("validate", "--tree", files("t.json", _two_vertices(sign * 10**400)))
    assert _domain_error(out) == {
        "error": "MalformedTree", "message": "integer of 1329 bits exceeds the float range",
    }


# o with legs to a (1) and b (2), and an end at each leg.
OAB_JSON = {
    "vertices": ["o", "a", "b"],
    "edges": [
        {"id": "ea", "ends": ["o", "a"], "length": "1"},
        {"id": "eb", "ends": ["o", "b"], "length": "2"},
        {"id": "r1", "ends": ["a"], "length": "inf"},
        {"id": "r2", "ends": ["b"], "length": "inf"},
    ],
    "basepoint": {"vertex": "o"},
}


def _entry(source, target, mass):
    return {"source": {"vertex": source}, "target": {"vertex": target}, "mass": mass}


@pytest.mark.parametrize("mass, shown", [("0", "0.0"), ("-0.5", "-0.5"), ("nan", "nan"), ("inf", "inf")])
def test_cli_plan_mass_not_finite_and_above_zero_is_a_domain_error(files, mass, shown):
    # No certificate can judge such an entry: a cycle through massless
    # entries would be a witness that moves nothing.
    tree = files("t.json", OAB_JSON)
    plan = files("plan.json", {"entries": [_entry("a", "a", "1"), _entry("b", "o", mass), _entry("o", "b", mass)]})
    for out in (
        cli("certify-plan", "--tree", tree, "--plan", plan),
        cli("interpolate", "--tree", tree, "--mu", files("mu.json", AT_A), "--nu", files("nu.json", AT_A),
            "--plan", plan),
    ):
        assert _domain_error(out) == {
            "error": "MarginalMismatch",
            "message": f"plan entry 1 has mass {shown}, expected a finite mass above 0",
        }


def _segment_plan(interval, t1="1"):
    segment = {"kind": "segment", "start": {"vertex": "a"}, "stop": {"vertex": "b"}, "t0": "0", "t1": t1}
    return {"interval": interval, "atoms": [{"geodesic": segment, "mass": "1"}]}


def test_cli_segment_to_infinity_is_a_domain_error(files):
    # A segment on [0, inf) would have speed 0 and read as a constant "ray".
    tree = files("t.json", OAB_JSON)
    want = {"error": "OutOfInterval", "message": "need finite t0 < t1, got [0.0, inf]"}
    plan = files("seg.json", _segment_plan({"kind": "segment", "t0": "0", "t1": "inf"}, t1="inf"))
    assert _domain_error(cli("certify-plan", "--tree", tree, "--plan", plan)) == want
    rays = files("rays.json", _segment_plan({"kind": "ray", "t0": "0", "t1": "inf"}, t1="inf"))
    assert _domain_error(cli("asymptotic", "--tree", tree, "--mu", rays, "--sigma", rays)) == want


@pytest.mark.parametrize("kind, t0, t1", [("complete", "inf", "inf"), ("segment", "-inf", "3"),
                                          ("segment", "nan", "nan"), ("segment", "5", "1")])
def test_cli_constant_atom_needs_a_segment_ray_or_line_interval(files, kind, t0, t1):
    constant = {"kind": "constant", "point": {"vertex": "a"}, "t0": t0, "t1": t1}
    plan = {"interval": {"kind": kind, "t0": t0, "t1": t1}, "atoms": [{"geodesic": constant, "mass": "1"}]}
    out = cli("certify-plan", "--tree", files("t.json", OAB_JSON), "--plan", files("plan.json", plan))
    assert _domain_error(out) == {
        "error": "OutOfInterval",
        "message": f"geodesic interval [{float(t0)}, {float(t1)}] is not a segment, ray or line",
    }


@pytest.mark.parametrize("interval, shown", [
    ({"kind": "complete", "t0": "-inf", "t1": "inf"}, "complete [-inf, inf]"),
    ({"kind": "ray", "t0": "0", "t1": "inf"}, "ray [0.0, inf]"),
    ({"kind": "segment", "t0": "0", "t1": "2"}, "segment [0.0, 2.0]"),
    ({"kind": "segment", "t0": "nan", "t1": "1"}, "segment [nan, 1.0]"),
])
def test_cli_dynamical_plan_interval_must_match_its_atoms(files, interval, shown):
    tree = files("t.json", OAB_JSON)
    out = cli("certify-plan", "--tree", tree, "--plan", files("plan.json", _segment_plan(interval)))
    assert _domain_error(out) == {
        "error": "MarginalMismatch",
        "message": f"declared interval {shown} is not the atoms' segment [0.0, 1.0]",
    }


def test_dynamical_plan_reader_checks_the_declared_interval():
    tree = io.tree_from_json(OAB_JSON)
    plan = io.dynamical_plan_from_json(tree, _segment_plan({"kind": "segment", "t0": "0", "t1": "1"}))
    assert (plan.kind, plan.t0, plan.t1) == ("segment", 0.0, 1.0)
    with pytest.raises(T.MarginalMismatch, match=r"^declared interval ray \[0\.0, 1\.0\] is not"):
        io.dynamical_plan_from_json(tree, _segment_plan({"kind": "ray", "t0": "0", "t1": "1"}))


# W2_LOG is no longer read: whatever it holds, stderr stays empty.
@pytest.mark.parametrize("level", [None, "quiet", "bogus", "info", "debug"])
def test_w2_log_leaves_stderr_empty(files, level):
    tree = files("t.json", TRIPOD_JSON)
    env = {k: v for k, v in os.environ.items() if k != "W2_LOG"}
    if level is not None:
        env["W2_LOG"] = level
    out = subprocess.run(
        [sys.executable, "-m", "treeot.cli", "validate", "--tree", tree],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 0
    assert out.stderr == ""
    assert json.loads(out.stdout)["ok"] is True


# `import treeot` loads submodules on first use, so the two import guards
# below load every library module explicitly before they look.
IMPORT_ALL = (
    "import treeot, treeot.cli, treeot.transport, treeot.dynamics, treeot.boundary,"
    " treeot.ends, treeot.radon, treeot.serialization, sys"
)


def test_import_loads_no_logging():
    # The CLI logs nothing, so no library module loads logging.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {k: v for k, v in os.environ.items() if k != "W2_LOG"}
    out = subprocess.run(
        [sys.executable, "-c", f"{IMPORT_ALL}; assert 'logging' not in sys.modules"],
        env={**env, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_import_loads_no_numpy():
    # No module imports numpy; this process has numpy already, so the import
    # is checked in a fresh interpreter.
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", f"{IMPORT_ALL}; assert 'numpy' not in sys.modules"],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr


def test_connected_plan_is_certified_without_numpy(files, capsys):
    # With numpy unimportable in a fresh interpreter, certify-plan and
    # interpolate --plan still run on a solved plan whose support is
    # connected, certify-plan on a ray plan from one point, and the cycle
    # search over several components: a ray plan from two start points, and
    # a diagonal plan with one component per entry.  Each prints what it
    # prints here.
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
    x = tree.edge_point(sorted(tree.edges)[0], 0.5)
    rays = T.DynamicalPlan.from_atoms(
        tree, [(tree.ray_to_end(x, end, speed), 0.5) for end, speed in zip(tree.ends(), (1.0, 2.0))]
    )
    ray_plan = files("rays.json", io.dynamical_plan_to_json(rays))
    diagonal = T.TransportPlan(tuple((x, y, q) for (x, q), (y, _) in zip(mu.atoms, nu.atoms)))
    assert helpers.support_components(diagonal) == len(diagonal.entries) == 6
    diagonal_plan = files("diagonal.json", io.plan_to_json(diagonal))
    star3, two_starts = files("star3.json", STAR3_JSON), files("two_starts.json", TWO_START_RAY_PLAN)
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = "import sys; sys.modules['numpy'] = None; from treeot import cli; sys.exit(cli.run(sys.argv[1:]))"
    outputs = []
    for argv in (
        ["certify-plan", "--tree", t, "--plan", plan],
        ["interpolate", "--tree", t, "--mu", m, "--nu", n, "--plan", plan],
        ["certify-plan", "--tree", t, "--plan", ray_plan],
        ["certify-plan", "--tree", star3, "--plan", two_starts],
        ["certify-plan", "--tree", t, "--plan", diagonal_plan],
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
    assert outputs[2]["optimal"] is True
    assert outputs[3]["optimal"] is True
    assert outputs[4]["cyclically_monotone"] is False


# -- import footprint ----------------------------------------------------------------

RAY = {"kind": "ray", "start": {"vertex": "o"}, "speed": "1"}
RAY_PLAN = {
    "interval": {"kind": "ray", "t0": "0", "t1": "inf"},
    "atoms": [{"geodesic": {**RAY, "end": "r1"}, "mass": "0.5"},
              {"geodesic": {**RAY, "end": "r2"}, "mass": "0.5"}],
}
# A ray plan from two start points: two support components, so its verdict
# runs the cycle search over the components.
TWO_START_RAY_PLAN = {
    "interval": {"kind": "ray", "t0": "0", "t1": "inf"},
    "atoms": [{"geodesic": {**RAY, "end": "r1"}, "mass": "0.5"},
              {"geodesic": {**RAY, "start": {"edge": "r2", "offset": "1"}, "end": "r2"}, "mass": "0.5"}],
}
SEGMENT_PLAN = {
    "interval": {"kind": "segment", "t0": "0", "t1": "1"},
    "atoms": [{"geodesic": {"kind": "segment", "start": {"vertex": "a"}, "stop": {"vertex": "b"},
                            "t0": "0", "t1": "1"}, "mass": "1"}],
}
AT_A = {"atoms": [{"point": {"vertex": "a"}, "mass": "1"}]}
AT_B = {"atoms": [{"point": {"vertex": "b"}, "mass": "1"}]}
CONE = {"atoms": [{"end": "r1", "speed": "1", "mass": "1"}]}
MINUS = {"atoms": [{"end": "r1", "mass": "0.5"}, {"end": "r2", "mass": "0.5"}]}
PLUS = {"atoms": [{"end": "r3", "mass": "0.5"}, {"end": "r4", "mass": "0.5"}]}
RADON_DATA = [
    {"vertex": "u", "edges": ["r1", "r2"], "value": "7"},
    {"vertex": "u", "edges": ["euv", "r1"], "value": "2"},
    {"vertex": "u", "edges": ["euv", "r2"], "value": "2"},
    {"vertex": "v", "edges": ["r3", "r4"], "value": "7"},
    {"vertex": "v", "edges": ["euv", "r3"], "value": "5"},
    {"vertex": "v", "edges": ["euv", "r4"], "value": "5"},
]

# Each subcommand's arguments (files as (name, document)) and the modules it
# loads beyond errors, metric_tree, serialization and cli.
FOOTPRINTS = {
    "validate": ([("--tree", TRIPOD_JSON)], set()),
    "distance": ([("--tree", TRIPOD_JSON), "--p", '{"vertex":"a"}', "--q", '{"vertex":"b"}'], set()),
    "w2": ([("--tree", TRIPOD_JSON), ("--mu", AT_A), ("--nu", AT_B)], {"transport"}),
    "interpolate": ([("--tree", TRIPOD_JSON), ("--mu", AT_A), ("--nu", AT_B)], {"transport", "dynamics"}),
    "certify-plan": (
        [("--tree", TRIPOD_JSON),
         ("--plan", {"entries": [{"source": {"vertex": "a"}, "target": {"vertex": "b"}, "mass": "1"}]})],
        {"transport"},
    ),
    "certify-plan dynamical": ([("--tree", TRIPOD_JSON), ("--plan", SEGMENT_PLAN)], {"transport", "dynamics"}),
    "certify-plan rays": ([("--tree", STAR3_JSON), ("--plan", TWO_START_RAY_PLAN)], {"transport", "dynamics"}),
    "asymptotic": ([("--tree", STAR3_JSON), ("--mu", RAY_PLAN), ("--sigma", RAY_PLAN)],
                   {"transport", "dynamics", "boundary"}),
    "w-infinity": ([("--tree", STAR3_JSON), ("--nu1", CONE), ("--nu2", CONE)],
                   {"transport", "dynamics", "boundary"}),
    "flows": ([("--tree", BARBELL_JSON), ("--minus", MINUS), ("--plus", PLUS)], {"transport", "ends"}),
    "realizability": ([("--tree", BARBELL_JSON), ("--minus", MINUS), ("--plus", PLUS)],
                      {"transport", "ends"}),
    "build-geodesic": ([("--tree", BARBELL_JSON), ("--minus", MINUS), ("--plus", PLUS)],
                       {"transport", "ends", "dynamics", "boundary"}),
    "radon": ([("--tree", BARBELL_JSON), ("--function", {"values": {"u": "2", "v": "5"}})],
              {"transport", "radon"}),
    "radon-invert": ([("--tree", BARBELL_JSON), ("--data", RADON_DATA), "--total", "7"],
                     {"transport", "radon"}),
    "comb": (["--depth", "8", "--exponent", "3"], {"transport", "ends"}),
}


# Runs treeot.cli as __main__, the way `python -m treeot.cli` does, and
# writes the treeot modules it loaded, and which of `numpy` and the standard
# `fractions`, `decimal`, `dataclasses` and `inspect` it loaded, to stderr as
# it exits.
RUN_AS_MAIN = """
import json, runpy, sys
try:
    runpy.run_module("treeot.cli", run_name="__main__", alter_sys=True)
finally:
    sys.stderr.write(json.dumps(
        [sorted(m for m in sys.modules if m.startswith("treeot.")),
         sorted(m for m in ("numpy", "fractions", "decimal", "dataclasses", "inspect") if m in sys.modules)]
    ))
"""


@pytest.mark.parametrize("case", sorted(FOOTPRINTS))
def test_cli_subcommand_loads_only_its_modules(files, case):
    spec, extra = FOOTPRINTS[case]
    argv = [case.split()[0]]
    for i, arg in enumerate(spec):
        argv += [arg[0], files(f"{i}.json", arg[1])] if isinstance(arg, tuple) else [arg]
    src = str(Path(__file__).resolve().parent.parent / "src")
    out = subprocess.run(
        [sys.executable, "-c", RUN_AS_MAIN, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr[-500:]
    assert out.stdout
    modules, standard = json.loads(out.stderr)
    # treeot.cli itself is __main__ here, so it is counted apart.
    loaded = {name.split(".", 1)[1] for name in modules} | {"cli"}
    assert loaded == {"errors", "metric_tree", "serialization", "cli"} | extra
    assert "numpy" not in standard
    # No subcommand needs fractions or decimal: the Radon inverse is exact
    # in integers, and numbers are read by float().  Records are NamedTuples;
    # only boundary and ends declare a dataclass, which loads inspect.
    assert set(standard) <= ({"dataclasses", "inspect"} if extra & {"boundary", "ends"} else set())
