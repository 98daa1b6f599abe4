"""JSON round trips for every artifact and end-to-end CLI runs."""

import json
import math
import subprocess
import sys

import pytest

import treeot as T
from treeot import serialization as io

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
