import json

import pytest

from rigidpack.cli import main, canonical_dumps, load_graph, parse_setfunc
from rigidpack.graph import MultiGraph
from rigidpack.orientation import Orientation
from rigidpack.setfuncs import lmn
from rigidpack.sparsity import is_sparse


def write_graph(tmp_path, name, n, edges):
    path = tmp_path / f"{name}.json"
    path.write_text(canonical_dumps({"name": name, "n": n,
                                     "edges": [list(e) for e in edges]}))
    return str(path)


@pytest.fixture
def k4(tmp_path):
    return write_graph(tmp_path, "k4", 4,
                       [(u, v) for u in range(4) for v in range(u + 1, 4)])


@pytest.fixture
def c4(tmp_path):
    return write_graph(tmp_path, "c4", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.fixture
def k9(tmp_path):
    return write_graph(tmp_path, "k9", 9,
                       [(u, v) for u in range(9) for v in range(u + 1, 9)])


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rigid_true_exit_zero(capsys, k4):
    code, out = run(capsys, "--format", "structured",
                    "rigid", "--graph", k4, "--func", "lmn:2,3")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True
    assert len(report["certificates"]["edges"]) == 5


def test_sparse_false_exit_one(capsys, k4):
    code, out = run(capsys, "--format", "structured",
                    "sparse", "--graph", k4, "--func", "lmn:2,3")
    assert code == 1
    report = json.loads(out)
    assert report["certificates"]["violation"] == [0, 1, 2, 3]


def test_pack_deficient_reports_structure(capsys, c4):
    code, out = run(capsys, "--format", "structured",
                    "pack", "--graph", c4, "--funcs", "lmn:1,1", "lmn:1,1")
    assert code == 1
    report = json.loads(out)
    assert "structure" in report["certificates"]


def test_pack_hypothesis_failure_exit_two(capsys, c4):
    code, _ = run(capsys, "pack", "--graph", c4,
                  "--l", "lmn:1,1", "--ell", "lmn:2,3")
    assert code == 2


def test_decompose_error_exit_two(capsys, c4):
    code, _ = run(capsys, "decompose", "--graph", c4,
                  "--func", "lmn:1,1", "--parts", "2")
    assert code == 2


def test_parse_error_position(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 3, "edges": [[0, 1]')
    code = main(["sparse", "--graph", str(bad), "--func", "lmn:1,1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err and "column" in err


def test_gen_is_deterministic(capsys):
    _, first = run(capsys, "gen", "--family", "random-regular",
                   "--n", "10", "--r", "4", "--seed", "7")
    _, second = run(capsys, "gen", "--family", "random-regular",
                    "--n", "10", "--r", "4", "--seed", "7")
    assert first == second
    record = json.loads(first)
    g = MultiGraph(record["n"], [tuple(e) for e in record["edges"]])
    assert all(d == 4 for d in g.degrees)


def test_gen_rejects_impossible_params(capsys):
    code = main(["gen", "--family", "random-regular", "--n", "5", "--r", "3"])
    assert code == 2


def test_canonical_round_trip(tmp_path, capsys):
    _, out = run(capsys, "gen", "--family", "complete", "--n", "4")
    path = tmp_path / "k4.json"
    path.write_text(out)
    graph, meta = load_graph(str(path))
    assert canonical_dumps({"name": meta["name"], "n": graph.n,
                            "edges": [[u, v] for u, v in graph.edges]}) == out


TREE_RIGID = ["--k-int", "2", "--p", "1", "--m", "1"]


def test_verify_reproduces_reports(tmp_path, capsys, k4, c4, k9):
    cases = [
        ("rigid", ["rigid", "--graph", k4, "--func", "lmn:2,3"]),
        ("rigid-forbid", ["rigid", "--graph", k9, "--func", "lmn:2,3",
                          "--forbid", "0", "1", "2"]),
        ("tree-rigid", ["pack", "--graph", k9, "--preset", "tree-rigid",
                        *TREE_RIGID]),
        ("tree-rigid-ec", ["pack", "--graph", k9, "--preset", "tree-rigid-ec",
                           *TREE_RIGID]),
        ("sparse", ["sparse", "--graph", k4, "--func", "lmn:2,3"]),
        ("pack", ["pack", "--graph", k4, "--funcs", "lmn:1,1", "lmn:1,1"]),
        ("pack-halved", ["pack", "--graph", k9, "--l", "lmn:1,1",
                         "--ell", "lmn:2,3", "--mode", "halved"]),
        ("orient", ["orient", "--graph", c4, "--mode", "eulerian"]),
        ("orient-rigid", ["orient", "--graph", c4, "--mode", "rigid",
                          "--func", "mod:lmn:1,1:V=0"]),
    ]
    for name, argv in cases:
        code, out = run(capsys, "--format", "structured", *argv)
        path = tmp_path / f"{name}.json"
        path.write_text(out)
        vcode, vout = run(capsys, "verify", "--report", str(path))
        assert vcode == 0, f"{name}: {vout}"
        assert "REPRODUCED" in vout


def test_verify_detects_tampering(tmp_path, capsys, k4):
    code, out = run(capsys, "--format", "structured",
                    "rigid", "--graph", k4, "--func", "lmn:2,3")
    report = json.loads(out)
    report["certificates"]["edges"] = [0, 1, 2, 3]  # too small for the claim
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 1 and "MISMATCH" in vout


def _swap_in_forbidden_edge(report):
    # forbidden edge 0 replaces a basis edge and the set stays sparse
    edges = report["certificates"]["edges"]
    graph = MultiGraph(9, [tuple(e) for e in report["graph"]["edges"]])
    for e in edges:
        swapped = sorted(set(edges) - {e} | {0})
        if is_sparse(graph.subgraph(swapped), lmn(9, 2, 3)).ok:
            report["certificates"]["edges"] = swapped
            return
    raise AssertionError("no sparse swap with forbidden edge 0")


def _repeat_an_edge(report):
    # a repeated id makes up the count of a basis one edge short
    edges = report["certificates"]["edges"]
    report["certificates"]["edges"] = edges[:-1] + edges[-2:-1]


def _tree_as_rigid_part(report):
    certs = report["certificates"]
    certs["rigid_parts"] = [certs["trees"][0]]
    certs["degree_bounds"] = [1] * 9


def _all_edges_as_union(report):
    report["certificates"]["union"] = list(range(36))


def _loosened_bounds(report):
    certs = report["certificates"]
    certs["degree_bounds"] = [b + 1 for b in certs["degree_bounds"]]


@pytest.mark.parametrize("argv, tamper", [
    (["rigid", "--func", "lmn:2,3", "--forbid", "0", "1", "2"],
     _swap_in_forbidden_edge),
    (["rigid", "--func", "lmn:2,3"], _repeat_an_edge),
    (["pack", "--preset", "tree-rigid", *TREE_RIGID], _tree_as_rigid_part),
    (["pack", "--preset", "tree-rigid", *TREE_RIGID], _all_edges_as_union),
    (["pack", "--preset", "tree-rigid-ec", *TREE_RIGID], _loosened_bounds),
])
def test_verify_rejects_tampered_certificates(tmp_path, capsys, k9, argv, tamper):
    code, out = run(capsys, "--format", "structured", argv[0], "--graph", k9,
                    *argv[1:])
    assert code == 0
    report = json.loads(out)
    tamper(report)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 1 and "MISMATCH" in vout


def _claim_full_verdict(report):
    report["verdict"] = True


def _pad_deficient_part(report):
    # the second tree holds one edge of three; repeating it fills the count
    part = report["certificates"]["packing"]["parts"][1]
    part["edges"] = part["edges"] * 3
    part["full"] = True


def _lower_deficient_target(report):
    part = report["certificates"]["packing"]["parts"][1]
    part["target"] = len(part["edges"])
    part["full"] = True


@pytest.mark.parametrize("tamper", [
    _claim_full_verdict, _pad_deficient_part, _lower_deficient_target,
])
def test_verify_rejects_tampered_pack_reports(tmp_path, capsys, c4, tamper):
    code, out = run(capsys, "--format", "structured",
                    "pack", "--graph", c4, "--funcs", "lmn:1,1", "lmn:1,1")
    assert code == 1
    report = json.loads(out)
    assert report["certificates"]["packing"]["parts"][1]["edges"] == [3]
    tamper(report)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 1 and "MISMATCH" in vout


def _complete(tmp_path, n):
    return write_graph(tmp_path, f"k{n}", n,
                       [(u, v) for u in range(n) for v in range(u + 1, n)])


@pytest.mark.parametrize("n, force", [(13, []), (21, ["--force"])])
def test_robust_report_without_subset_tables(tmp_path, capsys, monkeypatch,
                                             n, force):
    # the robust construction and its re-check run on flows alone
    tables = []
    build = Orientation.indeg_table

    def counted(self):
        tables.append(self.host.n)
        return build(self)

    monkeypatch.setattr(Orientation, "indeg_table", counted)
    code, out = run(capsys, "--format", "structured", *force, "orient",
                    "--graph", _complete(tmp_path, n), "--mode", "robust",
                    "--k", "1")
    assert code == 0, out
    path = tmp_path / "robust.json"
    path.write_text(out)
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 0 and "REPRODUCED" in vout
    assert tables == []


def test_hypothesis_subcommand(capsys, k4):
    code, out = run(capsys, "--format", "structured",
                    "hypothesis", "--graph", k4, "--check", "rigid-cuts",
                    "--k-int", "2")
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] is True


def test_oracle_subcommand(capsys, k4):
    code, out = run(capsys, "--format", "structured",
                    "oracle", "--graph", k4, "--what", "rank",
                    "--func", "lmn:2,3")
    assert code == 0
    assert json.loads(out)["certificates"]["rank"] == 5


def test_oracle_arc_connected(tmp_path, capsys):
    tri = write_graph(tmp_path, "tri", 3, [(0, 1), (1, 2), (2, 0)])
    code, out = run(capsys, "--format", "structured",
                    "oracle", "--graph", tri, "--what", "arc-connected",
                    "--heads", "1,2,0", "--func", "mod:const:1:V=0")
    assert code == 0 and json.loads(out)["verdict"] is True
    code, out = run(capsys, "--format", "structured",
                    "oracle", "--graph", tri, "--what", "arc-connected",
                    "--heads", "1,2,2", "--func", "mod:const:1:V=0")
    assert code == 1
    assert json.loads(out)["certificates"]["witness"] is not None


def test_oracle_census_count(capsys):
    code, out = run(capsys, "--format", "structured",
                    "oracle", "--what", "census", "--census-n", "4",
                    "--census-filter", "connected")
    assert code == 0
    assert json.loads(out)["certificates"]["count"] == 38


def test_setfunc_tokens(tmp_path):
    f = parse_setfunc("mod:lmn:2,3:V=0", 4)
    assert f.value(0b1111) == 0 and f.value(0b0111) == 3
    w = parse_setfunc("w:1,0,2,1", 4)
    assert w.value(0b0100) == 2
    table = tmp_path / "t.json"
    table.write_text(json.dumps(
        {"n": 2, "values": {"0": 1, "1": 1, "0,1": 1}}))
    t = parse_setfunc(f"table:@{table}", 2)
    assert t.value(0b11) == 1
    with pytest.raises(ValueError, match="unknown"):
        parse_setfunc("zzz:1", 3)


def test_vertex_named_graphs(tmp_path):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({
        "name": "named", "n": 3,
        "vertex_names": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"]]}))
    graph, meta = load_graph(str(path))
    assert graph.edges == ((0, 1), (1, 2))
    assert meta["vertex_names"] == ["a", "b", "c"]
