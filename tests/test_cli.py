import contextlib
import io
import json
import random
import sys

import pytest

from rigidpack import packing
from rigidpack.cli import (
    FAMILIES, HYPOTHESES, KINDS, ORACLES, _kind, build_parser, main, canonical_dumps,
    graph_from_record, graph_record, load_graph, parse_setfunc,
)
from rigidpack.generators import (
    circulant, complete, complete_bipartite, doubled, random_simple,
)
from rigidpack.graph import MultiGraph
from rigidpack.setfuncs import lmn
from rigidpack.sparsity import is_sparse

from helpers import counting


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


@pytest.mark.parametrize("argv, name, want", [
    (["complete-bipartite", "--a", "2", "--b", "3"], "K2_3", complete_bipartite(2, 3)),
    (["circulant", "--n", "8", "--offsets", "1", "4"], "C8(1,4)", circulant(8, [1, 4])),
    (["random-simple", "--n", "7", "--m", "9", "--seed", "3"], "G7_9_s3",
     random_simple(7, 9, 3)),
])
def test_gen_families(capsys, argv, name, want):
    code, out = run(capsys, "gen", "--family", *argv)
    assert code == 0
    assert json.loads(out) == {"name": name, "n": want.n,
                               "edges": [list(e) for e in want.edges]}


def test_gen_doubled_writes_to_out(tmp_path, capsys, c4):
    out = tmp_path / "doubled.json"
    code, printed = run(capsys, "gen", "--family", "doubled", "--base", c4,
                        "--mult", "3", "--out", str(out))
    assert code == 0 and printed == ""
    graph, meta = load_graph(str(out))
    assert meta["name"] == "c4x3"
    assert graph.edges == doubled(MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]), 3).edges
    assert main(["gen", "--family", "doubled", "--base", c4, "--mult", "0"]) == 2


def test_canonical_round_trip(tmp_path, capsys):
    _, out = run(capsys, "gen", "--family", "complete", "--n", "4")
    path = tmp_path / "k4.json"
    path.write_text(out)
    graph, meta = load_graph(str(path))
    assert canonical_dumps({"name": meta["name"], "n": graph.n,
                            "edges": [[u, v] for u, v in graph.edges]}) == out


TREE_RIGID = ["--k-int", "2", "--p", "1", "--m", "1"]
BIPARTITE = ["--preset", "bipartite-degree", "--k", "1",
             "--side", "0", "1", "2", "3", "4", "5"]
PACK_RHO = ["--force", "--l", "lmn:1,1", "--ell", "lmn:2,3", "--mode", "rho",
            "--k", "3", "--rho", ",".join(["9"] * 10)]
PACKED = ["--mode", "packed", "--l", "lmn:1,1", "--ell", "lmn:2,3",
          "--r1", "0,0,0,0,0,0,0,0,1", "--r2", "0,0,0,0,0,0,1,1,1"]


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
    k6, k10, k66 = (write_graph(tmp_path, name, GRAPHS[name].n, GRAPHS[name].edges)
                    for name in ("k6", "k10", "k66"))
    cases += [
        ("decompose", ["decompose", "--graph", k6, "--func", "lmn:1,1",
                       "--parts", "2"]),
        ("bipartite-degree", ["pack", "--graph", k66, *BIPARTITE]),
        ("pack-rho", ["pack", "--graph", k10, *PACK_RHO]),
        ("orient-packed", ["orient", "--graph", k9, *PACKED]),
        ("orient-hakimi", ["orient", "--graph", k4, "--mode", "hakimi",
                           "--targets", "1,1,2,2"]),
        ("orient-smooth", ["orient", "--graph", k9, "--mode", "smooth"]),
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


def _two_k7_and_a_bridge():
    k7 = [(u, v) for u in range(7) for v in range(u + 1, 7)]
    return MultiGraph(14, k7 + [(u + 7, v + 7) for u, v in k7] + [(0, 7)])


@pytest.mark.parametrize("graph, argv", [
    # the partition certificate of earlier versions failed here: the one
    # block, all of V, carries two of the part's four edges
    (MultiGraph(3, [(2, 0), (2, 0), (2, 1), (1, 2)]), ["pack", "--funcs", "lmn:3,5"]),
    # one bridge leaves the second tree short; the degree eater is a third part
    (_two_k7_and_a_bridge(), ["--force", "pack", "--l", "lmn:1,1", "--ell", "lmn:1,1",
                              "--mode", "halved"]),
])
def test_deficient_packs_carry_a_rank_certificate(tmp_path, capsys, graph, argv):
    path = write_graph(tmp_path, "host", graph.n, graph.edges)
    code, out = run(capsys, "--format", "structured", *argv, "--graph", path)
    assert code == 1
    structure = json.loads(out)["certificates"]["structure"]
    assert structure["closure"]
    report = tmp_path / "report.json"
    report.write_text(out)
    vcode, vout = run(capsys, "verify", "--report", str(report))
    assert vcode == 0 and "REPRODUCED" in vout, vout


@pytest.mark.parametrize("k_argv", [["--k-int", "3"], []])
def test_bipartite_report_records_the_k_it_ran_with(tmp_path, capsys, k_argv):
    # the preset reads --k only, and runs with k = 1 without it
    g = complete_bipartite(6, 6)
    path = write_graph(tmp_path, "k66", g.n, g.edges)
    code, out = run(capsys, "--format", "structured", "pack",
                    "--graph", path, "--preset", "bipartite-degree", *k_argv,
                    "--side", "0", "1", "2", "3", "4", "5")
    assert code == 0
    assert json.loads(out)["params"]["k"] == "1"
    report = tmp_path / "report.json"
    report.write_text(out)
    vcode, vout = run(capsys, "verify", "--report", str(report))
    assert vcode == 0 and "REPRODUCED" in vout, vout


def test_bipartite_report_at_k_two(tmp_path, capsys):
    g = complete_bipartite(12, 12)
    path = write_graph(tmp_path, "k1212", g.n, g.edges)
    code, out = run(capsys, "--format", "structured", "pack", "--graph", path,
                    "--preset", "bipartite-degree", "--k", "2",
                    "--side", *map(str, range(12)))
    assert code == 0, out
    report = tmp_path / "report.json"
    report.write_text(out)
    vcode, vout = run(capsys, "verify", "--report", str(report))
    assert vcode == 0 and "REPRODUCED" in vout, vout


@pytest.mark.parametrize("preset", ["tree-rigid", "tree-rigid-ec"])
def test_tree_rigid_preset_without_k_int_is_a_usage_error(capsys, k9, preset):
    code = main(["pack", "--graph", k9, "--preset", preset])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: {preset} needs --k-int\n"


@pytest.mark.parametrize("graph, argv", [
    (complete_bipartite(1, 1), ["--preset", "bipartite-degree", "--k", "1",
                                "--side", "0"]),
    (MultiGraph(2, [(0, 1)] * 12), ["--preset", "tree-rigid", *TREE_RIGID]),
    (MultiGraph(2, [(0, 1)] * 12), ["--preset", "tree-rigid-ec", *TREE_RIGID]),
])
def test_presets_on_under_three_vertices_are_usage_errors(tmp_path, capsys, graph,
                                                          argv):
    # rejected before the hypothesis or the build, forced or not
    path = write_graph(tmp_path, "tiny", graph.n, graph.edges)
    for force in ([], ["--force"]):
        assert main([*force, "pack", "--graph", path, *argv]) == 2
        assert capsys.readouterr() == \
            ("", "error: rigid presets need a graph of at least 3 vertices\n")


@pytest.mark.parametrize("argv, flag", [
    (["oracle", "--what", "sparse", "--func", "lmn:2,3"], "--graph"),
    (["oracle", "--what", "sparse", "--graph", "K4"], "--func"),
    (["oracle", "--what", "weakly-connected", "--graph", "K4", "--func", "lmn:1,1"],
     "--ell-vec"),
    (["hypothesis", "--check", "rigid-necessary", "--graph", "K4"], "--ell"),
    (["hypothesis", "--check", "weakly-connected", "--graph", "K4"], "--l"),
    (["hypothesis", "--check", "pack-degree", "--graph", "K4", "--l", "lmn:1,1",
      "--ell", "lmn:2,3", "--rho", "0,0,0,0"], "--k"),
    (["hypothesis", "--check", "pack-degree", "--graph", "K4", "--l", "lmn:1,1",
      "--ell", "lmn:2,3", "--k", "1"], "--rho"),
    (["hypothesis", "--check", "rigid-cuts", "--graph", "K4"], "--k-int"),
    (["orient", "--mode", "hakimi", "--graph", "K4"], "--targets"),
    (["orient", "--mode", "rigid", "--graph", "K4"], "--func"),
    (["gen", "--family", "complete"], "--n"),
])
def test_missing_mode_flag_is_a_usage_error(capsys, k4, argv, flag):
    code = main([k4 if a == "K4" else a for a in argv])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.rstrip().endswith(f"needs {flag}")
    assert "Traceback" not in err


@pytest.mark.parametrize("graph, argv, message", [
    ("c4", ["rigid", "--func", "lmn:1,1", "--forbid", "-1"],
     "params.forbid holds an id outside 0..3"),
    ("c4", ["pack", "--funcs", "lmn:1,1", "--forbid", "99"],
     "params.forbid holds an id outside 0..3"),
    ("k33", ["pack", "--preset", "bipartite-degree", "--k", "1", "--side", "0", "1", "9"],
     "params.side holds an id outside 0..5"),
    ("k33", ["pack", "--preset", "bipartite-degree", "--k", "1", "--side", "0", "0"],
     "params.side repeats a vertex"),
])
def test_ids_the_graph_lacks_are_usage_errors(tmp_path, capsys, graph, argv, message):
    # a command checks the params it records by the rule verify applies
    g = GRAPHS[graph]
    path = write_graph(tmp_path, graph, g.n, g.edges)
    assert main([argv[0], "--graph", path, *argv[1:]]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_choices_are_the_keys_of_the_tables_that_run_them():
    actions = {(name, action.dest): action.choices
               for name, sub in build_parser()._subparsers._group_actions[0].choices.items()
               for action in sub._actions if action.choices}
    assert list(actions["hypothesis", "check"]) == list(HYPOTHESES)
    assert list(actions["oracle", "what"]) == [*ORACLES, "census"]
    assert list(actions["gen", "family"]) == [*FAMILIES, "doubled"]


@pytest.mark.parametrize("k", ["0", "-1"])
def test_bipartite_preset_rejects_a_non_positive_k(tmp_path, capsys, k):
    g = complete_bipartite(6, 6)
    path = write_graph(tmp_path, "k66", g.n, g.edges)
    code = main(["pack", "--graph", path, "--preset", "bipartite-degree",
                 "--k", k, "--side", "0", "1", "2", "3", "4", "5"])
    assert code == 2
    assert capsys.readouterr().err == f"error: k must be positive, got {k}\n"


def test_robust_orientation_runs_the_k_it_is_given(capsys, k4):
    code = main(["orient", "--graph", k4, "--mode", "robust", "--k", "0"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: robustness level must be at least 1\n"


def test_weak_connectivity_runs_the_k_int_it_is_given(capsys, c4):
    # on C4 a zero ell fails where ell = 1 passes
    runs = [run(capsys, "--format", "structured", "hypothesis", "--graph", c4,
                "--check", "weakly-connected", "--l", "lmn:1,1", *extra)
            for extra in (["--k-int", "0"], ["--ell-vec", "0,0,0,0"])]
    assert [code for code, _ in runs] == [1, 1]
    assert json.loads(runs[0][1])["certificates"] == json.loads(runs[1][1])["certificates"]


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


# one report per certified result type, made once per module, with the
# exit code its command returns; a tamper case edits one certificate field
# and names the claim verify must fail
REPORTS = {
    "sparse": ("k4", ["sparse", "--func", "lmn:2,3"], 1),
    "rigid": ("k4", ["rigid", "--func", "lmn:2,3"], 0),
    "pack-forbid": ("k9", ["pack", "--funcs", "lmn:1,1", "--forbid", "0"], 0),
    "pack-deficient": ("c4", ["pack", "--funcs", "lmn:1,1", "lmn:1,1"], 1),
    "pack-closure": ("double-path", ["pack", "--funcs", "lmn:3,5", "--forbid", "0"], 1),
    "pack-halved": ("k9", ["pack", "--l", "lmn:1,1", "--ell", "lmn:2,3",
                           "--mode", "halved"], 0),
    "pack-rho": ("k10", ["pack", *PACK_RHO], 0),
    "decompose": ("k6", ["decompose", "--func", "lmn:1,1", "--parts", "2"], 0),
    "tree-rigid": ("k9", ["pack", "--preset", "tree-rigid", *TREE_RIGID], 0),
    "tree-rigid-ec": ("k9", ["pack", "--preset", "tree-rigid-ec", *TREE_RIGID], 0),
    "bipartite-degree": ("k66", ["pack", *BIPARTITE], 0),
    # kappa(K3,3) = 3 is below 6k: the hypothesis fails, nothing is built
    "bipartite-hypothesis": ("k33", ["pack", "--preset", "bipartite-degree",
                                     "--k", "1", "--side", "0", "1", "2"], 2),
    "packed": ("k9", ["orient", *PACKED], 0),
    "robust": ("k13", ["orient", "--mode", "robust", "--k", "1"], 0),
    # forced: no hypothesis is checked or recorded, and at most 8 retries
    "robust-forced": ("k13", ["orient", "--force", "--mode", "robust", "--k", "1",
                              "--retries", "8"], 0),
    "hakimi": ("k4", ["orient", "--mode", "hakimi", "--targets", "1,1,2,2"], 0),
    "hakimi-infeasible": ("k4", ["orient", "--mode", "hakimi",
                                 "--targets", "0,0,0,6"], 1),
    "smooth": ("k9", ["orient", "--mode", "smooth"], 0),
    "eulerian": ("c4", ["orient", "--mode", "eulerian"], 0),
    # f(V) = 0 sets the target at 4 edges: K4 has 2 more, and no arcs are made
    "orient-rigid-failed": ("k4", ["orient", "--mode", "rigid",
                                   "--func", "mod:lmn:1,1:V=0"], 1),
    "components": ("bowtie-pendant", ["components", "--func", "lmn:2,3"], 0),
    "tree-rigid-hypothesis": ("two-k9", ["pack", "--preset", "tree-rigid",
                                         *TREE_RIGID], 2),
    "robust-hypothesis": ("two-k9", ["orient", "--mode", "robust", "--k", "1"], 2),
    "rigid-cuts": ("k5", ["hypothesis", "--check", "rigid-cuts", "--k-int", "2"], 0),
    # 3-edge-connected and essentially 3-edge-connected, but deleting the
    # shared vertex 3 disconnects it
    "rigid-cuts-vertex": ("two-k4", ["hypothesis", "--check", "rigid-cuts",
                                     "--k-int", "2"], 1),
    "weakly-connected": ("k6", ["hypothesis", "--check", "weakly-connected",
                                "--l", "lmn:1,1"], 0),
    "pack-basic": ("k9", ["hypothesis", "--check", "pack-basic", "--l", "lmn:1,1",
                          "--ell", "lmn:2,3"], 0),
    "rigid-sufficient": ("k9", ["hypothesis", "--check", "rigid-sufficient",
                                "--ell", "lmn:2,3"], 0),
    # the refined check fails on K6 at its degree condition, at vertex 0
    "pack-refined": ("k6", ["hypothesis", "--check", "pack-refined", "--l", "lmn:1,1",
                            "--ell", "lmn:2,3"], 1),
    "pack-degree": ("k9", ["hypothesis", "--check", "pack-degree", "--l", "lmn:1,1",
                           "--ell", "lmn:1,1", "--k", "3", "--rho", ",".join(["9"] * 9)], 0),
    # with rho = 1, six vertices of K9 induce 15 edges, more than
    # rho(S) + 3 (l(V) + ell(V)) = 12: the density condition fails
    "pack-degree-density": ("k9", ["hypothesis", "--check", "pack-degree", "--l",
                                   "lmn:1,1", "--ell", "lmn:1,1", "--k", "3",
                                   "--rho", ",".join(["1"] * 9)], 1),
    "oracle-rank": ("k6", ["oracle", "--what", "rank", "--func", "lmn:2,3"], 0),
    "oracle-rigid": ("c4", ["oracle", "--what", "rigid", "--func", "lmn:2,3"], 1),
    "oracle-partition-connected": ("k4", ["oracle", "--what", "partition-connected",
                                          "--func", "lmn:1,1"], 0),
    "oracle-partition-cut": ("c4", ["oracle", "--what", "partition-connected",
                                    "--func", "lmn:2,3"], 1),
    "oracle-edge-connected": ("c4", ["oracle", "--what", "edge-connected",
                                     "--func", "lmn:2,3"], 1),
    "oracle-matroid-axioms": ("k4", ["oracle", "--what", "matroid-axioms",
                                     "--func", "lmn:2,3"], 0),
    "oracle-weakly-connected": ("c4", ["oracle", "--what", "weakly-connected",
                                       "--func", "lmn:2,3", "--ell-vec", "1,1,1,1"], 1),
    "oracle-census": ("k4", ["oracle", "--what", "census", "--census-n", "4"], 0),
    # degree 5 is below 2 ell(v) + 2 l(v) = 8: exit 2, nothing is built
    "pack-hypothesis": ("k6", ["pack", "--l", "lmn:1,1", "--ell", "lmn:2,3",
                               "--mode", "halved"], 2),
    "rigid-forbid": ("k6", ["rigid", "--func", "lmn:2,3", "--forbid", "0", "1"], 0),
    # the hypothesis fails and the extraction falls short, yet exit 1, not 2:
    # rigid --forbid extracts whatever its hypothesis says
    "rigid-forbid-deficient": ("c4", ["rigid", "--func", "lmn:2,3", "--forbid", "0"], 1),
    # K9 meets the cut condition, but five forbidden edges exceed l(V) + ell(V)
    "pack-forbidden-size": ("k9", ["pack", "--l", "lmn:1,1", "--ell", "lmn:2,3",
                                   "--forbid", "0", "1", "2", "3", "4"], 2),
    "decompose-error": ("c4", ["decompose", "--func", "lmn:1,1", "--parts", "2"], 2),
}
GRAPHS = {"k4": complete(4), "k5": complete(5), "k6": complete(6), "k9": complete(9),
          "k10": complete(10), "k13": complete(13),
          "k33": complete_bipartite(3, 3), "k66": complete_bipartite(6, 6),
          "c4": MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
          "double-path": MultiGraph(3, [(2, 0), (2, 0), (2, 1), (1, 2)]),
          # two triangles sharing vertex 2, and a pendant edge at vertex 4
          "bowtie-pendant": MultiGraph(6, [(0, 1), (1, 2), (0, 2), (2, 3),
                                           (3, 4), (2, 4), (4, 5)]),
          "two-k4": MultiGraph(7, [(u + o, v + o) for o in (0, 3)
                                   for u in range(4) for v in range(u + 1, 4)]),
          # two K9s joined by a matching of seven edges: 7-edge-connected,
          # below both presets' demands, with the first K9 as the witness A
          "two-k9": MultiGraph(18, [(u + o, v + o) for o in (0, 9)
                                    for u in range(9) for v in range(u + 1, 9)]
                               + [(v, v + 9) for v in range(7)])}


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    made: dict = {}

    def get(name):
        if name not in made:
            graph_name, argv, code = REPORTS[name]
            g = GRAPHS[graph_name]
            path = write_graph(root, graph_name, g.n, g.edges)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["--format", "structured", argv[0], "--graph", path,
                             *argv[1:]]) == code, name
            made[name] = out.getvalue()
        return json.loads(made[name])

    return get


def _reverse_arcs(report, ids):
    """Reverse the given arcs and keep the degree fields consistent."""
    certs = report["certificates"]
    for e in ids:
        certs["arcs"][e].reverse()
    n = report["graph"]["n"]
    certs["indegrees"] = [sum(h == v for _, h in certs["arcs"]) for v in range(n)]
    certs["outdegrees"] = [sum(t == v for t, _ in certs["arcs"]) for v in range(n)]


def _drop_basis_edge_deny_rigidity(r):
    r["certificates"]["edges"].pop()
    r["verdict"] = False


def _raise_rank(r):
    r["certificates"]["rank"] += 1


def _forbidden_edge_in_part(r):
    # forbidden edge 0 replaces a tree edge and the part stays a tree
    pk = r["certificates"]["packing"]
    graph = MultiGraph(9, [tuple(e) for e in r["graph"]["edges"]])
    tree = pk["parts"][0]["edges"]
    for e in tree:
        swapped = sorted(set(tree) - {e} | {0})
        if graph.subgraph(swapped).is_connected():
            pk["parts"][0]["edges"] = swapped
            pk["uncovered"] = sorted(set(pk["uncovered"]) - {0} | {e})
            return
    raise AssertionError("no tree swap with forbidden edge 0")


def _empty_uncovered(r):
    r["certificates"]["packing"]["uncovered"] = []


def _empty_forbidden(r):
    r["certificates"]["packing"]["forbidden"] = []


def _close_a_cycle(r):
    parts = r["certificates"]["packing"]["parts"]
    parts[0]["edges"] += parts[1]["edges"]
    parts[1]["edges"] = []


def _drop_block_vertex(r):
    r["certificates"]["structure"]["partition"][0].pop()


def _drop_uncovered_from_closure(r):
    # edge 3 is the one usable uncovered edge; edge 0 is forbidden
    r["certificates"]["structure"]["closure"].remove(3)


def _forbidden_edge_into_closure(r):
    r["certificates"]["structure"]["closure"].append(0)


def _uncover_a_spanned_closure_edge(r):
    # part 0 holds edges 1 and 2 and spans the closure {2, 3}; with edge 2
    # moved to the uncovered edges it spans neither closure edge
    pack = r["certificates"]["packing"]
    pack["parts"][0]["edges"].remove(2)
    pack["uncovered"] = sorted(pack["uncovered"] + [2])


def _part_outside_the_pebble_range(r):
    r["certificates"]["packing"]["parts"][0]["func"] = "lmn:1,5"


def _delete_structure(r):
    del r["certificates"]["structure"]


def _empty_violation(r):
    r["certificates"]["violation"] = []


def _edit_reason(r):
    r["certificates"]["reason"] = "made-up"
    r["certificates"]["witness"] = [0]


def _edit_detail(r):
    r["certificates"]["detail"] = {"packing": "fine"}


def _violation_of_vertex_3(r):
    r["certificates"]["violation"] = [3]


def _add_edge_to_union(r):
    certs = r["certificates"]
    certs["union"] = sorted(certs["union"] + certs["packing"]["uncovered"][:1])


def _move_a_root(r):
    r["params"]["rho"][0] = 0


def _empty_decomposition(r):
    r["certificates"]["parts"] = []


def _drop_leftover_edge(r):
    r["certificates"]["leftover"].pop()


def _drop_tree_edge(r):
    r["certificates"]["trees"][0].pop()


def _drop_companion_edge(r):
    certs = r["certificates"]
    companion = set(certs["reinforced"][0]) - set(certs["rigid_parts"][0])
    certs["reinforced"][0].remove(min(companion))


def _checks_value(key, value):
    def tamper(r):
        r["certificates"]["checks"][key] = value
    tamper.__name__ = f"_{key}_to_{value}"
    return tamper


def _deny_construction(r):
    r["verdict"] = False


def _all_edges_as_rigid_part(r):
    certs = r["certificates"]
    certs["rigid_parts"] = [list(range(36))]
    certs["union"] = list(range(36))


def _drop_union_edge(r):
    r["certificates"]["union"].pop()


def _tighter_k_and_bounds(r):
    # k = 3 quotes bounds of 4 on K6,6, below the part's degree at vertex 0
    r["params"]["k"] = "3"
    r["certificates"]["degree_bounds"] = [4] * 12


def _zero_outdegrees(r):
    r["certificates"]["outdegrees"] = [0] * r["graph"]["n"]


def _zero_indegrees(r):
    r["certificates"]["indegrees"] = [0] * r["graph"]["n"]


def _h1_edge_into_h2(r):
    certs = r["certificates"]
    certs["h2"] = sorted(certs["h2"] + certs["h1"][:1])


def _reverse_other_arcs(r):
    certs = r["certificates"]
    rest = set(range(len(certs["arcs"]))) - set(certs["h1"]) - set(certs["h2"])
    _reverse_arcs(r, sorted(rest))


def _move_first_root(r):
    r["params"]["r1"] = [1] + [0] * 8


def _reverse_h1_arc(r):
    _reverse_arcs(r, r["certificates"]["h1"][:1])


def _swap_unpacked_edge_into_h1(r):
    # an h1 edge leaves h1 and an unpacked edge with the same head joins it:
    # h1 keeps its in-degrees but is no longer a spanning tree
    certs = r["certificates"]
    graph = MultiGraph(9, [tuple(e) for e in r["graph"]["edges"]])
    arcs, h1 = certs["arcs"], certs["h1"]
    rest = sorted(set(range(len(arcs))) - set(h1) - set(certs["h2"]))
    for e in h1:
        for f in rest:
            swapped = sorted(set(h1) - {e} | {f})
            if arcs[f][1] == arcs[e][1] and \
                    not graph.subgraph(swapped).is_connected():
                certs["h1"] = swapped
                return
    raise AssertionError("no unpacked edge closes a cycle in h1")


def _empty_components(r):
    r["certificates"]["components"] = []


def _drop_triangles(r):
    certs = r["certificates"]
    certs["components"] = [c for c in certs["components"] if len(c) != 3]


def _flip_hypothesis_ok(r):
    hyp = r["certificates"]["hypothesis"]
    hyp["ok"] = not hyp["ok"]


def _witness(r):
    return r["certificates"]["hypothesis"]["witness"]


def _claim_hypothesis_holds(r):
    r["certificates"]["hypothesis"] = {"ok": True, "witness": {}}


def _raise_recorded_connectivity(r):
    _witness(r)["vertex_connectivity"] += 1


def _lower_witness_lhs(r):
    _witness(r)["lhs"] -= 1


def _move_witness_vertex_to_b(r):
    # the cut from A to the rest is unchanged, but B now costs slack
    w = _witness(r)
    w["B"].append(w["A"].pop())


def _forge_vertex_deleted_witness(r):
    r["certificates"]["witness"] = {"check": "vertex-deleted", "vertex": 0,
                                    "value": 0}


def _move_witness_vertex(r):
    r["certificates"]["witness"]["vertex"] += 1


def _raise_recorded_edge_connectivity(r):
    r["certificates"]["aux"]["edge_connectivity"] += 1


def _edit_error(r):
    r["certificates"]["error"] = "graph is rigid enough"


def _flip_verdict(r):
    r["verdict"] = not r["verdict"]


def _flip_verdict_raise_rank(r):
    _flip_verdict(r)
    r["certificates"]["rank"] += 5


def _unbalance_vertex_0(r):
    out = [e for e, (t, _) in enumerate(r["certificates"]["arcs"]) if t == 0]
    _reverse_arcs(r, out[:2])


def _delete(*path):
    def tamper(r):
        for key in path[:-1]:
            r = r[key]
        del r[path[-1]]
    return tamper


def _inject(key, value):
    def tamper(r):
        r["certificates"][key] = value
    return tamper


def _request_other_funcs(r):
    r["params"]["funcs"] = ["lmn:2,3"]


def _eater_func(token):
    def tamper(r):
        r["certificates"]["packing"]["parts"][0]["func"] = token
    return tamper


def _raise_eater_weight(r):
    part = r["certificates"]["packing"]["parts"][0]
    kind, weights = part["func"].split(":")
    weights = [int(w) for w in weights.split(",")]
    weights[0] += 1
    part["func"] = f"{kind}:{','.join(map(str, weights))}"


def _drop_last_arc(r):
    del r["certificates"]["arcs"][-1]


def _edge_from_the_end(r):
    # the same edge, named by a negative id
    r["certificates"]["edges"][-1] -= len(r["graph"]["edges"])


def _forbidden_edge_from_the_end(r):
    # forbidden edge 0, named by a negative id, replaces a basis edge
    r["certificates"]["edges"][0] = -len(r["graph"]["edges"])


def _part_edge_id_m(r):
    r["certificates"]["packing"]["parts"][0]["edges"][-1] = len(r["graph"]["edges"])


def _forbidden_edge_id_m(r):
    r["certificates"]["packing"]["forbidden"] = [len(r["graph"]["edges"])]


def _block_vertex_n(r):
    r["certificates"]["structure"]["partition"][0].append(r["graph"]["n"])


def _shorten_param(key):
    def tamper(r):
        r["params"][key].pop()
    return tamper


def _set_param(key, value):
    def tamper(r):
        r["params"][key] = value
    return tamper


def _drop_the_tree(r):
    r["certificates"]["trees"].pop()


def _drop_rigid_edge_from_reinforced(r):
    certs = r["certificates"]
    certs["reinforced"][0].remove(certs["rigid_parts"][0][0])


def _rigid_part_as_reinforced(r):
    # the (2, 3)-tight part of K9 alone is 2-edge-connected, not 3
    certs = r["certificates"]
    certs["reinforced"][0] = list(certs["rigid_parts"][0])


def _three_edges_as_rigid_part(r):
    parts = r["certificates"]["rigid_parts"]
    parts[0] = parts[0][:3]


def _fail_the_eater(r):
    # rho(0) = 99 sends vertex 0's rho-slack weight below zero, so the
    # parts' functions cannot be derived again
    r["params"]["rho"][0] = 99


@pytest.mark.parametrize("name, tamper, claim", [
    ("sparse", _empty_violation, "violation"),
    ("rigid", _drop_basis_edge_deny_rigidity, "maximum sparse set"),
    ("rigid", _raise_rank, "rank or target"),
    ("pack-forbid", _forbidden_edge_in_part, "forbidden edge"),
    ("pack-forbid", _empty_uncovered, "partition the edges"),
    ("pack-forbid", _empty_forbidden, "forbidden edges differ"),
    ("pack-deficient", _close_a_cycle, "part 0 is not sparse"),
    ("pack-deficient", _drop_block_vertex, "structure blocks"),
    ("pack-deficient", _delete_structure, "certificates.structure is missing"),
    ("pack-deficient", _part_outside_the_pebble_range,
     "part 0 is outside the pebble range"),
    ("pack-closure", _drop_uncovered_from_closure, "misses a usable uncovered edge"),
    ("pack-closure", _forbidden_edge_into_closure, "forbidden or unknown edge"),
    ("pack-closure", _uncover_a_spanned_closure_edge, "part 0 does not span the closure"),
    ("pack-halved", _add_edge_to_union, "union is not the l-part"),
    ("pack-halved", _loosened_bounds, "degree bounds"),
    ("pack-rho", _move_a_root, "degree bounds"),
    ("decompose", _empty_decomposition, "0 parts, not 2"),
    ("decompose", _drop_leftover_edge, "partition the edges"),
    ("tree-rigid", _checks_value("trees", 99), "checks.trees"),
    ("tree-rigid", _checks_value("rigid_0_cuts", False), "checks.rigid_0_cuts"),
    ("tree-rigid", _deny_construction, "verdict"),
    ("tree-rigid", _drop_tree_edge, "tree 0 is not a spanning tree"),
    ("tree-rigid-ec", _drop_companion_edge, "do not partition the union"),
    ("tree-rigid-ec", _checks_value("reinforced_0_edge_connectivity", 99),
     "checks.reinforced_0_edge_connectivity"),
    ("tree-rigid-ec", _checks_value("reinforced_0_vertex_deleted", 99),
     "checks.reinforced_0_vertex_deleted"),
    ("bipartite-degree", _all_edges_as_rigid_part, "not tight"),
    ("bipartite-degree", _drop_union_edge, "union is not the rigid part"),
    ("bipartite-degree", _loosened_bounds, "degree bounds"),
    ("bipartite-degree", _tighter_k_and_bounds, "on the side at 0"),
    ("bipartite-degree", _checks_value("two_connected", False),
     "checks.two_connected"),
    ("packed", _zero_outdegrees, "outdegrees disagree"),
    ("packed", _h1_edge_into_h2, "h1 and h2 share an edge"),
    ("packed", _reverse_other_arcs, "out-degree bound violated"),
    ("packed", _reverse_h1_arc, "h1 in-degrees"),
    ("packed", _move_first_root, "h1 in-degrees"),
    ("packed", _swap_unpacked_edge_into_h1, "h1 is not rooted arc-connected"),
    ("components", _empty_components, "not the recomputed rigid components"),
    ("components", _drop_triangles, "not the recomputed rigid components"),
    ("robust", _checks_value("arc_strong", 99), "checks.arc_strong"),
    ("robust", _checks_value("vertex_deleted_arc_strong", 99),
     "checks.vertex_deleted_arc_strong"),
    ("robust", _zero_indegrees, "indegrees disagree"),
    ("robust", _unbalance_vertex_0, "not smooth"),
    ("tree-rigid-hypothesis", _flip_hypothesis_ok, "hypothesis verdict"),
    ("tree-rigid-hypothesis", _lower_witness_lhs, "hypothesis witness"),
    ("tree-rigid-hypothesis", _move_witness_vertex_to_b, "hypothesis witness"),
    ("robust-hypothesis", _lower_witness_lhs, "hypothesis witness"),
    ("robust-hypothesis", _move_witness_vertex_to_b, "hypothesis witness"),
    ("robust-hypothesis", _edit_detail, "detail"),
    ("orient-rigid-failed", _edit_reason, "reason"),
    ("bipartite-hypothesis", _claim_hypothesis_holds, "hypothesis verdict"),
    ("bipartite-hypothesis", _raise_recorded_connectivity, "hypothesis witness"),
    ("rigid-cuts", _deny_construction, "verdict"),
    ("rigid-cuts", _forge_vertex_deleted_witness, "witness"),
    ("rigid-cuts", _raise_recorded_edge_connectivity, "aux"),
    ("rigid-cuts-vertex", _move_witness_vertex, "witness"),
    ("weakly-connected", _flip_verdict, "verdict"),
    ("oracle-rank", _flip_verdict_raise_rank, "rank"),
    ("oracle-rigid", _flip_verdict_raise_rank, "rank"),
    ("oracle-edge-connected", _inject("witness", [0]), "witness"),
    ("oracle-partition-cut", _inject("witness", [[0, 1, 2], [3]]), "witness"),
    ("oracle-matroid-axioms", _inject("detail", ["exchange"]), "detail"),
    ("oracle-weakly-connected", _inject("witness", None), "witness"),
    ("pack-degree-density", _inject("witness", {}), "witness"),
    ("pack-refined", _inject("aux", {}), "aux"),
    ("rigid-sufficient", _flip_verdict, "verdict"),
    ("pack-hypothesis", _flip_hypothesis_ok, "hypothesis verdict"),
    ("rigid-forbid", _flip_hypothesis_ok, "hypothesis verdict"),
    ("pack-forbidden-size", _flip_hypothesis_ok, "hypothesis verdict"),
    ("decompose-error", _edit_error, "error"),
    ("hakimi", _zero_indegrees, "indegrees disagree"),
    ("hakimi-infeasible", _violation_of_vertex_3, "violation set"),
    ("smooth", _zero_outdegrees, "outdegrees disagree"),
    # a malformed report names the missing field, and a field no result of
    # its kind carries fails
    ("orient-rigid-failed", _inject("violation", [0, 1]), "violation recomputes"),
    ("orient-rigid-failed", _delete("params", "func"), "params.func is missing"),
    ("orient-rigid-failed", _delete("params", "mode"), "params.mode is missing"),
    ("hakimi", _delete("certificates", "indegrees"), "certificates.indegrees is missing"),
    ("smooth", _delete("certificates", "indegrees"), "certificates.indegrees is missing"),
    ("sparse", _delete("params", "func"), "params.func is missing"),
    ("rigid", _delete("params", "forbid"), "params.forbid is missing"),
    ("rigid", _delete("certificates", "target"), "certificates.target is missing"),
    ("weakly-connected", _delete("params", "check"), "params.check is missing"),
    ("weakly-connected", _delete("params", "forbid"), "params.forbid is missing"),
    ("hakimi", _inject("violation", [0, 1]),
     "certificates.violation is not a field of this result"),
    ("smooth", _inject("witness", [0]), "certificates.witness is not a field"),
    ("smooth", _inject("packing", {}), "certificates.packing is not a field"),
    ("sparse", _inject("arcs", [[0, 1]]), "certificates.arcs is not a field"),
    ("sparse", _inject("edges", [0]), "certificates.edges is not a field"),
    ("pack-forbid", _request_other_funcs, "part functions are not the requested ones"),
    # a degree mode's eater is derived again from the report's params
    ("pack-halved", _eater_func("lmn:1,0"), "part functions are not the requested ones"),
    ("pack-halved", _raise_eater_weight, "part functions are not the requested ones"),
    ("pack-rho", _eater_func("lmn:1,0"), "part functions are not the requested ones"),
    ("pack-rho", _raise_eater_weight, "part functions are not the requested ones"),
    ("pack-rho", _delete("params", "k"), "params.k is missing"),
    ("pack-rho", _delete("params", "rho"), "params.rho is missing"),
    ("sparse", _delete("graph"), "graph is missing"),
    ("sparse", _delete("subcommand"), "subcommand is missing"),
    ("sparse", _delete("verdict"), "verdict is missing"),
    ("sparse", _delete("seed"), "seed is missing"),
    # a malformed certificate value is a MISMATCH, not an error exit
    ("smooth", _drop_last_arc, "certificates.arcs"),
    ("hakimi", _drop_last_arc, "certificates.arcs"),
    # ids name edges 0..m-1 and vertices 0..n-1, at any depth
    ("rigid", _edge_from_the_end, "certificates.edges holds an id outside 0..5"),
    ("rigid-forbid", _forbidden_edge_from_the_end,
     "certificates.edges holds an id outside 0..14"),
    ("rigid-forbid-deficient", _inject("edges", [1, 2, 4]),
     "certificates.edges holds an id outside 0..3"),
    ("pack-forbid", _part_edge_id_m,
     "certificates.packing.parts.edges holds an id outside 0..35"),
    ("pack-closure", _block_vertex_n,
     "certificates.structure.partition holds an id outside 0..2"),
    ("sparse", _inject("violation", [0, 1, 2, -1]),
     "certificates.violation holds an id outside 0..3"),
    ("components", _inject("components", [[0, 1, 2], [2, 3, 4], [4, 5, -1]]),
     "certificates.components holds an id outside 0..5"),
    ("oracle-edge-connected", _inject("witness", [0, -1]),
     "certificates.witness holds an id outside 0..3"),
    # a repeated vertex or component
    ("components", _inject("components", [[0, 1, 2, 2], [2, 3, 4], [4, 5]]),
     "certificates.components repeats a vertex"),
    ("components", _inject("components", [[0, 1, 2], [2, 3, 4], [4, 5], [4, 5]]),
     "not the recomputed rigid components"),
    ("hakimi-infeasible", _inject("violation", [0, 1, 2, 2]),
     "certificates.violation repeats a vertex"),
    # a per-vertex param holds one value per vertex
    ("packed", _shorten_param("r1"), "params.r1 does not hold 9 values"),
    ("packed", _shorten_param("r2"), "params.r2 does not hold 9 values"),
    ("hakimi", _shorten_param("targets"), "params.targets does not hold 4 values"),
    ("hakimi-infeasible", _shorten_param("targets"),
     "params.targets does not hold 4 values"),
    ("pack-rho", _set_param("rho", [9, 9, 9]), "params.rho does not hold 10 values"),
    # ids in params, and the forbidden edges a packing records
    ("pack-forbid", _set_param("forbid", [99]), "params.forbid holds an id outside 0..35"),
    ("rigid-forbid", _set_param("forbid", [0, -1]),
     "params.forbid holds an id outside 0..14"),
    ("pack-forbid", _forbidden_edge_id_m,
     "certificates.packing.forbidden holds an id outside 0..35"),
    ("bipartite-hypothesis", _set_param("side", [0, 1, 9]),
     "params.side holds an id outside 0..5"),
    ("bipartite-hypothesis", _set_param("side", [0, 1, -1]),
     "params.side holds an id outside 0..5"),
    ("bipartite-hypothesis", _set_param("side", [0, 1, 1]), "params.side repeats a vertex"),
    # preset and degree-mode claims
    ("tree-rigid", _drop_the_tree, "not 1 trees and 1 rigid"),
    ("tree-rigid-ec", _drop_rigid_edge_from_reinforced,
     "rigid part 0 lies outside its reinforced part"),
    ("tree-rigid-ec", _rigid_part_as_reinforced, "reinforced part 0 is 2-edge-connected"),
    ("bipartite-degree", _three_edges_as_rigid_part, "rigid part is not 2-connected"),
    ("pack-rho", _fail_the_eater, "part functions are not the requested ones"),
])
def test_verify_names_the_failed_claim(tmp_path, capsys, reports, name,
                                       tamper, claim):
    report = reports(name)
    tamper(report)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 1, vout
    failed = vout.split("-> MISMATCH (failed: ", 1)[1]
    assert claim in failed, vout


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_verify_decides_every_verdict_again(tmp_path, capsys, reports, name):
    # each report reproduces as made, and no longer once its verdict flips
    report = reports(name)
    path = tmp_path / "report.json"
    for expect in ("REPRODUCED", "MISMATCH"):
        path.write_text(json.dumps(report))
        _, vout = run(capsys, "verify", "--report", str(path))
        assert f"-> {expect}" in vout, vout
        _flip_verdict(report)


def test_every_report_kind_has_a_report(reports):
    # so that each kind's reports go through verify and its mutations
    made = {_kind(r["subcommand"], r["params"]) for r in map(reports, REPORTS)}
    assert sorted(set(KINDS) - made) == []


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_runner_reproduces_every_report(reports, name):
    # params, seed and force hold every input the kind's runner reads
    report = reports(name)
    graph, _ = graph_from_record(report["graph"])
    run = KINDS[_kind(report["subcommand"], report["params"])].run
    ok, certs = run(graph, report["params"], report["seed"], report["force"])
    assert ok is report["verdict"]
    assert json.loads(canonical_dumps(certs)) == report["certificates"]


@pytest.mark.parametrize("name", ["tree-rigid-hypothesis", "robust-hypothesis",
                                  "bipartite-hypothesis"])
def test_verify_reruns_a_failed_hypothesis(tmp_path, capsys, reports, name):
    report = reports(name)
    assert not report["verdict"]
    if name == "bipartite-hypothesis":
        assert _witness(report) == {"vertex_connectivity": 3}
    else:
        assert _witness(report)["A"] == list(range(9))
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 0 and "REPRODUCED" in vout, vout


@pytest.mark.parametrize("name", ["tree-rigid", "tree-rigid-ec", "bipartite-degree",
                                  "robust"])
def test_certified_runs_compute_no_implied_cut_check(tmp_path, capsys, monkeypatch,
                                                     name):
    # tightness proves the rigid parts' cut consequences and 2-connectivity,
    # and the robust reinforced part's cuts, so neither the run nor its
    # verify computes an essential cut; only the recorded reinforced values
    # of tree-rigid-ec are computed, once by each
    essential = counting(monkeypatch, MultiGraph, "essential_edge_connectivity")
    cut_checks = counting(monkeypatch, packing, "check_rigid_cut_consequences")
    profiles = counting(monkeypatch, packing, "_cut_profile")
    graph_name, argv, _ = REPORTS[name]
    g = GRAPHS[graph_name]
    path = write_graph(tmp_path, graph_name, g.n, g.edges)
    code, out = run(capsys, "--format", "structured", argv[0], "--graph", path,
                    *argv[1:])
    assert code == 0, out
    report = tmp_path / "report.json"
    report.write_text(out)
    vcode, vout = run(capsys, "verify", "--report", str(report))
    assert vcode == 0 and "REPRODUCED" in vout, vout
    assert essential == cut_checks == []
    assert len(profiles) == (2 if name == "tree-rigid-ec" else 0)


@pytest.mark.parametrize("name, verdict, witness", [
    ("rigid-cuts", True, {}),
    ("rigid-cuts-vertex", False,
     {"check": "vertex-deleted", "vertex": 3, "value": 0})])
def test_verify_reruns_rigid_cuts_reports(tmp_path, capsys, reports, name,
                                          verdict, witness):
    report = reports(name)
    assert report["verdict"] is verdict
    assert report["certificates"]["witness"] == witness
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 0 and "REPRODUCED" in vout, vout


def test_mismatch_line_format(tmp_path, capsys, reports):
    report = reports("decompose")
    _empty_decomposition(report)
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(report))
    _, vout = run(capsys, "verify", "--report", str(path))
    assert vout == (f"verify {path}: subcommand=decompose recorded verdict=True "
                    "-> MISMATCH (failed: 0 parts, not 2; "
                    "parts and uncovered do not partition the edges)\n")


# the reports whose every params and certificates field the mutation test
# deletes in turn, and the certificate fields it injects
MUTATED = sorted(REPORTS)
INJECTED = ("violation", "arcs", "edges", "packing", "witness")


def _injected_value(key, graph, rng):
    """A seeded value of the injected field's shape on the report's graph."""
    verts = sorted(rng.sample(range(graph.n), rng.randrange(1, graph.n + 1)))
    edges = sorted(rng.sample(range(graph.m), rng.randrange(graph.m + 1)))
    if key == "arcs":
        return [list(e) if rng.random() < 0.5 else list(e[::-1]) for e in graph.edges]
    if key == "packing":
        return {"parts": [], "uncovered": list(range(graph.m)), "forbidden": []}
    return edges if key == "edges" else verts


def _mutations(report, rng):
    """(description, edited report) for each single-field edit: each field
    deleted, each field of `INJECTED` the report lacks injected, and the
    value edits, which must also fail."""
    graph, _ = graph_from_record(report["graph"])
    if report["certificates"].get("arcs"):
        edited = json.loads(json.dumps(report))
        del edited["certificates"]["arcs"][-1]
        yield "certificates.arcs last entry dropped", edited
    for section in ("params", "certificates"):
        for key in report[section]:
            edited = json.loads(json.dumps(report))
            del edited[section][key]
            yield f"{section}.{key} deleted", edited
    for key in INJECTED:
        if key not in report["certificates"]:
            edited = json.loads(json.dumps(report))
            edited["certificates"][key] = _injected_value(key, graph, rng)
            yield f"certificates.{key} injected", edited


@pytest.mark.parametrize("name", MUTATED)
def test_single_field_mutations_never_crash_verify(tmp_path, capsys, reports, name):
    # every edit gives a verify line, not a traceback or an error exit, and
    # every injected field or edited value is a MISMATCH
    rng = random.Random(f"mutate {name}")
    path = tmp_path / "mutated.json"
    for what, edited in _mutations(reports(name), rng):
        path.write_text(json.dumps(edited))
        vcode, vout = run(capsys, "verify", "--report", str(path))
        verdict = "MISMATCH (failed: " if vcode else "REPRODUCED"
        assert vcode in (0, 1) and f"-> {verdict}" in vout, (what, vout)
        if not what.endswith("deleted"):
            assert vcode == 1, (what, vout)


def test_report_records_the_argv_main_is_given(capsys, monkeypatch, k4):
    monkeypatch.setattr(sys, "argv", ["host", "--unrelated"])
    argv = ["--format", "structured", "sparse", "--graph", k4, "--func", "lmn:2,3"]
    _, out = run(capsys, *argv)
    assert json.loads(out)["command"] == argv


def test_budget_environment_read_on_every_call(tmp_path, capsys, monkeypatch, k4):
    # the parser is built once per process, the budget default per call
    argv = ["oracle", "--graph", k4, "--what", "sparse", "--func", "lmn:2,3"]
    monkeypatch.setenv("RIGIDPACK_BUDGET", "3")
    assert main(argv) == 2
    assert "budget" in capsys.readouterr().err
    monkeypatch.setenv("RIGIDPACK_BUDGET", "4")
    assert main(argv) == 1


def _complete(tmp_path, n):
    return write_graph(tmp_path, f"k{n}", n,
                       [(u, v) for u in range(n) for v in range(u + 1, n)])


@pytest.mark.parametrize("n, force", [(13, []), (21, ["--force"]), (21, [])])
def test_robust_report_without_subset_tables(tmp_path, capsys, n, force):
    # the robust construction, its hypothesis and its re-check run on flows
    # alone; unforced K21 once raised "pair sweep budget exceeded"
    code, out = run(capsys, "--format", "structured", *force, "orient",
                    "--graph", _complete(tmp_path, n), "--mode", "robust",
                    "--k", "1")
    assert code == 0, out
    path = tmp_path / "robust.json"
    path.write_text(out)
    vcode, vout = run(capsys, "verify", "--report", str(path))
    assert vcode == 0 and "REPRODUCED" in vout


def test_orientations_decide_arc_connectivity_without_subset_tables(
        tmp_path, capsys):
    # rooted arc-connectivity of in-degree-exact parts is decided by
    # sparsity, so packed and rigid reports build and verify past 20 vertices
    circ = circulant(60, [1, 2])
    cases = [
        ["--force", "orient", "--graph", _complete(tmp_path, 40), "--mode",
         "packed", "--l", "lmn:1,1", "--ell", "lmn:2,3",
         "--r1", ",".join(["1"] + ["0"] * 39),
         "--r2", ",".join(["2", "1"] + ["0"] * 38)],
        ["orient", "--graph", write_graph(tmp_path, "circ60", 60, circ.edges),
         "--mode", "rigid", "--func", "mod:lmn:2,1:V=0"],
    ]
    for argv in cases:
        code, out = run(capsys, "--format", "structured", *argv)
        assert code == 0, out
        path = tmp_path / "report.json"
        path.write_text(out)
        vcode, vout = run(capsys, "verify", "--report", str(path))
        assert vcode == 0 and "REPRODUCED" in vout


def test_rigid_cuts_below_level_one_is_a_usage_error(capsys, c4):
    code = main(["hypothesis", "--graph", c4, "--check", "rigid-cuts",
                 "--k-int", "-3"])
    assert code == 2
    assert "error: rigidity level must be at least 1" in capsys.readouterr().err


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


@pytest.mark.parametrize("record, message", [
    ({"n": 3, "vertex_names": ["a", "b", "c"], "edges": [["a", "z"]]},
     "an edge names the unknown vertex 'z'"),
    ({"n": 3, "vertex_names": ["a", "b", "a"], "edges": [["a", "b"]]},
     "'vertex_names' repeats a name"),
    ({"n": 3, "edges": 5}, "malformed graph"),
    ({"n": 3, "edges": [[0, 1, 2]]}, "malformed graph"),
    ({"n": 3, "edges": ["01", "12"]}, "malformed graph"),
    ({"n": 3, "vertex_names": "abc", "edges": [["a", "b"]]}, "malformed graph"),
])
def test_malformed_graph_files_are_usage_errors(tmp_path, capsys, record, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    code = main(["sparse", "--graph", str(path), "--func", "lmn:1,1"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {path}: ") and message in err, err


@pytest.mark.parametrize("text, message", [
    ('{"values": {"0": 1}}', "table file needs 'n' and a 'values' object"),
    ('[4, {"0": 1}]', "table file needs 'n' and a 'values' object"),
    ('{"n": 4, "values": {', "invalid table file at line 1, column 21"),
    ('{"n": 4, "values": [1, 2]}', "table file needs 'n' and a 'values' object"),
    ('{"n": 4, "values": {"0,x": 1}}', "malformed table"),
    ('{"n": [4], "values": {"0": 1}}', "malformed table"),
])
def test_malformed_table_files_are_usage_errors(tmp_path, capsys, text, message):
    graph = tmp_path / "K4.json"
    graph.write_text(json.dumps(graph_record(complete(4))))
    path = tmp_path / "t.json"
    path.write_text(text)
    code = main(["sparse", "--graph", str(graph), "--func", f"table:@{path}"])
    err = capsys.readouterr().err
    assert code == 2 and err.startswith(f"error: {path}: ") and message in err, err


def test_verify_refuses_a_report_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("[1, 2]")
    assert main(["verify", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == f"error: {path}: report must be a JSON object\n"


def test_verify_names_a_report_file_that_is_not_json(tmp_path, capsys):
    path = tmp_path / "r.json"
    path.write_text("not json")
    assert main(["verify", "--report", str(path)]) == 2
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err == (f"error: {path}: invalid report file at line 1, "
                            "column 1: Expecting value\n")
    path.write_text('{"subcommand": "sparse",\n "verdict": tru}')
    assert main(["verify", "--report", str(path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: invalid report file at "
                                       "line 2, column 13: Expecting value\n")


def test_vertex_named_graphs(tmp_path):
    path = tmp_path / "named.json"
    path.write_text(json.dumps({
        "name": "named", "n": 3,
        "vertex_names": ["a", "b", "c"],
        "edges": [["a", "b"], ["b", "c"]]}))
    graph, meta = load_graph(str(path))
    assert graph.edges == ((0, 1), (1, 2))
    assert meta["vertex_names"] == ["a", "b", "c"]
