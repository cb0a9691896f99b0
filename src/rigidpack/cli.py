"""Command-line interface: graph files, set-function tokens, certificate
reports, and a post-hoc verifier that re-checks any report it emitted.

Exit codes: 0 = verdict true / construction succeeded, 1 = verdict false or
deficient (with certificate), 2 = usage or hypothesis error.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction
from typing import Callable, NamedTuple

from . import __version__, generators, oracle
from .graph import MultiGraph, mask_of, vertices_of, INFINITY
from .setfuncs import (
    SetFunc, lmn, const, vertex_weights, table_func, with_overrides,
)
from . import sparsity, packing, orientation

BUDGET_ENV = "RIGIDPACK_BUDGET"


# ----------------------------------------------------------------------
# graph files


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _load_json(path: str, kind: str):
    """The JSON value in a `kind` file; a ValueError naming the file and
    the place of the first fault when it is not JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid {kind} file at line {exc.lineno}, "
                             f"column {exc.colno}: {exc.msg}") from None


def load_graph(path: str) -> tuple[MultiGraph, dict]:
    return graph_from_record(_load_json(path, "graph"), where=path)


def graph_from_record(data: dict, where: str = "<record>") -> tuple[MultiGraph, dict]:
    if not isinstance(data, dict) or "n" not in data or "edges" not in data:
        raise ValueError(f"{where}: graph file needs 'n' and 'edges'")
    names, pairs = data.get("vertex_names"), data["edges"]
    try:
        if not isinstance(names, (list, type(None))) or not isinstance(pairs, list) or any(
                not isinstance(p, list) or len(p) != 2 for p in pairs):
            raise ValueError("'edges' must be a list of [u, v] lists, 'vertex_names' a list")
        if names is not None:
            index = {name: i for i, name in enumerate(names)}
            if len(index) != len(names):
                raise ValueError("'vertex_names' repeats a name")
            edges = [(index[u], index[v]) for u, v in pairs]
        else:
            edges = [(int(u), int(v)) for u, v in pairs]
        graph = MultiGraph(int(data["n"]), edges)
    except KeyError as exc:
        raise ValueError(f"{where}: an edge names the unknown vertex {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{where}: malformed graph: {exc}") from None
    meta = {"name": data.get("name", "graph"), "vertex_names": names}
    return graph, meta


def graph_record(graph: MultiGraph, name: str = "graph") -> dict:
    return {"name": name, "n": graph.n,
            "edges": [[u, v] for u, v in graph.edges]}


# ----------------------------------------------------------------------
# set-function tokens


def parse_setfunc(token: str, ground: int) -> SetFunc:
    """lmn:A,B | const:C | w:W0,W1,... | table:@file | mod:<base>:V=<int>"""
    if token.startswith("mod:"):
        rest, _, override = token[4:].rpartition(":")
        if not override.startswith("V=") or not rest:
            raise ValueError(f"bad modified token {token!r}; expected mod:<base>:V=<int>")
        base = parse_setfunc(rest, ground)
        return with_overrides(base, {(1 << ground) - 1: int(override[2:])})
    kind, _, arg = token.partition(":")
    if kind == "lmn":
        a, b = (int(x) for x in arg.split(","))
        return lmn(ground, a, b)
    if kind == "const":
        return const(ground, int(arg))
    if kind == "w":
        weights = [int(x) for x in arg.split(",")]
        if len(weights) != ground:
            raise ValueError(f"weight token needs {ground} values, got {len(weights)}")
        return vertex_weights(weights)
    if kind == "table":
        if not arg.startswith("@"):
            raise ValueError("table token must reference a file: table:@path")
        path = arg[1:]
        data = _load_json(path, "table")
        if not isinstance(data, dict) or "n" not in data or \
                not isinstance(data.get("values"), dict):
            raise ValueError(f"{path}: table file needs 'n' and a 'values' object")
        try:
            n = int(data["n"])
            values = {mask_of(int(x) for x in key.split(",") if x != ""): int(val)
                      for key, val in data["values"].items()}
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: malformed table: {exc}") from None
        if n != ground:
            raise ValueError(f"table ground {data['n']} does not match graph n={ground}")
        return table_func(ground, values)
    raise ValueError(f"unknown set function token {token!r}")


MODE_FLAGS = ("mode", "check", "what", "family")


def _need(values: dict, flag: str):
    """A flag's value from parsed arguments or a report's params; a usage
    error naming it and the mode when it is not given."""
    value = values[flag.lstrip("-").replace("-", "_")]
    if value is None:
        mode = next(key for key in MODE_FLAGS if key in values)
        raise ValueError(f"--{mode} {values[mode]} needs {flag}")
    return value


def _entry(table: dict, name, what: str):
    """The entry of a name table; a usage error naming `what` if it lacks
    the name."""
    if not isinstance(name, str) or name not in table:
        raise ValueError(f"unknown {what} {name!r}")
    return table[name]


def parse_int_list(text: str, count: int, what: str) -> list[int]:
    vals = [int(x) for x in text.split(",")]
    if len(vals) != count:
        raise ValueError(f"{what} needs {count} comma-separated values")
    return vals


# ----------------------------------------------------------------------
# reports


def emit(report: dict, fmt: str) -> None:
    if fmt == "structured":
        print(canonical_dumps(report), end="")
        return
    print(f"rigidpack {report['engine_version']} :: {report['subcommand']}")
    g = report["graph"]
    print(f"graph {g['name']}: n={g['n']} m={len(g['edges'])}")
    for key, val in report.get("params", {}).items():
        print(f"  {key} = {val}")
    print(f"verdict: {report['verdict']}")
    for key, val in report.get("certificates", {}).items():
        text = json.dumps(val) if not isinstance(val, str) else val
        if len(text) > 900:
            text = text[:900] + "..."
        print(f"  {key}: {text}")
    print(f"seed={report['seed']} elapsed={report['elapsed_s']:.3f}s")


def make_report(args, subcommand: str, graph: MultiGraph, meta: dict,
                params: dict, verdict: bool, certificates: dict,
                started: float) -> dict:
    return {
        "command": args.argv,
        "subcommand": subcommand,
        "graph": graph_record(graph, meta.get("name", "graph")),
        "params": params,
        "verdict": bool(verdict),
        "certificates": certificates,
        "engine_version": __version__,
        "seed": args.seed,
        "force": args.force,
        "elapsed_s": round(time.time() - started, 6),
    }


# ----------------------------------------------------------------------
# report kinds: a subcommand, or one mode, preset or shape of it, with one
# entry each in `KINDS`; the runner of a kind is called by the command and
# by `verify`


def _kind(sub, values) -> str:
    """The kind that a subcommand's parsed arguments, or a report's params,
    make. No other code tells kinds apart."""
    if sub == "orient":
        return f"orient-{values['mode']}"
    if sub == "pack":
        funcs = "funcs" in values and not (values.get("l") or values.get("ell"))
        return values.get("preset") or ("pack-funcs" if funcs else "pack-rigid")
    if sub == "oracle" and values["what"] == "census":
        return "census"
    return "rigid-forbid" if sub == "rigid" and values["forbid"] else sub


class Kind(NamedTuple):
    """`inputs(opts, graph)`: the params a report records, from the parsed
    arguments. `run(graph, params, seed, force) -> (verdict, certs)`.
    `fields(certs, verdict)`: the fields of the certificate checkable on
    its own that a result holds, or None when it holds none and `run`
    decides it again; `claims(graph, params, certs, verdict)` checks such
    a certificate. `hypothesis(graph, params)`: the check whose result it
    records, unless forced when a failed one `stops` the run (exit 2)."""
    inputs: Callable
    run: Callable
    fields: Callable = lambda certs, verdict: None
    claims: Callable | None = None
    hypothesis: Callable | None = None
    stops: bool = True
    loads_graph: bool = True


def _given(*keys):
    return lambda opts, graph: {key: opts[key] for key in keys}


def _oriented(*keys):
    """The params of an orientation mode: its mode and these inputs."""
    def inputs(opts, graph):
        params = {"mode": opts["mode"]}
        for key in keys:
            value = _need(opts, "--" + key)
            params[key] = parse_int_list(value, graph.n, "--" + key) \
                if key in VERTEX_VALUES else value
        return params
    return inputs


def _forbid(opts) -> list[int]:
    return sorted(set(opts["forbid"] or []))


def _rigid_inputs(opts, graph) -> dict:
    return {"func": opts["func"], "forbid": _forbid(opts)}


def _funcs_inputs(opts, graph) -> dict:
    if not opts["funcs"]:
        raise ValueError("pack needs --funcs, --l/--ell, or --preset")
    return {"funcs": opts["funcs"], "forbid": _forbid(opts)}


def _pack_rigid_inputs(opts, graph) -> dict:
    if not (opts["l"] and opts["ell"]):
        raise ValueError("--l and --ell go together")
    params = {"l": opts["l"], "ell": opts["ell"], "mode": opts["mode"],
              "forbid": _forbid(opts)}
    if opts["mode"] == "rho":
        params.update(k=opts["k"], rho=parse_int_list(opts["rho"], graph.n, "--rho")
                      if opts["rho"] else None)
    return params


def _tree_rigid_inputs(opts, graph) -> dict:
    if opts["k_int"] is None:
        raise ValueError(f"{opts['preset']} needs --k-int")
    return {"preset": opts["preset"], "k": str(opts["k_int"]), "p": opts["p"],
            "m": opts["m"]}


def _bipartite_inputs(opts, graph) -> dict:
    if opts["side"] is None:
        raise ValueError("bipartite-degree needs --side")
    return {"preset": "bipartite-degree", "k": str(Fraction(opts["k"] or "1")),
            "p": opts["p"], "m": opts["m"], "side": opts["side"]}


def _census_inputs(opts, graph) -> dict:
    return {"what": "census", "n": opts["census_n"],
            "filter": opts["census_filter"], "budget": opts["budget"]}


def _sparse(graph, params, seed, force) -> tuple[bool, dict]:
    res = sparsity.is_sparse(graph, parse_setfunc(params["func"], graph.n))
    return res.ok, {} if res.ok else {"violation": vertices_of(res.violation)}


def _rigid(graph, params, seed, force) -> tuple[bool, dict]:
    rr = sparsity.rank_and_rigid(graph, parse_setfunc(params["func"], graph.n))
    return rr.rigid, {"rank": rr.rank, "target": rr.target, "edges": sorted(rr.basis)}


def _rigid_forbid(graph, params, seed, force) -> tuple[bool, dict]:
    func, forbidden = parse_setfunc(params["func"], graph.n), set(params["forbid"])
    hyp = packing.check_rigid_sufficient(graph, func, forbidden)
    rr = sparsity.rank_and_rigid(graph, func, forbidden)
    ok = rr.rigid and sparsity.is_sparse(graph.subgraph(rr.basis), func).ok
    return ok, {**_hypothesis_cert(hyp), "edges": sorted(rr.basis), "target": rr.target}


def _components(graph, params, seed, force) -> tuple[bool, dict]:
    comps = sparsity.rigid_components(graph, parse_setfunc(params["func"], graph.n))
    return True, {"components": [vertices_of(c) for c in comps]}


def _packing_cert(packing_obj) -> dict:
    return {
        "parts": [{"func": p.func.describe(), "edges": sorted(p.edges),
                   "target": p.target, "full": p.full}
                  for p in packing_obj.parts],
        "uncovered": sorted(packing_obj.uncovered),
        "forbidden": sorted(packing_obj.forbidden),
    }


def _structure_cert(cert) -> dict:
    return {
        "partition": [vertices_of(b) for b in cert.partition],
        "closure": sorted(cert.closure),
    }


def _hypothesis_cert(hyp) -> dict:
    return {} if hyp is None else {"hypothesis": {"ok": hyp.ok, "witness": hyp.witness}}


def _pack_funcs(graph, params, seed, force) -> tuple[bool, dict]:
    forbidden = set(params["forbid"])
    pk = packing.matroid_union_pack(
        graph, [parse_setfunc(t, graph.n) for t in params["funcs"]], forbidden)
    ok = all(p.full for p in pk.parts)
    cert = {"packing": _packing_cert(pk)}
    if not ok:
        cert["structure"] = _structure_cert(packing.structure_partition(pk))
    return ok, cert


def _pack_rigid(graph, params, seed, force) -> tuple[bool, dict]:
    forbidden, k = set(params["forbid"]), params.get("k")
    outcome = packing.pack_partition_rigid(
        graph, parse_setfunc(params["l"], graph.n),
        parse_setfunc(params["ell"], graph.n), forbidden,
        degree_mode=params["mode"], force=force, k=Fraction(k) if k else None,
        rho=params.get("rho"))
    cert = _hypothesis_cert(outcome.hypothesis)
    if outcome.packing.parts:
        cert["packing"] = _packing_cert(outcome.packing)
    if outcome.union_edges is not None:
        cert["union"] = sorted(outcome.union_edges)
        cert["degree_bounds"] = list(outcome.degree_bounds or [])
    if outcome.certificate is not None:
        cert["structure"] = _structure_cert(outcome.certificate)
    return outcome.ok, cert


def _preset_cert(res) -> tuple[bool, dict]:
    return res.ok, {"checks": _checks_record(res.checks),
                    **_hypothesis_cert(res.hypothesis),
                    "union": sorted(res.union_edges),
                    "degree_bounds": list(res.degree_bounds),
                    "trees": [sorted(t) for t in res.trees],
                    "rigid_parts": [sorted(r) for r in res.rigid_parts],
                    "reinforced": [sorted(r) for r in res.reinforced]}


def _tree_rigid(graph, params, seed, force) -> tuple[bool, dict]:
    return _preset_cert(packing.preset_tree_rigid(
        graph, int(params["k"]), params["p"], params["m"], force=force))


def _tree_rigid_ec(graph, params, seed, force) -> tuple[bool, dict]:
    return _preset_cert(packing.preset_tree_rigid_ec(
        graph, int(params["k"]), params["p"], params["m"], force=force))


def _bipartite(graph, params, seed, force) -> tuple[bool, dict]:
    return _preset_cert(packing.preset_bipartite_degree(
        graph, Fraction(params["k"]), mask_of(params["side"]), force=force))


def _decompose(graph, params, seed, force) -> tuple[bool, dict]:
    func = parse_setfunc(params["func"], graph.n)
    try:
        dec = packing.decompose_p_rigid(graph, func, params["parts"])
    except ValueError as exc:
        return False, {"error": str(exc)}
    return True, {"parts": [sorted(p) for p in dec.parts],
                  "leftover": sorted(dec.leftover)}


def _orient_cert(orient: orientation.Orientation) -> dict:
    return {"arcs": [[t, h] for t, h in orient.arcs],
            "indegrees": list(orient.indegrees),
            "outdegrees": list(orient.outdegrees)}


def _hakimi(graph, params, seed, force) -> tuple[bool, dict]:
    res = orientation.hakimi_orient(graph, params["targets"])
    return res.ok, _orient_cert(res.orientation) if res.ok else \
        {"violation": vertices_of(res.violation)}


def _eulerian(graph, params, seed, force) -> tuple[bool, dict]:
    return True, _orient_cert(orientation.euler_orient(graph))


def _smooth(graph, params, seed, force) -> tuple[bool, dict]:
    return True, _orient_cert(orientation.smooth_orient(graph))


def _orient_rigid(graph, params, seed, force) -> tuple[bool, dict]:
    res = orientation.rigid_to_orientation(graph, parse_setfunc(params["func"], graph.n))
    if res.ok:
        return True, _orient_cert(res.orientation)
    return False, {"reason": res.reason,
                   "witness": vertices_of(res.witness) if isinstance(res.witness, int)
                   and res.reason == "not-sparse" else res.witness}


def _built(res, **extra) -> tuple[bool, dict]:
    """An orientation with `extra`, or the hypothesis and the detail of
    the construction's failure."""
    if res.ok:
        return True, {**_orient_cert(res.orientation), **extra}
    return False, {**_hypothesis_cert(res.hypothesis), "detail": res.detail}


def _packed(graph, params, seed, force) -> tuple[bool, dict]:
    res = orientation.packed_orientation(
        graph, parse_setfunc(params["l"], graph.n),
        parse_setfunc(params["ell"], graph.n), params["r1"], params["r2"],
        force=force)
    return _built(res, h1=sorted(res.h1), h2=sorted(res.h2))


def _robust(graph, params, seed, force) -> tuple[bool, dict]:
    res = orientation.robust_arc_strong(graph, params["k"], seed=seed,
                                        retries=params["retries"], force=force)
    return _built(res, checks=_checks_record(res.checks))


def _hypothesis(graph, params, seed, force) -> tuple[bool, dict]:
    check, forbid = params["check"], set(params["forbid"] or [])
    rep = _entry(HYPOTHESES, check, "hypothesis check")(
        graph, params, lambda flag: parse_setfunc(_need(params, flag), graph.n), forbid)
    return rep.ok, {"witness": rep.witness, "aux": {
        k: (v if v is not None else "none") for k, v in rep.aux.items()}}


def _weakly_connected(graph, params, func, forbid) -> packing.HypothesisReport:
    k_int = params["k_int"]
    ell_vec = parse_int_list(params["ell_vec"], graph.n, "--ell-vec") \
        if params["ell_vec"] else [1 if k_int is None else k_int] * graph.n
    return packing.check_weakly_connected(graph, ell_vec, func("--l"))


# `hypothesis --check` by name: (graph, params, func, forbid) -> its report,
# where func(flag) is the set function that the flag's param names
HYPOTHESES = {
    "rigid-necessary": lambda graph, params, func, forbid:
        packing.check_rigid_necessary(graph, func("--ell")),
    "rigid-sufficient": lambda graph, params, func, forbid:
        packing.check_rigid_sufficient(graph, func("--ell"), forbid),
    "rigid-cuts": lambda graph, params, func, forbid:
        packing.check_rigid_cut_consequences(graph, _need(params, "--k-int")),
    "pack-basic": lambda graph, params, func, forbid:
        packing.check_pack_basic(graph, func("--l"), func("--ell")),
    "pack-refined": lambda graph, params, func, forbid: packing.check_pack_refined(
        graph, func("--l"), func("--ell"), Fraction(params["phi"]), len(forbid)),
    "pack-degree": lambda graph, params, func, forbid: packing.check_pack_degree(
        graph, func("--l"), func("--ell"), Fraction(_need(params, "--k")),
        parse_int_list(_need(params, "--rho"), graph.n, "--rho")),
    "weakly-connected": _weakly_connected,
}


def _oracle(graph, params, seed, force) -> tuple[bool, dict]:
    what, size = params["what"], params["budget"]
    if what == "census":
        graphs = oracle.census(params["n"], connected=params["filter"] == "connected")
        return True, {"count": len(list(graphs))}
    budget = oracle.OracleBudget(subset_n=size, partition_n=size, pair_n=size,
                                 rank_m=2 * size)
    func = parse_setfunc(_need(params, "--func"), graph.n)
    return _entry(ORACLES, what, "oracle check")(graph, params, func, budget)


def _witness(ok, wit) -> tuple[bool, dict]:
    """An oracle's verdict and witness, a vertex mask or a list of them."""
    if isinstance(wit, int):
        return ok, {"witness": vertices_of(wit)}
    return ok, {"witness": [vertices_of(mask) for mask in wit] if wit else None}


def _bf_rank(graph, params, func, budget) -> tuple[bool, dict]:
    rank, basis = oracle.bf_rank(graph, func, budget)
    return True, {"rank": rank, "basis": sorted(basis)}


def _bf_rigid(graph, params, func, budget) -> tuple[bool, dict]:
    ok, rank, target = oracle.bf_rigid(graph, func, budget)
    return ok, {"rank": rank, "target": target}


def _bf_arc_connected(graph, params, func, budget) -> tuple[bool, dict]:
    heads = parse_int_list(_need(params, "--heads"), graph.m, "--heads")
    roots = parse_int_list(params["roots"], graph.n, "--roots") \
        if params["roots"] else None
    return _witness(*oracle.bf_arc_connected(graph, heads, func, roots, budget))


def _bf_weakly_connected(graph, params, func, budget) -> tuple[bool, dict]:
    ell_vec = parse_int_list(_need(params, "--ell-vec"), graph.n, "--ell-vec")
    return _witness(*oracle.bf_weakly_connected(graph, ell_vec, func, budget))


def _bf_matroid_axioms(graph, params, func, budget) -> tuple[bool, dict]:
    ok, detail = oracle.bf_matroid_axioms(graph, func, budget)
    return ok, {"detail": list(detail) if detail else None}


# `oracle --what` by name, the census aside: (graph, params, func, budget)
# -> (verdict, certificates)
ORACLES = {
    "sparse": lambda graph, params, func, budget:
        _witness(*oracle.bf_sparse(graph, func, budget)),
    "rank": _bf_rank,
    "rigid": _bf_rigid,
    "partition-connected": lambda graph, params, func, budget:
        _witness(*oracle.bf_partition_connected(graph, func, budget)),
    "edge-connected": lambda graph, params, func, budget:
        _witness(*oracle.bf_edge_connected(graph, func, budget)),
    "arc-connected": _bf_arc_connected,
    "weakly-connected": _bf_weakly_connected,
    "matroid-axioms": _bf_matroid_axioms,
}


def _run_report(args) -> int:
    """Load the graph (the census has none), record the params, run, and
    emit the report. Exit code 2 marks an error or a failed hypothesis that
    stopped the construction."""
    started, opts, sub = time.time(), vars(args), args.subcommand
    kind = KINDS[_kind(sub, opts)]
    graph, meta = load_graph(_need(opts, "--graph")) if kind.loads_graph else \
        (MultiGraph(1, []), {"name": "census"})
    params = kind.inputs(opts, graph)
    bad = next(_id_claims(graph, params, "params"), None)
    if bad:
        raise ValueError(bad)
    ok, certs = kind.run(graph, params, args.seed, args.force)
    emit(make_report(args, sub, graph, meta, params, ok, certs, started), args.format)
    stopped = "error" in certs or \
        (kind.stops and certs.get("hypothesis", {}).get("ok") is False)
    return 0 if ok else 2 if stopped else 1


# `gen --family` by name, `doubled` aside: opts -> (graph, name)
FAMILIES = {
    "complete": lambda opts: (generators.complete(_need(opts, "--n")), f"K{opts['n']}"),
    "complete-bipartite": lambda opts: (generators.complete_bipartite(
        _need(opts, "--a"), _need(opts, "--b")), f"K{opts['a']}_{opts['b']}"),
    "circulant": lambda opts: (
        generators.circulant(_need(opts, "--n"), _need(opts, "--offsets")),
        f"C{opts['n']}({','.join(map(str, opts['offsets']))})"),
    "random-simple": lambda opts: (generators.random_simple(
        _need(opts, "--n"), _need(opts, "--m"), opts["seed"]),
        f"G{opts['n']}_{opts['m']}_s{opts['seed']}"),
    "random-regular": lambda opts: (generators.random_regular(
        _need(opts, "--n"), _need(opts, "--r"), opts["seed"]),
        f"R{opts['n']}_{opts['r']}_s{opts['seed']}"),
}


def cmd_gen(args) -> int:
    if args.family == "doubled":
        base, meta = load_graph(_need(vars(args), "--base"))
        graph, name = generators.doubled(base, args.mult), f"{meta['name']}x{args.mult}"
    else:
        graph, name = _entry(FAMILIES, args.family, "family")(vars(args))
    text = canonical_dumps(graph_record(graph, name))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    return 0


# ----------------------------------------------------------------------
# report verification


class MissingField(Exception):
    """A field a report's check reads is not in the report."""


class _Fields(dict):
    """A report, or its params, whose missing fields raise `MissingField`."""
    prefix = ""

    def __missing__(self, key):
        raise MissingField(f"{self.prefix}{key} is missing")


class _Params(_Fields):
    prefix = "params."


def cmd_verify(args) -> int:
    report = _load_json(args.report, "report")
    if not isinstance(report, dict):
        raise ValueError(f"{args.report}: report must be a JSON object")
    report = _Fields(report)
    sub, verdict = report.get("subcommand"), report.get("verdict")
    try:
        graph, _ = graph_from_record(report["graph"], where=args.report)
        failed = _reverify(report["subcommand"], graph,
                           _Params(report.get("params", {})),
                           report.get("certificates", {}), report["verdict"],
                           report["seed"], report.get("force", False))
    except MissingField as exc:
        failed = [str(exc)]
    result = f"MISMATCH (failed: {'; '.join(failed)})" if failed else "REPRODUCED"
    print(f"verify {args.report}: subcommand={sub} recorded verdict={verdict} "
          f"-> {result}")
    return 1 if failed else 0


def _checks_record(checks: dict) -> dict:
    return {k: (v if v is not INFINITY else "inf") for k, v in checks.items()}


def _fields(certs: dict) -> dict:
    """Certificates as `verify` compares them, a recorded hypothesis split
    into its verdict and its witness."""
    fields = dict(certs)
    hyp = fields.pop("hypothesis", None)
    if hyp is not None:
        fields.update({"hypothesis verdict": hyp.get("ok"),
                       "hypothesis witness": hyp.get("witness")})
    return fields


def _differ(recorded: dict, rerun: dict, prefix: str = "") -> list[str]:
    """Names of the fields whose recorded values are not the re-run's."""
    return [f"{prefix}{key} recomputes to {rerun.get(key)}"
            for key in {**recorded, **rerun} if recorded.get(key) != rerun.get(key)]



# the fields of a report's params and certificates whose lists hold edge
# ids, vertex ids, or one int per vertex, at any depth below them
EDGE_IDS = {"edges", "uncovered", "closure", "union", "parts", "leftover", "trees",
            "rigid_parts", "reinforced", "h1", "h2", "forbid", "forbidden"}
VERTEX_IDS = {"violation", "components", "partition", "witness", "side"}
VERTEX_VALUES = ("targets", "r1", "r2", "rho")


def _id_claims(graph, value, name, key=None):
    """The fields whose lists hold an edge id outside 0..m-1, a vertex id
    outside 0..n-1, or a vertex twice, and the per-vertex fields that do
    not hold n values (`rho` only as a list: a `hypothesis` report records
    the text of its flag)."""
    if isinstance(value, dict):
        for inner, item in value.items():
            yield from _id_claims(graph, item, f"{name}.{inner}", inner)
    elif key in VERTEX_VALUES and (key != "rho" or isinstance(value, list)):
        if not (isinstance(value, list) and len(value) == graph.n):
            yield f"{name} does not hold {graph.n} values"
    elif isinstance(value, list) and (key in EDGE_IDS or key in VERTEX_IDS):
        ids = [x for x in value if isinstance(x, int)]
        size = graph.m if key in EDGE_IDS else graph.n
        if any(not 0 <= x < size for x in ids):
            yield f"{name} holds an id outside 0..{size - 1}"
        if key in VERTEX_IDS and len(set(ids)) != len(ids):
            yield f"{name} repeats a vertex"
        for item in value:
            if isinstance(item, (dict, list)):
                yield from _id_claims(graph, item, name, key)


def _reverify(sub, graph, params, certs, verdict, seed, force) -> list[str]:
    """Names of the report's claims that fail when re-checked. Its ids must
    pass `_id_claims`, as the command's params did. A result that carries a
    certificate checkable on its own must record exactly the fields of its
    kind; it goes through the library's claim checkers, the ones the engine
    runs on its own results, and the hypothesis it records is re-run by the
    check that made it. Every other verdict (a `hypothesis` or `oracle`
    report, an error, a construction that built nothing) is decided again
    by the kind's runner, from the report's params, seed and force, and
    must be recorded exactly."""
    kind = KINDS.get(_kind(sub, params))
    if kind is None:
        raise ValueError(f"cannot verify {_kind(sub, params)!r} reports")
    failed = list(dict.fromkeys([*_id_claims(graph, certs, "certificates"),
                                 *_id_claims(graph, params, "params")]))
    if failed:
        return failed
    fields = kind.fields(certs, verdict)
    if fields is None:
        ok, rerun = kind.run(graph, params, seed, force)
        return _differ({"verdict": verdict, **_fields(certs)},
                       {"verdict": ok, **_fields(rerun)})
    if kind.hypothesis and not (force and kind.stops):
        fields = fields | {"hypothesis"}
    failed = [f"certificates.{key} is missing" for key in sorted(fields - set(certs))]
    failed += [f"certificates.{key} is not a field of this result"
               for key in sorted(set(certs) - fields)]
    if failed:  # the checks below read exactly the fields of this result
        return failed
    if "hypothesis" in certs:
        rerun = _hypothesis_cert(kind.hypothesis(graph, params))
        failed = _differ(_fields({"hypothesis": certs["hypothesis"]}), _fields(rerun))
    return failed + kind.claims(graph, params, certs, verdict)


def _flag(ok, claim: str) -> list[str]:
    return [] if ok else [claim]


def _held(*shapes):
    """`fields` of the first of these shapes whose first field is held."""
    return lambda certs, verdict: next(
        (set(shape) for shape in shapes if shape[0] in certs), None)


def _packed_fields(*full):
    """`fields` of a packing: `full` ones if it is full, else a structure."""
    return lambda certs, verdict: {"packing", *(full if verdict else ("structure",))} \
        if "packing" in certs else None


def _preset_fields(certs, verdict):
    """A preset records its parts, empty, also when it built nothing."""
    return {"checks", "union", "degree_bounds", "trees", "rigid_parts",
            "reinforced"} if certs.get("trees") or certs.get("rigid_parts") else None


def _sparse_claims(graph, params, certs, verdict) -> list[str]:
    func, mask = parse_setfunc(params["func"], graph.n), mask_of(certs["violation"])
    return _flag(not verdict, "verdict") + \
        _flag(graph.induced(mask) > func.cap(mask), "violation")


def _rigid_claims(graph, params, certs, verdict) -> list[str]:
    """The edges are a sparse set avoiding the forbidden edges, of the
    size of a maximum one, and the verdict says whether it is spanning."""
    func, forbid = parse_setfunc(params["func"], graph.n), params["forbid"]
    rr, edges = sparsity.rank_and_rigid(graph, func, forbid), certs["edges"]
    return _flag(not set(edges) & set(forbid), "edges hold a forbidden edge") + \
        _flag(sparsity.is_sparse(graph.subgraph(edges), func).ok, "edges are not sparse") + \
        _flag(len(set(edges)) == len(edges) == rr.rank,
              f"edges are not a maximum sparse set of {rr.rank}") + \
        _flag(certs.get("rank", rr.rank) == rr.rank and certs["target"] == rr.target,
              "rank or target differs from the recomputed one") + \
        _flag(verdict == rr.rigid, "verdict")


def _components_claims(graph, params, certs, verdict) -> list[str]:
    comps = sparsity.rigid_components(graph, parse_setfunc(params["func"], graph.n))
    return _flag(verdict, "verdict") + _flag(
        sorted(mask_of(c) for c in certs["components"]) == sorted(comps),
        "components are not the recomputed rigid components")


def _decompose_claims(graph, params, certs, verdict) -> list[str]:
    func = parse_setfunc(params["func"], graph.n)
    return _flag(verdict, "verdict") + packing.decomposition_claims(
        graph, func, params["parts"], certs["parts"], certs["leftover"])


def _packing_claims(graph, params, certs, verdict, wanted) -> list[str]:
    """Claims of a packing whose parts have the `wanted` functions."""
    pk = certs["packing"]
    parts = [(parse_setfunc(p["func"], graph.n), p["edges"], p["target"],
              p["full"]) for p in pk["parts"]]
    failed = packing.packing_claims(graph, parts, pk["uncovered"],
                                    params["forbid"], verdict)
    failed += _flag([p["func"] for p in pk["parts"]] == [f.describe() for f in wanted],
                    "part functions are not the requested ones")
    failed += _flag(sorted(pk["forbidden"]) == sorted(params["forbid"]),
                    "forbidden edges differ from the requested ones")
    if "structure" in certs:
        structure = certs["structure"]
        failed += packing.structure_claims(
            graph, parts, pk["uncovered"], params["forbid"],
            structure["closure"], [mask_of(b) for b in structure["partition"]])
    return failed


def _funcs_claims(graph, params, certs, verdict) -> list[str]:
    wanted = [parse_setfunc(token, graph.n) for token in params["funcs"]]
    return _packing_claims(graph, params, certs, verdict, wanted)


def _pack_rigid_claims(graph, params, certs, verdict) -> list[str]:
    """The parts are l and ell after the degree eater, derived again from
    the graph and the params, and a full packing meets its degree bounds."""
    l, ell = (parse_setfunc(params[key], graph.n) for key in ("l", "ell"))
    k, rho = (params["k"], params["rho"]) if params["mode"] == "rho" else (None, None)
    try:
        wanted = packing.partition_rigid_funcs(graph, l, ell, params["mode"], k, rho)
    except ValueError:  # the degree eater's hypothesis fails on this graph
        wanted = []
    failed = _packing_claims(graph, params, certs, verdict, wanted)
    if "union" in certs:
        failed += packing.union_degree_claims(
            graph, l, ell, params["mode"], k, rho,
            [p["edges"] for p in certs["packing"]["parts"]],
            certs["union"], certs["degree_bounds"])
    return failed


def _pack_hypothesis(graph, params) -> packing.HypothesisReport:
    l, ell = (parse_setfunc(params[key], graph.n) for key in ("l", "ell"))
    return packing.check_pack_hypothesis(graph, l, ell, params["forbid"],
                                         params["mode"], params.get("k"),
                                         params.get("rho"))


def _preset_claims(claims, checks, certs, verdict) -> list[str]:
    return claims + _differ(certs["checks"], _checks_record(checks), "checks.") + \
        _flag(verdict, "verdict")


def _tree_rigid_kind(run, reinforced: bool) -> Kind:
    """The kind of a tree-rigid preset, whose reinforced parts are claims
    if `reinforced`."""
    def claims(graph, params, certs, verdict):
        return _preset_claims(*packing.tree_rigid_claims(
            graph, int(params["k"]), params["p"], params["m"], certs["trees"],
            certs["rigid_parts"], certs["reinforced"] if reinforced else None,
            certs["union"], certs["degree_bounds"]), certs, verdict)

    return Kind(_tree_rigid_inputs, run, _preset_fields, claims,
                lambda graph, params: packing.check_uniform_weakly_connected(
                    graph, *packing.tree_rigid_demand(int(params["k"]), params["p"],
                                                      params["m"])))


def _bipartite_claims(graph, params, certs, verdict) -> list[str]:
    return _preset_claims(*packing.bipartite_claims(
        graph, Fraction(params["k"]), mask_of(params["side"]), certs["rigid_parts"],
        certs["union"], certs["degree_bounds"]), certs, verdict)


def _arc_claims(mode_claims):
    """The claims of an orientation: its arcs orient each edge once and
    give its degrees, and `mode_claims(graph, params, certs, orient)`."""
    def claims(graph, params, certs, verdict):
        failed = _flag(verdict, "verdict")
        arcs = certs["arcs"]
        if not isinstance(arcs, list) or len(arcs) != graph.m or any(
                arc not in ([u, v], [v, u]) for arc, (u, v) in zip(arcs, graph.edges)):
            return failed + ["certificates.arcs do not orient each edge of the graph once"]
        orient = orientation.Orientation(graph, tuple(h for _, h in arcs))
        failed += [f"{key} disagree with the arcs"
                   for key, val in _orient_cert(orient).items() if certs[key] != val]
        return failed + mode_claims(graph, params, certs, orient)
    return claims


@_arc_claims
def _meets_targets(graph, params, certs, orient) -> list[str]:
    return _flag(list(orient.indegrees) == params["targets"],
                 "in-degrees are not the targets")


def _hakimi_claims(graph, params, certs, verdict) -> list[str]:
    """An orientation with the target in-degrees, or a vertex set that
    induces more edges than its targets sum to."""
    if "arcs" in certs:
        return _meets_targets(graph, params, certs, verdict)
    over = certs["violation"]
    return _flag(not verdict, "verdict") + _flag(
        graph.induced(mask_of(over)) > sum(params["targets"][v] for v in over),
        "violation set induces no more edges than its targets sum to")


def _balanced_claims(graph, params, certs, orient) -> list[str]:
    return _flag(orient.is_balanced(), "orientation is not balanced")


def _smooth_claims(graph, params, certs, orient) -> list[str]:
    return _flag(orient.is_smooth(), "orientation is not smooth")


def _rigid_orient_claims(graph, params, certs, orient) -> list[str]:
    func = parse_setfunc(params["func"], graph.n)
    return _flag(orientation.orientation_to_rigid(orient, func).ok,
                 "orientation does not certify minimal rigidity")


def _packed_claims(graph, params, certs, orient) -> list[str]:
    return orientation.packed_claims(
        orient, parse_setfunc(params["l"], graph.n),
        parse_setfunc(params["ell"], graph.n), params["r1"], params["r2"],
        certs["h1"], certs["h2"])


def _robust_claims(graph, params, certs, orient) -> list[str]:
    claims, checks = orientation.robust_claims(orient, params["k"])
    return claims + _differ(certs["checks"], _checks_record(checks), "checks.")


def _orientation(run, mode_claims, *keys, extra=()) -> Kind:
    """The kind of an orientation mode whose params are its mode and these
    inputs, and whose result records its arcs, degrees and `extra`."""
    return Kind(_oriented(*keys), run, _held((*ARCS, *extra)), _arc_claims(mode_claims))


ARCS = ("arcs", "indegrees", "outdegrees")
# the entries reach library functions by module attribute at call time, and
# no closure holds one, so rebinding a library name (as the tracer of
# perfbench/tracing.py does) reaches every call
KINDS = {
    "sparse": Kind(_given("func"), _sparse, _held(("violation",)), _sparse_claims),
    "rigid": Kind(_rigid_inputs, _rigid, _held(("edges", "target", "rank")),
                  _rigid_claims),
    # extracts whatever its hypothesis says, so it exits 0 or 1
    "rigid-forbid": Kind(
        _rigid_inputs, _rigid_forbid, _held(("edges", "target")), _rigid_claims,
        lambda graph, params: packing.check_rigid_sufficient(
            graph, parse_setfunc(params["func"], graph.n), params["forbid"]),
        stops=False),
    "components": Kind(_given("func"), _components, _held(("components",)),
                       _components_claims),
    "decompose": Kind(_given("func", "parts"), _decompose,
                      _held(("parts", "leftover")), _decompose_claims),
    "pack-funcs": Kind(_funcs_inputs, _pack_funcs, _packed_fields(), _funcs_claims),
    "pack-rigid": Kind(_pack_rigid_inputs, _pack_rigid,
                       _packed_fields("union", "degree_bounds"), _pack_rigid_claims,
                       _pack_hypothesis),
    "tree-rigid": _tree_rigid_kind(_tree_rigid, False),
    "tree-rigid-ec": _tree_rigid_kind(_tree_rigid_ec, True),
    "bipartite-degree": Kind(
        _bipartite_inputs, _bipartite, _preset_fields, _bipartite_claims,
        lambda graph, params: packing.check_bipartite_connectivity(
            graph, Fraction(params["k"]))),
    "orient-hakimi": Kind(_oriented("targets"), _hakimi,
                          _held(ARCS, ("violation",)),
                          _hakimi_claims),
    "orient-eulerian": _orientation(_eulerian, _balanced_claims),
    "orient-smooth": _orientation(_smooth, _smooth_claims),
    "orient-rigid": _orientation(_orient_rigid, _rigid_orient_claims, "func"),
    "orient-packed": _orientation(_packed, _packed_claims, "l", "ell", "r1", "r2",
                                  extra=("h1", "h2")),
    "orient-robust": _orientation(_robust, _robust_claims, "k", "retries",
                                  extra=("checks",)),
    "hypothesis": Kind(_given("check", "l", "ell", "ell_vec", "k", "k_int", "phi",
                              "rho", "forbid"), _hypothesis),
    "oracle": Kind(_given("what", "func", "heads", "roots", "ell_vec", "budget"),
                   _oracle),
    "census": Kind(_census_inputs, _oracle, loads_graph=False),
}


# ----------------------------------------------------------------------
# argument parsing


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    # global flags work both before and after the subcommand; the
    # subparser copies use SUPPRESS so they never clobber parsed values
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS)
    common.add_argument("--budget", type=int, default=argparse.SUPPRESS)
    common.add_argument("--force", action="store_true",
                        default=argparse.SUPPRESS)
    common.add_argument("--format", choices=("human", "structured"),
                        default=argparse.SUPPRESS)
    # flags that several subcommands share, each declared once
    graph, func, l_ell, forbid = (argparse.ArgumentParser(add_help=False)
                                  for _ in range(4))
    graph.add_argument("--graph", required=True)
    func.add_argument("--func", required=True)
    l_ell.add_argument("--l")
    l_ell.add_argument("--ell")
    forbid.add_argument("--forbid", type=int, nargs="*")
    parser = argparse.ArgumentParser(
        prog="rigidpack",
        description="certified sparsity / rigidity / packing / orientation toolkit")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=int, default=None)  # see main()
    parser.add_argument("--force", action="store_true", default=False,
                        help="run constructions even when the hypothesis check fails")
    parser.add_argument("--format", choices=("human", "structured"),
                        default="human")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sub.add_parser("sparse", parents=[common, graph, func])
    sub.add_parser("rigid", parents=[common, graph, func, forbid])
    sub.add_parser("components", parents=[common, graph, func])

    p = sub.add_parser("pack", parents=[common, graph, l_ell, forbid])
    p.add_argument("--funcs", nargs="*")
    p.add_argument("--mode", choices=("none", "halved", "rho"), default="none")
    p.add_argument("--k")
    p.add_argument("--k-int", type=int)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--rho")
    p.add_argument("--side", type=int, nargs="*")
    p.add_argument("--preset",
                   choices=("tree-rigid", "tree-rigid-ec", "bipartite-degree"))

    p = sub.add_parser("decompose", parents=[common, graph, func])
    p.add_argument("--parts", type=int, required=True)

    p = sub.add_parser("orient", parents=[common, graph, l_ell])
    p.add_argument("--mode", required=True,
                   choices=("hakimi", "eulerian", "smooth", "rigid",
                            "packed", "robust"))
    p.add_argument("--targets")
    p.add_argument("--func")
    p.add_argument("--r1")
    p.add_argument("--r2")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--retries", type=int, default=64)

    p = sub.add_parser("hypothesis", parents=[common, graph, l_ell, forbid])
    p.add_argument("--check", required=True, choices=HYPOTHESES)
    p.add_argument("--ell-vec")
    p.add_argument("--k")
    p.add_argument("--k-int", type=int)
    p.add_argument("--phi", default="1")
    p.add_argument("--rho")

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--report", required=True)

    p = sub.add_parser("oracle", parents=[common])
    p.add_argument("--graph")
    p.add_argument("--func")
    p.add_argument("--what", required=True, choices=(*ORACLES, "census"))
    p.add_argument("--heads")
    p.add_argument("--roots")
    p.add_argument("--ell-vec")
    p.add_argument("--census-n", type=int, default=4)
    p.add_argument("--census-filter", choices=("all", "connected"),
                   default="all")

    p = sub.add_parser("gen", parents=[common])
    p.add_argument("--family", required=True, choices=(*FAMILIES, "doubled"))
    p.add_argument("--n", type=int)
    p.add_argument("--a", type=int)
    p.add_argument("--b", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--offsets", type=int, nargs="*")
    p.add_argument("--base")
    p.add_argument("--mult", type=int, default=2)
    p.add_argument("--out")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    args.argv = sys.argv[1:] if argv is None else list(argv)
    if args.budget is None:
        args.budget = int(os.environ.get(BUDGET_ENV, "12"))
    try:
        return {"gen": cmd_gen, "verify": cmd_verify}.get(args.subcommand,
                                                          _run_report)(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

