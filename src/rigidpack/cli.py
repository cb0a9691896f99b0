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
# subcommands: the params a report records, and one runner per report
# subcommand, `(graph, params, seed, force) -> (verdict, certificates)`,
# that the command and `verify` both call


# the inputs these reports record as the arguments give them
GIVEN_INPUTS = {
    "sparse": ("func",), "components": ("func",), "decompose": ("func", "parts"),
    "hypothesis": ("check", "l", "ell", "ell_vec", "k", "k_int", "phi", "rho",
                   "forbid"),
    "oracle": ("what", "func", "heads", "roots", "ell_vec", "budget"),
}
# the inputs of each orientation mode; targets, r1 and r2 are recorded as
# one int per vertex
ORIENT_INPUTS = {"hakimi": ("targets",), "eulerian": (), "smooth": (),
                 "rigid": ("func",), "packed": ("l", "ell", "r1", "r2"),
                 "robust": ("k", "retries")}


def _inputs(opts: dict, graph: MultiGraph) -> dict:
    """A report's params: every input its runner reads, from the parsed
    arguments, in the form the runner reads it."""
    sub = opts["subcommand"]
    if sub == "oracle" and opts["what"] == "census":
        return {"what": "census", "n": opts["census_n"],
                "filter": opts["census_filter"], "budget": opts["budget"]}
    if sub in GIVEN_INPUTS:
        return {key: opts[key] for key in GIVEN_INPUTS[sub]}
    if sub == "orient":
        params = {"mode": opts["mode"]}
        for key in ORIENT_INPUTS[opts["mode"]]:
            value = _need(opts, "--" + key)
            params[key] = parse_int_list(value, graph.n, "--" + key) \
                if key in ("targets", "r1", "r2") else value
        return params
    forbid = sorted(set(opts["forbid"] or []))
    if sub == "rigid":
        return {"func": opts["func"], "forbid": forbid}
    name = opts["preset"]  # pack: a preset, --l/--ell or --funcs
    if name == "bipartite-degree":
        if opts["side"] is None:
            raise ValueError("bipartite-degree needs --side")
        return {"preset": name, "k": str(Fraction(opts["k"] or "1")),
                "p": opts["p"], "m": opts["m"], "side": opts["side"]}
    if name is not None:
        if opts["k_int"] is None:
            raise ValueError(f"{name} needs --k-int")
        return {"preset": name, "k": str(opts["k_int"]), "p": opts["p"], "m": opts["m"]}
    if opts["l"] or opts["ell"]:
        if not (opts["l"] and opts["ell"]):
            raise ValueError("--l and --ell go together")
        params = {"l": opts["l"], "ell": opts["ell"], "mode": opts["mode"],
                  "forbid": forbid}
        if opts["mode"] == "rho":
            params.update(k=opts["k"], rho=parse_int_list(opts["rho"], graph.n, "--rho")
                          if opts["rho"] else None)
        return params
    if not opts["funcs"]:
        raise ValueError("pack needs --funcs, --l/--ell, or --preset")
    return {"funcs": opts["funcs"], "forbid": forbid}


def _sparse(graph, params, seed, force) -> tuple[bool, dict]:
    res = sparsity.is_sparse(graph, parse_setfunc(params["func"], graph.n))
    return res.ok, {} if res.ok else {"violation": vertices_of(res.violation)}


def _rigid(graph, params, seed, force) -> tuple[bool, dict]:
    func, forbidden = parse_setfunc(params["func"], graph.n), set(params["forbid"])
    hyp = packing.check_rigid_sufficient(graph, func, forbidden) if forbidden else None
    rr = sparsity.rank_and_rigid(graph, func, forbidden)
    if not forbidden:
        return rr.rigid, {"rank": rr.rank, "target": rr.target,
                          "edges": sorted(rr.basis)}
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


def _pack(graph, params, seed, force) -> tuple[bool, dict]:
    if "preset" in params:
        return _preset(graph, params, force)
    forbidden = set(params["forbid"])
    if "funcs" in params:
        pk = packing.matroid_union_pack(
            graph, [parse_setfunc(t, graph.n) for t in params["funcs"]], forbidden)
        ok = all(p.full for p in pk.parts)
        cert = {"packing": _packing_cert(pk)}
        if not ok:
            cert["structure"] = _structure_cert(packing.structure_partition(pk))
        return ok, cert
    k = params.get("k")
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


def _preset(graph, params, force) -> tuple[bool, dict]:
    name = params["preset"]
    if name == "bipartite-degree":
        res = packing.preset_bipartite_degree(graph, Fraction(params["k"]),
                                              mask_of(params["side"]), force=force)
    else:
        fn = packing.preset_tree_rigid_ec if name == "tree-rigid-ec" else \
            packing.preset_tree_rigid
        res = fn(graph, int(params["k"]), params["p"], params["m"], force=force)
    return res.ok, {"checks": _checks_record(res.checks),
                    **_hypothesis_cert(res.hypothesis),
                    "union": sorted(res.union_edges),
                    "degree_bounds": list(res.degree_bounds),
                    "trees": [sorted(t) for t in res.trees],
                    "rigid_parts": [sorted(r) for r in res.rigid_parts],
                    "reinforced": [sorted(r) for r in res.reinforced]}


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


def _orient(graph, params, seed, force) -> tuple[bool, dict]:
    mode = params["mode"]
    if mode == "hakimi":
        res = orientation.hakimi_orient(graph, params["targets"])
        return res.ok, _orient_cert(res.orientation) if res.ok else \
            {"violation": vertices_of(res.violation)}
    if mode in ("eulerian", "smooth"):
        fn = orientation.euler_orient if mode == "eulerian" else orientation.smooth_orient
        return True, _orient_cert(fn(graph))
    if mode == "rigid":
        res = orientation.rigid_to_orientation(graph, parse_setfunc(params["func"], graph.n))
        if res.ok:
            return True, _orient_cert(res.orientation)
        return False, {"reason": res.reason,
                       "witness": vertices_of(res.witness) if isinstance(res.witness, int)
                       and res.reason == "not-sparse" else res.witness}
    if mode == "packed":
        res = orientation.packed_orientation(
            graph, parse_setfunc(params["l"], graph.n),
            parse_setfunc(params["ell"], graph.n), params["r1"], params["r2"],
            force=force)
        extra = {"h1": sorted(res.h1), "h2": sorted(res.h2)}
    elif mode == "robust":
        res = orientation.robust_arc_strong(graph, params["k"], seed=seed,
                                            retries=params["retries"], force=force)
        extra = {"checks": _checks_record(res.checks)}
    else:
        raise ValueError(f"unknown orientation mode {mode!r}")
    if res.ok:
        return True, {**_orient_cert(res.orientation), **extra}
    return False, {**_hypothesis_cert(res.hypothesis), "detail": res.detail}


def _hypothesis(graph, params, seed, force) -> tuple[bool, dict]:
    check = params["check"]
    forbid = set(params["forbid"] or [])

    def func(flag):
        return parse_setfunc(_need(params, flag), graph.n)

    if check == "rigid-necessary":
        rep = packing.check_rigid_necessary(graph, func("--ell"))
    elif check == "rigid-sufficient":
        rep = packing.check_rigid_sufficient(graph, func("--ell"), forbid)
    elif check == "rigid-cuts":
        rep = packing.check_rigid_cut_consequences(graph, _need(params, "--k-int"))
    elif check == "pack-basic":
        rep = packing.check_pack_basic(graph, func("--l"), func("--ell"))
    elif check == "pack-refined":
        rep = packing.check_pack_refined(graph, func("--l"), func("--ell"),
                                         Fraction(params["phi"]), len(forbid))
    elif check == "pack-degree":
        rep = packing.check_pack_degree(
            graph, func("--l"), func("--ell"), Fraction(_need(params, "--k")),
            parse_int_list(_need(params, "--rho"), graph.n, "--rho"))
    elif check == "weakly-connected":
        k_int = params["k_int"]
        ell_vec = parse_int_list(params["ell_vec"], graph.n, "--ell-vec") \
            if params["ell_vec"] else [1 if k_int is None else k_int] * graph.n
        rep = packing.check_weakly_connected(graph, ell_vec, func("--l"))
    else:
        raise ValueError(f"unknown hypothesis check {check!r}")
    return rep.ok, {"witness": rep.witness, "aux": {
        k: (v if v is not None else "none") for k, v in rep.aux.items()}}


def _oracle(graph, params, seed, force) -> tuple[bool, dict]:
    what, size = params["what"], params["budget"]
    if what == "census":
        graphs = oracle.census(params["n"], connected=params["filter"] == "connected")
        return True, {"count": len(list(graphs))}
    budget = oracle.OracleBudget(subset_n=size, partition_n=size, pair_n=size,
                                 rank_m=2 * size)
    func = parse_setfunc(_need(params, "--func"), graph.n)
    if what == "sparse":
        ok, wit = oracle.bf_sparse(graph, func, budget)
        cert = {"witness": vertices_of(wit) if wit is not None else None}
    elif what == "rank":
        rank, basis = oracle.bf_rank(graph, func, budget)
        ok, cert = True, {"rank": rank, "basis": sorted(basis)}
    elif what == "rigid":
        ok, rank, target = oracle.bf_rigid(graph, func, budget)
        cert = {"rank": rank, "target": target}
    elif what == "partition-connected":
        ok, wit = oracle.bf_partition_connected(graph, func, budget)
        cert = {"witness": [vertices_of(p) for p in wit] if wit else None}
    elif what == "edge-connected":
        ok, wit = oracle.bf_edge_connected(graph, func, budget)
        cert = {"witness": vertices_of(wit) if wit is not None else None}
    elif what == "matroid-axioms":
        ok, detail = oracle.bf_matroid_axioms(graph, func, budget)
        cert = {"detail": list(detail) if detail else None}
    elif what == "arc-connected":
        heads = parse_int_list(_need(params, "--heads"), graph.m, "--heads")
        roots = parse_int_list(params["roots"], graph.n, "--roots") \
            if params["roots"] else None
        ok, wit = oracle.bf_arc_connected(graph, heads, func, roots, budget)
        cert = {"witness": vertices_of(wit) if wit is not None else None}
    elif what == "weakly-connected":
        ell_vec = parse_int_list(_need(params, "--ell-vec"), graph.n, "--ell-vec")
        ok, wit = oracle.bf_weakly_connected(graph, ell_vec, func, budget)
        cert = {"witness": [vertices_of(m) for m in wit] if wit else None}
    else:
        raise ValueError(f"unknown oracle check {what!r}")
    return ok, cert


RUNNERS = {"sparse": _sparse, "rigid": _rigid, "components": _components,
           "pack": _pack, "decompose": _decompose, "orient": _orient,
           "hypothesis": _hypothesis, "oracle": _oracle}


def _run_report(args) -> int:
    """Load the graph (the census has none), record the params, run, and
    emit the report. Exit code 2 marks an error or a failed hypothesis that
    stopped the construction; `rigid --forbid` extracts whatever its
    hypothesis says, so it exits 0 or 1."""
    started, opts, sub = time.time(), vars(args), args.subcommand
    if sub == "oracle" and args.what == "census":
        graph, meta = MultiGraph(1, []), {"name": "census"}
    else:
        graph, meta = load_graph(_need(opts, "--graph"))
    params = _inputs(opts, graph)
    ok, certs = RUNNERS[sub](graph, params, args.seed, args.force)
    emit(make_report(args, sub, graph, meta, params, ok, certs, started), args.format)
    stopped = "error" in certs or \
        (sub != "rigid" and certs.get("hypothesis", {}).get("ok") is False)
    return 0 if ok else 2 if stopped else 1


def cmd_gen(args) -> int:
    fam, opts = args.family, vars(args)
    if fam == "complete":
        graph = generators.complete(_need(opts, "--n"))
        name = f"K{args.n}"
    elif fam == "complete-bipartite":
        graph = generators.complete_bipartite(_need(opts, "--a"), _need(opts, "--b"))
        name = f"K{args.a}_{args.b}"
    elif fam == "circulant":
        graph = generators.circulant(_need(opts, "--n"), _need(opts, "--offsets"))
        name = f"C{args.n}({','.join(map(str, args.offsets))})"
    elif fam == "random-simple":
        graph = generators.random_simple(_need(opts, "--n"), _need(opts, "--m"), args.seed)
        name = f"G{args.n}_{args.m}_s{args.seed}"
    elif fam == "random-regular":
        graph = generators.random_regular(_need(opts, "--n"), _need(opts, "--r"), args.seed)
        name = f"R{args.n}_{args.r}_s{args.seed}"
    elif fam == "doubled":
        base, meta = load_graph(_need(opts, "--base"))
        graph = generators.doubled(base, args.mult)
        name = f"{meta['name']}x{args.mult}"
    else:
        raise ValueError(f"unknown family {fam!r}")
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


# the fields that hold a certificate checkable on its own, where a result
# has one; a preset records its parts, empty, also when it built nothing,
# and only a `hakimi` orientation records a violation
CERTIFICATES = {"sparse": ("violation",), "rigid": ("edges",),
                "components": ("components",), "decompose": ("parts",),
                "pack": ("packing",), "orient": ("arcs",),
                "hakimi": ("arcs", "violation")}


def _certified_fields(sub, params, certs, verdict, force) -> set[str]:
    """The fields of a result whose certificate is checkable on its own, as
    its runner records them: a hypothesis unless forced, and a packing's
    union and degree bounds if full, its structure certificate if not."""
    hypothesis = set() if force else {"hypothesis"}
    if sub == "orient":
        extra = {"packed": {"h1", "h2"}, "robust": {"checks"}}.get(params["mode"], set())
        return {"arcs", "indegrees", "outdegrees", *extra} if "arcs" in certs \
            else {"violation"}
    if sub == "rigid":
        return {"edges", "target", "hypothesis" if params["forbid"] else "rank"}
    if sub == "pack" and "preset" in params:
        return {"checks", "union", "degree_bounds", "trees", "rigid_parts",
                "reinforced", *hypothesis}
    if sub == "pack" and "funcs" in params:
        return {"packing"} if verdict else {"packing", "structure"}
    if sub == "pack":
        return {"packing", *hypothesis,
                *(("union", "degree_bounds") if verdict else ("structure",))}
    return {"sparse": {"violation"}, "components": {"components"},
            "decompose": {"parts", "leftover"}}[sub]


def _reverify(sub, graph, params, certs, verdict, seed, force) -> list[str]:
    """Names of the report's claims that fail when re-checked. A result
    that carries a certificate checkable on its own must record exactly
    the fields of its kind; it goes through the library's claim checkers,
    the ones the engine runs on its own results, and the hypothesis it
    records is re-run by the check that made it. Every other verdict (a
    `hypothesis` or `oracle` report, an error, a construction that built
    nothing) is decided again by the subcommand's runner, from the report's
    params, seed and force, and must be recorded exactly."""
    if sub not in RUNNERS:
        raise ValueError(f"cannot verify reports for subcommand {sub!r}")
    if sub == "pack" and "preset" in params:
        certified = bool(certs.get("trees") or certs.get("rigid_parts"))
    else:
        shape = params["mode"] if sub == "orient" and params["mode"] == "hakimi" else sub
        certified = any(key in certs for key in CERTIFICATES.get(shape, ()))
    if not certified:
        ok, rerun = RUNNERS[sub](graph, params, seed, force)
        return _differ({"verdict": verdict, **_fields(certs)},
                       {"verdict": ok, **_fields(rerun)})
    fields = _certified_fields(sub, params, certs, verdict, force)
    failed = [f"certificates.{key} is missing" for key in sorted(fields - set(certs))]
    failed += [f"certificates.{key} is not a field of this result"
               for key in sorted(set(certs) - fields)]
    if failed:  # the checks below read exactly the fields of this result
        return failed
    if "hypothesis" in certs:
        rerun = _hypothesis_cert(_recorded_hypothesis(sub, graph, params))
        failed = _differ(_fields({"hypothesis": certs["hypothesis"]}), _fields(rerun))
    if sub == "pack":
        return failed + _pack_claims(graph, params, certs, verdict)
    if sub == "orient":
        return failed + _orient_claims(graph, params, certs, verdict)
    func = parse_setfunc(params["func"], graph.n)
    if sub == "rigid":
        return failed + _rigid_claims(graph, func, params["forbid"], certs, verdict)
    failed += [] if verdict == (sub != "sparse") else ["verdict"]
    if sub == "sparse":
        mask = mask_of(certs["violation"])
        failed += [] if graph.induced(mask) > func.cap(mask) else ["violation"]
    elif sub == "components":
        comps = {mask_of(c) for c in certs["components"]}
        if comps != set(sparsity.rigid_components(graph, func)):
            failed.append("components are not the recomputed rigid components")
    else:
        failed += packing.decomposition_claims(graph, func, params["parts"],
                                               certs["parts"], certs["leftover"])
    return failed


def _recorded_hypothesis(sub, graph, params) -> packing.HypothesisReport:
    """The check whose result a `pack` or `rigid` report that built a
    certificate records as its hypothesis, run from the report's params as
    the engine ran it. An orientation records one only when it fails, and
    then has no certificate: its runner decides it again."""
    preset = params.get("preset")
    if preset == "bipartite-degree":
        return packing.check_bipartite_connectivity(graph, Fraction(params["k"]))
    if preset is not None:
        return packing.check_uniform_weakly_connected(graph, *packing.tree_rigid_demand(
            int(params["k"]), params["p"], params["m"]))
    if sub == "rigid":
        return packing.check_rigid_sufficient(
            graph, parse_setfunc(params["func"], graph.n), params["forbid"])
    l, ell = (parse_setfunc(params[key], graph.n) for key in ("l", "ell"))
    return packing.check_pack_hypothesis(graph, l, ell, params["forbid"],
                                         params["mode"], params.get("k"),
                                         params.get("rho"))


def _rigid_claims(graph, func, forbid, certs, verdict) -> list[str]:
    """The edges are a sparse set avoiding the forbidden edges, of the
    size of a maximum one, and the verdict says whether it is spanning."""
    rr = sparsity.rank_and_rigid(graph, func, forbid)
    edges = certs["edges"]
    failed = []
    if set(edges) & set(forbid):
        failed.append("edges hold a forbidden edge")
    if not sparsity.is_sparse(graph.subgraph(edges), func).ok:
        failed.append("edges are not sparse")
    if len(set(edges)) != len(edges) or len(edges) != rr.rank:
        failed.append(f"edges are not a maximum sparse set of {rr.rank}")
    if certs.get("rank", rr.rank) != rr.rank or certs["target"] != rr.target:
        failed.append("rank or target differs from the recomputed one")
    if verdict != rr.rigid:
        failed.append("verdict")
    return failed


def _pack_claims(graph, params, certs, verdict) -> list[str]:
    preset = params.get("preset")
    if preset is not None:
        rigid = certs["rigid_parts"]
        if preset == "bipartite-degree":
            claims, checks = packing.bipartite_claims(
                graph, Fraction(params["k"]), mask_of(params["side"]), rigid,
                certs["union"], certs["degree_bounds"])
        else:
            claims, checks = packing.tree_rigid_claims(
                graph, int(params["k"]), params["p"], params["m"],
                certs["trees"], rigid,
                certs["reinforced"] if preset == "tree-rigid-ec" else None,
                certs["union"], certs["degree_bounds"])
        return claims + _differ(certs["checks"], _checks_record(checks), "checks.") + \
            ([] if verdict else ["verdict"])
    pk = certs["packing"]
    parts = [(parse_setfunc(p["func"], graph.n), p["edges"], p["target"],
              p["full"]) for p in pk["parts"]]
    failed = packing.packing_claims(graph, parts, pk["uncovered"],
                                    params["forbid"], verdict)
    if "funcs" in params:
        wanted = [parse_setfunc(token, graph.n) for token in params["funcs"]]
    else:
        l, ell = (parse_setfunc(params[key], graph.n) for key in ("l", "ell"))
        k, rho = (params["k"], params["rho"]) if params["mode"] == "rho" else (None, None)
        try:
            wanted = packing.partition_rigid_funcs(graph, l, ell, params["mode"], k, rho)
        except ValueError:  # the degree eater's hypothesis fails on this graph
            wanted = []
    if [p["func"] for p in pk["parts"]] != [f.describe() for f in wanted]:
        failed.append("part functions are not the requested ones")
    if sorted(pk["forbidden"]) != sorted(params["forbid"]):
        failed.append("forbidden edges differ from the requested ones")
    if "structure" in certs:
        structure = certs["structure"]
        failed += packing.structure_claims(
            graph, parts, pk["uncovered"], params["forbid"],
            structure["closure"], [mask_of(b) for b in structure["partition"]])
    if "union" in certs:
        failed += packing.union_degree_claims(
            graph, l, ell, params["mode"], k, rho, [p["edges"] for p in pk["parts"]],
            certs["union"], certs["degree_bounds"])
    return failed


def _orient_claims(graph, params, certs, verdict) -> list[str]:
    mode = params["mode"]
    if "arcs" not in certs:  # the violation set of an infeasible `hakimi` run
        over = certs["violation"]
        failed = ["verdict"] if verdict else []
        if graph.induced(mask_of(over)) <= sum(params["targets"][v] for v in over):
            failed.append("violation set induces no more edges than its targets sum to")
        return failed
    failed = [] if verdict else ["verdict"]
    arcs = certs["arcs"]
    if not isinstance(arcs, list) or len(arcs) != graph.m or any(
            arc not in ([u, v], [v, u]) for arc, (u, v) in zip(arcs, graph.edges)):
        return failed + ["certificates.arcs do not orient each edge of the graph once"]
    orient = orientation.Orientation(graph, tuple(h for _, h in arcs))
    failed += [f"{key} disagree with the arcs"
               for key, val in _orient_cert(orient).items() if certs[key] != val]
    if mode == "hakimi" and list(orient.indegrees) != params["targets"]:
        failed.append("in-degrees are not the targets")
    if mode == "eulerian" and not orient.is_balanced():
        failed.append("orientation is not balanced")
    if mode == "smooth" and not orient.is_smooth():
        failed.append("orientation is not smooth")
    if mode == "rigid" and not orientation.orientation_to_rigid(
            orient, parse_setfunc(params["func"], graph.n)).ok:
        failed.append("orientation does not certify minimal rigidity")
    if mode == "packed":
        failed += orientation.packed_claims(
            orient, parse_setfunc(params["l"], graph.n),
            parse_setfunc(params["ell"], graph.n), params["r1"], params["r2"],
            certs["h1"], certs["h2"])
    if mode == "robust":
        claims, checks = orientation.robust_claims(orient, params["k"])
        failed += claims + _differ(certs["checks"], _checks_record(checks), "checks.")
    return failed


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

    p = sub.add_parser("sparse", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--func", required=True)

    p = sub.add_parser("rigid", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--func", required=True)
    p.add_argument("--forbid", type=int, nargs="*")

    p = sub.add_parser("components", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--func", required=True)

    p = sub.add_parser("pack", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--funcs", nargs="*")
    p.add_argument("--l")
    p.add_argument("--ell")
    p.add_argument("--mode", choices=("none", "halved", "rho"), default="none")
    p.add_argument("--k")
    p.add_argument("--k-int", type=int)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--rho")
    p.add_argument("--side", type=int, nargs="*")
    p.add_argument("--forbid", type=int, nargs="*")
    p.add_argument("--preset",
                   choices=("tree-rigid", "tree-rigid-ec", "bipartite-degree"))

    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--func", required=True)
    p.add_argument("--parts", type=int, required=True)

    p = sub.add_parser("orient", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--mode", required=True,
                   choices=("hakimi", "eulerian", "smooth", "rigid",
                            "packed", "robust"))
    p.add_argument("--targets")
    p.add_argument("--func")
    p.add_argument("--l")
    p.add_argument("--ell")
    p.add_argument("--r1")
    p.add_argument("--r2")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--retries", type=int, default=64)

    p = sub.add_parser("hypothesis", parents=[common])
    p.add_argument("--graph", required=True)
    p.add_argument("--check", required=True,
                   choices=("rigid-necessary", "rigid-sufficient", "rigid-cuts",
                            "pack-basic", "pack-refined", "pack-degree",
                            "weakly-connected"))
    p.add_argument("--l")
    p.add_argument("--ell")
    p.add_argument("--ell-vec")
    p.add_argument("--k")
    p.add_argument("--k-int", type=int)
    p.add_argument("--phi", default="1")
    p.add_argument("--rho")
    p.add_argument("--forbid", type=int, nargs="*")

    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--report", required=True)

    p = sub.add_parser("oracle", parents=[common])
    p.add_argument("--graph")
    p.add_argument("--func")
    p.add_argument("--what", required=True,
                   choices=("sparse", "rank", "rigid", "partition-connected",
                            "edge-connected", "arc-connected",
                            "weakly-connected", "matroid-axioms", "census"))
    p.add_argument("--heads")
    p.add_argument("--roots")
    p.add_argument("--ell-vec")
    p.add_argument("--census-n", type=int, default=4)
    p.add_argument("--census-filter", choices=("all", "connected"),
                   default="all")

    p = sub.add_parser("gen", parents=[common])
    p.add_argument("--family", required=True,
                   choices=("complete", "complete-bipartite", "circulant",
                            "random-simple", "random-regular", "doubled"))
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
        if args.subcommand in ("gen", "verify"):
            return (cmd_gen if args.subcommand == "gen" else cmd_verify)(args)
        return _run_report(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
