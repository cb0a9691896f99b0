"""Matroid-union packing of spanning sparse subgraphs, rank certificates
for deficient packings, hypothesis checkers, and the degree-bounded packing
pipelines built on them, with the claim checkers `rigidpack verify` shares.

The packing search augments one uncovered edge at a time by breadth-first
exploration over single-edge replacements: an edge either enters a part
directly or displaces an edge of the minimal tight set spanning its ends,
and the displaced edge continues the search. Shortest replacement chains
are applied simultaneously: each part's pebble state drops its displaced
edges and then takes its new ones, and a rejected insert raises. A failed
search certifies the edge lies in the span of the union, so one ascending
pass over the edges reaches a maximum packing. It certifies more: every
edge it visited is spanned, in every part, by that part's edges among the
visited ones, so no later augmenting path passes through them. Those
edges are dead for the rest of the pass and no later search explores them
again (Cunningham 1986).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graph import (MultiGraph, INFINITY, vertices_of, _mixed_cut,
                    _vertex_deleted_cuts)
from .setfuncs import (
    SetFunc, lmn, zero, halved_slack, rho_slack, scaled, pebble_params,
)
from .sparsity import (PebbleState, is_sparse, rank_and_rigid, _pebble_run,
                       _require_pebble_params)

PAIR_SWEEP_BUDGET = 14


# ----------------------------------------------------------------------
# packing containers


@dataclass(frozen=True)
class PackPart:
    func: SetFunc
    edges: frozenset[int]
    target: int

    @property
    def full(self) -> bool:
        return len(self.edges) == self.target


@dataclass(frozen=True)
class Packing:
    """`_closure` is F (see `_augment`) or, when the union pass stopped as
    every part was filled, the searches it left: the same calls on the same
    states, run once, on the first read of `closure`."""
    host: MultiGraph
    parts: tuple[PackPart, ...]
    uncovered: frozenset[int]
    forbidden: frozenset[int]
    _closure: object = field(default=frozenset(), compare=False, repr=False)

    @cached_property
    def closure(self) -> frozenset[int]:
        return self._closure() if callable(self._closure) else self._closure

    def covered(self) -> int:
        return sum(len(p.edges) for p in self.parts)

    def verify(self) -> None:
        """Raise naming the failed claims of `packing_claims`."""
        _fail_on(packing_claims(
            self.host, [(p.func, p.edges, p.target, p.full) for p in self.parts],
            self.uncovered, self.forbidden))


# ----------------------------------------------------------------------
# matroid union


def matroid_union_pack(host: MultiGraph, funcs, forbidden=()) -> Packing:
    """Maximum packing of edge-disjoint sparse subgraphs avoiding forbidden edges.

    Edges are attempted in ascending id order; a valid (possibly deficient)
    packing is always returned. Its closure is the set of edges the failed
    searches reached, the rank certificate `structure_partition` reports.
    Once every part i holds `filled[i]` edges, filled parts block every
    gather and no search can augment, so the pass stops; reading the closure
    runs the searches left: the same `_augment` calls on the same states.
    """
    funcs = list(funcs)
    states = [PebbleState(*_require_pebble_params(f)) for f in funcs]
    filled = [sum(state.caps) - state.ell for state in states]
    blocked = set(forbidden)
    dead: set[int] = set()
    inside = [[0] * host.n for _ in funcs]
    kept = [row[:] for row in inside]
    rest = deque(eid for eid in range(host.m) if eid not in blocked)
    while rest and any(len(s.ends) < f for s, f in zip(states, filled)):
        if _augment(host, states, filled, rest.popleft(), dead, inside):
            inside = [row[:] for row in kept]
        else:
            kept = [row[:] for row in inside]
    parts = tuple(PackPart(func=f, edges=frozenset(state.accepted),
                           target=max(f.rigid_target, 0))
                  for f, state in zip(funcs, states))
    uncovered = frozenset(range(host.m)).difference(*(p.edges for p in parts))

    def searches_left() -> frozenset[int]:
        for eid in rest:
            if _augment(host, states, filled, eid, dead, inside):
                raise RuntimeError(f"deferred search of edge {eid} augmented")
        return frozenset(dead)

    packing = Packing(host, parts, uncovered, frozenset(blocked),
                      searches_left if rest else frozenset(dead))
    packing.verify()
    return packing


def _augment(host: MultiGraph, states, filled: list[int], eid: int,
             dead: set[int], inside: list[list[int]]) -> bool:
    """Breadth-first replacement search; applies the chain on success.

    `parent[y] = (x, i)` says that y sits in part i, so it is the record
    of which part owns each edge reached: the queue carries every edge with
    its part (None for `eid`), and the chain walks `parent` back. A
    blocked probe of x's ends in part i returns R, the minimal tight set
    of part i holding them; x's circuit in part i is that part's edges
    inside R, which `PebbleState.tight_edges` reads off R's arcs.

    Edges in `dead` are never enqueued, and a failed search adds its
    visited set to `dead`. This prunes nothing a search could use. After
    a failed search, S = dead is closed: for every x in S and every part
    i not owning x, the probe of x in part i failed and x's circuit in
    I_i lies in S, so I_i & S spans S in M_i. Hence no edge of S enters
    any part directly, and every circuit of an edge of S stays inside S:
    a later search could enter S but never leave it, so its augmenting
    path avoids S. Chains then never touch S, which keeps every I_i & S,
    and with it the closure, fixed from then on. Since a dead edge only
    discovers dead edges, skipping them leaves the discovery order,
    parents and applied chains of every later search, and so the whole
    packing, unchanged. Every edge of S was reached from a usable
    uncovered edge along such circuits, which stay fixed, so at the end of
    the pass S is the least set that holds the usable uncovered edges and
    is closed in this sense: the rank certificate F that
    `matroid_union_pack` returns as the packing's closure.

    `inside[i][w]` is the union of the tight sets of part i that blocked
    probes returned while holding w. The caller resets it after every
    applied chain to what it held after the last failed search. The probe
    of an edge uv in part i is skipped when u and v lie together in one
    such set M. This prunes nothing either, whether M was found in this
    search or in an earlier failed one:
    - Found in this search: no chain has changed part i since, so M is
      still tight and holds the same part-i edges, each visited or dead
      once M was found.
    - Found in a failed search: every part-i edge inside M was visited
      in it, or dead before, so it is dead now. Chains never touch dead
      edges, and an insert into part i inside M would make the tight M
      overfull. So M stays tight with the same part-i edges inside it.
    Either way the probe would be blocked, its minimal tight set would lie
    in M, and it would enqueue nothing. Probes only move pebbles, and
    acceptance and minimal tight sets depend only on the accepted edges,
    so no later answer changes and the packing is the same.

    Each dequeued edge first asks the parts, in order, for a direct
    insert only. A part with at most ell free pebbles blocks every gather,
    so it is not probed in that pass: part i is such a part once it has
    accepted `filled[i]` = sum(caps) - ell edges. Once every part is, no
    search can augment, so `matroid_union_pack` stops and runs the searches
    left, these same calls on the same states, only when F is read. Only
    when no part takes the edge are the filled parts probed, and every
    blocked part's circuit read and enqueued in part order. The first part
    that takes the edge is the one the probes in plain part order would
    find, and each part's R, hence its circuit and the queue order,
    depends only on its accepted edges, which no probe changes.
    """
    parent: dict[int, tuple[int, int]] = {}
    visited = {eid}
    queue = deque([(eid, None)])
    while queue:
        x, own = queue.popleft()
        u, v = host.edges[x]
        blocked = []
        for i, state in enumerate(states):
            if i == own or (inside[i][u] >> v) & 1:
                continue
            if len(state.ends) >= filled[i]:
                blocked.append((i, None))
            elif (res := state.probe_pair(u, v)) is None:
                _apply_chain(host, states, parent, x, i)
                return True
            else:
                blocked.append((i, res))
        for i, res in blocked:
            state = states[i]
            if res is None:
                res = state.probe_pair(u, v)
            for w in state.reached:
                inside[i][w] |= res
            for y in state.tight_edges():
                if y not in visited and y not in dead:
                    visited.add(y)
                    parent[y] = (x, i)
                    queue.append((y, i))
    dead |= visited
    return False


def _apply_chain(host: MultiGraph, states, parent, last: int,
                 free_part: int) -> None:
    """Move each edge of the chain ending at `last` into the part it was
    found in (`last` into `free_part`), walking `parent` back to the
    uncovered edge that started it. A shortest chain leaves every part
    independent (Cunningham 1986), so after the deletions no insert may
    fail; a rejected one is an engine bug and raises."""
    moves = [(last, free_part)]
    while moves[-1][0] in parent:
        moves.append(parent[moves[-1][0]])
    for edge, _ in moves[:-1]:
        states[parent[edge][1]].delete(edge)
    for edge, target in moves:
        if states[target].insert(edge, *host.edges[edge]) is not None:
            raise RuntimeError(
                f"part {target} rejected edge {edge}: exchange broke sparsity")


# ----------------------------------------------------------------------
# structure certificates for deficient packings


@dataclass(frozen=True)
class StructureCertificate:
    partition: tuple[int, ...]
    closure: frozenset[int]


def structure_partition(packing: Packing) -> StructureCertificate:
    """Rank certificate for a maximum packing: an edge set F with covered =
    |E' - F| + sum_i |I_i & F| over the non-forbidden edges E' and the
    parts I_i, which no packing can beat (Edmonds' matroid partition
    theorem), and the blocks of V that F spans.

    F is `packing.closure`, the edges the failed augmenting searches of
    `matroid_union_pack` reached: the least set holding the usable
    uncovered edges and closed under replacements in the parts that do not
    own an edge (see `_augment`). Closing it under replacements in an
    edge's own part too would add nothing: an owned edge entered F inside
    a tight set T of its owner, and the minimal tight set spanning its
    ends lies inside T, whose edges in that part are already in F. The
    claims of `structure_claims` are re-checked before returning; a
    failure is an engine bug and raises.
    """
    host = packing.host
    parts = [(p.func, p.edges, p.target, p.full) for p in packing.parts]
    if not packing.uncovered - packing.forbidden and all(p.full for p in packing.parts):
        partition = (host.full_mask,)
    else:
        partition = tuple(sorted(host.subgraph(packing.closure).components()))
    _fail_on(structure_claims(host, parts, packing.uncovered, packing.forbidden,
                              packing.closure, partition))
    return StructureCertificate(partition=partition, closure=packing.closure)


# ----------------------------------------------------------------------
# rigid decomposition


@dataclass(frozen=True)
class RigidDecomposition:
    parts: tuple[frozenset[int], ...]
    leftover: frozenset[int]


def decompose_p_rigid(graph: MultiGraph, ell: SetFunc, p: int) -> RigidDecomposition:
    """Split a p-fold rigid graph into p edge-disjoint spanning rigid subgraphs.

    Requires ell(u) + ell(v) = ell({u,v}) + 1 on every edge (every edge is
    rigid on its own ends) and the p-scaled rank to be full; each returned
    part re-verifies rigid.
    """
    if p < 1:
        raise ValueError("need at least one part")
    for u, v in graph.edges:
        pair = (1 << u) | (1 << v)
        if ell.singletons[u] + ell.singletons[v] != ell.value(pair) + 1:
            raise ValueError(
                f"edge ({u},{v}) violates the adjacency requirement "
                "ell(u) + ell(v) = ell(uv) + 1")
    total = scaled(ell, p)
    rr = rank_and_rigid(graph, total)
    if not rr.rigid:
        raise ValueError(
            f"graph is not {p}-fold rigid: rank {rr.rank} < target {rr.target}")
    packing = matroid_union_pack(graph, [ell] * p)
    parts = tuple(part.edges for part in packing.parts)
    _fail_on(decomposition_claims(graph, ell, p, parts, packing.uncovered))
    return RigidDecomposition(parts=parts, leftover=packing.uncovered)


# ----------------------------------------------------------------------
# hypothesis reports


@dataclass(frozen=True)
class HypothesisReport:
    tag: str
    ok: bool
    witness: dict = field(compare=False, default_factory=dict)
    aux: dict = field(compare=False, default_factory=dict)


def _pair_tables(graph: MultiGraph):
    if graph.n > PAIR_SWEEP_BUDGET:
        raise ValueError(
            f"pair sweep budget exceeded (n={graph.n} > {PAIR_SWEEP_BUDGET}); "
            "use oracle sampling instead")
    return graph.induced_table


def _sweep_pairs(graph: MultiGraph, weights, unions, demand, far_value=None,
                 over: SetFunc | None = None):
    """First disjoint pair (A, B) whose cut d_{G-B}(A) falls short of its
    demand, as a witness dict, or None.

    Unions U = A | B run through `unions` in order, and B through the
    submasks of U in descending order, so A is empty first and B last.
    demand(U) is (c, x, x_no_a, x_no_b): the pair needs c + x - (sum of
    weights over B) cut edges, with x_no_a in place of x when A is empty
    (None skips that pair) and x_no_b when B is empty. far_value(S), when
    given, is added to the demand of every pair with V - A = S. With
    `over`, only unions inducing more edges than over's capacity are swept.
    """
    etab = _pair_tables(graph)
    wtab = graph.weight_table(weights)
    otab = graph.weight_table(over.singletons) if over is not None else None
    full, m = graph.full_mask, graph.m
    # the cut is m - e(U) - e(V - A) + e(B), so a pair falls short exactly
    # when near[B] - far[V - A] < c + x - m + e(U)
    near = [e + w for e, w in zip(etab, wtab)]
    far = etab if far_value is None else [e + far_value(s) for s, e in enumerate(etab)]

    def witness(union, b, cx):
        rest = full ^ union ^ b
        return {"A": vertices_of(union ^ b), "B": vertices_of(b),
                "lhs": m - etab[union] - etab[rest] + etab[b],
                "rhs": cx - wtab[b] + far[rest] - etab[rest]}

    for union in unions:
        if otab is not None and etab[union] <= otab[union] - over.value(union):
            continue
        c, x, x_no_a, x_no_b = demand(union)
        shift = etab[union] - m
        if x_no_a is not None and near[union] - far[full] < c + x_no_a + shift:
            return witness(union, union, c + x_no_a)
        rest = full ^ union
        bar = c + x + shift
        b = (union - 1) & union
        while b:
            if near[b] - far[rest | b] < bar:
                return witness(union, b, c + x)
            b = (b - 1) & union
        if near[0] - far[rest] < c + x_no_b + shift:
            return witness(union, 0, c + x_no_b)
    return None


def check_weakly_connected(graph: MultiGraph, ell_singletons,
                           l_func: SetFunc) -> HypothesisReport:
    """d_{G-B}(A) >= l(A|B) - sum of ell over B for disjoint A != 0, A|B proper."""
    wit = _sweep_pairs(graph, ell_singletons, range(1, graph.full_mask),
                       lambda union: (l_func.value(union), 0, None, 0))
    return HypothesisReport("weakly-connected", wit is None, witness=wit or {})


def check_rigid_necessary(graph: MultiGraph, ell: SetFunc) -> HypothesisReport:
    """Necessary cut condition for rigidity, over every disjoint pair:
    d_{G-B}(A) >= ell(A|B) - sum of ell over B + ell(V-A) - ell(V)."""
    ell_g = ell.value(graph.full_mask)
    # the empty pair needs ell(0) = 0 cut edges, so the sweep starts at U = 1
    wit = _sweep_pairs(graph, ell.singletons, range(1, graph.full_mask + 1),
                       lambda union: (ell.value(union), 0, 0, 0),
                       lambda rest: ell.value(rest) - ell_g)
    return HypothesisReport("rigid-necessary", wit is None, witness=wit or {})


def check_rigid_cut_consequences(graph: MultiGraph, k: int) -> HypothesisReport:
    """Cut conditions every k-rigid graph of order >= 3 must satisfy:
    k-edge-connected, essentially (2k-1)-edge-connected, and
    (k-1)-edge-connected after deleting any one vertex."""
    if k < 1:
        raise ValueError("rigidity level must be at least 1")
    if graph.n < 3:
        raise ValueError("cut consequences apply to graphs of order at least 3")
    # the G - v flows run only once the first two checks pass
    lam, lowered = _vertex_deleted_cuts(graph.n, graph._edge_arcs(), False, k - 1)
    aux = {"edge_connectivity": lam}
    if lam < k:
        return HypothesisReport("rigid-cuts", False,
                                witness={"check": "edge", "value": lam}, aux=aux)
    ess = graph.essential_edge_connectivity()
    aux["essential"] = ess
    if ess < 2 * k - 1:
        return HypothesisReport("rigid-cuts", False,
                                witness={"check": "essential", "value": ess}, aux=aux)
    for v, lam_v, _ in lowered:
        return HypothesisReport("rigid-cuts", False, witness={
            "check": "vertex-deleted", "vertex": v, "value": lam_v}, aux=aux)
    return HypothesisReport("rigid-cuts", True, aux=aux)


def check_rigid_sufficient(graph: MultiGraph, ell: SetFunc,
                           forbidden=()) -> HypothesisReport:
    """Sufficient cut condition for a spanning rigid subgraph avoiding a
    forbidden edge set of size at most ell(V): check_pack_basic with l = 0,
    under the same sweep budget and its own tag."""
    _pair_tables(graph)  # the sweep budget is checked before anything else
    if len(set(forbidden)) > ell.value(graph.full_mask):
        return HypothesisReport("rigid-sufficient", False, witness={
            "check": "forbidden-size", "size": len(set(forbidden)),
            "limit": ell.value(graph.full_mask)})
    return check_pack_basic(graph, zero(graph.n), ell, "rigid-sufficient")


def check_pack_basic(graph: MultiGraph, l: SetFunc, ell: SetFunc,
                     tag: str = "pack-basic") -> HypothesisReport:
    """Cut condition for packing a partition-connected and a rigid part:
    minimum degree 2 ell(v) + 2 l(v), and d_{G-B}(A) >= 2 ell(A|B) - sum of
    ell over B, plus 2 l(A|B) when A != 0, wherever A|B induces more edges
    than ell's capacity."""
    _pair_tables(graph)  # the sweep budget is checked before anything else
    for v in range(graph.n):
        if graph.degree(v) < 2 * ell.singletons[v] + 2 * l.singletons[v]:
            return HypothesisReport(tag, False, witness={
                "check": "degree", "vertex": v, "degree": graph.degree(v)})

    def demand(union):
        l_u = 2 * l.value(union)
        return 2 * ell.value(union), l_u, 0, l_u

    wit = _sweep_pairs(graph, ell.singletons, range(1, graph.full_mask), demand,
                       over=ell)
    return HypothesisReport(tag, wit is None, witness=wit or {})


def violation_threshold(graph: MultiGraph, ell: SetFunc):
    """Least size of a vertex set inducing more edges than its capacity."""
    etab = _pair_tables(graph)
    best = None
    for mask in range(1, graph.full_mask + 1):
        if etab[mask] > ell.cap(mask):
            size = bin(mask).count("1")
            if best is None or size < best:
                best = size
    return best


def check_pack_refined(graph: MultiGraph, l: SetFunc, ell: SetFunc,
                       phi, forbidden_count: int = 0) -> HypothesisReport:
    """Refined cut condition with the phi/lambda discount and the slack for
    near-full vertex sets. phi is a constant in [0, 1] or a callable on
    masks returning Fractions.

    Wherever A|B induces more edges than ell's capacity, d_{G-B}(A) + eps
    >= 2 ell(A|B) - sum of ell over B + extra, where extra is 2 l(A|B) for
    B = 0, l(A|B) phi / lambda for A = 0 and l(A|B) (2 - phi) otherwise,
    and eps is epsilon_near_full on sets of n - 1 vertices, else 0."""
    full, n = graph.full_mask, graph.n
    lam = violation_threshold(graph, ell)
    phi_fn = phi if callable(phi) else (lambda _mask, _p=Fraction(phi): _p)
    eps_base = 2 * l.value(full) + 2 * ell.value(full) - 2 * forbidden_count
    aux = {"lambda": lam, "epsilon_near_full": eps_base}
    for v in range(graph.n):
        if graph.degree(v) < 2 * ell.singletons[v] + 2 * l.singletons[v]:
            return HypothesisReport("pack-refined", False, witness={
                "check": "degree", "vertex": v}, aux=aux)

    def eps(union_size):
        return eps_base if union_size == n - 1 else 0

    def demand(union):
        l_u = Fraction(l.value(union))
        phi_u = Fraction(phi_fn(union))
        if not 0 <= phi_u <= 1:
            raise ValueError("phi must take values in [0, 1]")
        return (2 * ell.value(union) - eps(bin(union).count("1")),
                l_u * (2 - phi_u), l_u * phi_u / lam, 2 * l_u)

    wit = _sweep_pairs(graph, ell.singletons, range(1, full), demand, over=ell)
    if wit is None:
        return HypothesisReport("pack-refined", True, aux=aux)
    slack = eps(len(wit["A"]) + len(wit["B"]))
    wit["lhs"] = str(Fraction(wit["lhs"] + slack))
    wit["rhs"] = str(wit["rhs"] + slack)
    return HypothesisReport("pack-refined", False, witness=wit, aux=aux)


def check_pack_degree(graph: MultiGraph, l: SetFunc, ell: SetFunc, k,
                      rho) -> HypothesisReport:
    """Cut and density conditions for the k/rho degree-restricted packing:
    every set induces at most rho(S) + k/(k-2) (l(V) + ell(V)) edges, every
    degree is at least k (ell(v) + l(v)), and d_{G-B}(A) >= k ell(A|B) -
    k/2 (sum of ell over B), plus k l(A|B) when A != 0, wherever A|B
    induces more edges than ell's capacity."""
    kf = Fraction(k)
    if kf <= 2:
        raise ValueError("the degree-restricted condition needs k > 2")
    etab = _pair_tables(graph)
    rtab = graph.weight_table([Fraction(r) for r in rho])
    full = graph.full_mask
    bound_const = kf / (kf - 2) * (l.value(full) + ell.value(full))
    for mask in range(1, full + 1):
        if Fraction(etab[mask]) > rtab[mask] + bound_const:
            return HypothesisReport("pack-degree", False, witness={
                "check": "density", "S": vertices_of(mask),
                "edges": etab[mask]})
    for v in range(graph.n):
        if Fraction(graph.degree(v)) < kf * (ell.singletons[v] + l.singletons[v]):
            return HypothesisReport("pack-degree", False, witness={
                "check": "degree", "vertex": v})

    def demand(union):
        l_u = kf * l.value(union)
        return kf * ell.value(union), l_u, 0, l_u

    wit = _sweep_pairs(graph, [kf * Fraction(s, 2) for s in ell.singletons],
                       range(1, full), demand, over=ell)
    if wit is None:
        return HypothesisReport("pack-degree", True)
    wit["rhs"] = str(wit["rhs"])
    return HypothesisReport("pack-degree", False, witness=wit)


def check_pack_hypothesis(graph: MultiGraph, l: SetFunc, ell: SetFunc,
                          forbidden=(), degree_mode: str = "none", k=None,
                          rho=None) -> HypothesisReport:
    """The hypothesis of `pack_partition_rigid`: check_pack_degree in the
    rho mode, else check_pack_basic, and at most l(V) + ell(V) forbidden
    edges, the exclusion sets the guarantee covers."""
    hyp = check_pack_degree(graph, l, ell, k, rho) if degree_mode == "rho" \
        else check_pack_basic(graph, l, ell)
    limit = l.value(graph.full_mask) + ell.value(graph.full_mask)
    if hyp.ok and len(set(forbidden)) > limit:
        return HypothesisReport(hyp.tag, False, witness={
            "check": "forbidden-size", "size": len(set(forbidden)), "limit": limit})
    return hyp


# ----------------------------------------------------------------------
# packing pipelines


@dataclass(frozen=True)
class PackOutcome:
    ok: bool
    packing: Packing
    hypothesis: HypothesisReport | None = None
    union_edges: frozenset[int] | None = None
    degree_bounds: tuple[int, ...] | None = None
    certificate: StructureCertificate | None = None


def pack_partition_rigid(graph: MultiGraph, l: SetFunc, ell: SetFunc,
                         forbidden=(), degree_mode: str = "none",
                         force: bool = False, k=None, rho=None) -> PackOutcome:
    """Pack a spanning partition-connected part and a spanning rigid part.

    degree_mode:
      * "none": two parts, no degree control;
      * "halved": a third degree-eating part caps the union at
        ceil(d(v)/2) + l(v) + ell(v) per vertex;
      * "rho": the k/rho variant, capping at
        ceil((d(v) - 2 rho(v))/k) + rho(v) + l(v) + ell(v).

    Hypothesis failures reject unless forced; constructions are always
    post-verified. A deficient packing carries a structure certificate.
    """
    if degree_mode not in ("none", "halved", "rho"):
        raise ValueError(f"unknown degree mode {degree_mode!r}")
    if degree_mode == "rho" and (k is None or rho is None):
        raise ValueError("rho mode needs k and rho")
    hyp = None if force else \
        check_pack_hypothesis(graph, l, ell, forbidden, degree_mode, k, rho)
    if hyp is not None and not hyp.ok:
        return PackOutcome(ok=False,
                           packing=Packing(graph, (), frozenset(range(graph.m)),
                                           frozenset(forbidden)),
                           hypothesis=hyp)

    packing = matroid_union_pack(
        graph, partition_rigid_funcs(graph, l, ell, degree_mode, k, rho), forbidden)
    if not all(p.full for p in packing.parts):
        return PackOutcome(ok=False, packing=packing, hypothesis=hyp,
                           certificate=structure_partition(packing))

    # Packing.verify has proved every part sparse, so the full l-part is
    # partition-connected and the full ell-part rigid (see
    # `packing_claims`); the union and its degrees are what is left
    l_part, ell_part = (p.edges for p in packing.parts[-2:])
    union = l_part | ell_part
    bounds = None if degree_mode == "none" else \
        _quoted_degree_bounds(graph, l, ell, degree_mode, k, rho)
    _fail_on(union_degree_claims(graph, l, ell, degree_mode, k, rho,
                                 [l_part, ell_part], union, bounds))
    return PackOutcome(ok=True, packing=packing, hypothesis=hyp,
                       union_edges=frozenset(union), degree_bounds=bounds)


def partition_rigid_funcs(graph: MultiGraph, l: SetFunc, ell: SetFunc,
                          degree_mode: str, k=None, rho=None) -> list[SetFunc]:
    """The parts `pack_partition_rigid` packs, in order: a degree mode's
    degree eater first, then the l- and ell-parts, which come last in every
    mode. ValueError when the eater's degree hypothesis fails."""
    if degree_mode == "halved":
        return [halved_slack(graph, l, ell), l, ell]
    if degree_mode == "rho":
        return [rho_slack(graph, l, ell, k, rho), l, ell]
    return [l, ell]


def _quoted_degree_bounds(graph, l, ell, mode, k, rho):
    bounds = []
    for v in range(graph.n):
        d = graph.degree(v)
        if mode == "halved":
            bounds.append(-(-d // 2) + l.singletons[v] + ell.singletons[v])
        else:
            kf = Fraction(k)
            bounds.append(math.ceil(Fraction(d - 2 * Fraction(rho[v])) / kf)
                          + math.ceil(Fraction(rho[v]))
                          + l.singletons[v] + ell.singletons[v])
    return tuple(bounds)


# ----------------------------------------------------------------------
# presets


@dataclass(frozen=True)
class PresetResult:
    ok: bool
    hypothesis: HypothesisReport | None
    union_edges: frozenset[int]
    degree_bounds: tuple[int, ...]
    trees: tuple[frozenset[int], ...] = ()
    rigid_parts: tuple[frozenset[int], ...] = ()
    reinforced: tuple[frozenset[int], ...] = ()
    checks: dict = field(compare=False, default_factory=dict)


def preset_tree_rigid(graph: MultiGraph, k: int, p: int, m: int,
                      force: bool = False) -> PresetResult:
    """m spanning trees plus p spanning k-rigid subgraphs, with the union
    degree capped at ceil(d(v)/2) + kp + m."""
    return _tree_rigid_preset(graph, k, p, m, force, reinforce=False)


def preset_tree_rigid_ec(graph: MultiGraph, k: int, p: int, m: int,
                         force: bool = False) -> PresetResult:
    """Like preset_tree_rigid but each rigid part is reinforced by a
    partition-connected companion so the pair is (2k-1)-edge-connected;
    union degree capped at ceil(d(v)/2) + 2kp - p + m."""
    return _tree_rigid_preset(graph, k, p, m, force, reinforce=True)


def tree_rigid_demand(k: int, p: int, m: int) -> tuple[int, int]:
    """(k, conn) of the tree-rigid presets' hypothesis: G is weakly
    (4kp - 2p + 2m)-connected with slack k per removed vertex."""
    return k, 4 * k * p - 2 * p + 2 * m


def _tree_rigid_preset(graph, k, p, m, force, reinforce) -> PresetResult:
    if k < 2:
        raise ValueError("rigid presets need k >= 2")
    if graph.n < 3:
        raise ValueError("rigid presets need a graph of at least 3 vertices")
    hyp = None if force else \
        check_uniform_weakly_connected(graph, *tree_rigid_demand(k, p, m))
    if hyp is not None and not hyp.ok:
        return PresetResult(ok=False, hypothesis=hyp, union_edges=frozenset(),
                            degree_bounds=())
    built = _tree_rigid_parts(graph, k, p, m, reinforce)
    if built is None:
        return PresetResult(ok=False, hypothesis=hyp, union_edges=frozenset(),
                            degree_bounds=(), checks={"packing": "deficient"})
    outcome, trees, rigid, reinforced = built
    failed, checks = tree_rigid_claims(
        graph, k, p, m, trees, rigid, reinforced if reinforce else None,
        outcome.union_edges, outcome.degree_bounds)
    _fail_on(failed)
    return PresetResult(ok=True, hypothesis=hyp,
                        union_edges=outcome.union_edges,
                        degree_bounds=outcome.degree_bounds,
                        trees=trees, rigid_parts=rigid,
                        reinforced=reinforced, checks=checks)


def _tree_rigid_parts(graph, k, p, m, reinforce):
    """The tree-rigid decomposition without its claims: the halved packing's
    outcome, its m trees and p rigid parts, and when reinforcing each rigid
    part joined to its (k-1, 0) companion; None if the packing is deficient.
    The l-part holds the companions, then the trees."""
    companions = [lmn(graph.n, k - 1, 0)] * p if reinforce else []
    l = lmn(graph.n, (k * p - p if reinforce else 0) + m, m)
    ell = lmn(graph.n, p * k, p * (2 * k - 1))
    outcome = pack_partition_rigid(graph, l, ell, degree_mode="halved",
                                   force=True)
    if not outcome.ok:
        return None
    l_part, ell_part = (p.edges for p in outcome.packing.parts[-2:])
    pieces = _split_all(graph, l_part, companions + [lmn(graph.n, 1, 1)] * m)
    trees = pieces[len(companions):]
    rigid = _split_all(graph, ell_part, [lmn(graph.n, k, 2 * k - 1)] * p)
    reinforced = tuple(r | c for r, c in zip(rigid, pieces[:len(companions)]))
    return outcome, trees, rigid, reinforced


def preset_bipartite_degree(graph: MultiGraph, k, side_mask: int,
                            force: bool = False) -> PresetResult:
    """Spanning 2-fold rigid subgraph with degree at most ceil(d(v)/k) + 2
    on one side of a bipartition of a 6k-connected bipartite graph."""
    kf = Fraction(k)
    if kf <= 0:
        raise ValueError(f"k must be positive, got {k}")
    if graph.n < 3:
        raise ValueError("rigid presets need a graph of at least 3 vertices")
    if graph.bipartition() is None:
        raise ValueError("graph is not bipartite")
    for u, v in graph.edges:
        if (side_mask >> u) & 1 and (side_mask >> v) & 1:
            raise ValueError("side mask is not an independent set")
    hyp = None if force else check_bipartite_connectivity(graph, kf)
    if hyp is not None and not hyp.ok:
        return PresetResult(ok=False, hypothesis=hyp,
                            union_edges=frozenset(), degree_bounds=())
    ell = lmn(graph.n, 2, 3)
    if kf > 1:
        if kf > 2:
            rho = [0 if (side_mask >> v) & 1 else d
                   for v, d in enumerate(graph.degrees)]
            outcome = pack_partition_rigid(graph, zero(graph.n), ell,
                                           degree_mode="rho", force=True,
                                           k=k, rho=rho)
        else:
            # the halved cap ceil(d(v)/2) + 2 is within ceil(d(v)/k) + 2
            outcome = pack_partition_rigid(graph, zero(graph.n), ell,
                                           degree_mode="halved", force=True)
        if not outcome.ok:
            return PresetResult(ok=False, hypothesis=hyp,
                                union_edges=frozenset(), degree_bounds=(),
                                checks={"packing": "deficient"})
        h_edges = outcome.packing.parts[-1].edges
    else:
        # a plain maximum rigid extraction; the claims check its degrees
        rr = rank_and_rigid(graph, ell)
        h_edges = frozenset(rr.basis)
        if not rr.rigid:
            return PresetResult(ok=False, hypothesis=hyp,
                                union_edges=frozenset(), degree_bounds=(),
                                checks={"packing": "rank-deficient"})
    bounds = tuple(math.ceil(Fraction(graph.degree(v)) / kf) + 2
                   for v in range(graph.n))
    failed, checks = bipartite_claims(graph, k, side_mask, [h_edges], h_edges,
                                      bounds)
    _fail_on(failed)
    return PresetResult(ok=True, hypothesis=hyp, union_edges=frozenset(h_edges),
                        degree_bounds=bounds, rigid_parts=(frozenset(h_edges),),
                        checks=checks)


def check_bipartite_connectivity(graph: MultiGraph, k) -> HypothesisReport:
    """The bipartite-degree hypothesis: vertex connectivity at least 6k,
    with the connectivity as the witness when it fails."""
    kappa = graph.vertex_connectivity()
    ok = Fraction(kappa) >= 6 * Fraction(k)
    return HypothesisReport("bipartite-degree", ok,
                            witness={} if ok else {"vertex_connectivity": kappa},
                            aux={"vertex_connectivity": kappa})


def check_uniform_weakly_connected(graph, k: int, conn: int) -> HypothesisReport:
    """Simple-graph guard plus weak connectivity with constant slack k >= 0
    per removed vertex against a constant demand: d_{G-B}(A) >= conn - k|B|
    for disjoint A, B with A nonempty and A | B proper, which is
    check_weakly_connected(graph, [k] * n, const(n, conn)) decided without
    its 3^n sweep, by one `_mixed_cut` with vertex arcs k, unit edge arcs
    and the limit conn. A failing witness is its cut's A and B, with lhs =
    d_{G-B}(A) the cut minus k|B|.
    """
    simple = all(m <= 1 for row in graph.mult for m in row)
    if not simple:
        return HypothesisReport("weakly-connected", False,
                                witness={"check": "simple"})
    value, side = _mixed_cut(graph, k, 1, conn)
    if side is None:
        return HypothesisReport("weakly-connected", True)
    a = side & graph.full_mask
    b = (side >> graph.n) & ~a
    used = k * b.bit_count()
    return HypothesisReport("weakly-connected", False, witness={
        "A": vertices_of(a), "B": vertices_of(b), "lhs": value - used,
        "rhs": conn - used})


def _split_all(graph: MultiGraph, edge_ids, funcs) -> tuple[frozenset[int], ...]:
    """Decompose a full part of a verified packing, packed for the sum of
    the functions, exactly into full parts for them; for one function the
    packing's `verify()` has already checked the part, returned whole."""
    if len(funcs) == 1:
        return (frozenset(edge_ids),)
    ids = set(edge_ids)
    packing = matroid_union_pack(graph, funcs, set(range(graph.m)) - ids)
    # the parts lie inside ids, so covering as many edges covers them all
    if not all(p.full for p in packing.parts) or packing.covered() != len(ids):
        raise RuntimeError("split did not cut the edge set into full parts")
    return tuple(p.edges for p in packing.parts)


# ----------------------------------------------------------------------
# certificate claims: one checker per result type, run by the engine on
# every result it returns and by `rigidpack verify` on every report. Each
# takes the plain result and returns the names of the claims that fail.


def _fail_on(failed) -> None:
    """The engine's self-check: raise naming every failed claim."""
    if failed:
        raise RuntimeError("; ".join(failed))


def packing_claims(host: MultiGraph, parts, uncovered, forbidden=(),
                   verdict=None) -> list[str]:
    """Claims of a packing with (func, edge ids, target, full) parts: no
    edge id repeats; each part is sparse, with target max(rigid target, 0)
    and full exactly at target edges; no part holds a forbidden edge; the
    parts and uncovered partition E; a given verdict is "every part full".
    A full sparse part is rigid, and partition-connected: for a partition
    P of V, e(P) = |E| - sum_A e(A) >= cap(V) - sum_A cap(A) = sum_A l(A) - l(V).
    """
    failed = []
    ids = [e for _, edges, _, _ in parts for e in edges]
    if len(set(ids)) != len(ids):
        failed.append("an edge id repeats across the parts")
    for i, (func, edges, target, full) in enumerate(parts):
        if not is_sparse(host.subgraph(edges), func).ok:
            failed.append(f"part {i} is not sparse")
        if target != max(func.rigid_target, 0) or full != (len(edges) == target):
            failed.append(f"part {i} target or full flag is wrong")
    if set(ids) & set(forbidden):
        failed.append("a part holds a forbidden edge")
    if sorted(ids + list(uncovered)) != list(range(host.m)):
        failed.append("parts and uncovered do not partition the edges")
    if verdict is not None and verdict != all(full for *_, full in parts):
        failed.append("verdict is not 'every part full'")
    return failed


def structure_claims(host: MultiGraph, parts, uncovered, forbidden, closure,
                     partition) -> list[str]:
    """Claims of a structure certificate for a packing with (func, edge ids,
    target, full) parts that meets `packing_claims`: the closure F holds
    every usable uncovered edge and no forbidden edge; each part's edges in
    F span F in its count matroid (`_spans_closure`); and the blocks are
    the components of (V, F), or V itself when nothing usable is uncovered
    and every part is full. Every edge outside F is then covered, so
    covered = |E' - F| + sum_i r_i(F), the matroid-union bound at F: no
    packing covers more.
    """
    failed = []
    closure, forbidden = set(closure), set(forbidden)
    if set(uncovered) - forbidden - closure:
        failed.append("closure misses a usable uncovered edge")
    if closure & forbidden or not closure <= set(range(host.m)):
        failed.append("closure holds a forbidden or unknown edge")
        closure &= set(range(host.m))
    for i, (func, edges, _, _) in enumerate(parts):
        params = pebble_params(func)
        if params is None:
            failed.append(f"part {i} is outside the pebble range")
        elif not _spans_closure(params, host.edges, edges, closure):
            failed.append(f"part {i} does not span the closure")
    whole = not set(uncovered) - forbidden and all(full for *_, full in parts)
    blocks = sorted(partition)
    if blocks != sorted(host.subgraph(closure).components()) and \
            not (whole and blocks == [host.full_mask]):
        failed.append("structure blocks are not the components of the closure")
    return failed


def _spans_closure(params, edges, own, closure) -> bool:
    """Do a part's edges `own` in the closure F span F in the count matroid
    with pebble parameters `params`? One pebble state is offered I_i & F,
    which must all be accepted, then F - I_i in ascending order, and the
    first edge of F - I_i accepted answers no: the verdict of one run
    offering both that accepts exactly I_i & F.

    An edge of F - I_i whose ends lie together in a tight set T recorded
    at an earlier rejection is skipped, as it is dependent: a tight set
    stays tight as edges are added, since e(T) = cap(T) can neither fall
    nor pass cap(T). Each rejection records the maximal tight set holding
    the edge's ends (`PebbleState.max_tight_pair`), on each of its
    vertices; it is unique (see `PebbleState`), so it holds every tight
    set through those ends.
    """
    inside = sorted(closure.intersection(own))
    state, _ = _pebble_run(*params, edges, inside)
    if state.accepted != inside:
        return False
    tight = [0] * len(state.caps)
    for eid in sorted(closure.difference(own)):
        u, v = edges[eid]
        if (tight[u] >> v) & 1:
            continue
        if state.insert(eid, u, v) is None:
            return False
        res = state.max_tight_pair(u, v)
        for w in vertices_of(res):
            tight[w] |= res
    return True


def _degree_claims(graph, edges, quoted, bounds, rule, side=None) -> list[str]:
    """The recorded bounds are the quoted ones, and the degrees of the
    edges stay within them on the side (everywhere without one)."""
    failed = [] if list(bounds or ()) == list(quoted) else \
        [f"degree bounds are not {rule}"]
    used = graph.subgraph(edges).degrees
    where = "at vertex" if side is None else "on the side at"
    over = [v for v in (range(len(quoted)) if side is None else vertices_of(side))
            if used[v] > quoted[v]]
    return failed + [f"degree bound violated {where} {v}" for v in over[:1]]


def union_degree_claims(graph: MultiGraph, l: SetFunc, ell: SetFunc, mode: str,
                        k, rho, parts, union, bounds) -> list[str]:
    """Claims of a full `pack_partition_rigid` packing, its l- and ell-parts
    last: the union is their union and, in a degree mode, the bounds are
    the quoted ones and the union's degrees stay within them."""
    failed = []
    if sorted(union) != sorted(set(parts[-2]) | set(parts[-1])):
        failed.append("union is not the l-part plus the ell-part")
    quoted = () if mode == "none" else \
        _quoted_degree_bounds(graph, l, ell, mode, k, rho)
    return failed + _degree_claims(graph, union, quoted, bounds, f"the {mode} mode's")


def decomposition_claims(graph: MultiGraph, ell: SetFunc, p: int, parts,
                         leftover) -> list[str]:
    """Claims of a p-rigid decomposition: exactly p pairwise disjoint
    parts, each tight and ell-sparse, and the leftover the rest."""
    target = max(ell.rigid_target, 0)
    failed = [] if len(parts) == p else [f"{len(parts)} parts, not {p}"]
    return failed + packing_claims(
        graph, [(ell, ids, target, True) for ids in parts], leftover)


def tree_rigid_claims(graph: MultiGraph, k: int, p: int, m: int, trees,
                      rigid_parts, reinforced, union, bounds):
    """Claims of a tree-rigid preset, or tree-rigid-ec when `reinforced` is
    given: m spanning trees and p tight (k, 2k-1)-sparse parts; these (with
    the reinforced parts in place of the rigid ones for -ec) partition the
    union; its degrees are within ceil(d(v)/2) + kp + m (2kp - p + m for
    -ec); each rigid part lies inside its reinforced part; and the checks
    hold: cut consequences on each rigid part, each reinforced part
    (2k-1)-edge-connected, and (k-1)-edge-connected after deleting any
    vertex. Returns the failed claims and the checks.

    For k >= 1 a tight part on n >= 3 vertices passes the cut
    consequences, so `rigid_{i}_cuts` runs `check_rigid_cut_consequences`
    only when the part is not tight, or n < 3 or k < 1, where it raises.
    With |E| = kn - 2k + 1 and i(X) <= k|X| - 2k + 1 on every X of two or
    more vertices: across a cut (A, B), |E| = i(A) + i(B) + d(A), so d(A)
    >= 2k - 1 when both sides have two vertices or more and d(A) >= k when
    A is one vertex; after deleting v, |E| = i(A + v) + i(B + v) +
    d_{G-v}(A), so d_{G-v}(A) >= k - 1. The reinforced parts' exact values
    are recorded, and no claim implies them, so `_cut_profile` computes
    them."""
    failed = []
    pieces = list(trees) + list(rigid_parts if reinforced is None else reinforced)
    if len(trees) != m or len(rigid_parts) != p or len(pieces) != m + p:
        failed.append(f"not {m} trees and {p} rigid (and reinforced) parts")
    for i, ids in enumerate(trees):
        if len(ids) != graph.n - 1 or not graph.subgraph(ids).is_connected():
            failed.append(f"tree {i} is not a spanning tree")
    checks: dict = {"trees": len(trees)}
    ell = lmn(graph.n, k, 2 * k - 1)
    for i, ids in enumerate(rigid_parts):
        sub = graph.subgraph(ids)
        tight = len(set(ids)) == ell.rigid_target and is_sparse(sub, ell).ok
        if not tight:
            failed.append(f"rigid part {i} is not tight and ({k}, {2 * k - 1})-sparse")
        checks[f"rigid_{i}_cuts"] = tight and graph.n >= 3 and k >= 1 or \
            check_rigid_cut_consequences(sub, k).ok
        if not checks[f"rigid_{i}_cuts"]:
            failed.append(f"rigid part {i} fails the cut consequences")
    every = sorted(e for ids in pieces for e in ids)
    if every != sorted(union) or len(set(every)) != len(every):
        failed.append("trees and parts do not partition the union")
    extra = k * p + m if reinforced is None else 2 * k * p - p + m
    failed += _degree_claims(graph, union, [-(-d // 2) + extra for d in graph.degrees],
                             bounds, f"ceil(d(v)/2) + {extra}")
    for i, (r, h) in enumerate(zip(rigid_parts, reinforced or ())):
        if not set(r) <= set(h):
            failed.append(f"rigid part {i} lies outside its reinforced part")
        lam, worst = _cut_profile(graph.subgraph(h))
        checks[f"reinforced_{i}_edge_connectivity"] = lam
        checks[f"reinforced_{i}_vertex_deleted"] = worst
        if lam < 2 * k - 1 or worst < k - 1:
            failed.append(f"reinforced part {i} is {lam}-edge-connected, "
                          f"{worst} after deleting a vertex")
    return failed, checks


def _cut_profile(sub: MultiGraph):
    """Edge connectivity, and the least one after deleting a vertex, both
    exact (INFINITY where under two vertices are left), from
    `_vertex_deleted_cuts`."""
    lam, lowered = _vertex_deleted_cuts(sub.n, sub._edge_arcs(), False)
    return lam, min((value for _, value, _ in lowered), default=INFINITY)


def bipartite_claims(graph: MultiGraph, k, side_mask: int, rigid_parts, union,
                     bounds):
    """Claims of a bipartite-degree preset: one tight (2,3)-sparse part
    equal to the union, side degrees within ceil(d(v)/k) + 2, and the part
    2-connected. Returns the failed claims and the checks.

    A tight part on n >= 3 vertices is 2-connected, so `two_connected`
    computes the vertex connectivity only when the part is not tight. Were
    G - v disconnected for some v (a disconnected G on three vertices or
    more has such a v), with sides A and B, then |E| = i(A + v) + i(B + v)
    <= 2(n + 1) - 6 = 2n - 4, short of the 2n - 3 edges of a tight part."""
    failed = [] if len(rigid_parts) == 1 else ["not exactly one rigid part"]
    part = rigid_parts[0] if rigid_parts else ()
    ell = lmn(graph.n, 2, 3)
    sub = graph.subgraph(part)
    tight = len(set(part)) == ell.rigid_target and is_sparse(sub, ell).ok
    if not tight:
        failed.append("rigid part is not tight and (2, 3)-sparse")
    if sorted(union) != sorted(part):
        failed.append("union is not the rigid part")
    quoted = [math.ceil(Fraction(d) / Fraction(k)) + 2 for d in graph.degrees]
    failed += _degree_claims(graph, part, quoted, bounds, "ceil(d(v)/k) + 2",
                             side_mask)
    checks = {"two_connected": graph.n >= 3 and (tight or sub.vertex_connectivity(2) >= 2)}
    if not checks["two_connected"]:
        failed.append("rigid part is not 2-connected")
    return failed, checks
