"""Orientation constructions and verifiers.

Prescribed in-degree orientations (with violating-set certificates on
infeasibility), Eulerian and smooth orientations, the equivalence between
minimal rigidity and in-degree-exact arc-connected orientations, packed
orientations with rooted arc-connectivity, odd-degree spanning forests,
near-regular rigid factors, and the vertex-robust arc-strong pipeline.

Rooted arc-connectivity is decided by sparsity. Every orientation has
d^-(A) = sum_{v in A} d^-(v) - i(A). When d^-(v) = f(v) - r(v) at every
v, the roots cancel, and d^-(A) >= f(A) - r(A) holds exactly when
i(A) <= sum_{v in A} f(v) - f(A) = cap(A) (Hakimi 1965; Frank 1980). So on
an in-degree-exact orientation `is_sparse` decides it, and a set that
violates one inequality violates the other.
"""

from __future__ import annotations

import random
from bisect import insort
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations

from .graph import (MultiGraph, INFINITY, vertices_of, _flow_network,
                    _vertex_deleted_cuts, _push)
from .setfuncs import SetFunc, lmn, halved_slack
from .sparsity import is_sparse, rank_and_rigid
from . import packing as packmod


@dataclass(frozen=True)
class Orientation:
    """Per-edge direction over a host multigraph: heads[i] is the head of edge i."""

    host: MultiGraph
    heads: tuple[int, ...]

    def __post_init__(self):
        if len(self.heads) != self.host.m:
            raise ValueError("need exactly one head per edge")
        for eid, h in enumerate(self.heads):
            if h not in self.host.edges[eid]:
                raise ValueError(f"head of edge {eid} is not one of its endpoints")

    def tail(self, eid: int) -> int:
        u, v = self.host.edges[eid]
        return u if self.heads[eid] == v else v

    @cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        return tuple((self.tail(e), self.heads[e]) for e in range(self.host.m))

    @cached_property
    def indegrees(self) -> tuple[int, ...]:
        d = [0] * self.host.n
        for h in self.heads:
            d[h] += 1
        return tuple(d)

    @cached_property
    def outdegrees(self) -> tuple[int, ...]:
        return tuple(d - i for d, i in zip(self.host.degrees, self.indegrees))

    def is_smooth(self) -> bool:
        return all(abs(i - o) <= 1
                   for i, o in zip(self.indegrees, self.outdegrees))

    def is_balanced(self) -> bool:
        return self.indegrees == self.outdegrees

    def restricted(self, edge_ids) -> "Orientation":
        """Orientation of the spanning subgraph on the given edge ids."""
        ids = sorted(set(edge_ids))
        sub = self.host.subgraph(ids)
        return Orientation(sub, tuple(self.heads[e] for e in ids))


# ----------------------------------------------------------------------
# prescribed in-degree orientations


@dataclass(frozen=True)
class HakimiResult:
    ok: bool
    orientation: Orientation | None = None
    violation: int | None = None  # mask with e(A) > sum of targets over A


def hakimi_orient(graph: MultiGraph, targets) -> HakimiResult:
    """Orientation with d^-(v) = targets[v], or a violating-set certificate.

    Feasible exactly when every vertex set induces at most its target sum.
    Built by reorienting augmenting paths from over-target to under-target
    vertices, lowest-index first.
    """
    t = list(targets)
    if len(t) != graph.n or any(x < 0 for x in t):
        raise ValueError("need one nonnegative target per vertex")
    if sum(t) != graph.m:
        raise ValueError(f"targets sum to {sum(t)}, graph has {graph.m} edges")
    heads = []
    indeg = [0] * graph.n
    for u, v in graph.edges:
        du = t[u] - indeg[u]
        dv = t[v] - indeg[v]
        head = u if (du, -u) > (dv, -v) else v
        heads.append(head)
        indeg[head] += 1
    # repair: reverse a path from a deficient vertex into each excess vertex;
    # in-edge lists stay in ascending id order, which fixes the BFS order
    in_edges = [[] for _ in range(graph.n)]
    for eid, h in enumerate(heads):
        in_edges[h].append(eid)
    # a flip lowers `over` by one and raises a vertex below its target, so
    # the over-target set only shrinks and its lowest vertex only moves up
    over = 0
    while True:
        while over < graph.n and indeg[over] <= t[over]:
            over += 1
        if over == graph.n:
            break
        # BFS backwards from `over` along arcs (head -> tail)
        parent_edge = {over: -1}
        queue = deque([over])
        found = None
        while queue and found is None:
            x = queue.popleft()
            for eid in in_edges[x]:
                u, v = graph.edges[eid]
                tail = u if heads[eid] == v else v
                if tail in parent_edge:
                    continue
                parent_edge[tail] = eid
                if indeg[tail] < t[tail]:
                    found = tail
                    break
                queue.append(tail)
        if found is None:
            mask = 0
            for v in parent_edge:
                mask |= 1 << v
            return HakimiResult(False, violation=mask)
        # flip the path found -> ... -> over
        x = found
        while x != over:
            eid = parent_edge[x]
            u, v = graph.edges[eid]
            old_head = heads[eid]
            new_head = u if old_head == v else v
            heads[eid] = new_head
            in_edges[old_head].remove(eid)
            insort(in_edges[new_head], eid)
            x = old_head
        indeg[over] -= 1
        indeg[found] += 1
    return HakimiResult(True, orientation=Orientation(graph, tuple(heads)))


# ----------------------------------------------------------------------
# Eulerian and smooth orientations


def euler_orient(graph: MultiGraph, rng: random.Random | None = None) -> Orientation:
    """Orientation along Euler tours of each component; needs all degrees even.

    With an RNG, tour start points and branch order are shuffled; otherwise
    the traversal is by ascending edge id.
    """
    for v in range(graph.n):
        if graph.degree(v) % 2 != 0:
            raise ValueError(f"vertex {v} has odd degree {graph.degree(v)}")
    inc = [[] for _ in range(graph.n)]
    for eid, (u, v) in enumerate(graph.edges):
        inc[u].append(eid)
        inc[v].append(eid)
    if rng is not None:
        for lst in inc:
            rng.shuffle(lst)
    ptr = [0] * graph.n
    used = [False] * graph.m
    heads: list[int | None] = [None] * graph.m
    order = list(range(graph.n))
    if rng is not None:
        rng.shuffle(order)
    for start in order:
        if ptr[start] >= len(inc[start]):
            continue
        stack = [start]
        while stack:
            x = stack[-1]
            advanced = False
            while ptr[x] < len(inc[x]):
                eid = inc[x][ptr[x]]
                ptr[x] += 1
                if used[eid]:
                    continue
                used[eid] = True
                u, v = graph.edges[eid]
                y = v if x == u else u
                heads[eid] = y
                stack.append(y)
                advanced = True
                break
            if not advanced:
                stack.pop()
    orient = Orientation(graph, tuple(heads))
    if not orient.is_balanced():
        raise RuntimeError("tour orientation is not balanced; engine bug")
    return orient


def smooth_orient(graph: MultiGraph, rng: random.Random | None = None) -> Orientation:
    """Orientation with |d^+ - d^-| <= 1 at every vertex.

    Odd-degree vertices are paired through auxiliary edges, the augmented
    graph is tour-oriented, and the auxiliaries are stripped.
    """
    odd = [v for v in range(graph.n) if graph.degree(v) % 2 == 1]
    aux = [(odd[i], odd[i + 1]) for i in range(0, len(odd), 2)]
    big = MultiGraph(graph.n, list(graph.edges) + aux)
    oriented = euler_orient(big, rng)
    orient = Orientation(graph, oriented.heads[:graph.m])
    if not orient.is_smooth():
        raise RuntimeError("smooth orientation failed its per-vertex check")
    return orient


# ----------------------------------------------------------------------
# minimal rigidity <-> exact in-degree arc-connected orientations


@dataclass(frozen=True)
class RigidOrientResult:
    ok: bool
    orientation: Orientation | None = None
    reason: str = ""
    witness: int | None = None


def rigid_to_orientation(graph: MultiGraph, ell: SetFunc) -> RigidOrientResult:
    """Certify minimal rigidity and produce the in-degree-exact orientation.

    Needs ell zero on the full vertex set and nonnegative. The orientation
    has d^-(v) = ell(v) everywhere, so by the in-degree identity (see the
    module docstring) the sparsity shown first makes it arc-connected for
    ell.
    """
    full = graph.full_mask
    if ell.value(full) != 0:
        raise ValueError("the function must vanish on the full vertex set")
    if any(x < 0 for x in ell.singletons):
        raise ValueError("singleton values must be nonnegative")
    if graph.m != sum(ell.singletons):
        return RigidOrientResult(False, reason="edge-count",
                                 witness=graph.m - sum(ell.singletons))
    sp = is_sparse(graph, ell)
    if not sp.ok:
        return RigidOrientResult(False, reason="not-sparse", witness=sp.violation)
    hk = hakimi_orient(graph, ell.singletons)
    if not hk.ok:
        return RigidOrientResult(False, reason="orientation-infeasible",
                                 witness=hk.violation)
    return RigidOrientResult(True, orientation=hk.orientation)


def orientation_to_rigid(orient: Orientation, ell: SetFunc) -> RigidOrientResult:
    """Certify minimal rigidity from an in-degree-exact arc-connected orientation.

    Once d^-(v) = ell(v) everywhere, the in-degree identity (see the module
    docstring) makes arc-connectivity for ell the same as sparsity, so one
    `is_sparse` call decides it, and its violating set is the witness.
    """
    graph = orient.host
    full = graph.full_mask
    if ell.value(full) != 0:
        raise ValueError("the function must vanish on the full vertex set")
    for v in range(graph.n):
        if orient.indegrees[v] != ell.singletons[v]:
            return RigidOrientResult(False, reason="indegree", witness=v)
    sp = is_sparse(graph, ell)
    if not sp.ok:
        return RigidOrientResult(False, reason="not-arc-connected",
                                 witness=sp.violation)
    return RigidOrientResult(True, orientation=orient)


# ----------------------------------------------------------------------
# packed orientations


@dataclass(frozen=True)
class PackedOrientResult:
    ok: bool
    orientation: Orientation | None = None
    h1: frozenset[int] = frozenset()
    h2: frozenset[int] = frozenset()
    hypothesis: object = None
    detail: dict = field(compare=False, default_factory=dict)


def packed_orientation(graph: MultiGraph, l: SetFunc, ell: SetFunc,
                       r1, r2, force: bool = False,
                       lowered_vertex: int | None = None) -> PackedOrientResult:
    """Orient the graph with two edge-disjoint rooted arc-connected spanning
    subdigraphs and out-degrees capped at ceil(d(v)/2).

    The first subdigraph has d^-(v) = l(v) - r1(v) and is r1-rooted
    arc-connected for l; the second likewise for ell and r2. A distinguished
    vertex may be lowered to floor(d(u)/2).
    """
    full = graph.full_mask
    r1 = list(r1)
    r2 = list(r2)
    if sum(r1) != l.value(full):
        raise ValueError("first root vector must sum to the value of l on V")
    if sum(r2) != ell.value(full):
        raise ValueError("second root vector must sum to the value of ell on V")
    if any(x < 0 for x in r1) or any(x < 0 for x in r2):
        raise ValueError("root values must be nonnegative")
    for v in range(graph.n):
        if r2[v] > ell.singletons[v]:
            raise ValueError(f"root exceeds the function value at vertex {v}")
        if r1[v] > l.singletons[v]:
            raise ValueError(f"root exceeds the function value at vertex {v}")
    hyp = None if force else packmod.check_pack_basic(graph, l, ell)
    if hyp is not None and not hyp.ok:
        return PackedOrientResult(False, hypothesis=hyp)
    # the degree eater absorbs everything above floor(d/2) minus the rooted
    # in-degree targets, so the three in-degree sums reach floor(d/2)
    extra = [a + b for a, b in zip(r1, r2)]
    if lowered_vertex is not None and graph.degree(lowered_vertex) % 2 == 1:
        extra[lowered_vertex] += 1
    eater = halved_slack(graph, l, ell, extra)
    funcs = [eater, l, ell]
    pack = packmod.matroid_union_pack(graph, funcs)
    if not all(p.full for p in pack.parts):
        return PackedOrientResult(False, hypothesis=hyp,
                                  detail={"packing": "deficient"})
    h0, h1, h2 = (p.edges for p in pack.parts)
    targets1 = [l.singletons[v] - r1[v] for v in range(graph.n)]
    targets2 = [ell.singletons[v] - r2[v] for v in range(graph.n)]
    pieces = []
    for ids, tgt in ((h0, eater.weights), (h1, targets1), (h2, targets2)):
        hk = hakimi_orient(graph.subgraph(ids), tgt)
        if not hk.ok:
            raise RuntimeError("packed part refused its in-degree orientation")
        pieces.append((ids, hk.orientation))
    orient = _assemble(graph, pieces)
    packmod._fail_on(packed_claims(orient, l, ell, r1, r2, h1, h2, lowered_vertex))
    return PackedOrientResult(True, orientation=orient,
                              h1=frozenset(h1), h2=frozenset(h2),
                              hypothesis=hyp)


def _assemble(graph: MultiGraph, pieces) -> Orientation:
    """The orientation of the graph that lays each (edge ids, orientation
    of `graph.subgraph(ids)`) piece onto its host edges and smooth-orients
    the edges no piece holds."""
    heads: list[int | None] = [None] * graph.m
    for ids, sub in pieces:
        for eid, h in zip(sorted(ids), sub.heads):
            heads[eid] = h
    rest = [eid for eid, h in enumerate(heads) if h is None]
    if rest:
        for eid, h in zip(rest, smooth_orient(graph.subgraph(rest)).heads):
            heads[eid] = h
    return Orientation(graph, tuple(heads))


def packed_claims(orient: Orientation, l: SetFunc, ell: SetFunc, r1, r2, h1, h2,
                  lowered_vertex: int | None = None) -> list[str]:
    """Claims of a packed orientation: h1 and h2 share no edge, h1 has
    in-degrees l(v) - r1(v) and is r1-rooted arc-connected for l, h2
    likewise for ell and r2, and every out-degree is at most ceil(d(v)/2),
    or floor(d(v)/2) at the lowered vertex.

    With exact in-degrees a part is rooted arc-connected exactly when its
    edges are sparse (see the module docstring), so that claim is decided
    only once the part's in-degree claim holds."""
    graph = orient.host
    failed = ["h1 and h2 share an edge"] if set(h1) & set(h2) else []
    for name, ids, func, roots in (("h1", h1, l, r1), ("h2", h2, ell, r2)):
        part = orient.restricted(ids)
        if any(part.indegrees[v] != func.singletons[v] - roots[v]
               for v in range(graph.n)):
            failed.append(f"{name} in-degrees are not its function minus its roots")
        elif not is_sparse(part.host, func).ok:
            failed.append(f"{name} is not rooted arc-connected")
    over = [v for v, d in enumerate(graph.degrees) if orient.outdegrees[v] >
            (d // 2 if v == lowered_vertex else -(-d // 2))]
    if over:
        failed.append(f"out-degree bound violated at vertex {over[0]}")
    return failed


# ----------------------------------------------------------------------
# odd-degree spanning forests and near-regular rigid factors


@dataclass(frozen=True)
class OddForestResult:
    edges: frozenset[int]
    achieved: bool
    targets: tuple[int, ...]


def odd_spanning_forest(graph: MultiGraph, m_param: int) -> OddForestResult:
    """Spanning forest with every degree odd, aiming at ceil(d(v)/m) per vertex.

    All-odd forests exist exactly when every component has even order. The
    degree target is best-effort: a parity-fixed tree is improved by local
    two-edge swaps, and the result reports whether the bound was met.
    """
    if m_param < 1:
        raise ValueError("the divisor must be positive")
    comps = graph.components()
    for comp in comps:
        if bin(comp).count("1") % 2 != 0:
            raise ValueError(
                f"component {vertices_of(comp)} has odd order; no all-odd forest exists")
    targets = tuple(-(-graph.degree(v) // m_param) for v in range(graph.n))
    best: set[int] | None = None
    best_violation = None
    for shift in range(min(graph.n, 4)):
        forest = set()
        for comp in comps:
            verts = vertices_of(comp)
            forest |= _parity_tree(graph, range(graph.m),
                                   verts[shift % len(verts)], [1] * graph.n)
        forest = _reduce_degrees(graph, forest, targets)
        violation = _violation(graph, forest, targets)
        if best is None or violation < best_violation:
            best, best_violation = forest, violation
        if best_violation == 0:
            break
    deg = graph.subgraph(best).degrees
    for v in range(graph.n):
        if deg[v] % 2 != 1:
            raise RuntimeError(f"forest degree at {v} is even; engine bug")
    if not _is_forest(graph, best):
        raise RuntimeError("result is not a forest; engine bug")
    return OddForestResult(edges=frozenset(best), achieved=best_violation == 0,
                           targets=targets)


def _parity_tree(graph: MultiGraph, edge_ids, root: int, parity):
    """Edges of the breadth-first tree from root over edge_ids (adjacency in
    the order given) that give each reached vertex v a degree of parity
    parity[v], chosen leaves first."""
    inc = [[] for _ in range(graph.n)]
    for eid in edge_ids:
        u, v = graph.edges[eid]
        inc[u].append((eid, v))
        inc[v].append((eid, u))
    parent_edge: dict[int, tuple[int, int]] = {}
    order = [root]
    seen = [False] * graph.n
    seen[root] = True
    for x in order:
        for eid, y in inc[x]:
            if not seen[y]:
                seen[y] = True
                parent_edge[y] = (eid, x)
                order.append(y)
    kept: set[int] = set()
    deg = [0] * graph.n
    for v in reversed(order[1:]):
        eid, par = parent_edge[v]
        if deg[v] % 2 != parity[v]:
            kept.add(eid)
            deg[v] += 1
            deg[par] += 1
    if deg[root] % 2 != parity[root]:
        raise RuntimeError("parity fixing failed at the root; engine bug")
    return kept


def _violation(graph, forest, targets) -> int:
    return sum(max(0, d - t) for d, t in zip(graph.subgraph(forest).degrees, targets))


def _is_forest(graph: MultiGraph, edge_ids) -> bool:
    return len(edge_ids) == graph.n - len(graph.subgraph(edge_ids).components())


def _reduce_degrees(graph: MultiGraph, forest: set[int], targets) -> set[int]:
    """Drop two forest edges at an over-target vertex and reconnect their
    far endpoints directly; parities and forest-ness are preserved."""
    forest = set(forest)
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(graph.edges):
        by_pair.setdefault((min(u, v), max(u, v)), []).append(eid)
    while (swapped := next(_degree_swaps(graph, forest, targets, by_pair), None)):
        forest = swapped
    return forest


def _degree_swaps(graph: MultiGraph, forest: set[int], targets, by_pair):
    """Forests that trade two edges at an over-target vertex for an edge
    joining their far endpoints, in vertex, then edge-pair order."""
    deg = graph.subgraph(forest).degrees
    for v in range(graph.n):
        if deg[v] <= targets[v]:
            continue
        nbrs = []
        for eid in forest:
            a, b = graph.edges[eid]
            if v == a:
                nbrs.append((b, eid))
            elif v == b:
                nbrs.append((a, eid))
        for (x, ex), (y, ey) in combinations(nbrs, 2):
            cands = [e for e in by_pair.get((min(x, y), max(x, y)), ()) if e not in forest]
            if not cands:  # also where x == y: no edge is a loop
                continue
            trial = set(forest)
            trial.discard(ex)
            trial.discard(ey)
            trial.add(cands[0])
            if _is_forest(graph, trial):
                yield trial


@dataclass(frozen=True)
class FactorResult:
    ok: bool
    edges: frozenset[int]
    removed_forest: frozenset[int]
    detail: dict = field(compare=False, default_factory=dict)


def rigid_factor(graph: MultiGraph, k: int, r: int) -> FactorResult:
    """Spanning k-fold rigid subgraph with every degree in {r-3, r-1}.

    Requires an r-regular host of even order (r >= 4) meeting the
    connectivity hypothesis 2*ceil(r/6) + 4k - 2. The pipeline packs a
    rigid part and a tree-connected part, removes an odd forest of the
    latter, and verifies degrees and rigidity of what remains.
    """
    if r < 4:
        raise ValueError("the factor pipeline needs r >= 4")
    if any(d != r for d in graph.degrees):
        raise ValueError("host graph is not r-regular")
    if graph.n % 2 != 0:
        raise ValueError("host graph must have even order")
    m_param = -(-r // 6)
    need = 2 * m_param + 4 * k - 2
    kappa = graph.vertex_connectivity()
    detail = {"m": m_param, "connectivity_needed": need, "vertex_connectivity": kappa}
    if kappa < need:
        return FactorResult(False, frozenset(), frozenset(), detail)
    l = lmn(graph.n, m_param, m_param)
    ell = lmn(graph.n, k, 2 * k - 1)
    outcome = packmod.pack_partition_rigid(graph, l, ell,
                                           degree_mode="halved", force=True)
    if not outcome.ok:
        detail["packing"] = "deficient"
        return FactorResult(False, frozenset(), frozenset(), detail)
    tree_part = sorted(outcome.packing.parts[-2].edges)
    sub = graph.subgraph(tree_part)
    forest_local = odd_spanning_forest(sub, m_param)
    forest = frozenset(tree_part[i] for i in forest_local.edges)
    remaining = frozenset(range(graph.m)) - forest
    degs = graph.subgraph(remaining).degrees
    bad = [v for v in range(graph.n) if degs[v] not in (r - 3, r - 1)]
    if bad:
        detail["bad_degrees"] = bad
        return FactorResult(False, remaining, forest, detail)
    rr = rank_and_rigid(graph.subgraph(remaining), ell)
    if not rr.rigid:
        detail["rigidity"] = "failed"
        return FactorResult(False, remaining, forest, detail)
    return FactorResult(True, remaining, forest, detail)


# ----------------------------------------------------------------------
# vertex-robust arc-strong smooth orientations


@dataclass(frozen=True)
class RobustResult:
    ok: bool
    orientation: Orientation | None = None
    hypothesis: object = None
    checks: dict = field(compare=False, default_factory=dict)
    detail: dict = field(compare=False, default_factory=dict)


def robust_demand(k: int) -> tuple[int, int]:
    """(2k + 1, 8k + 4): the slack per removed vertex and the demand of the
    weak-connectivity hypothesis of `robust_arc_strong`, the tree-rigid
    presets' demand at (2k + 1, 1, 1)."""
    return packmod.tree_rigid_demand(2 * k + 1, 1, 1)


def robust_arc_strong(graph: MultiGraph, k: int, seed: int = 0,
                      retries: int = 64, force: bool = False) -> RobustResult:
    """Smooth (2k+1)-arc-strong orientation staying k-arc-strong after
    deleting any single vertex.

    Pipeline: the tree-rigid-ec decomposition at (2k+1, 1, 1), as in the
    paper, gives a spanning tree and a (2k+1)-rigid part that with its
    companion is (4k+1)-edge-connected; a parity forest of the tree makes
    that union Eulerian, a tour orients it so every vertex-deleted digraph
    stays k-arc-strong (seeded retries with local arc-reversal repair), and
    the remainder is oriented smoothly. All three properties are verified
    on the final orientation; an exhausted retry budget reports failure
    rather than returning unverified output.

    The reinforced part gprime needs no cut check of its own. The packing's
    `verify` and `_split_all` have proved the rigid part tight (K, 2K-1)
    and the companion tight (K-1, 0), with K = 2k+1, so gprime is
    (2K-1 = 4k+1)-edge-connected and (K-1 = 2k)-edge-connected after
    deleting any vertex. On n >= 3 vertices the rigid part alone gives
    every cut with two vertices or more on each side 2K-1 edges, every
    single vertex K and every G - v cut K-1 (see
    `packing.tree_rigid_claims`), and a single vertex has K-1 more in the
    companion, whose (K-1)n edges include at most (K-1)(n-1) that avoid
    it. On two vertices gprime is 1 + 2(K-1) parallel edges.
    """
    if k < 1:
        raise ValueError("robustness level must be at least 1")
    hyp = None if force else \
        packmod.check_uniform_weakly_connected(graph, *robust_demand(k))
    if hyp is not None and not hyp.ok:
        return RobustResult(False, hypothesis=hyp)
    built = packmod._tree_rigid_parts(graph, 2 * k + 1, 1, 1, reinforce=True)
    if built is None:
        return RobustResult(False, hypothesis=hyp,
                            detail={"packing": "deficient"})
    _, (tree,), (rigid,), (gprime,) = built
    # a subforest of the tree matching gprime's degree parities
    forest = _parity_tree(graph, tree, 0,
                          [d % 2 for d in graph.subgraph(gprime).degrees])
    h_ids = sorted(gprime | forest)
    hsub = graph.subgraph(h_ids)
    if any(d % 2 for d in hsub.degrees):
        raise RuntimeError("parity forest failed to make the union Eulerian")
    # Eulerian cuts are even, so hsub, holding gprime, is (4k+2)-edge-connected
    orient_h = _robust_euler_search(hsub, k, seed, retries)
    if orient_h is None:
        return RobustResult(False, hypothesis=hyp,
                            detail={"inner_search": "budget exhausted",
                                    "eulerian_part": h_ids})
    orient = _assemble(graph, [(h_ids, orient_h)])
    failed, checks = robust_claims(orient, k)
    packmod._fail_on(failed)
    return RobustResult(True, orientation=orient, hypothesis=hyp, checks=checks,
                        detail={"rigid_part": sorted(rigid),
                                "companion": sorted(gprime - rigid),
                                "tree": sorted(tree),
                                "parity_forest": sorted(forest)})


def robust_claims(orient: Orientation, k: int):
    """Claims of a robust orientation: smooth, (2k+1)-arc-strong and
    k-arc-strong after deleting any vertex. Both strengths are computed
    exactly into the returned checks by `_vertex_deleted_cuts`; they are
    all the checks a robust result records. Returns the failed claims and
    the checks."""
    failed = [] if orient.is_smooth() else ["orientation is not smooth"]
    strong, lowered = _vertex_deleted_cuts(
        orient.host.n, [(t, h, 1) for t, h in orient.arcs], True)
    worst = min((value for _, value, _ in lowered), default=INFINITY)
    if strong < 2 * k + 1:
        failed.append(f"orientation is only {strong}-arc-strong")
    if worst < k:
        failed.append(f"a vertex-deleted digraph is only {worst}-arc-strong")
    return failed, {"arc_strong": strong, "vertex_deleted_arc_strong": worst}


REPAIR_PASSES = 8  # cycle reversals `_repair_orientation` tries per tour


def _robust_euler_search(hsub: MultiGraph, k: int, seed: int,
                         retries: int) -> Orientation | None:
    for attempt in range(max(1, retries)):
        rng = None if attempt == 0 else random.Random(seed * 10007 + attempt)
        orient = euler_orient(hsub, rng)
        orient = _repair_orientation(orient, k)
        if orient is not None:
            return orient
    return None


def _find_robust_violation(orient: Orientation, k: int):
    """The first vertex v whose deletion leaves the digraph below
    k-arc-strong, with a set of the digraph minus v that has the fewest
    entering arcs, as a host mask: the sink side of the minimum cut that
    `_vertex_deleted_cuts` found. None if every vertex-deleted digraph is
    k-arc-strong."""
    host = orient.host
    _, lowered = _vertex_deleted_cuts(
        host.n, [(t, h, 1) for t, h in orient.arcs], True, k)
    for v, _, side in lowered:
        return v, host.full_mask & ~side() & ~(1 << v)
    return None


def _repair_orientation(orient: Orientation, k: int) -> Orientation | None:
    """Reverse up to REPAIR_PASSES cycles, each through an arc into a
    deficient set of the first vertex-deleted digraph below k-arc-strong;
    None if a violation outlasts them."""
    for reversals in range(REPAIR_PASSES + 1):
        bad = _find_robust_violation(orient, k)
        if bad is None:
            return orient
        if reversals == REPAIR_PASSES:
            return None
        orient = _reverse_cycle_through(orient, *bad)
        if orient is None:
            return None


def _reverse_cycle_through(orient: Orientation, v: int,
                           mask: int) -> Orientation | None:
    """Reverse one directed cycle through the lowest arc e0 from v into the
    deficient set that lies on one: e0 and a shortest path from its head
    back to v, one unit `_push` from its head into {v} with e0 at capacity 0.
    Eulerian balance is preserved and the arc count from v into the set
    drops when the return arc comes from outside it."""
    host, heads = orient.host, orient.heads
    net = _flow_network(host.n, [(t, h, 1) for t, h in orient.arcs])
    for e0 in range(host.m):
        w = heads[e0]
        if orient.tail(e0) != v or not (mask >> w) & 1:
            continue
        left = net[1][:]
        left[2 * e0] = 0
        if _push(net, left, w, {v}, 1, 0):
            return Orientation(host, tuple(orient.tail(e) if e == e0 or left[2 * e + 1]
                                           else heads[e] for e in range(host.m)))
    return None
