"""Exponential-time reference implementations of every definition.

These are the ground truth the test suite measures the engines against,
so they stay deliberately direct: subset sweeps, partition sweeps, and
branch-and-bound over edge subsets. Budgets are explicit and exceeding
one raises instead of truncating.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import MultiGraph
from .setfuncs import SetFunc


@dataclass(frozen=True)
class OracleBudget:
    subset_n: int = 7
    partition_n: int = 9
    pair_n: int = 12
    rank_m: int = 20


DEFAULT_BUDGET = OracleBudget()


def _check(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"oracle budget exceeded: {what}")


# ----------------------------------------------------------------------
# direct edge counts, independent of the graph's subset tables


def boundary_minus(graph: MultiGraph, mask_a: int, mask_b: int) -> int:
    """Edges with one end in A and the other outside A | B."""
    if mask_a & mask_b:
        raise ValueError("boundary_minus requires disjoint vertex sets")
    out = graph.full_mask & ~(mask_a | mask_b)
    c = 0
    for u, v in graph.edges:
        bu, bv = 1 << u, 1 << v
        if (bu & mask_a and bv & out) or (bv & mask_a and bu & out):
            c += 1
    return c


# ----------------------------------------------------------------------
# subset sweeps


def bf_sparse(graph: MultiGraph, func: SetFunc, budget: OracleBudget = DEFAULT_BUDGET):
    """Sweep all nonempty vertex sets for e(A) <= cap(A).

    Returns (ok, witness) with the least violating mask, if any.
    """
    _check(graph.n <= budget.subset_n, f"sparse sweep n={graph.n}")
    etab = graph.induced_table
    for mask in range(1, graph.full_mask + 1):
        if etab[mask] > func.cap(mask):
            return False, mask
    return True, None


def bf_edge_connected(graph: MultiGraph, func: SetFunc,
                      budget: OracleBudget = DEFAULT_BUDGET):
    """d(A) >= f(A) for every nonempty proper vertex set."""
    _check(graph.n <= budget.subset_n, f"cut sweep n={graph.n}")
    etab = graph.induced_table
    dtab = graph.weight_table(graph.degrees)
    for mask in range(1, graph.full_mask):
        if dtab[mask] - 2 * etab[mask] < func.value(mask):
            return False, mask
    return True, None


def bf_arc_connected(host: MultiGraph, heads, func: SetFunc, roots=None,
                     budget: OracleBudget = DEFAULT_BUDGET):
    """d^-(A) >= f(A) - sum of roots over A for every nonempty vertex set.

    Entering arcs are counted directly per subset; heads[i] is the head of
    edge i of the host.
    """
    _check(host.n <= budget.pair_n, f"arc sweep n={host.n}")
    r = list(roots) if roots is not None else [0] * host.n
    arcs = []
    for eid, (u, v) in enumerate(host.edges):
        h = heads[eid]
        t = u if h == v else v
        arcs.append((t, h))
    for mask in range(1, host.full_mask + 1):
        indeg = sum(1 for t, h in arcs
                    if (mask >> h) & 1 and not (mask >> t) & 1)
        slack = sum(r[v] for v in range(host.n) if (mask >> v) & 1)
        if indeg < func.value(mask) - slack:
            return False, mask
    return True, None


def bf_weakly_connected(graph: MultiGraph, ell_singletons, l_func: SetFunc,
                        budget: OracleBudget = DEFAULT_BUDGET):
    """d_{G-B}(A) >= l(A|B) - sum of ell over B, for disjoint A != 0, A|B proper.

    Boundary counts are taken by direct edge enumeration to stay
    independent of the table-based engine path.
    """
    _check(graph.n <= budget.pair_n, f"pair sweep n={graph.n}")
    ell = list(ell_singletons)
    for union in range(1, graph.full_mask):
        b = union
        while True:
            a = union ^ b
            if a:
                need = l_func.value(union) - sum(
                    ell[v] for v in range(graph.n) if (b >> v) & 1)
                if boundary_minus(graph, a, b) < need:
                    return False, (a, b)
            if b == 0:
                break
            b = (b - 1) & union
    return True, None


# ----------------------------------------------------------------------
# partitions


def set_partitions(n: int):
    """All partitions of range(n) as tuples of masks, restricted-growth order."""
    if n == 0:
        yield ()
        return
    assign = [0] * n

    def rec(i: int, blocks: int):
        if i == n:
            parts = [0] * blocks
            for v, b in enumerate(assign):
                parts[b] |= 1 << v
            yield tuple(parts)
            return
        for b in range(blocks + 1):
            assign[i] = b
            yield from rec(i + 1, blocks + (1 if b == blocks else 0))

    yield from rec(0, 0)


def bf_partition_connected(graph: MultiGraph, func: SetFunc,
                           budget: OracleBudget = DEFAULT_BUDGET):
    """e(P) >= sum f(A) over parts - f(V) for every partition of the vertices."""
    _check(graph.n <= budget.partition_n, f"partition sweep n={graph.n}")
    etab = graph.induced_table
    m = graph.m
    fv = func.value(graph.full_mask)
    for parts in set_partitions(graph.n):
        cross = m - sum(etab[p] for p in parts)
        need = sum(func.value(p) for p in parts) - fv
        if cross < need:
            return False, parts
    return True, None


# ----------------------------------------------------------------------
# rank by branch and bound


def bf_rank(graph: MultiGraph, func: SetFunc,
            budget: OracleBudget = DEFAULT_BUDGET):
    """Exact maximum sparse edge-subset size and one witness subset."""
    _check(graph.m <= budget.rank_m, f"rank branch-and-bound m={graph.m}")
    _check(graph.n <= 16, f"rank sweep n={graph.n}")
    n, m = graph.n, graph.m
    full = graph.full_mask
    caps = [func.cap(mask) for mask in range(full + 1)]
    if any(caps[mask] < 0 for mask in range(1, full + 1)):
        # some set has negative capacity: not a sparsity system, rank is 0
        return 0, ()
    target = min(m, max(func.rigid_target, 0))
    supersets = []
    for u, v in graph.edges:
        pair = (1 << u) | (1 << v)
        rest = full & ~pair
        subs = []
        s = rest
        while True:
            subs.append(s | pair)
            if s == 0:
                break
            s = (s - 1) & rest
        supersets.append(subs)
    cnt = [0] * (full + 1)
    best = 0
    best_set: tuple = ()
    chosen: list[int] = []

    def add(e: int) -> bool:
        ok = True
        for s in supersets[e]:
            cnt[s] += 1
            if cnt[s] > caps[s]:
                ok = False
        return ok

    def remove(e: int) -> None:
        for s in supersets[e]:
            cnt[s] -= 1

    def rec(idx: int) -> None:
        nonlocal best, best_set
        if len(chosen) > best:
            best = len(chosen)
            best_set = tuple(chosen)
        if best >= target or idx == m or len(chosen) + (m - idx) <= best:
            return
        if add(idx):
            chosen.append(idx)
            rec(idx + 1)
            chosen.pop()
        remove(idx)
        rec(idx + 1)

    rec(0)
    return best, best_set


def bf_rigid(graph: MultiGraph, func: SetFunc,
             budget: OracleBudget = DEFAULT_BUDGET):
    rank, basis = bf_rank(graph, func, budget)
    target = max(func.rigid_target, 0)
    return rank == target, rank, target


# ----------------------------------------------------------------------
# matroid axioms


def bf_matroid_axioms(graph: MultiGraph, func: SetFunc,
                      budget: OracleBudget = DEFAULT_BUDGET):
    """Check the sparse edge subsets form a matroid (hereditary + exchange)."""
    _check(graph.m <= 12, f"axiom sweep m={graph.m}")
    m = graph.m
    independent = []
    is_ind = [False] * (1 << m)
    for s in range(1 << m):
        ids = [i for i in range(m) if (s >> i) & 1]
        ok, _ = bf_sparse(graph.subgraph(ids), func, budget)
        is_ind[s] = ok
        if ok:
            independent.append(s)
    for s in independent:
        t = s
        while t:
            bit = t & -t
            if not is_ind[s ^ bit]:
                return False, ("hereditary", s, s ^ bit)
            t ^= bit
    for s1 in independent:
        c1 = bin(s1).count("1")
        for s2 in independent:
            if bin(s2).count("1") <= c1:
                continue
            extra = s2 & ~s1
            if not any(is_ind[s1 | bit] for bit in _bits_of(extra)):
                return False, ("exchange", s1, s2)
    return True, None


def _bits_of(mask: int):
    while mask:
        b = mask & -mask
        yield b
        mask ^= b


# ----------------------------------------------------------------------
# graph streams


def census(n: int, *, connected: bool = False, tight: SetFunc | None = None):
    """All labelled simple graphs on n vertices, deterministic order.

    Optional filters: connected graphs only, and tightness (sparse with
    the maximum possible edge count) for a given set function.
    """
    if n > 6:
        raise ValueError("full census enumeration is capped at 6 vertices; sample instead")
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    np = len(pairs)
    for sel in range(1 << np):
        edges = [pairs[i] for i in range(np) if (sel >> i) & 1]
        g = MultiGraph(n, edges)
        if connected and not g.is_connected():
            continue
        if tight is not None:
            if g.m != max(tight.rigid_target, 0):
                continue
            ok, _ = bf_sparse(g, tight, OracleBudget(subset_n=16))
            if not ok:
                continue
        yield g
