"""Pebble-game machinery for count matroids.

The engine decides sparsity, extracts maximum sparse subgraphs (matroid
bases), certifies rigidity, finds rigid components and minimal rigid sets,
and performs the single-edge exchange the packing engine is built on.

A pebble state carries per-vertex capacities `caps` and a gather deficit
`ell`. An edge is accepted when ell+1 pebbles can be collected on its two
endpoints by reversing acceptance arcs; the accepted edges are exactly the
independent sets of the matroid whose capacities are
sum(caps over A) - ell on sets of two or more vertices. When a gather
fails, the set of vertices reachable along acceptance arcs is the unique
minimal tight set containing both endpoints, which is what the exchange
step needs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import MultiGraph, vertices_of
from .setfuncs import SetFunc, pebble_params, proper_pebble_params
from . import oracle


class PebbleState:
    """A live pebble game: accepted edges as arcs, free pebbles per vertex.

    Each arc is its edge's id: out[v] lists the accepted edges whose arc
    leaves v, and the arc of edge e from v points to ends_xor[e] ^ v, the
    other end. `ends` maps each accepted id to the edge's two ends, in the
    order the edges were accepted, which is the order of `accepted`.

    Only `insert`, `delete` and `gather` change it, and each keeps
    pebbles[v] + len(out[v]) == caps[v], so the free pebbles number
    sum(caps) - len(ends); gather only moves them, so a state with at most
    ell free pebbles blocks every gather. No answer depends on the arcs'
    directions, so nothing is ever restored or rebuilt:
    - Acceptance is exactly independence.
    - A failed gather leaves R, the set reachable from {x, y}, out-closed
      and with pebbles only on x and y. Sparsity then forces pebbles(R) =
      caps(R) - e(R) = ell, so R is tight.
    - Any tight T that holds x and y has at least those ell pebbles, so no
      arc leaves T and T contains R: R is the unique minimal tight set.
    - As R is out-closed, the accepted edges inside R are exactly the arcs
      whose tail is in R: each such arc ends in R, and an edge inside R
      has its tail there. `tight_edges` reads them off R's arcs, so a
      circuit costs e(R), not a pass over every accepted edge.
    - Nor does T hold any other pebble, so no vertex of T reaches a spare
      pebble. The vertices that reach none form an out-closed set with
      ell pebbles: the unique maximal tight set, `max_tight_pair`'s answer.
    """

    __slots__ = ("caps", "ell", "pebbles", "out", "ends_xor", "ends",
                 "reached", "_mark", "_parent", "_stamp")

    def __init__(self, caps, ell: int):
        self.caps = caps = tuple(caps)
        self.ell = ell
        self.pebbles = list(caps)
        self.out: list[list[int]] = [[] for _ in caps]
        self.ends_xor: dict[int, int] = {}
        self.ends: dict[int, tuple[int, int]] = {}
        # the vertices of R after a failed gather, emptied by a gather
        # that moves arcs and succeeds
        self.reached: list[int] = []
        # gather's search: v is reached when _mark[v] is the current
        # stamp, along the arc (edge id) _parent[v]; -1 at x and y
        self._mark = [0] * len(caps)
        self._parent = [0] * len(caps)
        self._stamp = 0

    @property
    def accepted(self) -> list[int]:
        """The accepted edge ids, in the order they were accepted."""
        return list(self.ends)

    # ------------------------------------------------------------------

    def gather(self, x: int, y: int):
        """Try to collect ell+1 pebbles on {x, y}.

        Returns None on success, at once when x and y already hold them.
        On failure returns the mask of R, the vertices reachable from
        {x, y} along acceptance arcs: the minimal tight set containing
        both endpoints, and `reached` lists R's vertices.
        """
        peb = self.pebbles
        need = self.ell + 1
        if peb[x] + peb[y] >= need:
            return None
        out, ends_xor = self.out, self.ends_xor
        mark, parent = self._mark, self._parent
        stamp = self._stamp
        while peb[x] + peb[y] < need:
            # breadth-first from both endpoints (x's arcs first) for a
            # free pebble; the queue holds every vertex reached without one
            stamp += 1
            mark[x] = mark[y] = stamp
            parent[x] = parent[y] = -1
            reached = [x, y] if x != y else [x]
            found = -1
            for u in reached:
                for e in out[u]:
                    w = ends_xor[e] ^ u
                    if mark[w] != stamp:
                        mark[w] = stamp
                        parent[w] = e
                        if peb[w]:
                            found = w
                            break
                        reached.append(w)
                if found >= 0:
                    break
            if found < 0:
                self._stamp = stamp
                self.reached = reached
                mask = 0
                for v in reached:
                    mask |= 1 << v
                return mask
            # reverse the path from the root to the pebble
            peb[found] -= 1
            w = found
            e = parent[w]
            while e != -1:
                u = ends_xor[e] ^ w
                out[u].remove(e)
                out[w].append(e)
                w = u
                e = parent[w]
            peb[w] += 1
        self._stamp = stamp
        # arcs moved, so no earlier R is read off its tails alone
        self.reached = []
        return None

    def insert(self, eid: int, x: int, y: int):
        """Accept edge eid if possible; returns None or the blocking mask."""
        blocked = self.gather(x, y)
        if blocked is not None:
            return blocked
        tail = x if self.pebbles[x] > 0 else y
        self.pebbles[tail] -= 1
        self.out[tail].append(eid)
        self.ends_xor[eid] = x ^ y
        self.ends[eid] = (x, y)
        return None

    def delete(self, eid: int) -> None:
        """Drop accepted edge eid: remove the edge's own arc, whichever way
        it points, and return its pebble to its tail."""
        x, y = self.ends.pop(eid)
        del self.ends_xor[eid]
        tail = x if eid in self.out[x] else y
        self.out[tail].remove(eid)
        self.pebbles[tail] += 1

    def probe_pair(self, x: int, y: int):
        """Gather without accepting: None if ell+1 pebbles are collectable,
        else the minimal tight set containing x and y. The accepted edges
        stay as they are; only pebbles move."""
        return self.gather(x, y)

    def tight_edges(self, mask: int, reached: list[int]) -> list[int]:
        """Accepted edges inside a tight set R that a failed gather
        returned as `mask` with `reached`, ascending; R holds the same
        edges until an insert or delete. While `reached` is still this
        state's, no gather has moved an arc since, and they are the arcs
        whose tail is in R. A later gather may turn arcs out of R, so for
        an earlier R only the arcs whose head is in R too are read."""
        out = self.out
        if reached is self.reached:
            return sorted([e for v in reached for e in out[v]])
        ends_xor = self.ends_xor
        return sorted([e for v in reached for e in out[v]
                       if (mask >> (ends_xor[e] ^ v)) & 1])

    def max_tight_pair(self, x: int, y: int):
        """Maximal tight set containing x and y, or None if no tight set does.

        After a failed gather onto {x, y}, a tight superset is out-closed
        and carries no pebbles elsewhere, so the maximal one is the
        complement of the vertices that can still reach a spare pebble.
        """
        if self.gather(x, y) is None:
            return None
        n = len(self.caps)
        rev = [[] for _ in range(n)]
        for a, arcs in enumerate(self.out):
            for e in arcs:
                rev[self.ends_xor[e] ^ a].append(a)
        stack = [w for w in range(n) if w not in (x, y) and self.pebbles[w] > 0]
        bad = set(stack)
        while stack:
            for p in rev[stack.pop()]:
                if p not in bad:
                    bad.add(p)
                    stack.append(p)
        return sum(1 << w for w in range(n) if w not in bad)


def _pebble_run(caps, ell: int, edges, ids=None, strict: bool = False):
    """Offer edges to a fresh pebble state in the order of `ids` (default:
    every edge, ascending); the accepted ids are `state.accepted`.

    Returns (state, rejected). With strict=True the run stops at the first
    rejected edge and rejected is (edge id, blocking mask); otherwise it
    is None.

    A run that is not strict stops at a rejection once the state holds
    sum(caps) - ell edges: it then has at most ell free pebbles, which
    blocks every later gather, so every edge left would be rejected. The
    returned state's `accepted` list is the one the full run makes; its
    pebble arrangement may differ, and no caller reads it. The test runs
    only after a rejection, so accepted offers pay nothing for it.
    """
    state = PebbleState(caps, ell)
    filled = sum(state.caps) - ell
    for eid in range(len(edges)) if ids is None else ids:
        u, v = edges[eid]
        blocked = state.insert(eid, u, v)
        if blocked is not None:
            if strict:
                return state, (eid, blocked)
            if len(state.ends) >= filled:
                break
    return state, None


# ----------------------------------------------------------------------
# sparsity / rank / rigidity


@dataclass(frozen=True)
class SparseResult:
    ok: bool
    violation: int | None = None  # vertex mask with e(A) > cap(A)


@dataclass(frozen=True)
class RigidResult:
    rank: int
    target: int
    rigid: bool
    basis: tuple[int, ...]


def is_sparse(graph: MultiGraph, func: SetFunc) -> SparseResult:
    """Does every vertex set A satisfy e(A) <= sum_{v in A} f(v) - f(A)?

    Pebble path for pebble-playable functions, per-vertex-deleted pebble
    runs for functions that only override the full-set value, exhaustive
    sweep otherwise (small ground sets only).
    """
    params = pebble_params(func)
    if params is not None:
        _, rejected = _pebble_run(*params, graph.edges, strict=True)
        if rejected is not None:
            return SparseResult(False, rejected[1])
        return SparseResult(True)
    proper = proper_pebble_params(func)
    if proper is not None:
        caps, ell, full_cap = proper
        if graph.m > full_cap:
            return SparseResult(False, graph.full_mask)
        if graph.n <= 2:
            return SparseResult(True)
        for w in range(graph.n):
            _, rejected = _pebble_run(
                caps, ell, graph.edges,
                [i for i, (u, v) in enumerate(graph.edges) if w not in (u, v)],
                strict=True)
            if rejected is not None:
                return SparseResult(False, rejected[1])
        return SparseResult(True)
    if graph.n > 16:
        raise ValueError(
            "sparsity for this set function needs the exhaustive path, capped at 16 vertices")
    ok, witness = oracle.bf_sparse(graph, func, oracle.OracleBudget(subset_n=16))
    return SparseResult(ok, witness)


def _require_pebble_params(func: SetFunc):
    """(caps, ell) of a pebble-playable function; ValueError for any other."""
    params = pebble_params(func)
    if params is None:
        raise ValueError(
            f"set function {func.describe()} is outside the pebble range")
    return params


def rank_and_rigid(graph: MultiGraph, func: SetFunc, forbidden=()) -> RigidResult:
    """A maximum sparse edge set avoiding the forbidden edges, its size, and
    whether it is spanning rigid. Forbidden edges need a pebble-playable
    function."""
    target = max(func.rigid_target, 0)
    if forbidden:
        blocked = set(forbidden)
        basis = _pebble_run(*_require_pebble_params(func), graph.edges,
                            [e for e in range(graph.m) if e not in blocked])[0].accepted
    elif (params := pebble_params(func)) is not None:
        basis = _pebble_run(*params, graph.edges)[0].accepted
    else:
        basis = oracle.bf_rank(graph, func)[1]
    return RigidResult(rank=len(basis), target=target,
                       rigid=len(basis) == target, basis=tuple(basis))


# ----------------------------------------------------------------------
# rigid components, minimal rigid sets, exchange


def _require_rigid_set_structure(func: SetFunc) -> None:
    """Uniqueness of minimal rigid sets (and disjointness of maximal ones)
    needs 2-intersecting supermodularity plus weak subadditivity. The
    pebble-playable families carry both by construction; explicit tables
    are checked."""
    from .setfuncs import property_report
    rep = property_report(func)
    if not (rep.two_intersecting_supermodular and rep.weakly_subadditive):
        raise ValueError(
            "rigid-set subroutines need a 2-intersecting supermodular, "
            f"weakly subadditive function; counterexamples {rep.counterexamples}")


def _sparse_state(graph: MultiGraph, func: SetFunc, message: str):
    """Pebble state holding every edge of a sparse graph, or None for a
    function outside the pebble range; raises ValueError(message) when
    the graph is not sparse."""
    params = pebble_params(func)
    if params is None:
        if not is_sparse(graph, func).ok:
            raise ValueError(message)
        return None
    state, rejected = _pebble_run(*params, graph.edges, strict=True)
    if rejected is not None:
        raise ValueError(message)
    return state


def rigid_components(graph: MultiGraph, func: SetFunc) -> list[int]:
    """Maximal vertex sets inducing rigid subgraphs of a sparse graph.

    Vertices covered by no rigid set of size >= 2 appear as singleton
    components, so the result always covers the vertex set. Components of
    size >= 2 pairwise share at most one vertex and are edge-disjoint.

    Each component is the maximal tight set of the first pair that finds
    it, and the maximal tight set of a pair is unique (see `PebbleState`).
    So no component holds another: a tight set holding the maximal tight
    set of a pair holds the pair, so it is that set. And a pair whose ends
    lie together in a component T already found is skipped: its maximal
    tight set holds the tight T, so it is T.
    """
    state = _sparse_state(graph, func, "rigid_components requires a sparse input graph")
    if state is None:
        _require_rigid_set_structure(func)
        return _rigid_components_oracle(graph, func)
    comps = []
    found = [0] * graph.n  # found[v]: the union of the components holding v
    for x in range(graph.n):
        for y in range(x + 1, graph.n):
            if (found[x] >> y) & 1:
                continue
            res = state.max_tight_pair(x, y)
            if res is None:
                continue
            if graph.induced(res) != func.cap(res):
                raise RuntimeError("maximal rigid component is not tight")
            comps.append(res)
            for w in vertices_of(res):
                found[w] |= res
    comps += [1 << v for v in range(graph.n) if not found[v]]
    return sorted(comps)


def _rigid_components_oracle(graph: MultiGraph, func: SetFunc) -> list[int]:
    if graph.n > 16:
        raise ValueError("oracle rigid components capped at 16 vertices")
    full = graph.full_mask
    etab = graph.induced_table
    rigid_masks = [m for m in range(1, full + 1)
                   if bin(m).count("1") >= 2 and etab[m] == func.cap(m)]
    maximal = [m for m in rigid_masks
               if not any(m != o and m & ~o == 0 for o in rigid_masks)]
    covered = 0
    for m in maximal:
        covered |= m
    for v in range(graph.n):
        if not (covered >> v) & 1:
            maximal.append(1 << v)
    return sorted(maximal)


def minimal_rigid_vertices(graph: MultiGraph, func: SetFunc,
                           x: int, y: int) -> int | None:
    """Minimal rigid vertex set containing x and y, or None for a free pair.

    A free pair means the graph stays sparse after adding an edge xy.
    """
    if x == y:
        raise ValueError("need two distinct vertices")
    state = _sparse_state(graph, func, "minimal_rigid_vertices requires a sparse graph")
    if state is None:
        _require_rigid_set_structure(func)
        return _minimal_rigid_oracle(graph, func, x, y)
    return state.probe_pair(x, y)


def _minimal_rigid_oracle(graph: MultiGraph, func: SetFunc, x: int, y: int):
    if graph.n > 16:
        raise ValueError("oracle minimal rigid set capped at 16 vertices")
    pair = (1 << x) | (1 << y)
    etab = graph.induced_table
    best = None
    for m in range(1, graph.full_mask + 1):
        if m & pair == pair and bin(m).count("1") >= 2 and etab[m] == func.cap(m):
            if best is None or bin(m).count("1") < bin(best).count("1"):
                best = m
    return best


def exchange(graph: MultiGraph, func: SetFunc, x: int, y: int,
             remove_eid: int) -> MultiGraph:
    """Replace one edge of the minimal rigid set spanning x, y by a new xy edge.

    The minimal rigid set is checked to have no internal cut avoiding
    {x, y}: every component of the subgraph it induces holds x or y. The
    result is re-verified sparse.
    """
    q = minimal_rigid_vertices(graph, func, x, y)
    if q is None:
        raise ValueError("free pair: adding xy keeps the graph sparse, nothing to exchange")
    u, v = graph.edges[remove_eid]
    if not ((q >> u) & 1 and (q >> v) & 1):
        raise ValueError("edge to remove must lie inside the minimal rigid set")
    _check_internal_connectivity(graph, q, x, y)
    edges = [e for i, e in enumerate(graph.edges) if i != remove_eid]
    edges.append((x, y))
    result = MultiGraph(graph.n, edges)
    verdict = is_sparse(result, func)
    if not verdict.ok:
        raise RuntimeError("exchange produced a non-sparse graph; engine bug")
    return result


def _check_internal_connectivity(graph: MultiGraph, q: int, x: int, y: int) -> None:
    """Every component of the subgraph induced on the rigid set holds x or y,
    so every proper subset of it containing x and y has an edge out."""
    inner = graph.subgraph(i for i, (u, v) in enumerate(graph.edges)
                           if (q >> u) & 1 and (q >> v) & 1)
    pair = (1 << x) | (1 << y)
    if any(c & q and not c & pair for c in inner.components()):
        raise RuntimeError(
            f"rigid set {vertices_of(q)} has an isolated core around ({x},{y})")
