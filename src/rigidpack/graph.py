"""Loopless multigraphs with exact counting and connectivity primitives.

Vertex sets are plain int bitmasks throughout (bit v set = vertex v in the
set); partitions are tuples of pairwise disjoint masks covering 0..n-1.
Bitmasks keep the exhaustive subset sweeps used all over this library cheap
at the scales it targets.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress

INFINITY = float("inf")

# Subset tables are dense lists indexed by mask; cap the exponent.
MAX_TABLE_N = 22


def mask_of(vertices) -> int:
    """Bitmask of an iterable of vertex indices."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def vertices_of(mask: int) -> list[int]:
    """Sorted vertex indices of a bitmask."""
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


@dataclass(frozen=True)
class MultiGraph:
    """Loopless multigraph on vertices 0..n-1.

    Edge ids are dense 0..m-1 in input order; parallel edges are allowed,
    loops are not.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n: int, edges):
        if n < 1:
            raise ValueError(f"vertex count must be >= 1, got {n}")
        clean = []
        for i, (u, v) in enumerate(edges):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge {i} endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {i} is a loop at vertex {u}")
            clean.append((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", tuple(clean))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def degrees(self) -> tuple[int, ...]:
        d = [0] * self.n
        for u, v in self.edges:
            d[u] += 1
            d[v] += 1
        return tuple(d)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @cached_property
    def mult(self) -> tuple[tuple[int, ...], ...]:
        """Pairwise edge multiplicities as an n x n matrix."""
        m = [[0] * self.n for _ in range(self.n)]
        for u, v in self.edges:
            m[u][v] += 1
            m[v][u] += 1
        return tuple(tuple(row) for row in m)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    # ------------------------------------------------------------------
    # counting queries

    def induced(self, mask: int) -> int:
        """Number of edges with both ends inside `mask`."""
        return sum(1 for u, v in self.edges if (1 << u) & mask and (1 << v) & mask)

    # ------------------------------------------------------------------
    # dense subset tables (for exhaustive sweeps)

    @cached_property
    def induced_table(self) -> list[int]:
        """e(S) for every mask S. Requires n <= MAX_TABLE_N."""
        if self.n > MAX_TABLE_N:
            raise ValueError(f"induced_table needs n <= {MAX_TABLE_N}, got {self.n}")
        n = self.n
        mult = self.mult
        tab = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = (s & -s).bit_length() - 1
            rest = s ^ (1 << low)
            row = mult[low]
            extra = 0
            t = rest
            while t:
                b = t & -t
                extra += row[b.bit_length() - 1]
                t ^= b
            tab[s] = tab[rest] + extra
        return tab

    def weight_table(self, weights) -> list[int]:
        """sum of per-vertex weights over every mask S."""
        if self.n > MAX_TABLE_N:
            raise ValueError(f"weight_table needs n <= {MAX_TABLE_N}")
        w = list(weights)
        tab = [0] * (1 << self.n)
        for s in range(1, 1 << self.n):
            low = (s & -s).bit_length() - 1
            tab[s] = tab[s ^ (1 << low)] + w[low]
        return tab

    # ------------------------------------------------------------------
    # structural operations

    def subgraph(self, edge_ids) -> "MultiGraph":
        """Spanning subgraph keeping the given edge ids (in ascending id order)."""
        ids = sorted(set(edge_ids))
        return MultiGraph(self.n, [self.edges[i] for i in ids])

    def bipartition(self) -> tuple[int, int] | None:
        """A 2-colouring as two masks, or None if an odd cycle exists."""
        colour = [-1] * self.n
        for s in range(self.n):
            if colour[s] >= 0:
                continue
            colour[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self.adjacency[u]:
                    if colour[w] < 0:
                        colour[w] = 1 - colour[u]
                        queue.append(w)
                    elif colour[w] == colour[u]:
                        return None
        a = mask_of(v for v in range(self.n) if colour[v] == 0)
        return a, self.full_mask & ~a

    # ------------------------------------------------------------------
    # connectivity

    def components(self) -> list[int]:
        """Connected components as vertex masks, sorted by lowest vertex."""
        seen = [False] * self.n
        comps = []
        for s in range(self.n):
            if seen[s]:
                continue
            mask = 0
            stack = [s]
            seen[s] = True
            while stack:
                u = stack.pop()
                mask |= 1 << u
                for w in self.adjacency[u]:
                    if not seen[w]:
                        seen[w] = True
                        stack.append(w)
            comps.append(mask)
        return comps

    def is_connected(self) -> bool:
        return len(self.components()) == 1

    def edge_connectivity(self, limit=INFINITY):
        """min d(A) over proper nonempty vertex sets A (0 if disconnected,
        INFINITY on a single vertex), or `limit` if that is lower:
        `_least_cut` of the graph's edges."""
        net = _flow_network(self.n, self._edge_arcs())
        return _least_cut(net, self.full_mask, False, limit)[0]

    def _edge_arcs(self) -> list[tuple[int, int, int]]:
        # each vertex pair once per direction, with its multiplicity
        return [(u, v, c) for u, row in enumerate(self.mult)
                for v, c in enumerate(row) if c]

    def essential_edge_connectivity(self):
        """min d(A) over cuts whose both sides induce at least one edge.

        Returns INFINITY when no such cut exists (stars, tiny graphs).

        Fix an edge ab minimising deg(a) deg(b). Each push below runs from
        a set that induces an edge into a vertex f with one arc y -> f
        raised to m + 1. No cut below m crosses that tie, and the sink side
        {f, y} costs at most m - 1, so a push's least cut keeps y with f and
        is essential. An optimal essential cut (A, B) is one of them:

        * if a and b lie in A, take B connected: a component of G[B] that
          induces an edge cuts no more than B, and its complement still
          holds ab. In the order a, b, then the other vertices, let f be
          the first vertex of B and y a neighbour of f in B, which comes
          after f. The cut separates the merged set S of the vertices
          before f from f and y: it is at least the push from S into f
          with y -> f raised. Any order that starts a, b works, so
          disconnected graphs need no case of their own;
        * if a is in A and b in B, a has a neighbour x in A: otherwise moving
          a to B lowers the cut by deg(a) >= 1 and A - a keeps its edge.
          Likewise b has a neighbour y in B, and the cut is at least the
          push from {a, x} into b with y -> b raised.

        That is one push per later neighbour of each f, plus deg(a) deg(b),
        each capped at the running minimum, on the n-vertex network.
        """
        edges = {(min(e), max(e)) for e in self.edges}
        if not edges:
            return INFINITY
        deg, adj = self.degrees, self.adjacency
        a, b = min(edges, key=lambda e: (deg[e[0]] * deg[e[1]], e))
        arcs = self._edge_arcs()
        net = _flow_network(self.n, arcs)
        arc_id = {(u, v): 2 * i for i, (u, v, _) in enumerate(arcs)}
        best = INFINITY

        def push(ends, f, y):
            tied = net[1][:]
            tied[arc_id[y, f]] = self.m + 1
            return min(best, _push(net, tied, f, ends, best, 1))

        merged = {a, b}
        for f in [v for v in range(self.n) if v not in merged]:
            for y in sorted(set(adj[f]) - merged):
                best = push(merged, f, y)
            merged.add(f)
        for x in sorted(set(adj[a]) - {b}):
            for y in sorted(set(adj[b]) - {a, x}):
                best = push({a, x}, b, y)
        return best

    def vertex_connectivity(self, limit=INFINITY) -> int:
        """Vertex connectivity (n-1 if complete), or `limit` if lower:
        `_mixed_cut` with unit vertex arcs and edge arcs of capacity n,
        which no cut below n crosses, capped also by the fewest distinct
        neighbours of a vertex, which separate it from the rest or are all
        of the rest."""
        limit = min(limit, min(sum(map(bool, row)) for row in self.mult))
        return _mixed_cut(self, 1, self.n, limit)[0]


def _flow_network(size: int, arcs):
    """Residual network of (tail, head, capacity) triples on vertices
    0..size-1, as (head, capacity, out-arc lists). Arc 2i runs along triple
    i and arc 2i ^ 1 is its reverse. Build it once per arc list: `_push`
    works on a residual copy of the capacities, so every s-t pair can share
    it."""
    head = []
    cap = []
    out = [[] for _ in range(size)]
    for u, v, c in arcs:
        out[u].append(len(head))
        head.append(v)
        cap.append(c)
        out[v].append(len(head))
        head.append(u)
        cap.append(0)
    return head, cap, out


def _least_cut(net, rest: int, both_ways: bool, limit=INFINITY,
               floor=lambda t, d: 0):
    """The least cut of a `_flow_network` between the vertices of `rest`,
    or `limit` if that is lower, with the (source, sink) pair that lowered
    it last (None if no cut is below `limit`), for `_least_side`. A cut is
    the capacity of the arcs entering a vertex set A that holds some but
    not all of `rest`; other vertices may lie on either side (with their
    arcs at capacity 0, they never matter).

    Let r be the lowest vertex of `rest`. A either holds some t but not r,
    and takes at least the r -> t flow, or holds r and misses some t, and
    takes at least the t -> r flow; the sink side of a minimum cut of
    either flow is such an A at the flow's value. So the least cut is the
    least of the flows r -> t, and t -> r when `both_ways` (Even & Tarjan
    1975); a symmetric network, such as `_edge_arcs`, needs only r -> t,
    as its flows are the same both ways.

    No flow runs (Hao & Orlin 1994): `_push` sends flow into t from S, the
    root and earlier sinks (out of t for t -> r), on a residual per
    direction, capped at the running minimum best; a push below best is the
    new best. Before it, a pair is skipped if `floor(t, d)`, a lower bound
    on lambda(S, t) (lambda(t, S) for d = 1) that the caller knows, reaches
    best. This is exact. At every pair the flow between r and t is at most
    the push, as S holds r. If the flow is below best, let X be t's side of
    a minimum cut of it. The first sink in X is t: at an earlier one the
    flow would already have lowered best to cut(X) or less. So X misses S,
    and the floor and the push are at most cut(X), the flow. So a push is
    below best exactly when the flow is, and then equals it, and best takes
    the values the flows would give it at the same pairs: the pair returned
    is the first whose flow is the least cut.
    """
    low = rest & -rest
    root = low.bit_length() - 1
    best, pair = limit, None
    ends, residual, directions = {root}, ([], []), range(1 + both_ways)
    for t in vertices_of(rest ^ low):
        for d in directions:
            if floor(t, d) < best:
                flow = _push(net, residual[d], t, ends, best, 1 - d)
                if flow < best:
                    best, pair = flow, ((root, t)[d], (t, root)[d])
        ends.add(t)
    return best, pair


def _least_side(net, pair, value: int) -> int:
    """The least source side, as a mask, of a minimum cut of `value` from
    `pair`'s source to its sink in a `_flow_network`. It is unique: the
    vertices the source reaches in the residual of any maximum flow (Ford &
    Fulkerson 1956), here one push from the source into the sink up to
    `value`. Callers of `_least_cut` that read only the value skip it."""
    head, _, out = net
    source, sink = pair
    left = []
    _push(net, left, source, {sink}, value, 0)
    reached, side = [source], 1 << source
    for u in reached:
        for a in out[u]:
            if left[a] and not side >> head[a] & 1:
                side |= 1 << head[a]
                reached.append(head[a])
    return side


def _mixed_cut(graph: MultiGraph, vcap: int, ecap: int, limit):
    """The least vcap |B| + ecap d_{G-B}(A) over disjoint vertex sets A, B
    with A nonempty and A | B proper, a mixed vertex/edge cut (Beineke &
    Harary 1967), or `limit` if lower, with the least side of the first of
    Even's pairs (below) whose flow is the minimum, as a split-network mask
    (None if no cut is below `limit`).

    The split network has x_out = x, x_in = x + n, an arc x_in -> x_out of
    capacity vcap (arc 2x) and an arc u_out -> v_in of capacity
    mult(u, v) ecap. On the least source side of a minimum s_out -> t_in
    cut, A is the vertices whose out-copy is on it and B those whose in-copy
    alone is, s is in A, t outside A | B, and the cut costs exactly
    vcap |B| + ecap d_{G-B}(A). The cost is symmetric in A and the third
    side C = V - A - B.

    Even's bound (1975): with i the lowest vertex outside B of an optimal
    A, B, which costs at least vcap i, the flow from i to a vertex outside
    A | B (if i is in A) or of A (if not; swap A and C) reaches it, and that
    vertex is higher than i. So roots stop once vcap i reaches the running
    minimum best, and Even's root i is `_least_cut` of {i_out} and the
    in-copies of all higher vertices on the network minus 0..i-1 (their
    vertex arcs at capacity 0), below best - vcap i, plus vcap i. Deleting
    i vertex arcs lowers a cut by at most vcap i, so no root reports less
    than the minimum k. If (i, j) is the first of Even's pairs whose flow is
    k < limit, every minimum cut (A, B) of it has each u < i in B, as pair
    (u, j) would reach k earlier if u were in A, and pair (u, i) if u were
    in C. So in the network minus 0..i-1 the pair reaches k - vcap i with
    the same minimum cuts, and the same least side, and no earlier pair
    reaches k.

    Neighbours of 0 (Esfahanian & Hakimi 1984): root 0 takes every sink,
    and a root i >= 1 only the in-copies of 0's neighbours above i. The
    minimum stays k. Take a minimum cut (A, B, C) with 0 in B. If 0 has no
    neighbour in C, moving it from B to A adds no crossing edge and changes
    the cost by -vcap <= 0: a minimum cut that root 0 finds. Likewise with
    A. Otherwise swap A and C so that the lowest vertex i outside B is in A;
    a neighbour y of 0 in C lies above i, and the cut separates i_out from
    y_in at k - vcap i in the network minus 0..i-1.

    The side stays too. Let (i, j) be the first of Even's pairs whose flow
    is k. If i >= 1, its minimum cuts all have 0 in B, and 0 has a
    neighbour in C: else moving 0 out of B would leave one without. So root
    i reaches k, at (i, y_in), and no earlier root does, as its sinks are
    among Even's. Root i is thus the last root that lowers best. If i >= 1,
    it runs once more with every sink above it, below k + 1 - vcap i, and
    ends on (i, j). The re-run is needed: the first restricted pair of root
    i that reaches k can have another least side than (i, j) (an 11-vertex
    host with vcap 1 and ecap 11 in the tests). The pair's `_least_side` is
    read once, at the end. Both arguments need only vcap >= 0 at vertex 0.

    Root i's floor for sink j_in counts arc-disjoint paths into it from
    i_out and the root's merged sinks: its arc from i_out, a path t_in ->
    t_out -> j_in per merged sink t next to j, and i_out -> x_in -> x_out ->
    j_in per other common neighbour x > i. Each carries at least
    min(vcap, ecap), as multiplicities are at least 1, so the floor is a
    popcount on neighbour masks, and the network is built at the first root
    with a floor below best - vcap i.
    """
    n, mult = graph.n, graph.mult
    near = [mask_of(row) for row in graph.adjacency]
    nbrs = sorted(set(graph.adjacency[0]))
    per_path = min(vcap, ecap)
    net = None

    def root(i, room, every):
        # root i's (value, pair) below room, with sinks the in-copies of
        # every vertex above i or of 0's neighbours above i
        nonlocal net
        if every:
            sinks, s = range(i + 1, n), (1 << n - i) - 2
        else:
            sinks, s = nbrs[bisect_right(nbrs, i):], near[0] >> i + 1 << 1
        row, left = mult[i], near[i] >> i
        low = [row[j] * ecap + per_path * (
            (left | s & (1 << j - i) - 2) & (near[j] >> i)).bit_count() for j in sinks]
        if min(low, default=room) >= room:
            return room, None
        if net is None:
            net = _flow_network(2 * n, [(x + n, x, vcap) for x in range(n)] + [
                (u, v + n, c * ecap) for u, v, c in graph._edge_arcs()])
        net[1][:2 * i:2] = [0] * i
        return _least_cut(net, 1 << i | s << n + i, False, room,
                          lambda t, d: low[(s & (1 << t - n - i) - 1).bit_count()])

    best, last = limit, None
    for i in range(n):
        room = best - vcap * i
        if room <= 0:
            break
        value, pair = root(i, room, i == 0)
        if pair is not None:
            best, last = value + vcap * i, (i, pair)
    if last is None:
        return best, None
    i, pair = last
    net[1][2 * i:2 * n:2] = [vcap] * (n - i)
    if i:
        pair = root(i, best + 1 - vcap * i, True)[1]
    return best, _least_side(net, pair, best - vcap * i)


def _vertex_deleted_cuts(n: int, arcs, both_ways: bool, limit=INFINITY):
    """`(whole, lowered)` for the network on vertices 0..n-1 with (tail,
    head, capacity) `arcs`. `whole` is its least cut (`_least_cut`;
    INFINITY if n = 1). `lowered` lazily yields `(v, value, side)`, in
    vertex order, for each v whose least cut minus v lowers a running
    minimum that starts at `limit`; `side()` reads its `_least_side`, a
    push that callers of the value alone skip. So the first entry is the
    first v below `limit`, and the least entry is the least cut minus a
    vertex (INFINITY if none).

    `whole` is the least of `_least_cut`'s pushes with root 0, each on a
    fresh copy of the capacities and capped at the running minimum. No flow
    is needed (Hao & Orlin 1994): take a least cut and t the first vertex on
    its side without 0. The merged set S of the vertices before t lies with
    0, so the push between S and t in that direction is at most the cut,
    and no push is below it. Each pair t, d records the value P of its push
    and thru(v), its total on the arcs leaving v (entering v for t -> 0). A
    search stops at the first vertex of S it meets, so each path of the
    push (Ford & Fulkerson 1956) meets S only at its start (end). Deleting v
    removes only the paths that start (end) at v or pass through it, which
    carry at most thru(v), so the cut between S - v and t in the network
    minus v is at least P - thru(v). (A push on a residual shared between
    sinks may cancel flow inside S, and then bounds nothing.)

    The network minus v is `_least_cut` on the other vertices, with the
    same sinks and sets S - v, and P - thru(v) is each pair's floor, exact
    as `_least_cut` shows. A deleted vertex keeps its arcs at capacity 0,
    so all flows share one arc list.
    """
    net = _flow_network(n, arcs)
    head, cap, out = net
    tails, heads = head[1::2], head[::2]  # of the arcs 2i
    whole, merged, bound = INFINITY, {0}, {}
    for t in range(1, n):
        for d in range(1 + both_ways):
            left = []
            flow = _push(net, left, t, merged, whole, 1 - d)
            whole = min(whole, flow)
            thru, flows = [0] * n, left[1::2]
            for x, f in zip(compress((tails, heads)[d], flows), filter(None, flows)):
                thru[x] += f
            bound[t, d] = flow, thru
        merged.add(t)

    def lowered():
        worst = limit
        for v in range(n):
            deleted = cap[:]
            for a in out[v]:
                deleted[a] = deleted[a ^ 1] = 0
            minus = (head, deleted, out)
            best, pair = _least_cut(
                minus, ((1 << n) - 1) ^ (1 << v), both_ways, worst,
                lambda t, d: bound[t, d][0] - bound[t, d][1][v])
            if pair is not None:
                worst = best
                yield v, best, partial(_least_side, minus, pair, best)

    return whole, lowered()


def _push(net, residual, t: int, ends, limit, back: int) -> int:
    """Push flow from the set `ends` into t (`back` 1: search backward from t)
    or from t into `ends` (0) on `residual`, in place (it takes `net`'s
    capacities when empty), up to `limit`; return the value.

    Each pass searches from t. A vertex it reaches is in the subtree of the
    first arc out of t on its tree path; vertices of `ends` are hits, never
    searched from. A subtree stops at its first hit, and the pass once the
    hits reach `limit` less the flow so far; then each hit's tree path
    carries its own bottleneck (distinct subtrees share no arc). Hits on
    t's own arcs stop there too, so a unit push carries exactly the first
    path its breadth-first search meets, a shortest augmenting path: the
    robust repair's cycle. A pass with no hit pruned nothing, so no path is
    left. A value below `limit` is lambda(ends, t), whatever paths carry
    it, and one at or above it says only that lambda is not below `limit`:
    earlier pushes on `residual` had both ends in `ends`, so every cut
    between `ends` and t keeps its capacity there.
    """
    head, cap, out = net
    if not residual:
        residual.extend(cap)
    flow = 0
    while flow < limit:
        via = [-1] * len(out)  # arc out of the vertex nearer t that reached it
        via[t] = -2
        tree = via[:]  # first arc out of t on the vertex's tree path
        queue, hits, spent, need = [t], [], set(), limit - flow
        for u in queue:
            sub = tree[u]
            if sub in spent:
                continue
            for a in out[u]:
                if residual[a ^ back]:
                    w = head[a]
                    if w in ends:
                        hits.append(a)
                        if u != t:
                            spent.add(sub)
                            break
                        if len(hits) >= need:
                            break
                    elif via[w] == -1:
                        via[w] = a
                        tree[w] = a if u == t else sub
                        queue.append(w)
            if len(hits) >= need:
                break
        if not hits:
            return flow
        for a in hits:
            path, v = [a ^ back], head[a ^ 1]
            while v != t:
                path.append(via[v] ^ back)
                v = head[via[v] ^ 1]
            bottleneck = residual[path[0]]
            for b in path:
                if residual[b] < bottleneck:
                    bottleneck = residual[b]
            for b in path:
                residual[b] -= bottleneck
                residual[b ^ 1] += bottleneck
            flow += bottleneck
    return flow
