"""Loopless multigraphs with exact counting and connectivity primitives.

Vertex sets are plain int bitmasks throughout (bit v set = vertex v in the
set); partitions are tuples of pairwise disjoint masks covering 0..n-1.
Bitmasks keep the exhaustive subset sweeps used all over this library cheap
at the scales it targets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property

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

    def boundary(self, mask: int) -> int:
        """Number of edges with exactly one end inside `mask`."""
        c = 0
        for u, v in self.edges:
            if ((1 << u) & mask != 0) != ((1 << v) & mask != 0):
                c += 1
        return c

    def boundary_minus(self, mask_a: int, mask_b: int) -> int:
        """Edges with one end in A and the other outside A | B."""
        if mask_a & mask_b:
            raise ValueError("boundary_minus requires disjoint vertex sets")
        out = self.full_mask & ~(mask_a | mask_b)
        c = 0
        for u, v in self.edges:
            bu, bv = 1 << u, 1 << v
            if (bu & mask_a and bv & out) or (bv & mask_a and bu & out):
                c += 1
        return c

    def partition_cross(self, parts) -> int:
        """Edges joining different parts of a partition of the vertex set."""
        parts = tuple(parts)
        self._check_partition(parts)
        return self.collection_cross(parts)

    def collection_cross(self, collection) -> int:
        """Edges whose two ends lie together in no set of the collection."""
        sets = tuple(collection)
        c = 0
        for u, v in self.edges:
            pair = (1 << u) | (1 << v)
            if not any(pair & ~s == 0 for s in sets):
                c += 1
        return c

    def _check_partition(self, parts: tuple[int, ...]) -> None:
        seen = 0
        for p in parts:
            if p == 0:
                raise ValueError("partition contains an empty part")
            if p & seen:
                raise ValueError("partition parts overlap")
            seen |= p
        if seen != self.full_mask:
            raise ValueError("partition does not cover the vertex set")

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

    def contract(self, mask: int) -> tuple["MultiGraph", list[int]]:
        """Collapse the vertices of `mask` into a single vertex.

        Edges inside the set are deleted, parallel edges are kept. Returns
        the contracted graph and the old-to-new vertex map; the merged
        vertex takes the last index.
        """
        if mask == 0:
            raise ValueError("cannot contract an empty vertex set")
        keep = [v for v in range(self.n) if not (mask >> v) & 1]
        mapping = [0] * self.n
        for i, v in enumerate(keep):
            mapping[v] = i
        merged = len(keep)
        for v in vertices_of(mask):
            mapping[v] = merged
        new_edges = []
        for u, v in self.edges:
            mu, mv = mapping[u], mapping[v]
            if mu != mv:
                new_edges.append((mu, mv))
        return MultiGraph(merged + 1, new_edges), mapping

    def induced_subgraph(self, mask: int) -> tuple["MultiGraph", list[int]]:
        """Induced subgraph on a vertex set, relabelled; returns the vertex list."""
        verts = vertices_of(mask)
        if not verts:
            raise ValueError("cannot induce on an empty vertex set")
        pos = {v: i for i, v in enumerate(verts)}
        edges = [(pos[u], pos[v]) for u, v in self.edges
                 if (mask >> u) & 1 and (mask >> v) & 1]
        return MultiGraph(len(verts), edges), verts

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

    def delete_vertex(self, v: int) -> "MultiGraph":
        """Graph minus one vertex, remaining vertices relabelled downward."""
        mapping = [w if w < v else w - 1 for w in range(self.n)]
        edges = [(mapping[a], mapping[b]) for a, b in self.edges if v not in (a, b)]
        if self.n == 1:
            raise ValueError("cannot delete the only vertex")
        return MultiGraph(self.n - 1, edges)

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

    def edge_connectivity(self):
        """Global min cut by repeated s-t max-flow from a fixed source."""
        if self.n == 1:
            return INFINITY
        if not self.is_connected():
            return 0
        mult = [list(row) for row in self.mult]
        best = INFINITY
        for t in range(1, self.n):
            best = min(best, _maxflow([row[:] for row in mult], 0, t))
        return best

    def local_edge_connectivity(self, s: int, t: int) -> int:
        if s == t:
            raise ValueError("local edge connectivity needs distinct endpoints")
        return _maxflow([list(row) for row in self.mult], s, t)

    def essential_edge_connectivity(self):
        """min d(A) over cuts whose both sides induce at least one edge.

        Returns INFINITY when no such cut exists (stars, tiny graphs).
        """
        if self.n > MAX_TABLE_N:
            return self._essential_by_flows()
        etab = self.induced_table
        dtab = self.weight_table(self.degrees)
        full = self.full_mask
        best = INFINITY
        for a in range(1, full):
            if etab[a] >= 1 and etab[full ^ a] >= 1:
                d = dtab[a] - 2 * etab[a]
                if d < best:
                    best = d
        return best

    def _essential_by_flows(self):
        # min cut separating some edge pair on opposite sides; each pair is
        # handled by contracting the two edges into the flow terminals
        best = INFINITY
        m = self.m
        for i in range(m):
            for j in range(i + 1, m):
                a, b = self.edges[i]
                c, d = self.edges[j]
                if {a, b} & {c, d}:
                    continue
                g1, mp = self.contract((1 << a) | (1 << b))
                s1 = g1.n - 1
                g2, mp2 = g1.contract((1 << mp[c]) | (1 << mp[d]))
                val = g2.local_edge_connectivity(mp2[s1], g2.n - 1)
                best = min(best, val)
        return best

    def vertex_connectivity(self) -> int:
        """Vertex connectivity via unit vertex-capacity flows (n-1 if complete)."""
        n = self.n
        if n <= 1:
            return 0
        mult = self.mult
        nonadj = [(u, v) for u in range(n) for v in range(u + 1, n) if mult[u][v] == 0]
        if not nonadj:
            return n - 1
        best = n - 1
        for u, v in nonadj:
            best = min(best, self._vertex_flow(u, v))
        return best

    def _vertex_flow(self, s: int, t: int) -> int:
        # split vertices: x_in = x, x_out = x + n
        n = self.n
        big = self.m + n
        size = 2 * n
        cap = [[0] * size for _ in range(size)]
        for x in range(n):
            cap[x][x + n] = big if x in (s, t) else 1
        for u, v in self.edges:
            cap[u + n][v] = big
            cap[v + n][u] = big
        return _maxflow(cap, s + n, t)


def _maxflow(cap: list[list[int]], s: int, t: int) -> int:
    """Edmonds-Karp on a dense capacity matrix (mutates `cap`)."""
    n = len(cap)
    flow = 0
    while True:
        parent = [-1] * n
        parent[s] = s
        q = deque([s])
        while q:
            u = q.popleft()
            if u == t:
                break
            row = cap[u]
            for v in range(n):
                if parent[v] < 0 and row[v] > 0:
                    parent[v] = u
                    q.append(v)
        if parent[t] < 0:
            return flow
        bottleneck = None
        v = t
        while v != s:
            u = parent[v]
            b = cap[u][v]
            bottleneck = b if bottleneck is None else min(bottleneck, b)
            v = u
        v = t
        while v != s:
            u = parent[v]
            cap[u][v] -= bottleneck
            cap[v][u] += bottleneck
            v = u
        flow += bottleneck
