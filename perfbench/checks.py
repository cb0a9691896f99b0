"""Recounts for checking outputs independently: no rigidpack code here.

Union-find trees and forests, a (k, l) pebble game, unit-capacity
augmenting paths for arc- and edge-connectivity, and degree counts. They
run outside the timed region.
"""

from __future__ import annotations

from collections import deque


class UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[max(ra, rb)] = min(ra, rb)
        return True


def is_spanning_tree(n: int, edges, ids) -> bool:
    ids = list(ids)
    if len(ids) != n - 1:
        return False
    uf = UnionFind(n)
    return all(uf.union(*edges[e]) for e in ids)


def is_forest(n: int, edges, ids) -> bool:
    uf = UnionFind(n)
    return all(uf.union(*edges[e]) for e in ids)


def is_connected(n: int, pairs) -> bool:
    uf = UnionFind(n)
    parts = n
    for u, v in pairs:
        parts -= uf.union(u, v)
    return parts <= 1


def greedy_sparse(n: int, k: int, ell: int, pairs) -> list[int]:
    """Indices of the pairs a (k, ell) pebble game accepts, in order.

    A textbook pebble game: each vertex holds k pebbles, an edge is
    accepted when its ends can gather ell + 1 pebbles, and pebbles move by
    reversing directed paths.
    """
    pebbles = [k] * n
    out: list[list[int]] = [[] for _ in range(n)]

    def find_pebble(root: int, avoid: set[int]) -> bool:
        prev = {root: -1}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in out[x]:
                if y in prev or y in avoid:
                    continue
                prev[y] = x
                if pebbles[y] > 0:
                    pebbles[y] -= 1
                    while prev[y] != -1:
                        p = prev[y]
                        out[p].remove(y)
                        out[y].append(p)
                        y = p
                    pebbles[root] += 1
                    return True
                queue.append(y)
        return False

    def gather(u: int, v: int) -> bool:
        while pebbles[u] + pebbles[v] < ell + 1:
            if pebbles[u] < k and find_pebble(u, {u, v}):
                continue
            if pebbles[v] < k and find_pebble(v, {u, v}):
                continue
            return False
        return True

    accepted = []
    for idx, (u, v) in enumerate(pairs):
        if not gather(u, v):
            continue
        if pebbles[u] > 0:
            pebbles[u] -= 1
            out[u].append(v)
        else:
            pebbles[v] -= 1
            out[v].append(u)
        accepted.append(idx)
    return accepted


def is_sparse(n: int, k: int, ell: int, pairs) -> bool:
    pairs = list(pairs)
    return len(greedy_sparse(n, k, ell, pairs)) == len(pairs)


def sparse_rank(n: int, k: int, ell: int, pairs) -> int:
    return len(greedy_sparse(n, k, ell, list(pairs)))


def _reach(adj, start: int, removed: int) -> int:
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in adj[x]:
            if y != removed and y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen)


def strongly_connected(n: int, arcs, removed: int = -1) -> bool:
    fwd: list[list[int]] = [[] for _ in range(n)]
    bwd: list[list[int]] = [[] for _ in range(n)]
    for t, h in arcs:
        if removed in (t, h):
            continue
        fwd[t].append(h)
        bwd[h].append(t)
    live = n - (removed >= 0)
    start = 0 if removed != 0 else 1
    return (_reach(fwd, start, removed) == live
            and _reach(bwd, start, removed) == live)


def _unit_flow_at_least(n: int, arcs, s: int, t: int, k: int) -> bool:
    """Are there k arc-disjoint s-t paths? Unit capacities, k augmentations."""
    cap: dict[tuple[int, int], int] = {}
    adj: list[set[int]] = [set() for _ in range(n)]
    for a, b in arcs:
        cap[(a, b)] = cap.get((a, b), 0) + 1
        cap.setdefault((b, a), 0)
        adj[a].add(b)
        adj[b].add(a)
    for _ in range(k):
        prev = {s: -1}
        queue = deque([s])
        while queue and t not in prev:
            x = queue.popleft()
            for y in adj[x]:
                if y not in prev and cap[(x, y)] > 0:
                    prev[y] = x
                    queue.append(y)
        if t not in prev:
            return False
        y = t
        while prev[y] != -1:
            x = prev[y]
            cap[(x, y)] -= 1
            cap[(y, x)] += 1
            y = x
    return True


def arc_strong_at_least(n: int, arcs, k: int) -> bool:
    """Does every nonempty proper vertex set have at least k entering arcs?"""
    return all(_unit_flow_at_least(n, arcs, 0, t, k)
               and _unit_flow_at_least(n, arcs, t, 0, k) for t in range(1, n))


def edge_connected_at_least(n: int, pairs, k: int) -> bool:
    arcs = [(u, v) for u, v in pairs] + [(v, u) for u, v in pairs]
    return all(_unit_flow_at_least(n, arcs, 0, t, k) for t in range(1, n))


def two_connected(n: int, pairs) -> bool:
    if n < 3 or not is_connected(n, pairs):
        return False
    for w in range(n):
        rest = [(u if u < w else u - 1, v if v < w else v - 1)
                for u, v in pairs if w not in (u, v)]
        if not is_connected(n - 1, rest):
            return False
    return True


def degrees(n: int, pairs) -> list[int]:
    deg = [0] * n
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return deg
