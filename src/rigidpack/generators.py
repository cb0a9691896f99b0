"""Deterministic graph family generators for experiments and tests."""

from __future__ import annotations

import random
from collections import Counter

from .graph import MultiGraph


def complete(n: int) -> MultiGraph:
    return MultiGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> MultiGraph:
    return MultiGraph(a + b, [(u, a + v) for u in range(a) for v in range(b)])


def circulant(n: int, offsets) -> MultiGraph:
    """Vertices 0..n-1, edges v -> v+off (mod n) for each offset."""
    edges = []
    for off in sorted(set(offsets)):
        if not 0 < off <= n // 2:
            raise ValueError(f"offset {off} out of range for n={n}")
        for v in range(n):
            w = (v + off) % n
            if off * 2 == n and v >= w:
                continue  # the antipodal offset pairs each edge twice
            edges.append((min(v, w), max(v, w)))
    return MultiGraph(n, sorted(edges))


def random_simple(n: int, m: int, seed: int) -> MultiGraph:
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if m > len(pairs):
        raise ValueError(f"a simple graph on {n} vertices has at most {len(pairs)} edges")
    rng = random.Random(seed)
    return MultiGraph(n, sorted(rng.sample(pairs, m)))


def random_regular(n: int, r: int, seed: int) -> MultiGraph:
    """Simple r-regular graph by the pairing model, retried until simple;
    when every retry fails, the last pairing is repaired by
    `_switch_out_bad_pairs`."""
    if (n * r) % 2 != 0:
        raise ValueError(f"no {r}-regular graph exists on {n} vertices (odd total degree)")
    if r >= n:
        raise ValueError(f"a simple {r}-regular graph needs more than {n} vertices")
    rng = random.Random(seed)
    ordered = [v for v in range(n) for _ in range(r)]
    for _ in range(10000):
        stubs = ordered[:]
        rng.shuffle(stubs)
        edges = []
        ok = True
        seen = set()
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            key = _pair(u, v)
            if key in seen:
                ok = False
                break
            seen.add(key)
            edges.append(key)
        if ok:
            return MultiGraph(n, sorted(edges))
    pairs = [_pair(u, v) for u, v in zip(stubs[::2], stubs[1::2])]
    return MultiGraph(n, sorted(_switch_out_bad_pairs(pairs, rng)))


def _switch_out_bad_pairs(edges, rng: random.Random):
    """The pairs with every loop and every repeat switched out.

    A bad pair {u, v} and another pair {x, y} become {u, x} and {v, y}, or
    {u, y} and {v, x}, when neither new pair is a loop or a pair left in
    the pairing. Degrees stay, the bad pair's loop or repeat goes, and no
    pair gains a copy, so a pair once good stays good and one pass
    in index order repairs them all (McKay & Wormald 1990). Partners are
    tried in a seeded random order; a bad pair with no partner raises. The
    repaired graph is r-regular but not uniformly distributed.
    """
    edges = list(edges)
    count = Counter(edges)

    def usable(new, old):
        # `old` leaves the pairing as `new` enters it
        return all(a != b for a, b in new) and new[0] != new[1] and all(
            count[p] == old.count(p) for p in new)

    for i, (u, v) in enumerate(edges):
        if u != v and count[u, v] < 2:
            continue
        order = list(range(len(edges)))
        rng.shuffle(order)
        for j in order:
            x, y = edges[j]
            old = [(u, v), (x, y)]
            new = next((new for new in ((_pair(u, x), _pair(v, y)),
                                        (_pair(u, y), _pair(v, x)))
                        if j != i and usable(new, old)), None)
            if new is not None:
                break
        else:
            raise RuntimeError(f"no switching removes the bad pair {(u, v)}")
        count.subtract(old)
        count.update(new)
        edges[i], edges[j] = new
    return edges


def _pair(u: int, v: int) -> tuple[int, int]:
    return min(u, v), max(u, v)


def doubled(base: MultiGraph, multiplicity: int) -> MultiGraph:
    """Each edge of the base repeated `multiplicity` times."""
    if multiplicity < 1:
        raise ValueError("multiplicity must be at least 1")
    edges = []
    for e in base.edges:
        edges.extend([e] * multiplicity)
    return MultiGraph(base.n, edges)
