"""Graph operations and checks the tests use as independent references."""

import random

from rigidpack.graph import INFINITY, MultiGraph, _flow_network, mask_of, vertices_of
from rigidpack.oracle import DEFAULT_BUDGET, OracleBudget, bf_rank
from rigidpack.setfuncs import pebble_params
from rigidpack.sparsity import PebbleState


def delete_vertex(g: MultiGraph, v: int) -> MultiGraph:
    """g minus vertex v, the remaining vertices relabelled downward."""
    if g.n == 1:
        raise ValueError("cannot delete the only vertex")
    mapping = [w if w < v else w - 1 for w in range(g.n)]
    return MultiGraph(g.n - 1, [(mapping[a], mapping[b]) for a, b in g.edges
                                if v not in (a, b)])


def counting(monkeypatch, owner, name) -> list:
    """Wrap `owner.name` for the test so that each call appends its
    positional arguments to the returned list."""
    calls = []
    wrapped = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def random_multigraph(n: int, m: int, rng: random.Random) -> MultiGraph:
    """Seeded loopless multigraph with m edges drawn with repetition."""
    edges = []
    for _ in range(m):
        u = rng.randrange(n)
        v = rng.randrange(n - 1)
        if v >= u:
            v += 1
        edges.append((min(u, v), max(u, v)))
    return MultiGraph(n, edges)


def induced_subgraph(graph: MultiGraph, mask: int) -> tuple[MultiGraph, list[int]]:
    """Induced subgraph on a vertex set, relabelled; returns the vertex list."""
    verts = vertices_of(mask)
    if not verts:
        raise ValueError("cannot induce on an empty vertex set")
    pos = {v: i for i, v in enumerate(verts)}
    edges = [(pos[u], pos[v]) for u, v in graph.edges
             if (mask >> u) & 1 and (mask >> v) & 1]
    return MultiGraph(len(verts), edges), verts


def partition_cross(graph: MultiGraph, parts) -> int:
    """Edges joining different parts of a partition of the vertex set."""
    parts = tuple(parts)
    seen = 0
    for p in parts:
        if p == 0:
            raise ValueError("partition contains an empty part")
        if p & seen:
            raise ValueError("partition parts overlap")
        seen |= p
    if seen != graph.full_mask:
        raise ValueError("partition does not cover the vertex set")
    return collection_cross(graph, parts)


def collection_cross(graph: MultiGraph, collection) -> int:
    """Edges whose two ends lie together in no set of the collection."""
    sets = tuple(collection)
    c = 0
    for u, v in graph.edges:
        pair = (1 << u) | (1 << v)
        if not any(pair & ~s == 0 for s in sets):
            c += 1
    return c


def union_rank_bound(graph: MultiGraph, funcs,
                     budget: OracleBudget = DEFAULT_BUDGET) -> int:
    """Matroid-union rank: min over edge subsets H of sum of ranks + |E - H|."""
    if graph.m > 10:
        raise ValueError(f"oracle budget exceeded: union bound sweep m={graph.m}")
    m = graph.m
    best = None
    for h in range(1 << m):
        ids = [i for i in range(m) if (h >> i) & 1]
        sub = graph.subgraph(ids)
        total = sum(bf_rank(sub, f, budget)[0] for f in funcs) + (m - len(ids))
        if best is None or total < best:
            best = total
    return best


def check_invariant(state) -> None:
    """Raise unless a `PebbleState`'s pebbles and arcs account for the
    capacities, no vertex holds a negative count, and the arcs are the
    accepted edges, each joining its edge's ends."""
    total = sum(state.pebbles) + len(state.ends)
    if total != sum(state.caps):
        raise RuntimeError("pebble accounting broken: "
                           f"{total} != {sum(state.caps)}")
    for v, p in enumerate(state.pebbles):
        if p < 0:
            raise RuntimeError(f"negative pebble count at vertex {v}")
        if p + len(state.out[v]) != state.caps[v]:
            raise RuntimeError(f"pebble/out mismatch at vertex {v}")
    if sorted(e for arcs in state.out for e in arcs) != sorted(state.ends) or \
            state.ends_xor.keys() != state.ends.keys():
        raise RuntimeError("arc ids are not the accepted edges")
    for v, arcs in enumerate(state.out):
        for e in arcs:
            if sorted((v, state.ends_xor[e] ^ v)) != sorted(state.ends[e]):
                raise RuntimeError(f"the arc of edge {e} from {v} does not "
                                   "join the edge's ends")


def augmenting_paths(net, s: int, t: int, limit=INFINITY):
    """Edmonds-Karp on a `graph._flow_network`, sharing no code with the
    engine's flows: the flow value, the mask of the vertices its last
    search reached (None once the flow reaches `limit`), and the residual
    capacities it left, where the odd arc 2i + 1 holds the flow on arc 2i."""
    head, cap, out = net
    cap = cap[:]
    size = len(out)
    flow = 0
    while flow < limit:
        via = [-1] * size  # arc id that first reached each vertex
        via[s] = -2
        queue = [s]
        for u in queue:
            for a in out[u]:
                if cap[a] and via[head[a]] == -1:
                    via[head[a]] = a
                    queue.append(head[a])
            if via[t] != -1:
                break
        if via[t] == -1:
            return flow, mask_of(queue), cap
        bottleneck = INFINITY
        v = t
        while v != s:
            a = via[v]
            bottleneck = min(bottleneck, cap[a])
            v = head[a ^ 1]
        v = t
        while v != s:
            a = via[v]
            cap[a] -= bottleneck
            cap[a ^ 1] += bottleneck
            v = head[a ^ 1]
        flow += bottleneck
    return flow, None, cap


def local_edge_connectivity(g: MultiGraph, s: int, t: int) -> int:
    """The most edge-disjoint s-t paths of g, by `augmenting_paths`."""
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"vertex out of range: ({s}, {t})")
    if s == t:
        raise ValueError("local edge connectivity needs distinct endpoints")
    return augmenting_paths(_flow_network(g.n, g._edge_arcs()), s, t)[0]


def full_pebble_run(caps, ell: int, edges, ids=None) -> PebbleState:
    """`sparsity._pebble_run` without its stop: every edge of `ids`
    (default: all, ascending) is offered to a fresh state."""
    state = PebbleState(caps, ell)
    for eid in range(len(edges)) if ids is None else ids:
        state.insert(eid, *edges[eid])
    return state


def one_run_spans_closure(params, edges, own, closure) -> bool:
    """The span check of `packing._spans_closure` as one full pebble run:
    offer I_i & F, then F - I_i, and ask that exactly I_i & F is accepted."""
    inside = sorted(set(closure).intersection(own))
    state = full_pebble_run(*params, edges, inside + sorted(set(closure).difference(own)))
    return state.accepted == inside


def all_pairs_rigid_components(graph: MultiGraph, func) -> list[int]:
    """`sparsity.rigid_components` of a sparse graph and a pebble-playable
    function, asking `max_tight_pair` of every pair of vertices."""
    state = full_pebble_run(*pebble_params(func), graph.edges)
    if len(state.ends) != graph.m:
        raise ValueError("the graph is not sparse")
    masks = {mask for x in range(graph.n) for y in range(x + 1, graph.n)
             if (mask := state.max_tight_pair(x, y)) is not None}
    comps = [s for s in masks if not any(s != t and s & ~t == 0 for t in masks)]
    covered = 0
    for mask in comps:
        covered |= mask
    return sorted(comps + [1 << v for v in range(graph.n) if not (covered >> v) & 1])
