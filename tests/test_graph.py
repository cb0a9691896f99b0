import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpack.graph import MultiGraph, mask_of, INFINITY
from rigidpack import generators, graph, oracle, orientation, packing
from rigidpack.oracle import boundary_minus

from helpers import (
    arc_strong_value, augmenting_paths, collection_cross, counting, delete_vertex,
    induced_subgraph, local_edge_connectivity, partition_cross, random_multigraph,
)


def c4():
    return MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_build_triangle():
    g = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.m == 3 and g.n == 3


def test_build_doubled_edge():
    g = MultiGraph(2, [(0, 1), (0, 1)])
    assert g.m == 2
    assert g.mult[0][1] == 2


def test_build_rejects_loop():
    with pytest.raises(ValueError, match="loop"):
        MultiGraph(3, [(0, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        MultiGraph(2, [(0, 5)])


def test_counting_queries():
    k4 = generators.complete(4)
    assert k4.induced(mask_of([0, 1, 2])) == 3
    assert boundary_minus(k4, mask_of([0, 1]), mask_of([3])) == 2
    assert partition_cross(c4(), (mask_of([0, 1]), mask_of([2, 3]))) == 2


def test_boundary_minus_rejects_overlap():
    with pytest.raises(ValueError, match="disjoint"):
        boundary_minus(c4(), 0b0011, 0b0010)


def test_collection_cross():
    g = c4()
    # only {0,1} is protected: edges 12, 23, 30 have no covering set
    assert collection_cross(g, (mask_of([0, 1]),)) == 3


def test_partition_validation():
    g = c4()
    with pytest.raises(ValueError, match="overlap"):
        partition_cross(g, (0b0011, 0b0110))
    with pytest.raises(ValueError, match="cover"):
        partition_cross(g, (0b0011,))


def test_edge_connectivity():
    assert generators.complete(4).edge_connectivity() == 3
    assert MultiGraph(3, [(0, 1), (1, 2)]).edge_connectivity() == 1
    assert MultiGraph(3, []).edge_connectivity() == 0
    assert MultiGraph(1, []).edge_connectivity() == INFINITY


def test_essential_edge_connectivity():
    assert c4().essential_edge_connectivity() == 2
    star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    assert star.essential_edge_connectivity() == INFINITY
    assert generators.complete(4).essential_edge_connectivity() == 4
    triangle = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    assert triangle.essential_edge_connectivity() == INFINITY


def test_local_edge_connectivity():
    g = c4()
    assert local_edge_connectivity(g, 0, 2) == 2
    with pytest.raises(ValueError):
        local_edge_connectivity(g, 1, 1)
    path = MultiGraph(3, [(0, 1), (1, 2)])
    for s, t in [(-1, 0), (0, 3)]:
        with pytest.raises(ValueError):
            local_edge_connectivity(path, s, t)


def test_vertex_connectivity():
    assert generators.complete(5).vertex_connectivity() == 4
    assert generators.complete_bipartite(3, 3).vertex_connectivity() == 3
    assert MultiGraph(3, [(0, 1), (1, 2)]).vertex_connectivity() == 1


def _bf_vertex_connectivity(g):
    # smallest S whose removal leaves >= 2 vertices in >= 2 components
    full = g.full_mask
    sizes = sorted(range(full + 1), key=lambda s: bin(s).count("1"))
    for s in sizes:
        rest = full ^ s
        if bin(rest).count("1") >= 2 and not induced_subgraph(g, rest)[0].is_connected():
            return bin(s).count("1")
    return g.n - 1


def _flow_test_graphs():
    rng = random.Random(404)
    graphs = [generators.complete(n) for n in range(1, 9)]
    graphs += [generators.complete_bipartite(a, b) for a in (1, 2, 3) for b in (3, 4)]
    while len(graphs) < 320:
        n = rng.randrange(2, 9)
        g = random_multigraph(n, rng.randrange(0, 3 * n), rng)
        graphs.append(g)
        if rng.random() < 0.2:  # doubled edges stress multiplicities
            graphs.append(MultiGraph(n, g.edges + g.edges))
    return graphs


def test_flow_paths_match_sweeps():
    graphs = _flow_test_graphs()
    assert sum(not g.is_connected() for g in graphs) >= 50
    assert sum(len(set(g.edges)) < g.m for g in graphs) >= 50
    for g in graphs:
        kappa = _bf_vertex_connectivity(g)
        assert g.vertex_connectivity() == kappa
        # a limit caps the value: min(kappa, limit)
        for limit in (1, 2, 3, 4, INFINITY):
            assert g.vertex_connectivity(limit) == min(kappa, limit)
        two_connected = g.n >= 3 and g.is_connected() and all(
            delete_vertex(g, v).is_connected() for v in range(g.n))
        assert (g.n >= 3 and g.vertex_connectivity(2) >= 2) == two_connected
        if g.n >= 2:
            cut = min(boundary_minus(g, a, 0) for a in range(1, g.full_mask))
            assert g.edge_connectivity() == cut
        full = g.full_mask
        essential = min((boundary_minus(g, a, 0) for a in range(1, full)
                         if g.induced(a) >= 1 and g.induced(full ^ a) >= 1),
                        default=INFINITY)
        assert g.essential_edge_connectivity() == essential


def test_augmenting_paths_returns_the_least_min_cut_side():
    # the reference of every side comparison: below its limit the side is
    # the source side of a minimum s-t cut, contained in the source side of
    # every other minimum s-t cut (the brute force over all vertex sets)
    rng = random.Random(505)
    larger = 0
    for _ in range(60):
        n = rng.randrange(2, 8)
        g = random_multigraph(n, rng.randrange(0, 3 * n), rng)
        net = graph._flow_network(n, g._edge_arcs())
        cut = [boundary_minus(g, a, 0) for a in range(1 << n)]
        for s in range(n):
            for t in range(n):
                if s == t:
                    continue
                flow, side, _ = augmenting_paths(net, s, t)
                assert (side >> s) & 1 and not (side >> t) & 1
                assert cut[side] == flow
                assert augmenting_paths(net, s, t, flow + 1)[:2] == (flow, side)
                assert augmenting_paths(net, s, t, flow)[:2] == (flow, None)
                for a in range(1 << n):
                    if (a >> s) & 1 and not (a >> t) & 1 and cut[a] == flow:
                        assert side & a == side
                        larger += a != side
    assert larger >= 2000, larger


def _reference_least_cut(net, rest, both_ways, limit=INFINITY):
    """`graph._least_cut` before sink merging: every root flow runs, by
    the Edmonds-Karp of `helpers`."""
    low = rest & -rest
    root = low.bit_length() - 1
    best, side = limit, None
    for t in graph.vertices_of(rest ^ low):
        for s, u in ((root, t), (t, root))[:1 + both_ways]:
            flow, reached, _ = augmenting_paths(net, s, u, best)
            if reached is not None:
                best, side = flow, reached
    return best, side


def _reference_mixed_cut(g, vcap, ecap, limit):
    """`graph._mixed_cut` before sink merging: every pair the two-path
    bound leaves open runs a flow, by the Edmonds-Karp of `helpers`."""
    n, mult = g.n, g.mult
    net, best, side = None, limit, None
    for i in range(n):
        if vcap * i >= best:
            break
        for j in range(i + 1, n):
            paths = mult[i][j] * ecap + sum(
                min(a * ecap, vcap, b * ecap)
                for a, b in zip(mult[i], mult[j]) if a and b)
            if paths < best:
                if net is None:
                    net = graph._flow_network(2 * n, [(x + n, x, vcap) for x in range(n)] + [
                        (u, v + n, c * ecap) for u, v, c in g._edge_arcs()])
                flow, reached, _ = augmenting_paths(net, i, j + n, best)
                if reached is not None:
                    best, side = flow, reached
    return best, side


def test_sink_merging_keeps_values_and_sides(monkeypatch):
    # the gated root-flow loops return the value and side of the ungated
    # ones on symmetric networks and digraphs, multigraphs, networks with a
    # vertex outside `rest`, and every limit, 5,000 networks each; they run
    # fewer flows. At least 50 mixed-cut minima come from a root i > 0 with
    # vcap > 0, which runs on the network minus 0..i-1 and adds vcap i.
    # The engine's pushes are counted against the reference's flows
    pushes = counting(monkeypatch, graph, "_push")
    flows = counting(monkeypatch, sys.modules[__name__], "augmenting_paths")
    rng = random.Random(2323)
    gated = ungated = offset = 0
    for case in range(10000):
        n = rng.randrange(2, 12)
        limit = rng.choice([1, 2, 3, 4, INFINITY])
        g = random_multigraph(n, rng.randrange(0, 3 * n), rng)
        if case % 2:
            vcap, ecap = rng.randrange(0, 5), rng.randrange(1, 4)
            pushes.clear()
            got = graph._mixed_cut(g, vcap, ecap, limit)
            gated += len(pushes)
            flows.clear()
            assert got == _reference_mixed_cut(g, vcap, ecap, limit)
            ungated += len(flows)
            if got[1] is not None and vcap:
                a = got[1] & g.full_mask
                offset += a & -a > 1
            continue
        both_ways = rng.random() < 0.6
        if both_ways:
            arcs = [(u, v, rng.randrange(1, 4)) if rng.random() < 0.5
                    else (v, u, rng.randrange(1, 4)) for u, v in g.edges]
        else:
            arcs = [(x, y, c) for u, v in g.edges
                    for c in [rng.randrange(1, 4)] for x, y in ((u, v), (v, u))]
        head, cap, out = graph._flow_network(n, arcs)
        rest = g.full_mask
        if n > 2 and rng.random() < 0.3:
            v = rng.randrange(n)
            rest ^= 1 << v
            for a in out[v]:
                cap[a] = cap[a ^ 1] = 0
        net = (head, cap, out)
        pushes.clear()
        value, pair = graph._least_cut(net, rest, both_ways, limit)
        gated += len(pushes)
        got = value, pair and graph._least_side(net, pair, value)
        flows.clear()
        assert got == _reference_least_cut(net, rest, both_ways, limit)
        ungated += len(flows)
    assert gated < ungated
    assert offset >= 50, offset


def _reference_push(net, residual, t, ends, limit, back):
    """`graph._push` before per-subtree passes: one shortest path per
    search."""
    head, cap, out = net
    if not residual:
        residual.extend(cap)
    flow = 0
    while flow < limit:
        via = [-1] * len(out)
        via[t] = -2
        queue, end = [t], None
        for u in queue:
            for a in out[u]:
                w = head[a]
                if residual[a ^ back] and via[w] == -1:
                    via[w] = a
                    queue.append(w)
                    if w in ends:
                        end = w
                        break
            if end is not None:
                break
        if end is None:
            return flow
        path = []
        while end != t:
            path.append(via[end] ^ back)
            end = head[via[end] ^ 1]
        bottleneck = min(residual[a] for a in path)
        for a in path:
            residual[a] -= bottleneck
            residual[a ^ 1] += bottleneck
        flow += bottleneck
    return flow


def _push_network(rng):
    """A symmetric network, a digraph or a split network on a random
    multigraph with 2-11 vertices."""
    n = rng.randrange(2, 12)
    g = random_multigraph(n, rng.randrange(0, 3 * n), rng)
    kind = rng.randrange(3)
    if kind == 0:
        arcs = [(x, y, c) for u, v in g.edges
                for c in [rng.randrange(1, 4)] for x, y in ((u, v), (v, u))]
    elif kind == 1:
        arcs = [(u, v, rng.randrange(1, 4)) if rng.random() < 0.5
                else (v, u, rng.randrange(1, 4)) for u, v in g.edges]
    else:
        vcap, ecap = rng.randrange(0, 5), rng.randrange(1, 4)
        arcs = [(x, x + n, vcap) for x in range(n)] + [
            (u + n, v, c * ecap) for u, v, c in g._edge_arcs()]
        n *= 2
    return graph._flow_network(n, arcs)


def _push_ends(rng, size):
    t = rng.randrange(size)
    others = [v for v in range(size) if v != t]
    return t, set(rng.sample(others, rng.randrange(1, len(others) + 1)))


def _net_out(net, residual):
    head, cap, out = net
    return [sum(cap[a] - residual[a] for a in arcs) for arcs in out]


def test_push_matches_single_path_push():
    # on residuals left by up to three earlier pushes of either routine,
    # the per-subtree push gives the same answer to the gate as the
    # single-path one and the same value below the limit, and it leaves a
    # flow of its value from `ends` into t (out of t into `ends`)
    rng = random.Random(2525)
    below = 0
    for _ in range(6000):
        net = _push_network(rng)
        size = len(net[2])
        residual = []
        for _ in range(rng.randrange(4)):
            t, ends = _push_ends(rng, size)
            rng.choice((graph._push, _reference_push))(
                net, residual, t, ends, rng.choice([1, 2, 3, 4, INFINITY]),
                rng.randrange(2))
        t, ends = _push_ends(rng, size)
        limit, back = rng.randrange(1, 5), rng.randrange(2)
        new, ref = residual[:], residual[:]
        got = graph._push(net, new, t, ends, limit, back)
        want = _reference_push(net, ref, t, ends, limit, back)
        assert (got < limit) == (want < limit)
        if want < limit:
            assert got == want
            below += 1
        cap = net[1]
        assert all(r >= 0 for r in new)
        assert all(new[a] + new[a ^ 1] == cap[a] + cap[a ^ 1]
                   for a in range(0, len(cap), 2))
        sent = [b - a for a, b in zip(_net_out(net, residual or cap),
                                     _net_out(net, new))]
        assert sent[t] == (got if back == 0 else -got)
        assert all(not sent[v] for v in range(size) if v != t and v not in ends)
    assert below >= 1000


def test_vertex_connectivity_flow_count(monkeypatch):
    # Even's bound: sources 0..kappa only, so at most (kappa + 1) * n pairs.
    # Root 0 takes every sink, roots i >= 1 only vertex 0's six neighbours
    # above i, on the network minus 0..i-1 against best - i (vcap = 1), and
    # each pair bound counts the root's merged sinks next to j as paths: 37
    # and 81 pushes, 81 and 213 with every sink at every root. No push
    # lowers the degree limit, so no side is read. On a relabelled
    # circulant(200, [1, 2, 3]) the roots i >= 1 push into at most six
    # sinks each: 187 pushes, 576 with every sink
    pushes = counting(monkeypatch, graph, "_push")
    for n, bound, pinned in ((36, 7 * 36, 37), (80, 560, 81)):
        pushes.clear()
        assert generators.circulant(n, [1, 2, 3]).vertex_connectivity() == 6
        assert len(pushes) <= bound
        assert len(pushes) == pinned
    host = generators.circulant(200, [1, 2, 3])
    relabel = random.Random(7).sample(range(200), 200)
    host = MultiGraph(200, [(relabel[u], relabel[v]) for u, v in host.edges])
    pushes.clear()
    assert host.vertex_connectivity() == 6
    assert len(pushes) <= 199 + 6 * 6
    assert len(pushes) == 187


def test_mixed_cut_flow_count(monkeypatch):
    # the pair bound skips every pair of K9 and K13 at their demands and
    # of K12,12 under its degree limit, so no push runs; on two K40 sharing
    # four vertices the root bound leaves at most ceil(conn / k) (n - 1)
    # pairs, the roots i >= 1 keep the sinks next to vertex 0, and the
    # restricted gate pushes at 8 and 4 of them (15 and 6 with every sink,
    # 144 each on the whole network)
    pushes = counting(monkeypatch, graph, "_push")
    assert packing.check_uniform_weakly_connected(generators.complete(9), 2, 8).ok
    assert packing.check_uniform_weakly_connected(generators.complete(13), 3, 12).ok
    assert generators.complete_bipartite(12, 12).vertex_connectivity() == 12
    assert not pushes
    glued = MultiGraph(76, sorted({(a, b) for group in (range(40), range(36, 76))
                                   for a in group for b in group if a < b}))
    for (k, conn), pinned in ((orientation.robust_demand(1), 8),
                              (packing.tree_rigid_demand(2, 1, 1), 4)):
        pushes.clear()
        assert packing.check_uniform_weakly_connected(glued, k, conn).ok
        assert len(pushes) <= -(-conn // k) * (glued.n - 1)
        assert len(pushes) == pinned


def test_sink_merging_flow_count(monkeypatch):
    # on circulant(400, [1..4]) the pushes from the merged sinks reach the
    # running minimum at every pair: the (2, 8) check pushes 402 times,
    # 394 at root 0 and 8 at roots 1-3 into vertex 0's neighbours above
    # them (785 with every sink at every root, 1,590 flows without the
    # gate). Edge connectivity pushes once per sink, the first uncapped,
    # and reads no side
    pushes = counting(monkeypatch, graph, "_push")
    host = generators.circulant(400, [1, 2, 3, 4])
    assert graph._mixed_cut(host, 2, 1, 8) == (8, None)
    assert len(pushes) == 402
    pushes.clear()
    assert host.edge_connectivity() == 8
    assert len(pushes) == 399


def _structured_host(rng):
    """A relabelled circulant, two cliques glued on 1-3 vertices, a K_{a,b}
    or a random multigraph on at most 30 vertices, with about a tenth of
    its edges dropped."""
    kind = rng.randrange(4)
    if kind == 0:
        n = rng.randrange(4, 31)
        g = generators.circulant(n, rng.sample(range(1, n // 2 + 1),
                                               rng.randrange(1, min(4, n // 2) + 1)))
    elif kind == 1:
        shared = rng.randrange(1, 4)
        a, b = rng.randrange(shared + 1, 16), rng.randrange(shared + 1, 16)
        n = a + b - shared
        g = MultiGraph(n, sorted({(u, v) for group in (range(a), range(a - shared, n))
                                  for u in group for v in group if u < v}))
    elif kind == 2:
        g = generators.complete_bipartite(rng.randrange(1, 13), rng.randrange(1, 13))
    else:
        g = random_multigraph(rng.randrange(2, 31), rng.randrange(0, 90), rng)
    n = g.n
    relabel = rng.sample(range(n), n)
    return MultiGraph(n, [(relabel[u], relabel[v]) for u, v in g.edges
                          if rng.random() >= 0.1])


def test_mixed_cut_matches_the_reference_on_structured_hosts():
    # the root gates on the network minus the earlier roots and the pair
    # bound with merged sinks keep every value and side, and every witness
    # of a failing uniform weak check
    rng = random.Random(2929)
    sides = failing = 0
    for _ in range(520):
        g = _structured_host(rng)
        n = g.n
        vcap, ecap = rng.choice([(1, n), (1, 1), (2, 1), (3, 1),
                                 (rng.randrange(0, 5), rng.randrange(1, 4))])
        limit = rng.choice([INFINITY, INFINITY, rng.randrange(1, 3 * n)])
        got = graph._mixed_cut(g, vcap, ecap, limit)
        want = _reference_mixed_cut(g, vcap, ecap, limit)
        assert got == want
        sides += want[1] is not None
        if ecap == 1 and limit != INFINITY and max(map(max, g.mult)) <= 1:
            report = packing.check_uniform_weakly_connected(g, vcap, limit)
            assert report.ok == (want[1] is None)
            if not report.ok:
                a = want[1] & g.full_mask
                b = (want[1] >> n) & ~a
                assert (report.witness["A"], report.witness["B"], report.witness["lhs"]) == (
                    graph.vertices_of(a), graph.vertices_of(b), want[0] - vcap * b.bit_count())
                failing += 1
    assert sides >= 400 and failing >= 20


def _separating_zero(rng):
    """A host whose vertex 0 may lie in every minimum separator: two
    cliques glued on 1-3 vertices, relabelled so that 0 is one of them,
    with about a sixth of their edges dropped; a random multigraph whose
    vertex 0 keeps 0-2 of its edges; or a star centred at 0 with random
    edges among its leaves."""
    kind = rng.randrange(4)
    if kind < 2:
        shared = rng.randrange(1, 4)
        a, b = rng.randrange(shared + 1, 9), rng.randrange(shared + 1, 9)
        n = a + b - shared
        relabel = rng.sample(range(1, n), n - 1)
        relabel.insert(rng.randrange(a - shared, a), 0)
        return MultiGraph(n, [(relabel[u], relabel[v])
                              for group in (range(a), range(a - shared, n))
                              for u in group for v in group
                              if u < v and rng.random() >= 1 / 6])
    n = rng.randrange(3, 12)
    g = random_multigraph(n, rng.randrange(0, 3 * n), rng)
    if kind == 2:
        at_zero = [e for e in g.edges if 0 in e]
        return MultiGraph(n, [e for e in g.edges if 0 not in e]
                          + at_zero[:rng.randrange(3)])
    return MultiGraph(n, [(0, v) for v in range(1, n)]
                      + [e for e in g.edges if 0 not in e and rng.random() < 0.3])


def test_neighbours_of_zero_keep_values_and_sides(monkeypatch):
    # roots i >= 1 push only into vertex 0's neighbours above i; where a
    # root i >= 1 lowers the minimum, root i runs once more with every sink
    # for the side. On hosts whose minimum separators hold vertex 0, the
    # values and sides are the reference's. On the explicit host the side
    # of root 1's first restricted minimum pair is another least side
    # (4176374), so the re-run is what keeps the reference's
    host = MultiGraph(11, [
        (5, 2), (5, 6), (5, 0), (5, 10), (2, 6), (2, 4), (2, 7), (2, 10), (6, 4),
        (6, 0), (6, 7), (6, 10), (4, 0), (4, 7), (4, 10), (0, 10), (0, 10), (0, 1),
        (0, 8), (0, 3), (0, 9), (7, 10), (7, 1), (7, 8), (7, 9), (10, 8), (10, 3),
        (10, 9), (1, 8), (1, 9), (3, 9)])
    assert graph._mixed_cut(host, 1, 11, 8) == _reference_mixed_cut(host, 1, 11, 8) \
        == (3, 3955466)
    calls = counting(monkeypatch, graph, "_least_cut")
    rng = random.Random(3535)
    reruns = restricted = 0
    for _ in range(3000):
        g = _separating_zero(rng)
        n = g.n
        vcap, ecap = rng.choice([(1, n), (1, 1), (2, 1), (3, 1),
                                 (rng.randrange(0, 5), rng.randrange(1, 4))])
        limit = rng.choice([INFINITY, INFINITY, rng.randrange(1, 3 * n)])
        calls.clear()
        got = graph._mixed_cut(g, vcap, ecap, limit)
        assert got == _reference_mixed_cut(g, vcap, ecap, limit)
        roots = [(rest & -rest).bit_length() - 1 for _, rest, *_ in calls]
        reruns += len(set(roots)) < len(roots)
        restricted += any(i and rest >> n + i + 1 != (1 << n - i - 1) - 1
                          for i, (_, rest, *_) in zip(roots, calls))
    assert reruns >= 300 and restricted >= 300, (reruns, restricted)


def test_essential_edge_connectivity_flow_count(monkeypatch):
    # one push per later neighbour y of each vertex f after a, b (210 on
    # K23, at most m) and one per pair of neighbours x of a and y of b (at
    # most deg(a) deg(b)); the 20-vertex rigid part of forced tree-rigid on
    # K20, whose claims take its cut consequences from its tightness, goes
    # through the essential cut directly
    pushes = counting(monkeypatch, graph, "_push")
    assert generators.complete(23).essential_edge_connectivity() == 42
    assert len(pushes) <= 253 + 22 * 22
    assert len(pushes) == 210 + 21 * 20
    k20 = generators.complete(20)
    res = packing.preset_tree_rigid(k20, 2, 1, 1, force=True)
    assert res.ok and res.checks["rigid_0_cuts"] is True
    rep = packing.check_rigid_cut_consequences(k20.subgraph(res.rigid_parts[0]), 2)
    assert rep.ok and rep.aux["essential"] >= 3


def test_essential_edge_connectivity_matches_the_boundary_sweep():
    # 3,000 seeded multigraphs on 2-10 vertices, connected or not, against
    # the sweep of every vertex set whose both sides induce an edge; and
    # 6-regular circulants, where two adjacent vertices cut 6 + 6 - 2 = 10
    # edges and a longer arc of the cycle at least 12 (K23 is in the flow
    # count test)
    rng = random.Random(3232)
    disconnected = parallel = finite = 0
    for _ in range(3000):
        n = rng.randrange(2, 11)
        g = random_multigraph(n, rng.randrange(0, 3 * n), rng)
        full, etab, dtab = g.full_mask, g.induced_table, g.weight_table(g.degrees)
        want = min((dtab[a] - 2 * etab[a] for a in range(1, full)
                    if etab[a] and etab[full ^ a]), default=INFINITY)
        assert g.essential_edge_connectivity() == want
        disconnected += not g.is_connected()
        parallel += len(set(g.edges)) < g.m
        finite += want != INFINITY
    assert disconnected >= 500 and parallel >= 1000 and finite >= 1500
    for n in (20, 30, 41):
        assert generators.circulant(n, [1, 2, 3]).essential_edge_connectivity() == 10


def test_value_only_cuts_run_no_flow():
    # essential edge connectivity, a whole pass of the vertex-deleted cuts
    # and the repair's cycle reversal read their values from pushes
    host = generators.circulant(30, [1, 2, 3])
    assert host.essential_edge_connectivity() == 10
    assert graph._vertex_deleted_cuts(host.n, host._edge_arcs(), False)[0] == 6
    orient = orientation.euler_orient(host)
    arcs = [(t, h, 1) for t, h in orient.arcs]
    assert graph._vertex_deleted_cuts(host.n, arcs, True)[0] == 3
    assert orientation._reverse_cycle_through(orient, 0, host.full_mask ^ 1) is not None


def _reference_vertex_deleted_cuts(n, arcs, both_ways, limit=INFINITY):
    """`graph._vertex_deleted_cuts` before sink merging: one uncapped root
    flow per vertex and direction, and the G - v flows its bound leaves,
    all by the Edmonds-Karp of `helpers`, which shares no code with the
    engine's flows."""
    net = graph._flow_network(n, arcs)
    head, cap, out = net
    roots = []
    for t in range(1, n):
        for s, u in ((0, t), (t, 0))[:1 + both_ways]:
            flow, _, left = augmenting_paths(net, s, u)
            into = [0] * n
            for h, f in zip(head[::2], left[1::2]):
                into[h] += f
            roots.append((s, u, flow, into))

    def lowered():
        worst = limit
        for v in range(n):
            deleted = cap[:]
            for a in out[v]:
                deleted[a] = deleted[a ^ 1] = 0
            minus = (head, deleted, out)
            if v == 0:  # every root flow from vertex 1 runs
                pairs = [(s, u, 0) for t in range(2, n)
                         for s, u in ((1, t), (t, 1))[:1 + both_ways]]
            else:
                pairs = [(s, t, flow - into[v]) for s, t, flow, into in roots
                         if v not in (s, t)]
            best, side = worst, None
            for s, t, floor in pairs:
                if floor < best:
                    value, reached, _ = augmenting_paths(minus, s, t, best)
                    if reached is not None:
                        best, side = value, reached
            if side is not None:
                worst = best
                yield v, best, side

    return min((flow for _, _, flow, _ in roots), default=INFINITY), lowered()


def test_vertex_deleted_cuts_match_uncapped_root_flows():
    # the same least cut and the same lowered entries, sides included, as
    # with uncapped root flows, on 6,000 digraphs and symmetric multigraphs
    # (parallel arcs, capacities 1-3) with 1-10 vertices and every limit
    rng = random.Random(2626)
    lowering = parallel = 0
    for _ in range(6000):
        n = rng.randrange(1, 11)
        g = random_multigraph(n, rng.randrange(0, 3 * n) if n > 1 else 0, rng)
        both_ways = rng.random() < 0.5
        if both_ways:
            arcs = [(u, v, rng.randrange(1, 4)) if rng.random() < 0.5
                    else (v, u, rng.randrange(1, 4)) for u, v in g.edges]
        else:
            arcs = [(x, y, c) for u, v in g.edges
                    for c in [rng.randrange(1, 4)] for x, y in ((u, v), (v, u))]
        limit = rng.choice([1, 2, 3, 4, INFINITY])
        whole, lowered = graph._vertex_deleted_cuts(n, arcs, both_ways, limit)
        want, ref = _reference_vertex_deleted_cuts(n, arcs, both_ways, limit)
        got = [(v, value, side()) for v, value, side in lowered]
        assert (whole, got) == (want, list(ref))
        lowering += len(got) > 1
        parallel += not both_ways and len(set(g.edges)) < g.m
    assert lowering >= 500 and parallel >= 1000


def _hub(rng):
    """Two cliques sharing one vertex, relabelled at random: every flow
    between them runs through the shared vertex, whose deletion
    disconnects the graph."""
    a, b = rng.randrange(2, 7), rng.randrange(2, 7)
    edges = [(u + o, v + o) for o, size in ((0, a), (a - 1, b))
             for u in range(size) for v in range(u + 1, size)]
    perm = rng.sample(range(a + b - 1), a + b - 1)
    return MultiGraph(a + b - 1, [(perm[u], perm[v]) for u, v in edges])


def _dense(rng):
    n = rng.randrange(3, 11)
    p = rng.uniform(0.5, 1.0)
    return MultiGraph(n, [(u, v) for u in range(n) for v in range(u + 1, n)
                          if rng.random() < p])


def test_vertex_deleted_cuts_match_per_vertex_flows():
    # _cut_profile and robust_claims skip the G - v pairs whose bound
    # P - thru(v) from the whole network's sink-merging pushes reaches the
    # running minimum; the values must equal a fresh min cut of every G - v
    rng = random.Random(1414)
    hosts = [MultiGraph(1, []), MultiGraph(2, [(0, 1)]),
             MultiGraph(2, [(0, 1), (1, 0), (0, 1)]),
             MultiGraph(3, [(0, 1), (1, 2)]),  # G - 1 is disconnected
             MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (0, 2)])]
    hosts += [_dense(rng) if i % 2 else _hub(rng) for i in range(300)]
    deleted_zero = 0
    for g in hosts:
        if g.n == 1:
            assert packing._cut_profile(g) == (INFINITY, INFINITY)
        else:
            per_vertex = min(delete_vertex(g, v).edge_connectivity()
                             for v in range(g.n))
            assert packing._cut_profile(g) == (g.edge_connectivity(), per_vertex)
            deleted_zero += per_vertex == 0
        orient = orientation.smooth_orient(g, rng)
        checks = orientation.robust_claims(orient, 1)[1]
        assert checks == {
            "arc_strong": arc_strong_value(orient),
            "vertex_deleted_arc_strong": min(
                _deleted_arc_strong(orient, v) for v in range(g.n))}
    assert deleted_zero >= 100


def _deleted_arc_strong(orient, v):
    """A fresh least cut of the digraph minus v, on its own network."""
    net = graph._flow_network(orient.host.n, [(t, h, 1) for t, h in orient.arcs
                                              if v not in (t, h)])
    return graph._least_cut(net, orient.host.full_mask ^ (1 << v), True)[0]


def test_robust_claims_flow_count(monkeypatch):
    # one G - v least cut lowers the running minimum from INFINITY: its
    # first pair's push is uncapped, and no side is read; every other pair,
    # the whole network's included, is settled by its bound or a push
    # capped at the running minimum. A fresh min cut of every G - v ran 418
    # flows here, and reading the side took one more push
    orient = orientation.robust_arc_strong(generators.complete(15), 1,
                                           force=True).orientation
    pushes = counting(monkeypatch, graph, "_push")
    failed, checks = orientation.robust_claims(orient, 1)
    assert not failed
    assert checks == {"arc_strong": 7, "vertex_deleted_arc_strong": 6}
    assert len(pushes) == 61


def test_robust_claims_flow_count_on_circulant(monkeypatch):
    # of the 79,598 sink pairs of the whole network and the G - v, a bound
    # or a push settles all but 1,102, and one G - v least cut pushes
    # uncapped at its first pair; no side is read (it took one more push)
    res = orientation.robust_arc_strong(generators.circulant(200, range(1, 9)), 1)
    assert res.ok
    pushes = counting(monkeypatch, graph, "_push")
    failed, checks = orientation.robust_claims(res.orientation, 1)
    assert not failed
    assert checks == {"arc_strong": 8, "vertex_deleted_arc_strong": 7}
    assert len(pushes) == 1102 + 1


def test_robust_construction_flow_count(monkeypatch):
    # a repair pass finds the first deficient vertex, if any, from one
    # whole pass of pushes, reads its side and reverses its cycle by a unit
    # push; here the tour has none, and the final claims read no side (90
    # pushes when they did). A fresh min cut per vertex and pass ran 518
    # flows here
    pushes = counting(monkeypatch, graph, "_push")
    assert orientation.robust_arc_strong(generators.complete(15), 1,
                                         force=True).ok
    assert len(pushes) == 89


def test_tree_rigid_flow_count(monkeypatch):
    # the self-check takes its rigid parts' cut consequences from their
    # tightness, so no push runs; a fresh min cut per G - v ran 84 here
    pushes = counting(monkeypatch, graph, "_push")
    assert packing.preset_tree_rigid(generators.complete(9), 2, 1, 1).ok
    assert not pushes


def test_bipartition():
    g = generators.complete_bipartite(2, 3)
    sides = g.bipartition()
    assert sides is not None
    a, b = sides
    for u, v in g.edges:
        assert ((a >> u) & 1) != ((a >> v) & 1)
    assert MultiGraph(3, [(0, 1), (1, 2), (2, 0)]).bipartition() is None


def test_cut_identity_exhaustive():
    # e(A) + e(V \ A) + d(A) = m for every subset, small random graphs
    rng = random.Random(3)
    for _ in range(25):
        g = random_multigraph(5, rng.randrange(0, 9), rng)
        etab = g.induced_table
        for a in range(1 << 5):
            comp = g.full_mask ^ a
            assert etab[a] + etab[comp] + boundary_minus(g, a, 0) == g.m


def test_boundary_minus_against_enumeration():
    rng = random.Random(4)
    for _ in range(20):
        g = random_multigraph(5, 7, rng)
        for a in range(1 << 5):
            for b in range(1 << 5):
                if a & b:
                    continue
                direct = sum(
                    1 for u, v in g.edges
                    if (((a >> u) & 1) and not (((a | b) >> v) & 1))
                    or (((a >> v) & 1) and not (((a | b) >> u) & 1)))
                assert boundary_minus(g, a, b) == direct
                break  # one b per a keeps this quick
        assert boundary_minus(g, 0, 0) == 0


def test_edge_connectivity_equals_min_cut_oracle():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randrange(2, 8)
        g = random_multigraph(n, rng.randrange(n - 1, 2 * n + 3), rng)
        best = min(boundary_minus(g, a, 0) for a in range(1, g.full_mask))
        assert g.edge_connectivity() == best
        assert (best == 0) == (not g.is_connected())
        # a limit caps the value: min(lambda, limit) for every limit
        for limit in range(best + 2):
            assert g.edge_connectivity(limit) == min(best, limit)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                max_size=12).map(lambda es: [(u, v) for u, v in es if u != v]))
def test_weight_table_matches_direct_sum(edges):
    g = MultiGraph(6, edges)
    tab = g.weight_table(g.degrees)
    for mask in range(0, 1 << 6, 7):
        assert tab[mask] == sum(g.degrees[v] for v in range(6) if (mask >> v) & 1)
