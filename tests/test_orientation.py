import random
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpack import generators, oracle, packing
from rigidpack.graph import (MultiGraph, INFINITY, mask_of, _flow_network,
                            _least_cut, _vertex_deleted_cuts)
from rigidpack.setfuncs import (
    lmn, const, zero, table_func, vertex_weights, with_overrides,
)
from rigidpack.sparsity import is_sparse
from rigidpack.orientation import (
    Orientation, hakimi_orient, euler_orient,
    smooth_orient, rigid_to_orientation, orientation_to_rigid,
    packed_orientation, packed_claims, odd_spanning_forest, rigid_factor,
    robust_arc_strong, _find_robust_violation, _repair_orientation,
    _reverse_cycle_through,
)

from helpers import arc_strong_value, force_zero_on_ground, random_multigraph


def triangle():
    return MultiGraph(3, [(0, 1), (1, 2), (2, 0)])


def c4():
    return MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def unit_cycle_func(n):
    return force_zero_on_ground(lmn(n, 1, 1))


def test_hakimi_examples():
    res = hakimi_orient(triangle(), [1, 1, 1])
    assert res.ok and res.orientation.indegrees == (1, 1, 1)

    res = hakimi_orient(triangle(), [0, 0, 3])
    assert not res.ok
    mask = res.violation
    tri = triangle()
    assert tri.induced(mask) > sum(
        [0, 0, 3][v] for v in range(3) if (mask >> v) & 1)

    path = MultiGraph(3, [(0, 1), (1, 2)])
    res = hakimi_orient(path, [0, 1, 1])
    assert res.ok and res.orientation.arcs == ((0, 1), (1, 2))

    # the first pass heads every edge into vertex 0, two over its target:
    # the repair must flip into 0 twice before it moves on
    fan = MultiGraph(4, [(0, 1)] * 2 + [(0, 2)] * 3 + [(0, 3)] * 3)
    res = hakimi_orient(fan, [6, 2, 0, 0])
    assert res.ok and res.orientation.indegrees == (6, 2, 0, 0)
    res = hakimi_orient(fan, [5, 3, 0, 0])
    assert not res.ok and res.violation == 0b1101


def test_hakimi_rejects_bad_totals():
    with pytest.raises(ValueError, match="sum"):
        hakimi_orient(triangle(), [1, 1, 0])


def test_hakimi_feasibility_matches_subset_condition():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(2, 6)
        g = random_multigraph(n, rng.randrange(0, 10), rng)
        if g.m == 0:
            continue
        cuts = sorted(rng.sample(range(g.m + n - 1), n - 1))
        targets = [b - a - 1 for a, b in zip([-1] + cuts, cuts + [g.m + n - 1])]
        res = hakimi_orient(g, targets)
        etab = g.induced_table
        feasible = all(
            etab[mask] <= sum(targets[v] for v in range(n) if (mask >> v) & 1)
            for mask in range(1, g.full_mask + 1))
        assert res.ok == feasible
        if res.ok:
            assert list(res.orientation.indegrees) == targets


def test_euler_orientation_examples():
    orient = euler_orient(c4())
    assert orient.is_balanced()
    with pytest.raises(ValueError, match="odd degree"):
        euler_orient(generators.complete(4))


def _entering(arcs, mask):
    """d^-(mask), arc by arc."""
    return sum(1 for t, h in arcs if (mask >> h) & 1 and not (mask >> t) & 1)


def test_eulerian_cuts_are_balanced():
    rng = random.Random(33)
    graphs = [c4(), generators.circulant(8, [1, 2]),
              generators.circulant(10, [1, 5]), generators.complete(5)]
    for _ in range(10):
        g = random_multigraph(6, 2 * rng.randrange(2, 7), rng)
        if all(d % 2 == 0 for d in g.degrees):
            graphs.append(g)
    for g in graphs:
        if any(d % 2 for d in g.degrees):
            continue
        orient = euler_orient(g)
        for mask in range(1, g.full_mask + 1):
            assert _entering(orient.arcs, mask) == oracle.boundary_minus(g, mask, 0) // 2


def test_arc_strong_flows_match_indegree_table():
    rng = random.Random(808)
    for _ in range(320):
        n = rng.randrange(2, 9)
        g = random_multigraph(n, rng.randrange(0, 3 * n), rng)
        orient = Orientation(g, tuple(rng.choice(e) for e in g.edges))
        value = min(_entering(orient.arcs, mask) for mask in range(1, g.full_mask))
        assert arc_strong_value(orient) == value
        for limit in range(4):
            assert arc_strong_value(orient, limit) == min(value, limit)


def test_smooth_orientation():
    orient = smooth_orient(generators.complete(4))
    assert orient.is_smooth()
    assert all(sorted(p) == [1, 2] for p in
               zip(orient.indegrees, orient.outdegrees))
    # even-degree vertices end balanced
    orient = smooth_orient(generators.circulant(6, [1, 2]))
    assert orient.is_balanced()


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=14)
       .map(lambda es: [(u, v) for u, v in es if u != v]))
def test_smooth_orientation_property(edges):
    g = MultiGraph(6, edges)
    orient = smooth_orient(g)
    for v in range(6):
        diff = orient.indegrees[v] - orient.outdegrees[v]
        assert abs(diff) <= 1
        if g.degree(v) % 2 == 0:
            assert diff == 0


def test_verify_arc_examples():
    # the arc-connectivity decision on small in-degree-exact orientations
    tab = table_func(3, {0b001: 1, 0b010: 1, 0b100: 1,
                         0b011: 1, 0b101: 1, 0b110: 1, 0b111: 0})
    cycle = Orientation(triangle(), (1, 2, 0))
    assert orientation_to_rigid(cycle, tab).ok
    assert oracle.bf_arc_connected(cycle.host, cycle.heads, tab)[0]
    path = Orientation(MultiGraph(3, [(0, 1), (1, 2)]), (1, 2))
    res = orientation_to_rigid(path, tab)
    assert not res.ok and res.reason == "indegree" and res.witness == 0
    assert oracle.bf_arc_connected(path.host, path.heads, tab) == (False, 0b001)
    # rooted at vertex 0 the path is in-degree exact, sparse and arc-connected
    assert is_sparse(path.host, tab).ok
    assert oracle.bf_arc_connected(path.host, path.heads, tab, [1, 0, 0])[0]
    assert oracle.bf_arc_connected(cycle.host, cycle.heads, tab, [1, 0, 0])[0]


def test_verify_arc_matches_oracle():
    # orientation_to_rigid accepts exactly the in-degree-exact orientations
    # that the subset sweep finds arc-connected
    rng = random.Random(35)
    seen = {True: 0, False: 0}
    for _ in range(200):
        f = force_zero_on_ground(lmn(4, rng.randrange(0, 2), rng.randrange(0, 2)))
        g = random_multigraph(4, rng.choice([rng.randrange(1, 8), 4]), rng)
        heads = tuple(g.edges[e][rng.randrange(2)] for e in range(g.m))
        if sum(f.singletons) == g.m and rng.random() < 0.8:
            hk = hakimi_orient(g, f.singletons)
            if hk.ok:
                heads = hk.orientation.heads
        orient = Orientation(g, heads)
        exact = list(orient.indegrees) == list(f.singletons)
        fast = orientation_to_rigid(orient, f)
        assert fast.ok == (exact and oracle.bf_arc_connected(g, heads, f)[0])
        if exact:
            seen[fast.ok] += 1
            if not fast.ok:
                assert fast.reason == "not-arc-connected"
                assert not oracle.bf_arc_connected(g, heads, f)[0]
    assert min(seen.values()) > 0, seen


def _random_setfunc(n, rng):
    """A set function of a random kind, small enough for the oracles."""
    kind = rng.choice(["lmn", "const", "weights", "table", "mod"])
    if kind == "lmn":
        a = rng.randrange(0, 4)
        return lmn(n, a, rng.randrange(0, 2 * a + 1))
    if kind == "const":
        return const(n, rng.randrange(0, 3))
    if kind == "weights":
        return vertex_weights(rng.randrange(0, 3) for _ in range(n))
    if kind == "table":
        return table_func(n, {m: rng.randrange(0, 3) if m & (m - 1) == 0
                              else rng.randrange(-1, 4) for m in range(1, 1 << n)})
    a = rng.randrange(1, 4)
    base = lmn(n, a, rng.randrange(0, 2 * a))
    mask = (1 << n) - 1 if rng.random() < 0.5 else rng.randrange(1, 1 << n)
    return with_overrides(base, {mask: rng.randrange(0, 2 * a)})


def test_sparsity_decides_rooted_arc_connectivity():
    # on an orientation with d^-(v) = f(v) - r(v), d^-(A) >= f(A) - r(A)
    # for every A exactly when the edges are f-sparse
    rng = random.Random(1103)
    verdicts = {True: 0, False: 0}
    kinds = set()
    for _ in range(900):
        n = rng.randrange(2, 8)
        f = _random_setfunc(n, rng)
        if any(x < 0 for x in f.singletons):
            continue
        roots = [rng.randrange(0, x + 1) for x in f.singletons]
        targets = [x - r for x, r in zip(f.singletons, roots)]
        g = random_multigraph(n, sum(targets), rng)
        hk = hakimi_orient(g, targets)
        if not hk.ok:
            continue
        heads = hk.orientation.heads
        sp = is_sparse(g, f)
        assert sp.ok == oracle.bf_arc_connected(g, heads, f, roots)[0]
        if not sp.ok:
            entering = sum(1 for t, h in hk.orientation.arcs
                           if (sp.violation >> h) & 1 and not (sp.violation >> t) & 1)
            assert entering < f.value(sp.violation) - sum(
                roots[v] for v in range(n) if (sp.violation >> v) & 1)
        verdicts[sp.ok] += 1
        kinds.add(f.kind)
    assert min(verdicts.values()) > 50, verdicts
    assert kinds == {"lmn", "const", "weights", "table", "mod"}


def test_rigid_orientation_equivalence_examples():
    res = rigid_to_orientation(c4(), unit_cycle_func(4))
    assert res.ok and res.orientation.indegrees == (1, 1, 1, 1)
    back = orientation_to_rigid(res.orientation, unit_cycle_func(4))
    assert back.ok

    res = rigid_to_orientation(triangle(), unit_cycle_func(3))
    assert res.ok

    path = MultiGraph(3, [(0, 1), (1, 2)])
    res = rigid_to_orientation(path, unit_cycle_func(3))
    assert not res.ok and res.reason == "edge-count"


def test_rigid_orientation_rejects_nonzero_total():
    with pytest.raises(ValueError, match="vanish"):
        rigid_to_orientation(c4(), lmn(4, 1, 1))


def test_rigid_orientation_multigraph_round_trip():
    # four parallel edges are minimally rigid for the zeroed rigidity counts
    quad = MultiGraph(2, [(0, 1)] * 4)
    ell = force_zero_on_ground(lmn(2, 2, 3))
    res = rigid_to_orientation(quad, ell)
    assert res.ok and res.orientation.indegrees == (2, 2)
    assert orientation_to_rigid(res.orientation, ell).ok


def test_orientation_to_rigid_detects_bad_indegree():
    bad = Orientation(c4(), (1, 2, 3, 3))
    res = orientation_to_rigid(bad, unit_cycle_func(4))
    assert not res.ok and res.reason == "indegree"


def test_orientation_to_rigid_names_a_set_with_too_few_entering_arcs():
    # two directed 2-cycles: every in-degree is 1, but no arc enters either
    digons = Orientation(MultiGraph(4, [(0, 1), (0, 1), (2, 3), (2, 3)]),
                         (1, 0, 3, 2))
    res = orientation_to_rigid(digons, unit_cycle_func(4))
    assert not res.ok and res.reason == "not-arc-connected"
    assert res.witness in (0b0011, 0b1100)
    assert not oracle.bf_arc_connected(digons.host, digons.heads,
                                       unit_cycle_func(4))[0]


def test_packed_orientation_k9():
    k9 = generators.complete(9)
    r1 = [1] + [0] * 8
    r2 = [2, 1] + [0] * 7
    res = packed_orientation(k9, lmn(9, 1, 1), lmn(9, 2, 3), r1, r2)
    assert res.ok
    orient = res.orientation
    assert max(orient.outdegrees) <= 4
    d1 = orient.restricted(res.h1)
    assert list(d1.indegrees) == [0] + [1] * 8
    assert oracle.bf_arc_connected(d1.host, d1.heads, lmn(9, 1, 1), r1)[0]
    d2 = orient.restricted(res.h2)
    assert oracle.bf_arc_connected(d2.host, d2.heads, lmn(9, 2, 3), r2)[0]


def test_packed_orientation_zero_first_function():
    k9 = generators.complete(9)
    r2 = [1, 1, 1] + [0] * 6
    res = packed_orientation(k9, zero(9), lmn(9, 2, 3), [0] * 9, r2)
    assert res.ok and not res.h1


def test_packed_orientation_rejects_oversized_roots():
    k9 = generators.complete(9)
    with pytest.raises(ValueError, match="exceeds"):
        packed_orientation(k9, lmn(9, 1, 1), lmn(9, 2, 3),
                           [1] + [0] * 8, [3] + [0] * 8)


def _lowered_hosts():
    """Seeded hosts with odd-degree vertices: K7-K9 less a random matching,
    and K6-K8 with random parallel edges added."""
    rng = random.Random(41)
    for n in (7, 8, 9):
        for _ in range(3):
            perm = rng.sample(range(n), n)
            drop = {tuple(sorted(perm[i:i + 2]))
                    for i in range(0, 2 * rng.randrange(1, n // 2 + 1), 2)}
            yield MultiGraph(n, [e for e in generators.complete(n).edges
                                 if e not in drop])
    for _ in range(4):
        n = rng.randrange(6, 9)
        extra = random_multigraph(n, rng.randrange(n, 2 * n), rng).edges
        yield MultiGraph(n, [*generators.complete(n).edges, *extra])


def _with_outdegree(orient, u, target, keep):
    """The orientation with arcs into u outside `keep` reversed until u
    has out-degree `target`."""
    heads = list(orient.heads)
    out = orient.outdegrees[u]
    for eid in range(orient.host.m):
        if out == target:
            break
        if heads[eid] == u and eid not in keep:
            heads[eid] = orient.tail(eid)
            out += 1
    assert out == target
    return Orientation(orient.host, tuple(heads))


def _roots(func, n, rng):
    """Seeded roots summing to func(V), at most func(v) at each v."""
    roots = [0] * n
    for _ in range(func.value((1 << n) - 1)):
        v = rng.choice([v for v in range(n) if roots[v] < func.singletons[v]])
        roots[v] += 1
    return roots


def test_packed_orientation_lowers_an_odd_degree_vertex():
    rng = random.Random(43)
    for g in _lowered_hosts():
        # the first pair whose degree eater the host's degrees can feed
        l, ell = next((l, ell) for l, ell in ((lmn(g.n, 1, 1), lmn(g.n, 2, 3)),
                                              (zero(g.n), lmn(g.n, 2, 3)),
                                              (lmn(g.n, 1, 1), lmn(g.n, 1, 1)))
                      if 2 * (l.singletons[0] + ell.singletons[0]) <= min(g.degrees))
        for u in [v for v, d in enumerate(g.degrees) if d % 2]:
            r1, r2 = _roots(l, g.n, rng), _roots(ell, g.n, rng)
            res = packed_orientation(g, l, ell, r1, r2, force=True,
                                     lowered_vertex=u)
            assert res.ok
            orient = res.orientation
            assert orient.outdegrees[u] <= g.degree(u) // 2
            assert packed_claims(orient, l, ell, r1, r2, res.h1, res.h2, u) == []
            # out-degree ceil(d(u)/2) at u meets the plain bound, not the lowered one
            raised = _with_outdegree(orient, u, -(-g.degree(u) // 2),
                                     res.h1 | res.h2)
            assert packed_claims(raised, l, ell, r1, r2, res.h1, res.h2) == []
            assert packed_claims(raised, l, ell, r1, r2, res.h1, res.h2, u) == \
                [f"out-degree bound violated at vertex {u}"]


def test_odd_forest_examples():
    res = odd_spanning_forest(generators.complete(4), 2)
    assert res.achieved
    sub = generators.complete(4).subgraph(res.edges)
    assert all(d == 1 for d in sub.degrees)  # a perfect matching

    with pytest.raises(ValueError, match="odd order"):
        odd_spanning_forest(MultiGraph(3, [(0, 1), (1, 2)]), 2)


def test_odd_forest_degrees_always_odd():
    rng = random.Random(37)
    done = 0
    while done < 20:
        n = 2 * rng.randrange(2, 5)
        g = random_multigraph(n, rng.randrange(n, 3 * n), rng)
        if not g.is_connected():
            continue
        res = odd_spanning_forest(g, 2)
        sub = g.subgraph(res.edges)
        assert all(d % 2 == 1 for d in sub.degrees)
        done += 1


def test_rigid_factor_on_circulant():
    g = generators.circulant(8, [1, 2])
    res = rigid_factor(g, k=1, r=4)
    assert res.ok
    sub = g.subgraph(res.edges)
    assert set(sub.degrees) <= {1, 3}
    assert sub.is_connected()


def test_rigid_factor_eight_regular():
    g = generators.circulant(10, [1, 2, 3, 4])
    res = rigid_factor(g, k=1, r=8)
    assert res.ok
    sub = g.subgraph(res.edges)
    assert set(sub.degrees) <= {5, 7}


def test_odd_forest_reports_unreachable_bound():
    # the star forces the centre to keep all three edges, so the
    # ceil(d/3) target cannot be met and the result says so
    star = MultiGraph(4, [(0, 1), (0, 2), (0, 3)])
    res = odd_spanning_forest(star, 3)
    assert not res.achieved
    sub = star.subgraph(res.edges)
    assert all(d % 2 == 1 for d in sub.degrees)


def test_robust_hypothesis_failure():
    res = robust_arc_strong(c4(), 1)
    assert not res.ok
    assert res.hypothesis is not None and not res.hypothesis.ok


@pytest.mark.parametrize("host", [generators.complete(30),
                                  generators.circulant(30, range(1, 7))])
def test_unforced_robust_orientation_past_fourteen_vertices(host):
    # the hypothesis is decided by connectivity, with no 3^n pair sweep
    res = robust_arc_strong(host, 1)
    assert res.ok and res.hypothesis.ok


def _relabelled(graph, seed):
    """The graph with vertices renamed and edges reordered at random."""
    rng = random.Random(seed)
    perm = list(range(graph.n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in graph.edges]
    rng.shuffle(edges)
    return MultiGraph(graph.n, edges)


ROBUST_HOSTS = [(generators.complete(13), False),
                (generators.complete(15), True),
                (_relabelled(generators.circulant(14, range(1, 7)), 5), False),
                (_relabelled(generators.circulant(16, range(1, 8)), 6), False)]


@pytest.mark.parametrize("host, forced", ROBUST_HOSTS)
def test_robust_pieces_are_the_tree_rigid_ec_decomposition(host, forced):
    # the paper's orientation at k = 1 takes the decomposition at (3, 1, 1)
    res = robust_arc_strong(host, 1, force=True)
    preset = packing.preset_tree_rigid_ec(host, 3, 1, 1, force=True)
    assert res.ok and preset.ok
    rigid, = preset.rigid_parts
    assert res.detail["rigid_part"] == sorted(rigid)
    assert res.detail["companion"] == sorted(preset.reinforced[0] - rigid)
    assert res.detail["tree"] == sorted(preset.trees[0])
    if not forced:
        hyp = robust_arc_strong(host, 1).hypothesis
        want = packing.preset_tree_rigid_ec(host, 3, 1, 1).hypothesis
        assert (hyp.tag, hyp.ok, hyp.witness, hyp.aux) == \
            (want.tag, want.ok, want.witness, want.aux)


def _check_lowered(orient, values):
    """`_vertex_deleted_cuts` against the least cut of every digraph minus
    v, given in `values`: at limits 0-3 and INFINITY its first entry names
    the first v whose value is below the limit, with that value and a side
    whose complement without v has that many entering arcs, and with no
    limit its entries reach the least value."""
    arcs = [(t, h, 1) for t, h in orient.arcs]
    for limit in [*range(4), INFINITY]:
        first = next((v for v, value in enumerate(values) if value < limit), None)
        entry = next(_vertex_deleted_cuts(orient.host.n, arcs, True, limit)[1], None)
        if first is None:
            assert entry is None
            continue
        v, value, side = entry
        assert (v, value) == (first, values[v])
        rest = orient.host.full_mask ^ (1 << v)
        witness = rest & ~side()
        # a minimum cut side: nonempty, proper, without v
        assert witness and witness != rest
        assert _entering([(t, h) for t, h, _ in arcs if v not in (t, h)],
                         witness) == value
    lowered = _vertex_deleted_cuts(orient.host.n, arcs, True)[1]
    assert min((value for _, value, _ in lowered), default=INFINITY) == min(values)


def test_deleted_arc_strong_matches_definition():
    g = generators.complete(5)
    orient = smooth_orient(g)
    values = []
    for v in range(5):
        keep = [e for e in range(g.m) if v not in g.edges[e]]
        rest = [w for w in range(5) if w != v]
        best = None
        for mask_bits in range(1, (1 << 4) - 1):
            mask = 0
            for i, w in enumerate(rest):
                if (mask_bits >> i) & 1:
                    mask |= 1 << w
            indeg = sum(1 for e in keep
                        if (mask >> orient.heads[e]) & 1
                        and not (mask >> orient.tail(e)) & 1)
            best = indeg if best is None else min(best, indeg)
        values.append(best)
    _check_lowered(orient, values)


def _random_orientation(rng, n):
    g = (MultiGraph(1, []) if n == 1 else
         random_multigraph(n, rng.randrange(0, 3 * n), rng))
    return Orientation(g, tuple(rng.choice(e) for e in g.edges))


def _min_deleted(orient, v):
    """Minimum of d^-(A) over proper nonempty A of the digraph minus v,
    arc by arc."""
    arcs = [(t, h) for t, h in orient.arcs if v not in (t, h)]
    rest = orient.host.full_mask ^ (1 << v)
    return min((_entering(arcs, mask) for mask in range(1, rest)
                if not mask & ~rest), default=INFINITY)


def test_deleted_arc_strong_flows_match_table():
    rng = random.Random(909)
    orients = [_random_orientation(rng, rng.randrange(1, 9)) for _ in range(320)]
    assert sum(o.host.n <= 2 for o in orients) >= 30
    assert sum(not o.host.is_connected() for o in orients) >= 50
    assert sum(len(set(o.host.edges)) < o.host.m for o in orients) >= 50
    for orient in orients:
        _check_lowered(orient, [_min_deleted(orient, v)
                                for v in range(orient.host.n)])


def _table_violation(orient, k):
    """First vertex whose deletion leaves the digraph below k-arc-strong,
    arc by arc: the reference for the flow search."""
    return next((v for v in range(orient.host.n)
                 if _min_deleted(orient, v) < k), None)


def test_repair_matches_table_search():
    # tour orientations of 2-connected, 4-edge-connected Eulerian
    # multigraphs: about two in five leave some vertex-deleted digraph
    # not strongly connected, and the repair fixes a share of those
    rng = random.Random(4242)
    found = repaired = 0
    tried = 0
    while tried < 160:
        n = rng.randrange(4, 10)
        g = random_multigraph(n, rng.randrange(2 * n, 4 * n), rng)
        odd = [v for v in range(n) if g.degree(v) % 2]
        g = MultiGraph(n, g.edges + tuple(zip(odd[::2], odd[1::2])))
        if g.vertex_connectivity() < 2 or g.edge_connectivity() < 4:
            continue
        for _ in range(4):
            tried += 1
            orient = euler_orient(g, random.Random(tried))
            bad = _find_robust_violation(orient, 1)
            assert (bad and bad[0]) == _table_violation(orient, 1)
            if bad is None:
                continue
            found += 1
            fixed = _repair_orientation(orient, 1)
            if fixed is not None:
                repaired += 1
                assert fixed.is_balanced()
                assert _table_violation(fixed, 1) is None
    assert found >= 20 and repaired >= 10


def _bfs_reverse_cycle_through(hsub, heads, v, mask):
    """Cycle reversal by a breadth-first search that rescans every edge
    for each vertex it dequeues: the reference for the unit push of
    `_reverse_cycle_through`. Reverses the cycle in `heads`."""
    arcs_from_v = [e for e in range(hsub.m)
                   if heads[e] != v and v in hsub.edges[e]
                   and (mask >> heads[e]) & 1]
    for e0 in arcs_from_v:
        w = heads[e0]
        # BFS for a directed path w -> ... -> v avoiding e0
        parent = {w: -1}
        queue = deque([w])
        while queue:
            x = queue.popleft()
            for e in range(hsub.m):
                if e == e0 or heads[e] in parent:
                    continue
                a, b = hsub.edges[e]
                tail = a if heads[e] == b else b
                if tail != x:
                    continue
                parent[heads[e]] = e
                queue.append(heads[e])
        if v not in parent:
            continue
        path = []
        x = v
        while parent[x] != -1:
            e = parent[x]
            path.append(e)
            a, b = hsub.edges[e]
            x = a if heads[e] == b else b
        for e in path + [e0]:
            a, b = hsub.edges[e]
            heads[e] = a if heads[e] == b else b
        return True
    return False


def _bfs_repair_orientation(orient, k, passes=8):
    """`_repair_orientation` on `_bfs_reverse_cycle_through`."""
    hsub, heads = orient.host, list(orient.heads)
    for _ in range(passes):
        cur = Orientation(hsub, tuple(heads))
        bad = _find_robust_violation(cur, k)
        if bad is None:
            return cur
        if not _bfs_reverse_cycle_through(hsub, heads, *bad):
            return None
    cur = Orientation(hsub, tuple(heads))
    return cur if _find_robust_violation(cur, k) is None else None


def test_cycle_reversal_and_repair_match_the_breadth_first_reference():
    # tour orientations of random Eulerian multigraphs: one reversal at a
    # random vertex and set, and one repair, per case; about half the tours
    # leave a vertex-deleted digraph not strongly connected, and the repair
    # fixes a share of those
    rng = random.Random(1919)
    reversed_ = found = repaired = 0
    for case in range(2000):
        n = rng.randrange(3, 12)
        g = random_multigraph(n, rng.randrange(2 * n, 5 * n), rng)
        odd = [v for v in range(n) if g.degree(v) % 2]
        g = MultiGraph(n, g.edges + tuple(zip(odd[::2], odd[1::2])))
        orient = euler_orient(g, random.Random(case))
        v = rng.randrange(n)
        mask = rng.randrange(1 << n) & ~(1 << v)
        heads = list(orient.heads)
        ok = _bfs_reverse_cycle_through(g, heads, v, mask)
        assert _heads(_reverse_cycle_through(orient, v, mask)) == \
            (tuple(heads) if ok else None)
        reversed_ += ok
        fixed = _repair_orientation(orient, 1)
        assert _heads(fixed) == _heads(_bfs_repair_orientation(orient, 1))
        if _find_robust_violation(orient, 1) is not None:
            found += 1
            repaired += fixed is not None
    assert reversed_ >= 1000 and found >= 500 and repaired >= 60


def _heads(orient):
    return None if orient is None else orient.heads


def test_robust_repair_past_twenty_vertices():
    # a violation on a host of 22 vertices, where a subset table of the
    # vertex-deleted digraph would need 2^21 entries
    g = generators.circulant(22, [1])
    g = MultiGraph(22, g.edges + g.edges)
    orient = euler_orient(g)
    v, witness = _find_robust_violation(orient, 1)
    rest = g.full_mask ^ (1 << v)
    arcs = [(t, h) for t, h in orient.arcs if v not in (t, h)]
    assert witness and not witness & ~rest and witness != rest
    assert _entering(arcs, witness) == 0
    fixed = _repair_orientation(orient, 1)
    assert fixed is not None and fixed.is_balanced()
    # a fresh min cut of every digraph minus u, with no bound to skip flows
    for u in range(22):
        net = _flow_network(22, [(t, h, 1) for t, h in fixed.arcs if u not in (t, h)])
        assert _least_cut(net, g.full_mask ^ (1 << u), True)[0] >= 1
