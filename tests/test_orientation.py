import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rigidpack import generators, oracle
from rigidpack.graph import MultiGraph, mask_of
from rigidpack.setfuncs import lmn, const, zero, force_zero_on_ground, table_func
from rigidpack.orientation import (
    Orientation, hakimi_orient, verify_arc, arc_strong_value, euler_orient,
    smooth_orient, rigid_to_orientation, orientation_to_rigid,
    packed_orientation, odd_spanning_forest, rigid_factor,
    robust_arc_strong, _deleted_arc_strong, _arc_strong_by_flows,
)


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


def test_hakimi_rejects_bad_totals():
    with pytest.raises(ValueError, match="sum"):
        hakimi_orient(triangle(), [1, 1, 0])


def test_hakimi_feasibility_matches_subset_condition():
    rng = random.Random(31)
    for _ in range(60):
        n = rng.randrange(2, 6)
        g = oracle.random_multigraph(n, rng.randrange(0, 10), rng)
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


def test_eulerian_cuts_are_balanced():
    rng = random.Random(33)
    graphs = [c4(), generators.circulant(8, [1, 2]),
              generators.circulant(10, [1, 5]), generators.complete(5)]
    for _ in range(10):
        g = oracle.random_multigraph(6, 2 * rng.randrange(2, 7), rng)
        if all(d % 2 == 0 for d in g.degrees):
            graphs.append(g)
    for g in graphs:
        if any(d % 2 for d in g.degrees):
            continue
        orient = euler_orient(g)
        din = orient.indeg_table()
        for mask in range(1, g.full_mask + 1):
            assert din[mask] == g.boundary(mask) // 2


def test_arc_strong_flows_match_indegree_table():
    rng = random.Random(808)
    for _ in range(320):
        n = rng.randrange(2, 9)
        g = oracle.random_multigraph(n, rng.randrange(0, 3 * n), rng)
        orient = Orientation(g, tuple(rng.choice(e) for e in g.edges))
        din = orient.indeg_table()
        assert _arc_strong_by_flows(orient) == min(din[mask] for mask in range(1, g.full_mask))


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
    tab = table_func(3, {0b001: 1, 0b010: 1, 0b100: 1,
                         0b011: 1, 0b101: 1, 0b110: 1, 0b111: 0})
    cycle = Orientation(triangle(), (1, 2, 0))
    assert verify_arc(cycle, tab).ok
    path = Orientation(MultiGraph(3, [(0, 1), (1, 2)]), (1, 2))
    res = verify_arc(path, tab)
    assert not res.ok and res.violation == 0b001
    assert verify_arc(cycle, tab, roots=[1, 0, 0]).ok


def test_verify_arc_matches_oracle():
    rng = random.Random(35)
    for _ in range(25):
        g = oracle.random_multigraph(4, rng.randrange(1, 8), rng)
        heads = tuple(g.edges[e][rng.randrange(2)] for e in range(g.m))
        orient = Orientation(g, heads)
        f = force_zero_on_ground(lmn(4, rng.randrange(0, 2), rng.randrange(0, 2)))
        fast = verify_arc(orient, f).ok
        slow = oracle.bf_arc_connected(g, heads, f)[0]
        assert fast == slow


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
    assert verify_arc(d1, lmn(9, 1, 1), r1).ok
    d2 = orient.restricted(res.h2)
    assert verify_arc(d2, lmn(9, 2, 3), r2).ok


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
        g = oracle.random_multigraph(n, rng.randrange(n, 3 * n), rng)
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


def test_deleted_arc_strong_matches_definition():
    g = generators.complete(5)
    orient = smooth_orient(g)
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
        assert _deleted_arc_strong(orient, v) == best
