import random

import pytest

from rigidpack import generators
from rigidpack.graph import MultiGraph, mask_of
from rigidpack.setfuncs import lmn, const
from rigidpack import oracle
from rigidpack.oracle import (
    OracleBudget, bf_sparse, bf_rank, bf_rigid, bf_partition_connected,
    bf_edge_connected, bf_arc_connected, bf_matroid_axioms, bf_weakly_connected,
    census, set_partitions, boundary_minus,
)

from helpers import (
    force_zero_on_ground, partition_cross, random_multigraph, union_rank_bound,
)

BELL = {1: 1, 2: 2, 3: 5, 4: 15, 5: 52}


def test_census_counts():
    assert sum(1 for _ in census(3)) == 8
    # regression constant computed by this generator
    assert sum(1 for _ in census(4, connected=True)) == 38


def test_census_tight_filter():
    members = list(census(5, tight=lmn(5, 2, 3)))
    assert members
    assert all(g.m == 7 for g in members)


def test_census_is_deterministic():
    first = [g.edges for g in census(4)]
    second = [g.edges for g in census(4)]
    assert first == second


def test_set_partitions_bell_numbers():
    for n, bell in BELL.items():
        assert sum(1 for _ in set_partitions(n)) == bell


def test_partition_connected_examples():
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    ok, _ = bf_partition_connected(c4, lmn(4, 1, 1))
    assert ok
    ok, witness = bf_partition_connected(c4, lmn(4, 2, 2))
    assert not ok
    # the witness re-fails: crossing count under the needed total
    cross = partition_cross(c4, witness)
    need = sum(lmn(4, 2, 2).value(p) for p in witness) - 2
    assert cross < need


def test_bf_rank_examples():
    assert bf_rank(generators.complete(4), lmn(4, 2, 3))[0] == 5
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert bf_rank(c4, lmn(4, 1, 1))[0] == 3
    doubled = MultiGraph(2, [(0, 1), (0, 1)])
    assert bf_rank(doubled, lmn(2, 2, 3))[0] == 1


def test_bf_rigid():
    ok, rank, target = bf_rigid(generators.complete(4), lmn(4, 2, 3))
    assert ok and rank == target == 5


def test_bf_edge_connected():
    k4 = generators.complete(4)
    assert bf_edge_connected(k4, const(4, 3))[0]
    ok, witness = bf_edge_connected(k4, const(4, 4))
    assert not ok and boundary_minus(k4, witness, 0) < 4


def test_bf_arc_connected():
    tri = MultiGraph(3, [(0, 1), (1, 2), (2, 0)])
    heads = (1, 2, 0)  # directed cycle
    ok, _ = bf_arc_connected(tri, heads, const(3, 1), budget=OracleBudget())
    assert not ok  # constant 1 demands an arc into the full set too
    f = force_zero_on_ground(const(3, 1))
    assert bf_arc_connected(tri, heads, f)[0]


def test_bf_weakly_connected_complete_graph():
    k5 = generators.complete(5)
    ok, _ = bf_weakly_connected(k5, [1] * 5, const(5, 4))
    assert ok
    ok, pair = bf_weakly_connected(k5, [1] * 5, const(5, 5))
    assert not ok
    a, b = pair
    assert boundary_minus(k5, a, b) < 5 - bin(b).count("1")


def test_matroid_axioms_on_rigidity_counts():
    ok, _ = bf_matroid_axioms(generators.complete(4), lmn(4, 2, 3))
    assert ok
    ok, _ = bf_matroid_axioms(MultiGraph(3, [(0, 1), (0, 1), (1, 2), (2, 0)]),
                              lmn(3, 1, 1))
    assert ok


def test_union_rank_bound_examples():
    k4 = generators.complete(4)
    assert union_rank_bound(k4, [lmn(4, 1, 1)] * 2) == 6
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert union_rank_bound(c4, [lmn(4, 1, 1)] * 2) == 4


def test_budget_rejection():
    big = generators.complete(10)
    with pytest.raises(ValueError, match="budget"):
        bf_partition_connected(big, lmn(10, 1, 1))
    with pytest.raises(ValueError, match="budget"):
        bf_rank(generators.complete(8), lmn(8, 2, 3))


def test_random_multigraph_is_seeded():
    a = random_multigraph(5, 8, random.Random(10))
    b = random_multigraph(5, 8, random.Random(10))
    assert a.edges == b.edges


def test_rigid_implies_partition_connected_on_census():
    # rigidity always implies partition-connectivity; the converse holds on
    # the intersecting supermodular weakly subadditive two-level range
    for n in (3, 4, 5):
        for g in census(n):
            for k, l in [(1, 1), (2, 2), (2, 1), (2, 3)]:
                f = lmn(n, k, l)
                ok_pc, _ = bf_partition_connected(g, f)
                ok_r, _, _ = bf_rigid(g, f)
                if ok_r:
                    assert ok_pc, (n, g.edges, k, l)
                if l <= k and ok_pc:
                    assert ok_r, (n, g.edges, k, l)


def test_bruteforce_rank_matches_pebble_on_census():
    from rigidpack.sparsity import rank_and_rigid
    for n in (2, 3, 4):
        for g in census(n):
            for k, l in [(1, 1), (2, 3)]:
                assert bf_rank(g, lmn(n, k, l))[0] == rank_and_rigid(g, lmn(n, k, l)).rank
