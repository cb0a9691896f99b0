import random

import pytest

from rigidpack import generators, oracle
from rigidpack.graph import MultiGraph, mask_of, vertices_of
from rigidpack.setfuncs import (
    lmn, const, vertex_weights, table_func, pebble_params, with_overrides,
)
from rigidpack.sparsity import (
    PebbleState, is_sparse, rank_and_rigid, rigid_components,
    minimal_rigid_vertices, exchange, _check_internal_connectivity, _pebble_run,
)

from helpers import (
    all_pairs_rigid_components, check_invariant, counting, force_zero_on_ground,
    full_pebble_run, random_multigraph,
)

PARAMS = [(1, 1), (2, 2), (2, 3), (3, 5)]


def triangle():
    return MultiGraph(3, [(0, 1), (1, 2), (2, 0)])


def test_pebble_basis_examples():
    state, _ = _pebble_run((2,) * 3, 3, triangle().edges)
    assert state.accepted == [0, 1, 2]
    check_invariant(state)
    assert rank_and_rigid(triangle(), lmn(3, 2, 3)).basis == (0, 1, 2)

    assert len(rank_and_rigid(generators.complete(4), lmn(4, 2, 3)).basis) == 5

    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(rank_and_rigid(c4, lmn(4, 1, 1)).basis) == 3


def test_pebble_rejects_nonmatroidal_range():
    # without forbidden edges the exhaustive rank answers; with them, a
    # function outside the pebble range is refused
    assert pebble_params(lmn(3, 2, 4)) is None
    assert rank_and_rigid(triangle(), lmn(3, 2, 4)).rank == oracle.bf_rank(
        triangle(), lmn(3, 2, 4))[0]
    with pytest.raises(ValueError, match="pebble range"):
        rank_and_rigid(triangle(), lmn(3, 2, 4), forbidden={0})


def test_basis_size_is_order_independent():
    rng = random.Random(41)
    for _ in range(40):
        n = rng.randrange(3, 8)
        g = random_multigraph(n, rng.randrange(2, 13), rng)
        k, l = PARAMS[rng.randrange(4)]
        reference = rank_and_rigid(g, lmn(n, k, l)).rank
        perm = list(range(g.m))
        rng.shuffle(perm)
        shuffled = MultiGraph(g.n, [g.edges[i] for i in perm])
        assert rank_and_rigid(shuffled, lmn(n, k, l)).rank == reference


def test_is_sparse_examples():
    assert is_sparse(triangle(), lmn(3, 2, 3)).ok

    doubled = MultiGraph(2, [(0, 1), (0, 1)])
    res = is_sparse(doubled, lmn(2, 2, 3))
    assert not res.ok and res.violation == 0b11

    res = is_sparse(generators.complete(4), lmn(4, 2, 3))
    assert not res.ok
    # the witness re-fails its inequality
    g = generators.complete(4)
    f = lmn(4, 2, 3)
    assert g.induced(res.violation) > f.cap(res.violation)


def test_sparse_agreement_with_oracle_small():
    budget = oracle.OracleBudget(subset_n=16)
    for n in range(1, 6):
        for g in oracle.census(n):
            for k, l in PARAMS:
                f = lmn(n, k, l)
                assert is_sparse(g, f).ok == oracle.bf_sparse(g, f, budget)[0]


def test_rank_and_rigid_examples():
    rr = rank_and_rigid(generators.complete(4), lmn(4, 2, 3))
    assert rr.rank == 5 and rr.rigid
    sub = generators.complete(4).subgraph(rr.basis)
    assert is_sparse(sub, lmn(4, 2, 3)).ok

    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    rr = rank_and_rigid(c4, lmn(4, 2, 3))
    assert rr.rank == 4 and not rr.rigid

    rr = rank_and_rigid(generators.complete(4), lmn(4, 1, 1))
    assert rr.rank == 3 and rr.rigid


def test_rank_matches_bruteforce():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(2, 6)
        g = random_multigraph(n, rng.randrange(0, 9), rng)
        k, l = PARAMS[rng.randrange(4)]
        f = lmn(n, k, l)
        assert rank_and_rigid(g, f).rank == oracle.bf_rank(g, f)[0]


def _reference_extract_rigid(graph, ell, forbidden=()):
    """The former `packing.extract_rigid`: maximum sparse edge set avoiding
    the forbidden edges, with host ids."""
    params = pebble_params(ell)
    if params is None:
        raise ValueError(
            f"set function {ell.describe()} is outside the pebble range")
    blocked = set(forbidden)
    state, _ = _pebble_run(*params, graph.edges,
                           [e for e in range(graph.m) if e not in blocked])
    return frozenset(state.accepted)


def _reference_pebble_basis(graph, k, ell):
    """The former `sparsity.pebble_basis`: greedy basis of the uniform
    (k, ell) count matroid, ids ascending."""
    if not 0 <= ell <= 2 * k - 1 and not (k == 0 and ell == 0):
        raise ValueError(f"(k, ell) = ({k}, {ell}) outside the matroidal pebble range")
    state, _ = _pebble_run((k,) * graph.n, ell, graph.edges)
    return tuple(state.accepted), state


def test_rank_and_rigid_answers_as_the_removed_rank_calls():
    rng = random.Random(2203)
    seen = {"lmn": 0, "const": 0, "weights": 0, "forbidden": 0, "rigid": 0,
            "refused": 0}
    for _ in range(2400):
        n = rng.randrange(2, 10)
        g = random_multigraph(n, rng.randrange(1, 4 * n), rng)
        forbidden = set(rng.sample(range(g.m), rng.randrange(g.m + 1))) \
            if rng.random() < 0.6 else set()
        kind = rng.choice(["lmn", "const", "weights", "outside"])
        if kind == "outside":
            # no pebble game plays lmn(a, b) with b >= 2a
            a = rng.randrange(0, 3)
            f = lmn(n, a, rng.randrange(max(2 * a, 1), 2 * a + 3))
            blocked = forbidden or {rng.randrange(g.m)}
            with pytest.raises(ValueError) as ref:
                _reference_extract_rigid(g, f, blocked)
            with pytest.raises(ValueError, match="outside the pebble range") as new:
                rank_and_rigid(g, f, blocked)
            assert str(new.value) == str(ref.value)
            seen["refused"] += 1
            continue
        if kind == "lmn":
            k, l = rng.choice(PARAMS + [(0, 0), (1, 0), (2, 1), (3, 4)])
            f = lmn(n, k, l)
            basis, _ = _reference_pebble_basis(g, k, l)
            assert rank_and_rigid(g, f).basis == basis
        elif kind == "const":
            f = const(n, rng.randrange(0, 4))
        else:
            f = vertex_weights([rng.randrange(0, 4) for _ in range(n)])
        ref = _reference_extract_rigid(g, f, forbidden)
        rr = rank_and_rigid(g, f, forbidden)
        target = max(f.rigid_target, 0)
        assert rr.basis == tuple(sorted(ref))
        assert (rr.rank, rr.target, rr.rigid) == (len(ref), target, len(ref) == target)
        seen[kind] += 1
        seen["forbidden"] += bool(forbidden)
        seen["rigid"] += rr.rigid
    assert min(seen.values()) >= 200, seen


def test_public_api_resolves_without_the_removed_names():
    import rigidpack
    for name in rigidpack.__all__:
        assert getattr(rigidpack, name) is not None, name
    for module, name in [(rigidpack, "extract_rigid"), (rigidpack.packing, "extract_rigid"),
                         (rigidpack, "pebble_basis"), (rigidpack.sparsity, "pebble_basis"),
                         (rigidpack, "rooted_shift"), (rigidpack.setfuncs, "rooted_shift")]:
        assert not hasattr(module, name), name
    assert not {"extract_rigid", "pebble_basis", "rooted_shift"} & set(rigidpack.__all__)


def test_rigid_components_examples():
    two_tri = MultiGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    comps = rigid_components(two_tri, lmn(5, 2, 3))
    assert sorted(vertices_of(c) for c in comps) == [[0, 1, 2], [2, 3, 4]]

    k4e = MultiGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert rigid_components(k4e, lmn(4, 2, 3)) == [0b1111]

    single = MultiGraph(3, [(0, 1)])
    comps = rigid_components(single, lmn(3, 2, 3))
    assert sorted(vertices_of(c) for c in comps) == [[0, 1], [2]]


def test_rigid_components_against_oracle():
    rng = random.Random(9)
    checked = 0
    while checked < 25:
        n = rng.randrange(3, 7)
        g = random_multigraph(n, rng.randrange(1, 2 * n), rng)
        k, l = PARAMS[rng.randrange(4)]
        f = lmn(n, k, l)
        if not is_sparse(g, f).ok:
            continue
        comps = [c for c in rigid_components(g, f) if bin(c).count("1") >= 2]
        etab = g.induced_table
        rigid_masks = [m for m in range(1, g.full_mask + 1)
                       if bin(m).count("1") >= 2 and etab[m] == f.cap(m)]
        maximal = sorted(m for m in rigid_masks
                         if not any(m != o and m & ~o == 0 for o in rigid_masks))
        assert sorted(comps) == maximal
        for i, a in enumerate(comps):
            for b in comps[i + 1:]:
                assert bin(a & b).count("1") <= 1
        checked += 1


def test_table_copies_take_the_exhaustive_path_to_the_pebble_answers():
    # a table copy of lmn is outside the pebble range, so rigid_components
    # and minimal_rigid_vertices run their exhaustive paths on it
    rng = random.Random(31)
    cases = 0
    for _ in range(40):
        n = rng.randrange(3, 7)
        k, l = PARAMS[rng.randrange(4)]
        f = lmn(n, k, l)
        tab = table_func(n, {m: f.value(m) for m in range(1, 1 << n)})
        assert pebble_params(tab) is None
        host = random_multigraph(n, rng.randrange(1, 3 * n), rng)
        g = host.subgraph(rank_and_rigid(host, f).basis)
        assert rigid_components(g, tab) == rigid_components(g, f)
        for x in range(n):
            for y in range(x + 1, n):
                assert minimal_rigid_vertices(g, tab, x, y) == \
                    minimal_rigid_vertices(g, f, x, y)
                cases += 1
    assert cases > 100


def test_rigid_set_subroutines_refuse_a_function_without_the_structure():
    # lmn(4, 2, 3) with 0 on V breaks 2-intersecting supermodularity:
    # f(012) + f(013) = 6 > f(01) + f(V) = 3
    f = with_overrides(lmn(4, 2, 3), {0b1111: 0})
    g = MultiGraph(4, [(0, 1)])
    assert is_sparse(g, f).ok
    with pytest.raises(ValueError, match="2-intersecting supermodular"):
        rigid_components(g, f)
    with pytest.raises(ValueError, match="2-intersecting supermodular"):
        minimal_rigid_vertices(g, f, 0, 1)


def test_minimal_rigid_and_exchange_examples():
    k4e = MultiGraph(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    f = lmn(4, 2, 3)
    q = minimal_rigid_vertices(k4e, f, 0, 1)
    assert q == 0b1111
    for eid in range(5):
        swapped = exchange(k4e, f, 0, 1, eid)
        assert is_sparse(swapped, f).ok

    tree = MultiGraph(4, [(0, 1), (1, 2), (2, 3)])
    q = minimal_rigid_vertices(tree, lmn(4, 1, 1), 0, 2)
    assert q == mask_of([0, 1, 2])

    two_edges = MultiGraph(4, [(0, 1), (2, 3)])
    assert minimal_rigid_vertices(two_edges, lmn(4, 2, 3), 0, 2) is None
    with pytest.raises(ValueError, match="free pair"):
        exchange(two_edges, lmn(4, 2, 3), 0, 2, 0)


def test_rigid_set_subroutines_reject_a_non_sparse_graph():
    g = MultiGraph(4, [*generators.complete(4).edges, (0, 1)])
    f = lmn(4, 2, 3)
    with pytest.raises(ValueError, match="rigid_components requires a sparse"):
        rigid_components(g, f)
    with pytest.raises(ValueError, match="minimal_rigid_vertices requires a sparse"):
        minimal_rigid_vertices(g, f, 0, 1)


def test_exchange_requires_edge_inside_rigid_set():
    two_tri = MultiGraph(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    f = lmn(5, 2, 3)
    # a parallel copy of (0,1) exchanges only against the first triangle
    with pytest.raises(ValueError, match="inside"):
        exchange(two_tri, f, 0, 1, 4)


def test_internal_connectivity_check():
    tri_isolated = MultiGraph(4, [(0, 1), (1, 2), (2, 0)])
    _check_internal_connectivity(tri_isolated, 0b0111, 0, 1)
    with pytest.raises(RuntimeError, match="isolated core"):
        _check_internal_connectivity(tri_isolated, 0b1111, 0, 1)


def test_modified_full_set_sparsity():
    mod = force_zero_on_ground(lmn(4, 1, 1))
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert is_sparse(c4, mod).ok
    tri_pendant = MultiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
    res = is_sparse(tri_pendant, mod)
    assert not res.ok
    assert tri_pendant.induced(res.violation) > mod.cap(res.violation)


def test_table_function_sparsity_path():
    tab = table_func(3, {0b001: 1, 0b010: 1, 0b100: 1,
                         0b011: 1, 0b101: 1, 0b110: 1, 0b111: 0})
    assert is_sparse(triangle(), tab).ok
    assert rank_and_rigid(triangle(), tab).rigid


def test_table_function_sparsity_past_the_default_oracle_budget():
    # the exhaustive path covers every table function up to 16 vertices
    f = lmn(8, 2, 3)
    tab = table_func(8, {m: f.value(m) for m in range(1, 256)})
    k8 = generators.complete(8)
    tight = k8.subgraph(rank_and_rigid(k8, f).basis)
    for g in (k8, tight):
        assert is_sparse(g, tab).ok == is_sparse(g, f).ok
    assert not is_sparse(k8, tab).ok and is_sparse(tight, tab).ok


def test_pebble_accounting_invariant():
    rng = random.Random(13)
    for _ in range(20):
        g = random_multigraph(6, rng.randrange(0, 14), rng)
        k, l = PARAMS[rng.randrange(4)]
        state, _ = _pebble_run((k,) * 6, l, g.edges)
        check_invariant(state)


def _random_pebble_func(n, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return lmn(n, *rng.choice([(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 5)]))
    if kind == 1:
        return const(n, rng.randrange(1, 4))
    return vertex_weights([rng.randrange(3) for _ in range(n)])


def _random_pebble_params(n, rng):
    return pebble_params(_random_pebble_func(n, rng))


def test_live_state_answers_as_a_fresh_run():
    # one state changed in place by inserts, deletes and probes accepts
    # exactly the independent edges and reports the same minimal and
    # maximal tight sets for every pair as a fresh run over its edges
    rng = random.Random(23)
    steps = 0
    for _ in range(80):
        n = rng.randrange(2, 9)
        caps, ell = _random_pebble_params(n, rng)
        g = random_multigraph(n, rng.randrange(1, 3 * n), rng)
        state = PebbleState(caps, ell)
        for _ in range(rng.randrange(5, 30)):
            step = rng.random()
            if step < 0.3 and state.accepted:
                eid = rng.choice(state.accepted)
                state.delete(eid)
            elif step < 0.8:
                eid = rng.randrange(g.m)
                if eid in state.accepted:
                    continue
                _, rejected = _pebble_run(caps, ell, g.edges,
                                          sorted(state.accepted) + [eid], strict=True)
                accepted = state.insert(eid, *g.edges[eid]) is None
                assert accepted == (rejected is None)
            else:
                state.probe_pair(*rng.sample(range(n), 2))
            check_invariant(state)
            fresh, rejected = _pebble_run(caps, ell, g.edges, sorted(state.accepted),
                                          strict=True)
            assert rejected is None
            for x in range(n):
                for y in range(x + 1, n):
                    assert state.probe_pair(x, y) == fresh.probe_pair(x, y)
                    assert state.max_tight_pair(x, y) == fresh.max_tight_pair(x, y)
            check_invariant(state)
            steps += 1
    assert steps > 1000


def test_stopped_runs_and_skipped_pairs_answer_as_the_full_runs(monkeypatch):
    # a rank run that stops at the first rejection once filled accepts the
    # full run's basis, in the same order; rigid_components that skips the
    # pairs inside a component already found returns what asking every
    # pair returns
    rng = random.Random(3401)
    inserts = counting(monkeypatch, PebbleState, "insert")
    pairs = counting(monkeypatch, PebbleState, "max_tight_pair")
    seen = {"stopped": 0, "skipped": 0, "forbidden": 0}
    for _ in range(3000):
        n = rng.randrange(2, 11)
        g = random_multigraph(n, rng.randrange(1, 4 * n), rng)
        forbidden = set(rng.sample(range(g.m), rng.randrange(g.m + 1))) \
            if rng.random() < 0.4 else set()
        f = _random_pebble_func(n, rng)
        offered = [e for e in range(g.m) if e not in forbidden]
        inserts.clear()
        basis = rank_and_rigid(g, f, forbidden).basis
        seen["stopped"] += len(inserts) < len(offered)
        seen["forbidden"] += bool(forbidden)
        assert basis == tuple(full_pebble_run(*pebble_params(f), g.edges,
                                              offered).accepted)
        sparse = g.subgraph(basis)
        pairs.clear()
        comps = rigid_components(sparse, f)
        seen["skipped"] += len(pairs) < n * (n - 1) // 2
        assert comps == all_pairs_rigid_components(sparse, f)
    assert min(seen.values()) >= 500, seen


def test_filled_rank_run_gather_count(monkeypatch):
    # the (2,3) rank of K12,12 fills at its 45th accepted edge; the run
    # stops at the next rejection (144 gathers without the stop)
    gathers = counting(monkeypatch, PebbleState, "gather")
    rr = rank_and_rigid(generators.complete_bipartite(12, 12), lmn(24, 2, 3))
    assert (rr.rank, rr.rigid) == (45, True)
    assert len(gathers) == 135


def test_invariant_check_rejects_a_negative_pebble_count():
    # two parallel edges on (1, 1) capacities with deficit 0, one arc from
    # each end; turning the arc at vertex 1 round leaves vertex 0 with -1
    # pebbles, though each vertex's pebbles and arcs still add up to its
    # capacity and the total is right
    state, _ = _pebble_run((1, 1), 0, [(0, 1), (0, 1)])
    assert state.accepted == [0, 1] and state.out == [[0], [1]]
    check_invariant(state)
    state.out = [[0, 1], []]
    state.pebbles = [-1, 1]
    with pytest.raises(RuntimeError, match="negative pebble count at vertex 0"):
        check_invariant(state)
