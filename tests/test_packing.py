import random
from collections import Counter, deque
from fractions import Fraction

import pytest

from rigidpack import generators, oracle, packing, sparsity
from rigidpack.graph import MultiGraph, mask_of, vertices_of
from rigidpack.setfuncs import (
    lmn, const, zero, vertex_weights, table_func, with_overrides, halved_slack,
    pebble_params,
)
from rigidpack.packing import (
    matroid_union_pack, structure_partition, structure_claims, decompose_p_rigid,
    check_weakly_connected, check_rigid_necessary, check_rigid_sufficient,
    check_rigid_cut_consequences, check_pack_basic, check_pack_refined,
    check_pack_degree, violation_threshold, pack_partition_rigid,
    preset_tree_rigid, preset_tree_rigid_ec, preset_bipartite_degree,
    partition_rigid_funcs, _apply_chain, _augment,
)
from rigidpack.sparsity import PebbleState, _pebble_run
from rigidpack.oracle import boundary_minus

from helpers import (
    check_invariant, counting, delete_vertex, one_run_spans_closure, partition_cross,
    random_multigraph, union_rank_bound,
)


def c4():
    return MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def test_two_tree_packing_of_k4():
    pk = matroid_union_pack(generators.complete(4), [lmn(4, 1, 1)] * 2)
    assert all(p.full for p in pk.parts)
    assert not pk.uncovered
    for part in pk.parts:
        sub = pk.host.subgraph(part.edges)
        assert sub.is_connected() and len(part.edges) == 3


def test_deficient_tree_packing_of_c4():
    pk = matroid_union_pack(c4(), [lmn(4, 1, 1)] * 2)
    assert pk.covered() == 4
    assert pk.covered() == union_rank_bound(c4(), [lmn(4, 1, 1)] * 2)


def test_single_rigid_part_on_k5():
    pk = matroid_union_pack(generators.complete(5), [lmn(5, 2, 3)])
    assert len(pk.parts[0].edges) == 7 and pk.parts[0].full


def test_forbidden_edges_stay_uncovered():
    pk = matroid_union_pack(generators.complete(4), [lmn(4, 1, 1)] * 2,
                            forbidden={0, 1})
    for part in pk.parts:
        assert not part.edges & {0, 1}
    assert {0, 1} <= pk.uncovered


def test_union_matches_edmonds_bound_seeded():
    rng = random.Random(21)
    pool = [(1, 1), (2, 2), (2, 3), (1, 0), (2, 1)]
    for _ in range(25):
        n = rng.randrange(2, 6)
        g = random_multigraph(n, rng.randrange(0, 9), rng)
        t = rng.randrange(1, 4)
        funcs = [lmn(n, *pool[rng.randrange(len(pool))]) for _ in range(t)]
        pk = matroid_union_pack(g, funcs)
        assert pk.covered() == union_rank_bound(g, funcs)


def test_tree_packing_matches_partition_condition():
    # m-fold tree packing is full exactly when every partition has
    # enough crossing edges
    rng = random.Random(22)
    for _ in range(30):
        n = rng.randrange(2, 7)
        g = random_multigraph(n, rng.randrange(1, 2 * n + 2), rng)
        m = rng.randrange(1, 3)
        pk = matroid_union_pack(g, [lmn(n, 1, 1)] * m)
        full = all(p.full for p in pk.parts)
        cond = all(
            partition_cross(g, parts) >= m * (len(parts) - 1)
            for parts in oracle.set_partitions(n))
        assert full == cond


def _scan_circuit_edges(host, state, tight_mask):
    """Accepted edges of a pebble state inside a tight vertex set, ascending,
    found by scanning every accepted edge."""
    return sorted(eid for eid in state.accepted
                  if (tight_mask >> host.edges[eid][0]) & 1
                  and (tight_mask >> host.edges[eid][1]) & 1)


def _reference_union_pack(host, funcs, forbidden=(), prune=True):
    """Reference matroid union that probes every pair it reaches. Without
    `prune` every search explores everything it reaches; with it the edges
    of failed searches are dead, as in the engine, but no probe is skipped
    for lying inside a tight set found earlier.

    Returns (part edge sets, uncovered, closure)."""
    states = [PebbleState(*pebble_params(f)) for f in funcs]
    dead = set()

    def augment(eid):
        parent = {}
        visited = {eid}
        queue = deque([(eid, None)])
        while queue:
            x, own = queue.popleft()
            u, v = host.edges[x]
            for i, state in enumerate(states):
                if i == own:
                    continue
                res = state.probe_pair(u, v)
                if res is None:
                    _apply_chain(host, states, parent, x, i)
                    return
                for y in _scan_circuit_edges(host, state, res):
                    if y not in visited and y not in dead:
                        visited.add(y)
                        parent[y] = (x, i)
                        queue.append((y, i))
        if prune:
            dead.update(visited)

    for eid in range(host.m):
        if eid not in forbidden:
            augment(eid)
    parts = [frozenset(state.accepted) for state in states]
    return parts, frozenset(range(host.m)).difference(*parts), frozenset(dead)


def test_union_pruning_matches_unpruned_search(monkeypatch):
    # dropping the edges of failed searches changes no part and no
    # uncovered edge; on small hosts the packing also meets Edmonds' bound.
    # Pruning needs dense hosts: two failed searches must share edges.
    calls = counting(monkeypatch, PebbleState, "probe_pair")
    rng = random.Random(31)
    pool = [(1, 1), (2, 3), (2, 2), (1, 0), (3, 5)]
    bounded = pruned = 0
    for _ in range(300):
        if rng.random() < 0.5:
            n, m = rng.randrange(2, 7), rng.randrange(0, 11)
        else:
            n = rng.randrange(7, 9)
            m = rng.randrange(4 * n, 9 * n)
        g = random_multigraph(n, m, rng)
        funcs = [lmn(n, *rng.choice(pool)) for _ in range(rng.randrange(1, 4))]
        forbidden = set(rng.sample(range(m), rng.randrange(0, m // 3 + 1)))
        if rng.random() >= 0.5:
            # a drawn set of allowed edges forbids every other edge
            forbidden |= set(range(m)) - set(rng.sample(range(m), rng.randrange(0, m + 1)))
        start = len(calls)
        pk = matroid_union_pack(g, funcs, forbidden)
        middle = len(calls)
        parts, uncovered, _ = _reference_union_pack(g, funcs, forbidden,
                                                    prune=False)
        pruned += middle - start < len(calls) - middle
        assert [p.edges for p in pk.parts] == parts
        assert pk.uncovered == uncovered
        if n <= 6:
            usable = [e for e in range(m) if e not in forbidden]
            assert pk.covered() == union_rank_bound(g.subgraph(usable),
                                                          funcs)
            bounded += 1
    assert bounded >= 120 and pruned >= 60


@pytest.mark.parametrize("n, funcs", [
    (40, [(2, 3)] * 2),
    (40, [(1, 1)] * 4),
    (80, [(2, 3)] * 2),
])
def test_union_probe_count_stays_linear(monkeypatch, n, funcs):
    # without pruning, every failed search re-probes all the edges earlier
    # failed searches reached: 5,331 / 15,575 / 17,971 probes here; with it
    # but without skipping pairs inside known tight sets, 481 / 1,055 / 961;
    # with the skip, but probing full parts before a later part's direct
    # insert and forgetting every tight set after each applied chain,
    # 388 / 875 / 788. The pass stops once every part is filled, and the
    # searches it leaves run when the closure is first read: 320 / 702 /
    # 720 probes, then 371 / 825 / 771 in all, as when the pass ran them
    calls = counting(monkeypatch, PebbleState, "probe_pair")
    host = generators.circulant(n, [1, 2, 3, 5, 8])
    pk = matroid_union_pack(host, [lmn(n, k, l) for k, l in funcs])
    assert pk.uncovered
    assert len(calls) == {(40, 2): 320, (40, 4): 702, (80, 2): 720}[n, len(funcs)]
    pk.closure
    assert len(calls) <= 2 * host.m * len(funcs)
    assert len(calls) == {(40, 2): 371, (40, 4): 825, (80, 2): 771}[n, len(funcs)]
    total = len(calls)
    pk.closure
    assert len(calls) == total


def test_tight_set_skip_matches_the_unskipped_search(monkeypatch):
    # a probe whose pair lies in a tight set found since the last applied
    # chain is skipped: no part, uncovered edge or closure changes, and the
    # engine never probes more than the search that asks every pair
    calls = counting(monkeypatch, PebbleState, "probe_pair")
    rng = random.Random(47)
    fewer = 0
    for _ in range(1500):
        if rng.random() < 0.3:
            n, m = rng.randrange(2, 7), rng.randrange(0, 13)
        else:
            n = rng.randrange(7, 10)
            m = rng.randrange(3 * n, 9 * n + 1)
        g = random_multigraph(n, m, rng)
        funcs = [_random_pebble_func(n, rng) for _ in range(rng.randrange(1, 4))]
        forbidden = set(rng.sample(range(m), rng.randrange(0, m // 3 + 1)))
        start = len(calls)
        pk = matroid_union_pack(g, funcs, forbidden)
        pk.closure  # runs the searches a filled pass left, on the engine's side
        middle = len(calls)
        parts, uncovered, closure = _reference_union_pack(g, funcs, forbidden)
        assert [p.edges for p in pk.parts] == parts
        assert (pk.uncovered, pk.closure) == (uncovered, closure)
        assert middle - start <= len(calls) - middle
        fewer += middle - start < len(calls) - middle
    assert fewer >= 1000, fewer


def _counting_pebble_runs(monkeypatch):
    runs = counting(monkeypatch, sparsity, "_pebble_run")
    monkeypatch.setattr(packing, "_pebble_run", sparsity._pebble_run)
    return runs


def test_union_pass_runs_no_fresh_pebble_game(monkeypatch):
    # parts change in place; the only fresh pebble runs are the final
    # Packing.verify's sparsity check of each part
    calls = _counting_pebble_runs(monkeypatch)
    pk = matroid_union_pack(generators.circulant(40, [1, 2, 3, 5, 8]),
                            [lmn(40, 2, 3)] * 2)
    in_pass = len(calls)
    calls.clear()
    pk.verify()
    assert in_pass == len(calls) == 2


def test_union_search_counts_on_a_relabelled_circulant(monkeypatch):
    # reading circuits off the tight set's arcs changes the cost of a
    # search, not the searches: the scan-based circuits gave 388 probes on
    # the same host. Asking every part for a direct insert before probing
    # a full one, and keeping the tight sets of failed searches across
    # applied chains, bring that to 371; stopping the pass once every part
    # is filled leaves 320, and reading the closure runs the other 51
    probes = counting(monkeypatch, PebbleState, "probe_pair")
    runs = _counting_pebble_runs(monkeypatch)
    perm = list(range(40))
    random.Random(24).shuffle(perm)
    host = MultiGraph(40, [(perm[u], perm[v]) for u, v in
                           generators.circulant(40, [1, 2, 3, 5, 8]).edges])
    pk = matroid_union_pack(host, [lmn(40, 2, 3)] * 2)
    assert (pk.covered(), len(pk.uncovered)) == (154, 46)
    assert (len(probes), len(runs)) == (320, 2)
    pk.closure
    assert (len(probes), len(runs)) == (371, 2)


def _core_ring(core, ring, offsets, rng=None):
    """K_core joined by two edges to the circulant ring on `ring` further
    vertices with the given offsets; with rng, its vertices are relabelled
    and its edges reordered at random."""
    edges = [(u, v) for u in range(core) for v in range(u + 1, core)]
    edges += [(core + i, core + (i + off) % ring) for off in offsets for i in range(ring)]
    edges += [(0, core), (1, core + ring // 2)]
    if rng is not None:
        perm = list(range(core + ring))
        rng.shuffle(perm)
        edges = [(perm[u], perm[v]) for u, v in edges]
        rng.shuffle(edges)
    return MultiGraph(core + ring, edges)


def test_halved_parts_match_the_reference_search(monkeypatch):
    # with the halved mode's degree eater first, a part is often full when
    # a later part takes an edge directly. Asking every part for a direct
    # insert before probing a full one, and keeping the tight sets of
    # failed searches across applied chains, changes no part, uncovered
    # edge or closure, and never adds a probe
    calls = counting(monkeypatch, PebbleState, "probe_pair")
    waited = [0]

    def counted(host, states, parent, last, free_part):
        waited[0] += any(sum(s.pebbles) <= s.ell for s in states[:free_part])
        _apply_chain(host, states, parent, last, free_part)

    monkeypatch.setattr(packing, "_apply_chain", counted)
    rng = random.Random(61)
    pool = [(1, 1), (1, 0), (2, 3), (2, 2)]
    hosts = rings = fewer = 0
    while hosts < 1000:
        ring = rng.random() < 0.4
        if ring:
            g = _core_ring(rng.randrange(5, 9), rng.randrange(6, 12),
                           rng.choice([[1, 2], [1, 3], [1, 2, 3]]), rng)
        else:
            n = rng.randrange(4, 9)
            g = random_multigraph(n, rng.randrange(3 * n, 7 * n), rng)
        try:
            funcs = partition_rigid_funcs(g, lmn(g.n, *rng.choice(pool)),
                                          lmn(g.n, *rng.choice(pool)), "halved")
        except ValueError:
            continue
        forbidden = set(rng.sample(range(g.m), rng.randrange(0, g.m // 4 + 1)))
        start = len(calls)
        pk = matroid_union_pack(g, funcs, forbidden)
        pk.closure  # runs the searches a filled pass left, on the engine's side
        middle = len(calls)
        parts, uncovered, closure = _reference_union_pack(g, funcs, forbidden)
        assert [p.edges for p in pk.parts] == parts
        assert (pk.uncovered, pk.closure) == (uncovered, closure)
        assert middle - start <= len(calls) - middle
        fewer += middle - start < len(calls) - middle
        rings += ring and not all(p.full for p in pk.parts)
        hosts += 1
    assert rings >= 150 and fewer >= 900 and waited[0] >= 10000, \
        (rings, fewer, waited[0])


def test_full_parts_wait_for_the_direct_inserts(monkeypatch):
    # rigid_factor's halved parts on a 6-regular circulant: the degree
    # eater fills first, and the search that asks the parts in plain order
    # probes it for edges a later part then takes directly. The engine
    # never probes a part with no spare pebble for such an edge
    log = []
    probe = PebbleState.probe_pair

    def logged(self, x, y):
        res = probe(self, x, y)
        log.append(((x, y), sum(self.pebbles) <= self.ell, res is None))
        return res

    def full_probes_before_a_direct_insert():
        count = 0
        for j, (pair, _, took) in enumerate(log):
            i = j
            while took and i and log[i - 1][0] == pair and not log[i - 1][2]:
                i -= 1
                count += log[i][1]
        return count

    monkeypatch.setattr(PebbleState, "probe_pair", logged)
    host = generators.circulant(24, [1, 2, 3])
    funcs = partition_rigid_funcs(host, lmn(24, 1, 1), lmn(24, 1, 1), "halved")
    pk = matroid_union_pack(host, funcs)
    engine, log[:] = full_probes_before_a_direct_insert(), []
    parts, uncovered, _ = _reference_union_pack(host, funcs)
    assert [p.edges for p in pk.parts] == parts and pk.uncovered == uncovered
    assert (engine, full_probes_before_a_direct_insert()) == (0, 10)


def _probes_forgetting_tight_sets(host, funcs, calls):
    """Probes of the union pass, and its parts, when every applied chain
    forgets every tight set found so far, failed searches' included."""
    states = [PebbleState(*pebble_params(f)) for f in funcs]
    filled = [sum(s.caps) - s.ell for s in states]
    dead = set()
    inside = [[0] * host.n for _ in funcs]
    start = len(calls)
    for eid in range(host.m):
        if _augment(host, states, filled, eid, dead, inside):
            inside = [[0] * host.n for _ in funcs]
    return len(calls) - start, [frozenset(s.accepted) for s in states]


def test_kept_tight_sets_save_probes_on_a_deficient_host(monkeypatch):
    # K16 joined by two edges to the ring C24(1, 2), relabelled and
    # reordered so that failed searches in the core and chains in the ring
    # alternate: the tight sets failed searches found stay skipped after
    # later chains
    calls = counting(monkeypatch, PebbleState, "probe_pair")
    host = _core_ring(16, 24, [1, 2], random.Random(0))
    funcs = [lmn(host.n, 1, 1), lmn(host.n, 2, 3)]
    pk = matroid_union_pack(host, funcs)
    kept = len(calls)
    forgetting, parts = _probes_forgetting_tight_sets(host, funcs, calls)
    assert [p.edges for p in pk.parts] == parts and pk.uncovered
    assert (kept, forgetting) == (200, 284)


def test_tight_edges_match_a_scan_of_the_accepted_edges():
    # after every blocked insert or probe, the circuit read off the tight
    # set's arcs is the scan of every accepted edge, and `reached` is the
    # tight set's vertex list
    rng = random.Random(53)
    probes = 0
    while probes < 5000:
        n, k = rng.randrange(2, 10), rng.randrange(1, 3)
        ell = rng.randrange(0, 2 * k)
        host = random_multigraph(n, rng.randrange(1, 4 * n), rng)
        state = PebbleState([k] * n, ell)
        for _ in range(rng.randrange(10, 40)):
            step = rng.random()
            if step < 0.2 and state.accepted:
                eid = rng.choice(state.accepted)
                state.delete(eid)
                continue
            if step < 0.6:
                eid = rng.randrange(host.m)
                if eid in state.accepted:
                    continue
                mask = state.insert(eid, *host.edges[eid])
            else:
                mask = state.probe_pair(*rng.sample(range(n), 2))
                probes += mask is not None
            if mask is not None:
                assert state.tight_edges() == _scan_circuit_edges(host, state, mask)
                assert sorted(state.reached) == vertices_of(mask)
        check_invariant(state)


def _structure_claims(pk, cert):
    return structure_claims(pk.host, [(p.func, p.edges, p.target, p.full)
                                      for p in pk.parts],
                            pk.uncovered, pk.forbidden, cert.closure, cert.partition)


def test_structure_certificate_full_packing():
    pk = matroid_union_pack(generators.complete(4), [lmn(4, 1, 1)] * 2)
    cert = structure_partition(pk)
    assert cert.partition == (0b1111,)
    assert _structure_claims(pk, cert) == []


def test_structure_certificate_deficient_packing():
    pk = matroid_union_pack(c4(), [lmn(4, 1, 1)] * 2)
    cert = structure_partition(pk)
    assert _structure_claims(pk, cert) == []
    covered = 0
    for block in cert.partition:
        assert block & covered == 0
        covered |= block
    assert covered == 0b1111


def test_structure_certificate_disconnected_host():
    two_tri = MultiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    pk = matroid_union_pack(two_tri, [lmn(6, 1, 1)])
    cert = structure_partition(pk)
    assert sorted(vertices_of(b) for b in cert.partition) == [[0, 1, 2], [3, 4, 5]]
    assert _structure_claims(pk, cert) == []


def _random_pebble_func(n, rng):
    kind = rng.randrange(3)
    if kind == 0:
        return lmn(n, *rng.choice([(1, 0), (1, 1), (2, 1), (2, 2), (2, 3), (3, 5)]))
    if kind == 1:
        return const(n, rng.randrange(1, 3))
    return vertex_weights([rng.randrange(3) for _ in range(n)])


def _reference_closure(pk):
    """The replacement closure searched afresh from a fresh pebble run
    per part: the usable uncovered edges, closed under the replacements of
    every part, its own part included."""
    host = pk.host
    states = []
    for part in pk.parts:
        state, rejected = _pebble_run(*pebble_params(part.func), host.edges,
                                      sorted(part.edges), strict=True)
        assert rejected is None
        states.append(state)
    released = set(pk.uncovered - pk.forbidden)
    pending = deque(sorted(released))
    while pending:
        e = pending.popleft()
        u, v = host.edges[e]
        for state in states:
            q = state.probe_pair(u, v)
            if q is None:
                continue
            for y in _scan_circuit_edges(host, state, q):
                if y not in released:
                    released.add(y)
                    pending.append(y)
    return released


def test_rank_certificate_on_every_deficient_packing():
    # every deficient packing gets a certificate whose claims hold, and
    # its covered count is the exhaustive matroid-union rank wherever
    # that sweep is affordable
    rng = random.Random(7)
    deficient = bounded = 0
    for _ in range(1000):
        n, m = rng.randrange(2, 7), rng.randrange(1, 11)
        g = random_multigraph(n, m, rng)
        funcs = [_random_pebble_func(n, rng) for _ in range(rng.randrange(1, 4))]
        forbidden = set(rng.sample(range(m), rng.randrange(1, m + 1))) \
            if rng.random() < 0.3 else set()
        pk = matroid_union_pack(g, funcs, forbidden)
        if all(p.full for p in pk.parts):
            continue
        deficient += 1
        cert = structure_partition(pk)
        assert _structure_claims(pk, cert) == []
        assert cert.closure == _reference_closure(pk)
        usable = [e for e in range(m) if e not in forbidden]
        if len(usable) <= 7:
            assert pk.covered() == union_rank_bound(g.subgraph(usable), funcs)
            bounded += 1
    assert deficient >= 750 and bounded >= 600


def test_structure_partition_searches_nothing_again(monkeypatch):
    # K12 joined by two edges to the circulant ring C16(1, 3): the
    # certificate is the union pass's own closure, so no part is probed
    host = _core_ring(12, 16, [1, 3])
    pk = matroid_union_pack(host, [lmn(host.n, 1, 1), lmn(host.n, 2, 3)])
    assert not all(p.full for p in pk.parts)
    calls = counting(monkeypatch, PebbleState, "probe_pair")
    cert = structure_partition(pk)
    assert len(calls) == 0
    assert cert.closure == pk.closure and _structure_claims(pk, cert) == []


def test_structure_partition_of_a_filled_packing():
    # every part of two (2,3)-sparse parts on circulant(40) fills while
    # edges are left uncovered; the certificate reads the deferred closure
    host = generators.circulant(40, [1, 2, 3, 5, 8])
    pk = matroid_union_pack(host, [lmn(40, 2, 3)] * 2)
    assert all(p.full for p in pk.parts) and pk.uncovered
    cert = structure_partition(pk)
    assert _structure_claims(pk, cert) == []
    assert cert.closure == pk.closure == _reference_closure(pk)
    assert pk.closure == _reference_union_pack(host, [lmn(40, 2, 3)] * 2)[2]


def test_parts_filled_from_the_start_run_no_search(monkeypatch):
    # with sum(caps) <= ell no part takes an edge, so the pass searches
    # nothing; the closure runs one search per usable edge when read
    searches = counting(monkeypatch, packing, "_augment")
    k5 = generators.complete(5)
    for host, funcs, forbidden in [
            (MultiGraph(1, []), [lmn(1, 1, 1)], set()),
            (k5, [lmn(5, 0, 0)], {3}),
            (k5, [vertex_weights([0] * 5), lmn(5, 0, 0)], set())]:
        searches.clear()
        pk = matroid_union_pack(host, funcs, forbidden)
        assert len(searches) == 0
        parts, uncovered, closure = _reference_union_pack(host, funcs, forbidden)
        assert [p.edges for p in pk.parts] == parts and pk.uncovered == uncovered
        assert pk.closure == closure == uncovered - forbidden
        assert len(searches) == len(closure)


def test_a_deferred_search_that_augments_raises(monkeypatch):
    # a search after every part is filled cannot augment; if one does, the
    # engine is broken and reading the closure names the edge
    pk = matroid_union_pack(generators.circulant(40, [1, 2, 3, 5, 8]),
                            [lmn(40, 2, 3)] * 2)
    tried = []

    def augmenting(host, states, filled, eid, dead, inside):
        tried.append(eid)
        return True

    monkeypatch.setattr(packing, "_augment", augmenting)
    with pytest.raises(RuntimeError) as failure:
        pk.closure
    assert len(tried) == 1 and tried[0] in pk.uncovered
    assert str(failure.value) == f"deferred search of edge {tried[0]} augmented"


def test_splits_and_decompositions_match_the_reference_search(monkeypatch):
    # `decompose_p_rigid` and the multi-part `_split_all` packings fill
    # their parts, so their passes may stop early; parts and leftovers are
    # those of the search that runs every edge
    for graph, ell, p in [(generators.complete(4), lmn(4, 1, 1), 2),
                          (c4(), lmn(4, 1, 1), 1),
                          (generators.complete(5), lmn(5, 1, 1), 2),
                          (generators.complete(12), lmn(12, 2, 3), 3)]:
        dec = decompose_p_rigid(graph, ell, p)
        parts, uncovered, _ = _reference_union_pack(graph, [ell] * p)
        assert (dec.parts, dec.leftover) == (tuple(parts), uncovered)
    splits = []
    split = packing._split_all

    def logged(graph, edge_ids, funcs):
        splits.append((graph, set(edge_ids), funcs, split(graph, edge_ids, funcs)))
        return splits[-1][-1]

    monkeypatch.setattr(packing, "_split_all", logged)
    assert preset_tree_rigid_ec(generators.complete(9), 2, 1, 1).ok
    assert preset_tree_rigid_ec(generators.complete(13), 3, 1, 1, force=True).ok
    many = [case for case in splits if len(case[2]) > 1]
    for graph, ids, funcs, pieces in many:
        parts, _, _ = _reference_union_pack(graph, funcs, set(range(graph.m)) - ids)
        assert pieces == tuple(parts)
    assert len(many) == 2


def test_structure_claims_name_a_broken_certificate():
    # the multigraph 0=2=1 doubled, one (3, 5)-sparse part: two edges
    # covered of a target of four, every edge in the closure
    g = MultiGraph(3, [(2, 0), (2, 0), (2, 1), (1, 2)])
    pk = matroid_union_pack(g, [lmn(3, 3, 5)])
    cert = structure_partition(pk)
    assert sorted(cert.closure) == [0, 1, 2, 3] and cert.partition == (0b111,)
    parts = [(p.func, p.edges, p.target, p.full) for p in pk.parts]

    def claims(closure, partition=cert.partition, forbidden=()):
        return structure_claims(g, parts, pk.uncovered, forbidden, closure, partition)

    assert claims(cert.closure) == []
    assert claims({0, 2}) == ["closure misses a usable uncovered edge"]
    assert claims(cert.closure, forbidden={1}) == [
        "closure holds a forbidden or unknown edge"]
    assert claims(cert.closure | {7}) == ["closure holds a forbidden or unknown edge"]
    assert claims(cert.closure, (0b011, 0b100)) == [
        "structure blocks are not the components of the closure"]
    # the part holds edges 0 and 2, so it spans nothing of the closure {1, 3}
    assert claims({1, 3}) == ["part 0 does not span the closure"]


def test_closure_skips_answer_as_the_one_run_span_check(monkeypatch):
    # the span check that skips closure edges inside recorded maximal
    # tight sets names the same claims as one full run per part, on
    # deficient packings and on single-edge tampers of a part and of F
    rng = random.Random(3402)
    pairs = counting(monkeypatch, PebbleState, "max_tight_pair")
    seen = {"deficient": 0, "skipped": 0, "tampered": 0, "unspanned": 0}

    def claims(host, parts, pk, closure, partition):
        new = structure_claims(host, parts, pk.uncovered, pk.forbidden, closure,
                               partition)
        with monkeypatch.context() as patch:
            patch.setattr(packing, "_spans_closure", one_run_spans_closure)
            assert structure_claims(host, parts, pk.uncovered, pk.forbidden,
                                    closure, partition) == new
        return new

    for _ in range(3000):
        n = rng.randrange(2, 11)
        g = random_multigraph(n, rng.randrange(1, 3 * n), rng)
        funcs = [_random_pebble_func(n, rng) for _ in range(rng.randrange(1, 4))]
        forbidden = set(rng.sample(range(g.m), rng.randrange(1, g.m + 1))) \
            if rng.random() < 0.3 else set()
        pk = matroid_union_pack(g, funcs, forbidden)
        if all(p.full for p in pk.parts):
            continue
        seen["deficient"] += 1
        cert = structure_partition(pk)
        parts = [(p.func, p.edges, p.target, p.full) for p in pk.parts]
        pairs.clear()
        assert claims(g, parts, pk, cert.closure, cert.partition) == []
        # a spanning part asks max_tight_pair once per closure edge offered
        seen["skipped"] += len(pairs) < sum(len(cert.closure - p.edges)
                                            for p in pk.parts)
        i, e = rng.randrange(len(parts)), rng.randrange(g.m)
        func, edges, target, full = parts[i]
        tampered = parts[:i] + [(func, edges ^ {e}, target, full)] + parts[i + 1:]
        for case in (claims(g, tampered, pk, cert.closure, cert.partition),
                     claims(g, parts, pk, cert.closure ^ {e}, cert.partition)):
            seen["tampered"] += 1
            seen["unspanned"] += any("does not span" in c for c in case)
    assert seen["deficient"] >= 2000 and seen["skipped"] >= 100, seen
    assert seen["unspanned"] >= 500, seen


def test_closure_check_gather_count(monkeypatch):
    # the (1,1) + (2,3) packing of K20 joined by two edges to the ring C32:
    # each rejected closure edge records its maximal tight set, and the
    # closure edges inside it are not offered (380 gathers without that)
    host = _core_ring(20, 32, [1])
    pk = matroid_union_pack(host, [lmn(host.n, 1, 1), lmn(host.n, 2, 3)])
    cert = structure_partition(pk)
    gathers = counting(monkeypatch, PebbleState, "gather")
    assert _structure_claims(pk, cert) == []
    assert len(gathers) == 60


def test_decompose_examples():
    dec = decompose_p_rigid(generators.complete(4), lmn(4, 1, 1), 2)
    assert len(dec.parts) == 2 and not dec.leftover

    with pytest.raises(ValueError, match="not 2-fold rigid"):
        decompose_p_rigid(c4(), lmn(4, 1, 1), 2)

    dec = decompose_p_rigid(c4(), lmn(4, 1, 1), 1)
    assert len(dec.parts[0]) == 3

    with pytest.raises(ValueError, match="adjacency"):
        decompose_p_rigid(generators.complete(4), lmn(4, 2, 2), 2)


def test_decompose_leftover_reported():
    k5 = generators.complete(5)
    dec = decompose_p_rigid(k5, lmn(5, 1, 1), 2)
    assert len(dec.leftover) == 10 - 8


def test_decompose_three_rigid_parts():
    k12 = generators.complete(12)
    dec = decompose_p_rigid(k12, lmn(12, 2, 3), 3)
    assert sorted(len(p) for p in dec.parts) == [21, 21, 21]
    assert len(dec.leftover) == 66 - 63


def test_weakly_connected_check():
    k9 = generators.complete(9)
    assert check_weakly_connected(k9, [2] * 9, const(9, 8)).ok
    rep = check_weakly_connected(c4(), [1] * 4, const(4, 12))
    assert not rep.ok
    a = mask_of(rep.witness["A"])
    b = mask_of(rep.witness["B"])
    assert boundary_minus(c4(), a, b) == rep.witness["lhs"]
    assert rep.witness["lhs"] < rep.witness["rhs"]


def test_weakly_connected_matches_oracle():
    rng = random.Random(23)
    for _ in range(20):
        g = random_multigraph(5, rng.randrange(2, 11), rng)
        c = rng.randrange(1, 5)
        ell = rng.randrange(0, 3)
        fast = check_weakly_connected(g, [ell] * 5, const(5, c)).ok
        slow = oracle.bf_weakly_connected(g, [ell] * 5, const(5, c))[0]
        assert fast == slow


def _glued_cliques(t, u, s, extra, rng):
    """K_t on 0..t-1 and K_u on t-s..t+u-s-1 sharing s vertices, with up to
    `extra` random edges between their private parts: vertex connectivity
    about s, edge connectivity near min(t, u) - 1."""
    n = t + u - s
    edges = {(a, b) for group in (range(t), range(t - s, n))
             for a in group for b in group if a < b}
    cross = [(a, b) for a in range(t - s) for b in range(t, n)]
    edges |= set(rng.sample(cross, min(extra, len(cross))))
    return MultiGraph(n, sorted(edges))


def test_uniform_weak_connectivity_matches_the_sweep(monkeypatch):
    rng = random.Random(13)
    hosts = [generators.random_simple(n, rng.randrange(n * (n - 1) // 2 + 1),
                                      rng.randrange(10 ** 6))
             for n in range(2, 11) for _ in range(6)]
    hosts += [_glued_cliques(t, u, s, rng.randrange(3), rng)
              for t, u in [(4, 4), (5, 4), (5, 5), (6, 5), (6, 6), (7, 6),
                           (7, 7), (8, 6), (8, 7)]
              for s in (1, 2, 3, 4) if s < u and t + u - s <= 12]
    # kappa 6 and 7 below the demand 8 of (k, conn) = (2, 8), yet passing
    hosts += [_glued_cliques(9, 9, 6, 0, rng), _glued_cliques(9, 9, 7, 0, rng)]
    cases = [(g, k, conn) for g in hosts
             for k, conn in [(2, 8), (3, 12), (5, 20), (2, 4), (3, 5), (1, 3)]]
    sweeps = [check_weakly_connected(g, [k] * g.n, const(g.n, conn))
              for g, k, conn in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("the uniform check ran the pair sweep")

    monkeypatch.setattr(packing, "_pair_tables", refuse)
    monkeypatch.setattr(packing, "_sweep_pairs", refuse)
    enumerated = past_empty_b = 0
    for (g, k, conn), sweep in zip(cases, sweeps):
        rep = packing.check_uniform_weakly_connected(g, k, conn)
        assert rep.ok == sweep.ok, (g.edges, k, conn)
        if rep.ok:
            enumerated += g.vertex_connectivity() < conn
            continue
        w = rep.witness
        a, b = mask_of(w["A"]), mask_of(w["B"])
        assert a and not a & b and (a | b) != g.full_mask
        assert boundary_minus(g, a, b) == w["lhs"] < w["rhs"] == conn - k * len(w["B"])
        past_empty_b += b != 0
    # passing hosts whose vertex connectivity is below the demand, so that
    # the least cut must weigh removed vertices against edges, and glued
    # cliques with one shared vertex fail past the empty B
    assert enumerated >= 15 and past_empty_b >= 4



def test_rigid_necessary_check():
    # a rigid graph passes; C4 under the rigidity counts fails
    assert check_rigid_necessary(generators.complete(4), lmn(4, 2, 3)).ok
    rep = check_rigid_necessary(c4(), lmn(4, 2, 3))
    assert not rep.ok
    assert not oracle.bf_rigid(c4(), lmn(4, 2, 3))[0]


# ----------------------------------------------------------------------
# the six pair checks against their formulas, pair by pair


def _pairs(n):
    """(union, A, B): unions ascending, B over the union's submasks descending."""
    for union in range(1 << n):
        b = union
        while True:
            yield union, union ^ b, b
            if b == 0:
                break
            b = (b - 1) & union


def _over_capacity(g, ell, mask):
    return g.induced(mask) > ell.cap(mask)


def _pair_witness(g, a, b, rhs):
    return {"A": vertices_of(a), "B": vertices_of(b),
            "lhs": boundary_minus(g, a, b), "rhs": rhs}


def _sum_over(weights, mask):
    return sum(weights[v] for v in vertices_of(mask))


def ref_weakly_connected(g, ell_vec, l):
    for union, a, b in _pairs(g.n):
        if 0 < union < g.full_mask and a:
            rhs = l.value(union) - _sum_over(ell_vec, b)
            if boundary_minus(g, a, b) < rhs:
                return False, _pair_witness(g, a, b, rhs)
    return True, {}


def ref_rigid_necessary(g, ell):
    full = g.full_mask
    for union, a, b in _pairs(g.n):
        rhs = (ell.value(union) - _sum_over(ell.singletons, b)
               + ell.value(full ^ a) - ell.value(full))
        if boundary_minus(g, a, b) < rhs:
            return False, _pair_witness(g, a, b, rhs)
    return True, {}


def ref_rigid_sufficient(g, ell, forbidden):
    if len(forbidden) > ell.value(g.full_mask):
        return False, {"check": "forbidden-size", "size": len(forbidden),
                       "limit": ell.value(g.full_mask)}
    for v in range(g.n):
        if g.degree(v) < 2 * ell.singletons[v]:
            return False, {"check": "degree", "vertex": v, "degree": g.degree(v)}
    for union, a, b in _pairs(g.n):
        if 0 < union < g.full_mask and _over_capacity(g, ell, union):
            rhs = 2 * ell.value(union) - _sum_over(ell.singletons, b)
            if boundary_minus(g, a, b) < rhs:
                return False, _pair_witness(g, a, b, rhs)
    return True, {}


def ref_pack_basic(g, l, ell):
    for v in range(g.n):
        if g.degree(v) < 2 * ell.singletons[v] + 2 * l.singletons[v]:
            return False, {"check": "degree", "vertex": v, "degree": g.degree(v)}
    for union, a, b in _pairs(g.n):
        if 0 < union < g.full_mask and _over_capacity(g, ell, union):
            rhs = (2 * ell.value(union) - _sum_over(ell.singletons, b)
                   + (2 * l.value(union) if a else 0))
            if boundary_minus(g, a, b) < rhs:
                return False, _pair_witness(g, a, b, rhs)
    return True, {}


def ref_pack_refined(g, l, ell, phi, forbidden_count):
    full = g.full_mask
    violating = [bin(s).count("1") for s in range(1, full + 1)
                 if _over_capacity(g, ell, s)]
    lam = min(violating, default=None)
    eps_full = 2 * l.value(full) + 2 * ell.value(full) - 2 * forbidden_count
    for v in range(g.n):
        if g.degree(v) < 2 * ell.singletons[v] + 2 * l.singletons[v]:
            return False, {"check": "degree", "vertex": v}
    for union, a, b in _pairs(g.n):
        if 0 < union < full and _over_capacity(g, ell, union):
            l_u = l.value(union)
            if b == 0:
                extra = 2 * l_u
            elif a == 0:
                extra = l_u * phi / lam
            else:
                extra = l_u * (2 - phi)
            eps = eps_full if bin(union).count("1") == g.n - 1 else 0
            lhs = boundary_minus(g, a, b) + eps
            rhs = 2 * ell.value(union) - _sum_over(ell.singletons, b) + extra
            if lhs < rhs:
                return False, {"A": vertices_of(a), "B": vertices_of(b),
                               "lhs": str(Fraction(lhs)), "rhs": str(Fraction(rhs))}
    return True, {}


def ref_pack_degree(g, l, ell, k, rho):
    full = g.full_mask
    bound = k / (k - 2) * (l.value(full) + ell.value(full))
    for s in range(1, full + 1):
        if g.induced(s) > _sum_over(rho, s) + bound:
            return False, {"check": "density", "S": vertices_of(s),
                           "edges": g.induced(s)}
    for v in range(g.n):
        if g.degree(v) < k * (ell.singletons[v] + l.singletons[v]):
            return False, {"check": "degree", "vertex": v}
    for union, a, b in _pairs(g.n):
        if 0 < union < full and _over_capacity(g, ell, union):
            rhs = (k * ell.value(union) - k * Fraction(_sum_over(ell.singletons, b), 2)
                   + (k * l.value(union) if a else 0))
            if boundary_minus(g, a, b) < rhs:
                wit = _pair_witness(g, a, b, rhs)
                wit["rhs"] = str(rhs)
                return False, wit
    return True, {}


def _random_func(rng, n):
    kind = rng.choice(["lmn", "const", "weights", "table", "mod"])
    if kind == "lmn":
        return lmn(n, rng.randrange(0, 3), rng.randrange(0, 4))
    if kind == "const":
        return const(n, rng.randrange(0, 4))
    if kind == "weights":
        return vertex_weights([rng.randrange(0, 3) for _ in range(n)])
    if kind == "table":
        return table_func(n, {s: rng.randrange(0, 4) for s in range(1, 1 << n)})
    return with_overrides(lmn(n, rng.randrange(1, 3), rng.randrange(0, 4)),
                          {(1 << n) - 1: rng.randrange(0, 3)})


def _random_multigraph(rng):
    n = rng.randrange(2, 7)
    edges = []
    for _ in range(rng.randrange(0, 6 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v))
    return MultiGraph(n, edges)


def _pair_check_inputs():
    """(g, l, ell, ell_vec, forbidden, phi, k, rho) for the pair checks."""
    rng = random.Random(2024)
    for _ in range(150):
        g = _random_multigraph(rng)
        n = g.n
        l, ell = _random_func(rng, n), _random_func(rng, n)
        ell_vec = [rng.randrange(0, 3) for _ in range(n)]
        forbidden = set(rng.sample(range(g.m), min(g.m, rng.randrange(0, 3))))
        phi = Fraction(rng.randrange(0, 5), 4)
        k = rng.choice([Fraction(5, 2), Fraction(3), Fraction(7, 2)])
        rho = [rng.randrange(0, g.degree(v) + 1) for v in range(n)]
        yield g, l, ell, ell_vec, forbidden, phi, k, rho
    # random inputs rarely make pack-refined fail at B = 0, the one pair
    # whose demand 2 l(A|B) differs from the other pairs'; this one does,
    # on a set of n - 1 vertices, so the near-full slack shows too
    yield (MultiGraph(3, [(2, 1)]), lmn(3, 0, 3), lmn(3, 0, 2), [0] * 3, {0},
           Fraction(1), Fraction(3), [0] * 3)


def test_pair_checks_match_their_formulas():
    verdicts = set()
    for g, l, ell, ell_vec, forbidden, phi, k, rho in _pair_check_inputs():
        pairs = [
            (check_weakly_connected(g, ell_vec, l), ref_weakly_connected(g, ell_vec, l)),
            (check_rigid_necessary(g, ell), ref_rigid_necessary(g, ell)),
            (check_rigid_sufficient(g, ell, forbidden),
             ref_rigid_sufficient(g, ell, forbidden)),
            (check_pack_basic(g, l, ell), ref_pack_basic(g, l, ell)),
            (check_pack_refined(g, l, ell, phi, len(forbidden)),
             ref_pack_refined(g, l, ell, phi, len(forbidden))),
            (check_pack_degree(g, l, ell, k, rho), ref_pack_degree(g, l, ell, k, rho)),
        ]
        for rep, (ok, witness) in pairs:
            assert (rep.ok, rep.witness) == (ok, witness), rep.tag
            verdicts.add(ok)
    assert verdicts == {True, False}


def test_rigid_cut_consequences():
    k4e = generators.complete(4).subgraph([0, 1, 2, 3, 4])
    rep = check_rigid_cut_consequences(k4e, 2)
    assert rep.ok
    assert rep.aux["edge_connectivity"] == 2
    assert rep.aux["essential"] == 3
    rep = check_rigid_cut_consequences(c4(), 2)
    assert not rep.ok


def _ref_rigid_cut_consequences(g, k):
    """(ok, witness, aux) of the rigid-cuts check with a fresh min cut of
    every G - v: the reference for `_vertex_deleted_cuts`."""
    aux = {"edge_connectivity": g.edge_connectivity()}
    if aux["edge_connectivity"] < k:
        return False, {"check": "edge", "value": aux["edge_connectivity"]}, aux
    aux["essential"] = g.essential_edge_connectivity()
    if aux["essential"] < 2 * k - 1:
        return False, {"check": "essential", "value": aux["essential"]}, aux
    for v in range(g.n):
        lam_v = delete_vertex(g, v).edge_connectivity(k - 1)
        if lam_v < k - 1:
            return False, {"check": "vertex-deleted", "vertex": v,
                           "value": lam_v}, aux
    return True, {}, aux


def test_rigid_cut_consequences_match_per_vertex_min_cuts():
    # each host's maximum (k, 2k - 1)-sparse set, when tight, is an input too,
    # and must pass: the claims take its cut consequences, and for k = 2 its
    # 2-connectivity, from its tightness. So must each tight (k, 2k - 1) part
    # joined to an edge-disjoint tight (k - 1, 0) one reach 2k - 1 and k - 1,
    # the reinforced part's bounds that the robust search takes from it.
    rng = random.Random(1515)
    outcomes = Counter()
    for _ in range(420):
        n = rng.randrange(3, 10)
        g = random_multigraph(n, rng.randrange(n, 5 * n), rng)
        for k in (1, 2, 3):
            ell = lmn(n, k, 2 * k - 1)
            rr = sparsity.rank_and_rigid(g, ell)
            tight = g.subgraph(rr.basis)
            for h in (g, tight) if rr.rigid else (g,):
                rep = check_rigid_cut_consequences(h, k)
                assert (rep.ok, rep.witness, rep.aux) == _ref_rigid_cut_consequences(h, k)
                outcomes[rep.witness.get("check", "pass")] += 1
                if h is tight:
                    assert rep.ok and (k != 2 or h.vertex_connectivity(2) >= 2)
                    outcomes[f"tight-{k}"] += 1
            pk = matroid_union_pack(g, [ell, lmn(n, k - 1, 0)])
            if all(p.full for p in pk.parts):
                joined = g.subgraph(pk.parts[0].edges | pk.parts[1].edges)
                lam, worst = packing._cut_profile(joined)
                assert lam >= 2 * k - 1 and worst >= k - 1
                outcomes[f"joined-{k}"] += 1
    assert min(outcomes[c] for c in ("edge", "essential", "vertex-deleted",
                                     "pass")) >= 20
    assert min(outcomes[f"{kind}-{k}"] for kind in ("tight", "joined")
               for k in (1, 2, 3)) >= 20, outcomes


def test_rigid_sufficient_and_extraction():
    k9 = generators.complete(9)
    ell = lmn(9, 2, 3)
    rep = check_rigid_sufficient(k9, ell, forbidden={0, 1, 2})
    assert rep.ok
    ids = set(sparsity.rank_and_rigid(k9, ell, forbidden={0, 1, 2}).basis)
    assert len(ids) == 15 and not ids & {0, 1, 2}
    rep = check_rigid_sufficient(k9, ell, forbidden=set(range(4)))
    assert not rep.ok and rep.witness["check"] == "forbidden-size"


def test_pack_basic_on_k9():
    assert check_pack_basic(generators.complete(9), lmn(9, 1, 1), lmn(9, 2, 3)).ok
    assert not check_pack_basic(c4(), lmn(4, 1, 1), lmn(4, 2, 3)).ok


def test_violation_threshold_simple_graphs():
    # simple graphs cannot beat the pair bound below four vertices
    for g in [generators.complete(6), generators.complete_bipartite(3, 4)]:
        lam = violation_threshold(g, lmn(g.n, 2, 3))
        assert lam is None or lam >= 4


def test_pack_refined_reports_lambda():
    k9 = generators.complete(9)
    rep = check_pack_refined(k9, lmn(9, 1, 1), lmn(9, 2, 3), Fraction(1), 0)
    assert rep.aux["lambda"] == 4
    assert rep.ok


def test_pack_refined_beats_basic_on_k8():
    # the near-full slack saves K8: the basic condition fails on a
    # seven-vertex set (degree 7 < 8) but the refined one holds, and the
    # packing it promises really exists
    k8 = generators.complete(8)
    basic = check_pack_basic(k8, lmn(8, 1, 1), lmn(8, 2, 3))
    assert not basic.ok and len(basic.witness["A"]) == 7
    refined = check_pack_refined(k8, lmn(8, 1, 1), lmn(8, 2, 3), Fraction(1), 0)
    assert refined.ok
    assert refined.aux["lambda"] == 4 and refined.aux["epsilon_near_full"] == 8
    pk = matroid_union_pack(k8, [lmn(8, 1, 1), lmn(8, 2, 3)])
    assert all(p.full for p in pk.parts)


def test_rho_mode_bound_on_bipartite_host():
    g = generators.complete_bipartite(12, 12)
    side = mask_of(range(12))
    res = preset_bipartite_degree(g, 3, side, force=True)
    assert res.ok
    h = g.subgraph(res.union_edges)
    # ceil((12 - 0)/3) + 0 + 2 = 6, met with equality here
    assert max(h.degree(v) for v in range(12)) <= 6
    from rigidpack.sparsity import rank_and_rigid
    assert rank_and_rigid(h, lmn(24, 2, 3)).rigid


def test_bipartite_preset_between_one_and_two():
    # 1 < k <= 2 packs under the halved cap; K8,8 is only 8-connected
    rng = random.Random(517)
    for a, k in [(9, Fraction(3, 2)), (10, Fraction(3, 2)), (11, Fraction(3, 2)),
                 (12, Fraction(3, 2)), (12, 2), (8, Fraction(3, 2))]:
        host = generators.complete_bipartite(a, a)
        perm = list(range(2 * a))
        rng.shuffle(perm)
        relabelled = MultiGraph(2 * a, sorted(
            tuple(sorted((perm[u], perm[v]))) for u, v in host.edges))
        for g, side in [(host, mask_of(range(a))),
                        (relabelled, mask_of(perm[:a]))]:
            res = preset_bipartite_degree(g, k, side)
            assert res.ok == (a > 8), (a, k)
            if not res.ok:
                assert res.hypothesis.witness == {"vertex_connectivity": 8}
                continue
            failed, checks = packing.bipartite_claims(
                g, k, side, res.rigid_parts, res.union_edges, res.degree_bounds)
            assert failed == [] and checks["two_connected"]


def test_claims_compute_the_implied_checks_only_off_tightness(monkeypatch):
    # tight parts prove their cut consequences and 2-connectivity; one edge
    # short, the claims name the part and fall back to computing them
    k9, k66 = generators.complete(9), generators.complete_bipartite(6, 6)
    side = mask_of(range(6))
    tree = preset_tree_rigid(k9, 2, 1, 1)
    bip = preset_bipartite_degree(k66, 1, side)
    cuts = counting(monkeypatch, packing, "check_rigid_cut_consequences")
    kappa = counting(monkeypatch, MultiGraph, "vertex_connectivity")

    def claims(rigid, part):
        return (packing.tree_rigid_claims(k9, 2, 1, 1, tree.trees, [rigid], None,
                                          tree.union_edges, tree.degree_bounds),
                packing.bipartite_claims(k66, 1, side, [part], part,
                                         bip.degree_bounds))

    (tfailed, tchecks), (bfailed, bchecks) = claims(tree.rigid_parts[0],
                                                    bip.union_edges)
    assert tfailed == bfailed == [] and (tchecks, bchecks) == (tree.checks, bip.checks)
    assert cuts == kappa == []
    rigid, part = sorted(tree.rigid_parts[0])[1:], sorted(bip.union_edges)[1:]
    (tfailed, tchecks), (bfailed, bchecks) = claims(rigid, part)
    assert len(cuts) == len(kappa) == 1
    assert "rigid part 0 is not tight and (2, 3)-sparse" in tfailed
    assert "rigid part is not tight and (2, 3)-sparse" in bfailed
    assert tchecks["rigid_0_cuts"] == check_rigid_cut_consequences(k9.subgraph(rigid), 2).ok
    assert bchecks["two_connected"] == (k66.subgraph(part).vertex_connectivity(2) >= 2)


def test_pack_degree_check_fractions():
    k13 = generators.complete(13)
    rep = check_pack_degree(k13, zero(13), lmn(13, 2, 3), Fraction(3), [0] * 13)
    assert rep.tag == "pack-degree"
    with pytest.raises(ValueError, match="k > 2"):
        check_pack_degree(k13, zero(13), lmn(13, 2, 3), 2, [0] * 13)


def test_pack_partition_rigid_halved_k9():
    k9 = generators.complete(9)
    out = pack_partition_rigid(k9, lmn(9, 1, 1), lmn(9, 2, 3),
                               degree_mode="halved")
    assert out.ok
    h = k9.subgraph(out.union_edges)
    for v in range(9):
        assert h.degree(v) <= 7
    assert out.degree_bounds == (7,) * 9


def test_full_sparse_parts_are_partition_connected():
    # the self-check of pack_partition_rigid trusts sparsity plus
    # tightness for partition-connectivity; the partition oracle checks it
    rng = random.Random(606)
    checked = 0
    for _ in range(24):
        n = rng.randrange(4, 10)
        g = random_multigraph(n, rng.randrange(3 * n, 5 * n + 1), rng)
        ell = lmn(n, 2, 3)
        weights = vertex_weights([rng.randrange(3) for _ in range(n)])
        for l in (lmn(n, 1, 1), lmn(n, 2, 1), const(n, 1), weights):
            layouts = [[l, ell]]
            try:
                layouts.append([halved_slack(g, l, ell), l, ell])
            except ValueError:
                pass  # degrees too low for the degree-eating part
            for funcs in layouts:
                packing = matroid_union_pack(g, funcs)
                if not all(part.full for part in packing.parts):
                    continue
                lp = packing.parts[-2]
                ok, _ = oracle.bf_partition_connected(g.subgraph(lp.edges), lp.func)
                assert ok
                checked += 1
    assert checked >= 50


def test_pack_partition_rigid_zero_first_part():
    k5 = generators.complete(5)
    out = pack_partition_rigid(k5, zero(5), lmn(5, 2, 3), force=True)
    assert out.ok
    assert not out.packing.parts[0].edges
    assert len(out.packing.parts[1].edges) == 7


def test_pack_partition_rigid_deficiency_certificate():
    out = pack_partition_rigid(c4(), lmn(4, 1, 1), lmn(4, 2, 3), force=True)
    assert not out.ok
    assert out.certificate is not None
    assert _structure_claims(out.packing, out.certificate) == []


def test_pack_partition_rigid_hypothesis_gate():
    out = pack_partition_rigid(c4(), lmn(4, 1, 1), lmn(4, 2, 3))
    assert not out.ok and out.hypothesis is not None and not out.hypothesis.ok
    assert not out.packing.parts


def test_pack_partition_rigid_forbidden_size_gate():
    k9 = generators.complete(9)
    # l(V) + ell(V) = 1 + 3 caps the excluded edge set
    out = pack_partition_rigid(k9, lmn(9, 1, 1), lmn(9, 2, 3),
                               forbidden=set(range(5)))
    assert not out.ok
    assert out.hypothesis.witness["check"] == "forbidden-size"
    out = pack_partition_rigid(k9, lmn(9, 1, 1), lmn(9, 2, 3),
                               forbidden=set(range(4)))
    assert out.ok
    assert not (out.packing.parts[0].edges | out.packing.parts[1].edges) & set(range(4))


def test_preset_tree_rigid_rejects_small_k():
    with pytest.raises(ValueError, match="k >= 2"):
        preset_tree_rigid(generators.complete(9), 1, 1, 1)


def test_tree_rigid_claims_on_two_vertices_run_the_cut_check():
    # the one edge is a tight (2, 3) part, but the proof needs three vertices
    with pytest.raises(ValueError, match="order at least 3"):
        packing.tree_rigid_claims(MultiGraph(2, [(0, 1)]), 2, 1, 0, [], [[0]],
                                  None, [0], [3, 3])


def test_preset_tree_rigid_hypothesis_failure():
    res = preset_tree_rigid(c4(), 2, 1, 1)
    assert not res.ok and not res.hypothesis.ok


@pytest.mark.parametrize("host", [generators.complete(30),
                                  generators.circulant(30, range(1, 7))])
def test_unforced_tree_rigid_past_fourteen_vertices(host):
    # the hypothesis is decided by connectivity, with no 3^n pair sweep
    res = preset_tree_rigid(host, 2, 1, 1)
    assert res.ok and res.hypothesis.ok


def test_preset_bipartite_requires_bipartite():
    with pytest.raises(ValueError, match="bipartite"):
        preset_bipartite_degree(generators.complete(4), 1, 0b0011)


def test_preset_bipartite_rejects_low_connectivity():
    g = generators.complete_bipartite(2, 3)
    res = preset_bipartite_degree(g, 1, mask_of([0, 1]))
    assert not res.ok
    assert res.hypothesis is not None and not res.hypothesis.ok
