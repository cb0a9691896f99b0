"""Acceptance suite.

Each criterion runs at its stated tolerance and prints one pass/fail line
(run pytest with -s to watch them stream). Stated time budgets are
enforced with asserts; a budget overrun is a failure, not a skip.
"""

import random
import time

import pytest

from rigidpack import generators, oracle
from rigidpack.graph import MultiGraph, mask_of, vertices_of, _vertex_deleted_cuts
from rigidpack.setfuncs import lmn, const, zero
from rigidpack.sparsity import (
    is_sparse, rank_and_rigid, minimal_rigid_vertices, exchange,
)
from rigidpack.packing import (
    matroid_union_pack, decompose_p_rigid, check_rigid_cut_consequences,
    preset_tree_rigid, preset_tree_rigid_ec, preset_bipartite_degree,
)
from rigidpack.orientation import (
    hakimi_orient, rigid_to_orientation, orientation_to_rigid,
    robust_arc_strong,
)

from helpers import (
    arc_strong_value, delete_vertex, force_zero_on_ground, partition_cross,
    random_multigraph, union_rank_bound,
)

PAIRS = [(1, 1), (2, 2), (2, 3), (3, 5)]


def _report(num, name, elapsed, budget=None):
    extra = f" [budget {budget}s]" if budget else ""
    print(f"[acceptance] criterion {num:2d} {name}: PASS "
          f"({elapsed:.1f}s{extra})")


def _census_all():
    for n in range(1, 7):
        yield from oracle.census(n)


def _oracle_sparse_fast(g, k, l, etab, pops):
    for s in range(1, g.full_mask + 1):
        p = pops[s]
        cap = 0 if p == 1 else k * p - l
        if etab[s] > cap:
            return False
    return True


def test_criterion_01_sparsity_oracle_equivalence():
    started = time.time()
    pops_by_n = {n: [bin(s).count("1") for s in range(1 << n)]
                 for n in range(1, 7)}
    funcs = {n: {(k, l): lmn(n, k, l) for (k, l) in PAIRS}
             for n in range(1, 7)}
    disagreements = 0
    checked = 0
    tied = 0
    for g in _census_all():
        etab = g.induced_table
        pops = pops_by_n[g.n]
        for (k, l) in PAIRS:
            fast = is_sparse(g, funcs[g.n][(k, l)]).ok
            slow = _oracle_sparse_fast(g, k, l, etab, pops)
            if fast != slow:
                disagreements += 1
            checked += 1
            if checked % 997 == 0:  # tie the inline sweep to the real oracle
                full_budget = oracle.OracleBudget(subset_n=16)
                assert slow == oracle.bf_sparse(
                    g, funcs[g.n][(k, l)], full_budget)[0]
                tied += 1
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randrange(2, 7)
        g = random_multigraph(n, rng.randrange(0, 13), rng)
        etab = g.induced_table
        pops = pops_by_n[n]
        for (k, l) in PAIRS:
            fast = is_sparse(g, lmn(n, k, l)).ok
            slow = _oracle_sparse_fast(g, k, l, etab, pops)
            if fast != slow:
                disagreements += 1
            checked += 1
    elapsed = time.time() - started
    assert disagreements == 0
    assert tied > 100
    assert elapsed < 60, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"sparsity oracle equivalence ({checked} checks)", elapsed, 60)


def test_criterion_02_matroid_union_optimality():
    started = time.time()
    rng = random.Random(2)
    pool = [(1, 1), (2, 2), (2, 3), (1, 0), (2, 1), (3, 5)]
    disagreements = 0
    for _ in range(100):
        n = rng.randrange(2, 6)
        g = random_multigraph(n, rng.randrange(0, 9), rng)
        parts = rng.randrange(1, 4)
        funcs = [lmn(n, *pool[rng.randrange(len(pool))]) for _ in range(parts)]
        covered = matroid_union_pack(g, funcs).covered()
        if covered != union_rank_bound(g, funcs):
            disagreements += 1
    elapsed = time.time() - started
    assert disagreements == 0
    _report(2, "matroid union matches the exhaustive rank bound", elapsed)


def test_criterion_03_tree_packing_threshold():
    started = time.time()
    tested = 0
    for g in _census_all():
        if g.n < 2 or min(g.degrees) < 4:
            continue
        if g.edge_connectivity() < 4:
            continue
        pk = matroid_union_pack(g, [lmn(g.n, 1, 1)] * 2)
        assert all(p.full for p in pk.parts), f"deficient on {g.edges}"
        for part in pk.parts:
            sub = g.subgraph(part.edges)
            assert sub.is_connected() and len(part.edges) == g.n - 1
        assert all(partition_cross(g, parts) >= 2 * (len(parts) - 1)
                   for parts in oracle.set_partitions(g.n))
        tested += 1
    rng = random.Random(3)
    found = 0
    while found < 30:
        g = random_multigraph(7, rng.randrange(14, 20), rng)
        if min(g.degrees) < 4 or g.edge_connectivity() < 4:
            continue
        pk = matroid_union_pack(g, [lmn(7, 1, 1)] * 2)
        assert all(p.full for p in pk.parts)
        for part in pk.parts:
            assert g.subgraph(part.edges).is_connected()
        assert all(partition_cross(g, parts) >= 2 * (len(parts) - 1)
                   for parts in oracle.set_partitions(7))
        found += 1
        tested += 1
    elapsed = time.time() - started
    assert tested > 30
    _report(3, f"4-edge-connected graphs pack two spanning trees ({tested})",
            elapsed)


def test_criterion_04_double_rigidity_decomposition():
    started = time.time()
    one_sided = 0
    checked = 0
    for g in _census_all():
        target = 2 * g.n - 2
        if g.m < target:
            bf_rigid = g.n == 1  # the empty graph on one vertex is tight
        else:
            bf_rigid = oracle.bf_rank(g, lmn(g.n, 2, 2))[0] == target
        try:
            dec = decompose_p_rigid(g, lmn(g.n, 1, 1), 2)
            ok = True
            for part in dec.parts:
                sub = g.subgraph(part)
                rr = rank_and_rigid(sub, lmn(g.n, 1, 1))
                assert rr.rigid
        except ValueError:
            ok = False
        if ok != bf_rigid:
            one_sided += 1
        checked += 1
    elapsed = time.time() - started
    assert one_sided == 0
    _report(4, f"2-fold rigidity equals 2-way rigid decomposition ({checked})",
            elapsed)


def test_criterion_05_orientation_round_trip():
    started = time.time()
    families = {
        "unit-cycle": lambda n: force_zero_on_ground(lmn(n, 1, 1)),
        "rigidity-zeroed": lambda n: force_zero_on_ground(lmn(n, 2, 3)),
    }
    found = {name: 0 for name in families}
    for g in _census_all():
        if g.n < 2:
            continue
        for name, make in families.items():
            ell = make(g.n)
            if g.m != sum(ell.singletons):
                continue
            if not is_sparse(g, ell).ok:
                continue
            res = rigid_to_orientation(g, ell)
            assert res.ok, f"{name} failed on {g.edges}"
            orient = res.orientation
            assert list(orient.indegrees) == list(ell.singletons)
            assert oracle.bf_arc_connected(g, orient.heads, ell)[0]
            back = orientation_to_rigid(orient, ell)
            assert back.ok
            found[name] += 1
    elapsed = time.time() - started
    assert found["unit-cycle"] > 0
    _report(5, f"rigidity/orientation round trips ({found})", elapsed)


def test_criterion_06_rigid_witness_cut_conditions():
    started = time.time()
    witnesses = []
    for n in (4, 5, 6):
        g = generators.complete(n)
        rr = rank_and_rigid(g, lmn(n, 2, 3))
        assert rr.rigid
        witnesses.append((g.subgraph(rr.basis), 2))
    k11 = generators.complete(11)
    rr = rank_and_rigid(k11, lmn(11, 3, 5))
    assert rr.rigid
    witnesses.append((k11.subgraph(rr.basis), 3))

    k9 = generators.complete(9)
    res = preset_tree_rigid(k9, k=2, p=1, m=1)
    assert res.ok
    for part in res.rigid_parts:
        witnesses.append((k9.subgraph(part), 2))
    res_ec = preset_tree_rigid_ec(k9, k=2, p=1, m=1)
    assert res_ec.ok
    for part in res_ec.rigid_parts:
        witnesses.append((k9.subgraph(part), 2))

    k66 = generators.complete_bipartite(6, 6)
    bip = preset_bipartite_degree(k66, 1, mask_of(range(6)))
    assert bip.ok
    witnesses.append((k66.subgraph(bip.union_edges), 2))

    k13 = generators.complete(13)
    robust = robust_arc_strong(k13, 1, seed=0)
    assert robust.ok
    # the robust pipeline's rigid ingredient is triply rigid
    witnesses.append((k13.subgraph(robust.detail["rigid_part"]), 3))
    rr = rank_and_rigid(k13, lmn(13, 3, 5))
    assert rr.rigid
    witnesses.append((k13.subgraph(rr.basis), 3))
    # every census graph on three vertices or more that is itself tight
    # (k, 2k - 1)-sparse: the claims take its cut consequences, and for
    # k = 2 its 2-connectivity, from that tightness
    census = 0
    for g in _census_all():
        for k in (1, 2, 3):
            ell = lmn(g.n, k, 2 * k - 1)
            if g.n >= 3 and g.m == ell.rigid_target and is_sparse(g, ell).ok:
                witnesses.append((g, k))
                assert k != 2 or g.vertex_connectivity(2) >= 2
                census += 1
    assert census > 5000

    for sub, k in witnesses:
        rep = check_rigid_cut_consequences(sub, k)
        assert rep.ok, rep.witness
    elapsed = time.time() - started
    _report(6, f"rigid witnesses pass the cut consequences ({len(witnesses)})",
            elapsed)


def test_criterion_07_trees_plus_rigid_on_k9():
    started = time.time()
    k9 = generators.complete(9)
    res = preset_tree_rigid(k9, k=2, p=1, m=1)
    assert res.ok
    assert len(res.trees) == 1 and len(res.rigid_parts) == 1
    tree = k9.subgraph(res.trees[0])
    assert tree.is_connected() and len(res.trees[0]) == 8
    rigid = k9.subgraph(res.rigid_parts[0])
    assert rank_and_rigid(rigid, lmn(9, 2, 3)).rigid
    h = k9.subgraph(res.union_edges)
    for v in range(9):
        assert h.degree(v) <= 7  # ceil(8/2) + kp + m
    elapsed = time.time() - started
    assert elapsed < 10, f"criterion 7 took {elapsed:.1f}s"
    _report(7, "K9 packs a tree plus a doubly rigid part, degrees <= 7",
            elapsed, 10)


def test_criterion_08_reinforced_packing_on_k9():
    started = time.time()
    k9 = generators.complete(9)
    res = preset_tree_rigid_ec(k9, k=2, p=1, m=1)
    assert res.ok
    h1 = k9.subgraph(res.reinforced[0])
    assert h1.edge_connectivity() >= 3
    for v in range(9):
        assert delete_vertex(h1, v).edge_connectivity() >= 1
    h = k9.subgraph(res.union_edges)
    for v in range(9):
        assert h.degree(v) <= 8  # ceil(8/2) + 2kp - p + m
    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 8 took {elapsed:.1f}s"
    _report(8, "K9 reinforced packing is 3-edge-connected and robust",
            elapsed, 30)


def test_criterion_09_robust_orientation_on_k13():
    started = time.time()
    k13 = generators.complete(13)
    res = robust_arc_strong(k13, 1, seed=0, retries=64)
    assert res.ok, f"retry budget exhausted: {res.detail}"
    orient = res.orientation
    assert orient.is_smooth()
    assert arc_strong_value(orient) >= 3
    # no digraph minus a vertex has a cut below 1
    lowered = _vertex_deleted_cuts(13, [(t, h, 1) for t, h in orient.arcs], True, 1)[1]
    assert next(lowered, None) is None
    elapsed = time.time() - started
    assert elapsed < 120, f"criterion 9 took {elapsed:.1f}s"
    _report(9, "K13 robust smooth orientation verified", elapsed, 120)


def test_criterion_10_exchange_property():
    started = time.time()
    rng = random.Random(10)
    budget = oracle.OracleBudget(subset_n=16)
    done = 0
    while done < 1000:
        n = rng.randrange(3, 7)
        g = random_multigraph(n, rng.randrange(2, 13), rng)
        k, l = PAIRS[rng.randrange(4)]
        f = lmn(n, k, l)
        rr = rank_and_rigid(g, f)
        if not rr.basis:
            continue
        fsub = g.subgraph(rr.basis)
        x = rng.randrange(n)
        y = rng.randrange(n - 1)
        if y >= x:
            y += 1
        q = minimal_rigid_vertices(fsub, f, x, y)
        if q is None:
            continue
        inner = [i for i, (u, v) in enumerate(fsub.edges)
                 if (q >> u) & 1 and (q >> v) & 1]
        if not inner:
            continue
        eid = inner[rng.randrange(len(inner))]
        swapped = exchange(fsub, f, x, y, eid)
        assert oracle.bf_sparse(swapped, f, budget)[0]
        done += 1
    elapsed = time.time() - started
    _report(10, "1000 seeded exchanges re-verify sparse", elapsed)


def test_criterion_11_prescribed_indegree_correctness():
    started = time.time()
    rng = random.Random(11)
    checked = 0
    for g in _census_all():
        n, m = g.n, g.m
        etab = g.induced_table
        full = g.full_mask
        for _ in range(50):
            if m == 0:
                targets = [0] * n
            else:
                cuts = sorted(rng.sample(range(m + n - 1), n - 1))
                targets = [b - a - 1
                           for a, b in zip([-1] + cuts, cuts + [m + n - 1])]
            res = hakimi_orient(g, targets)
            # independent subset-condition oracle; the target sums are built
            # in mask order, so the sweep stops at the first violating set
            stab = [0] * (full + 1)
            feasible = True
            for s in range(1, full + 1):
                low = (s & -s).bit_length() - 1
                stab[s] = stab[s ^ (1 << low)] + targets[low]
                if etab[s] > stab[s]:
                    feasible = False
                    break
            assert res.ok == feasible, (g.edges, targets)
            if not res.ok:
                mask = res.violation
                assert etab[mask] > sum(targets[v] for v in vertices_of(mask))
            checked += 1
    elapsed = time.time() - started
    _report(11, f"prescribed in-degree feasibility matches ({checked} runs)",
            elapsed)


def test_criterion_12_bipartite_low_degree_rigid_subgraph():
    started = time.time()
    k66 = generators.complete_bipartite(6, 6)
    side = mask_of(range(6))
    res = preset_bipartite_degree(k66, 1, side)
    assert res.ok
    h = k66.subgraph(res.union_edges)
    assert rank_and_rigid(h, lmn(12, 2, 3)).rigid
    for v in range(6):
        assert h.degree(v) <= 8  # ceil(6/1) + 2
    # 2-connectivity by vertex-cut enumeration at this size
    assert h.is_connected()
    for v in range(12):
        assert delete_vertex(h, v).is_connected()
    elapsed = time.time() - started
    assert elapsed < 30, f"criterion 12 took {elapsed:.1f}s"
    _report(12, "K6,6 carries a doubly rigid part with side degrees <= 8",
            elapsed, 30)
