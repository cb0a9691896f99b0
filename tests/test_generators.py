import random
from collections import Counter

import pytest

from rigidpack.generators import (
    complete, complete_bipartite, circulant, random_simple, random_regular,
    doubled, _switch_out_bad_pairs,
)


def test_complete_and_bipartite_sizes():
    assert complete(4).m == 6
    g = complete_bipartite(2, 3)
    assert g.n == 5 and g.m == 6
    assert g.bipartition() is not None


def test_circulant_degrees():
    g = circulant(8, [1, 2])
    assert g.m == 16
    assert all(d == 4 for d in g.degrees)
    # the antipodal offset contributes a perfect matching, not doubled edges
    h = circulant(6, [3])
    assert h.m == 3 and all(d == 1 for d in h.degrees)
    with pytest.raises(ValueError, match="offset"):
        circulant(6, [4])


def test_random_simple_bounds():
    g = random_simple(6, 10, seed=3)
    assert g.m == 10
    assert all(m <= 1 for row in g.mult for m in row)
    with pytest.raises(ValueError, match="at most"):
        random_simple(4, 7, seed=0)


def test_random_regular_rejects_odd_total():
    with pytest.raises(ValueError, match="odd total"):
        random_regular(5, 3, seed=0)


def test_doubled_multiplicity():
    base = complete(3)
    g = doubled(base, 3)
    assert g.m == 9 and g.mult[0][1] == 3
    with pytest.raises(ValueError):
        doubled(base, 0)


@pytest.mark.parametrize("n, r", [(20, 8), (40, 8), (60, 10)])
def test_random_regular_repairs_an_exhausted_pairing(n, r):
    # rejection sampling never draws a simple pairing here; switchings
    # repair the last one
    g = random_regular(n, r, seed=1)
    assert g.degrees == (r,) * n
    assert all(m <= 1 for row in g.mult for m in row)
    if n == 20:
        assert random_regular(n, r, seed=1).edges == g.edges


def test_random_regular_keeps_sampled_graphs():
    # a pairing that rejection sampling accepts is returned as before
    g = random_regular(10, 3, seed=1)
    assert g.edges == ((0, 5), (0, 6), (0, 8), (1, 3), (1, 8), (1, 9), (2, 4),
                       (2, 5), (2, 6), (3, 7), (3, 9), (4, 7), (4, 8), (5, 7),
                       (6, 9))


def test_switchings_keep_degrees_and_remove_bad_pairs():
    # small dense pairings hold many loops and repeats, and partners that
    # share a vertex with the bad pair
    rng = random.Random(5)
    repaired = 0
    for _ in range(300):
        n = rng.randrange(4, 9)
        r = rng.randrange(2, n - 1)
        if n * r % 2:
            continue
        stubs = [v for v in range(n) for _ in range(r)]
        rng.shuffle(stubs)
        pairs = [(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])]
        try:
            out = _switch_out_bad_pairs(pairs, random.Random(1))
        except RuntimeError:
            continue
        assert Counter(v for p in out for v in p) == Counter(stubs)
        assert all(u != v for u, v in out)
        assert len(set(out)) == len(out)
        repaired += out != pairs
    assert repaired >= 150
