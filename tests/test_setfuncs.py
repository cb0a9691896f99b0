import pytest

from rigidpack import generators
from rigidpack.graph import MultiGraph, mask_of
from rigidpack.setfuncs import (
    lmn, const, vertex_weights, table_func, with_overrides, scaled,
    halved_slack, rho_slack,
    property_report, pebble_params, proper_pebble_params,
)

from helpers import force_zero_on_ground


def test_two_level_eval():
    f = lmn(4, 2, 3)
    assert f.value(0b0001) == 2
    assert f.value(0b0011) == 3
    assert f.value(0) == 0
    assert f.cap(0b0001) == 0
    assert f.cap(0b0111) == 3


def test_weights_eval():
    w = vertex_weights([3, 0, 1])
    assert w.value(0b001) == 3
    assert w.value(0b011) == 0
    assert w.cap(0b011) == 3


def test_rigid_target_is_cap_of_full_set():
    # the closed forms of lmn and const, and the general sum for the
    # other kinds, against sum_singletons(full) - value(full)
    funcs = []
    for n in range(7):
        funcs += [lmn(n, a, b) for a in range(-1, 4) for b in range(-2, 6)]
        funcs += [const(n, c) for c in range(-2, 4)]
        funcs.append(vertex_weights(range(n)))
        if n >= 1:
            funcs.append(table_func(n, {m: m % 5 - 1 for m in range(1, 1 << n)}))
            funcs.append(with_overrides(lmn(n, 2, 3), {(1 << n) - 1: 1}))
    assert {f.kind for f in funcs} == {"lmn", "const", "weights", "table", "mod"}
    for f in funcs:
        full = (1 << f.ground) - 1
        assert f.rigid_target == f.sum_singletons(full) - f.value(full)


def test_table_requires_all_entries():
    with pytest.raises(ValueError, match="missing"):
        table_func(2, {0b01: 1})
    f = table_func(2, {0b01: 1, 0b10: 1, 0b11: 2})
    assert f.value(0b11) == 2
    assert f.value(0) == 0


def test_overrides_and_zeroing():
    base = lmn(3, 1, 1)
    mod = force_zero_on_ground(base)
    assert mod.value(0b111) == 0
    assert mod.value(0b011) == 1
    assert mod.cap(0b111) == 3
    again = with_overrides(base, {0b011: 5})
    assert again.value(0b011) == 5


def test_scaling_keeps_two_level_form():
    doubled = scaled(lmn(5, 1, 1), 2)
    assert doubled.kind == "lmn" and doubled.a == 2 and doubled.b == 2
    assert scaled(const(4, 3), 0).value(0b1111) == 0


def test_property_report_tree_function():
    rep = property_report(lmn(4, 1, 1))
    assert rep.intersecting_supermodular
    assert rep.subadditive
    assert rep.nonincreasing
    assert rep.weakly_subadditive
    assert rep.two_intersecting_supermodular


def test_property_report_rigidity_function():
    rep = property_report(lmn(5, 2, 3))
    assert rep.two_intersecting_supermodular
    assert not rep.intersecting_supermodular
    assert rep.weakly_subadditive
    # the counterexample replays through eval
    a, b = rep.counterexamples["intersecting_supermodular"]
    f = lmn(5, 2, 3)
    assert f.value(a & b) + f.value(a | b) < f.value(a) + f.value(b)


def test_property_report_zero_function():
    rep = property_report(const(4, 0))
    assert rep.nonnegative and rep.nonincreasing and rep.subadditive
    assert rep.weakly_subadditive and rep.intersecting_supermodular


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (2, 2), (3, 5), (2, 3)])
def test_two_level_flag_rules(a, b):
    rep = property_report(lmn(6, a, b))
    assert rep.nonincreasing == (a >= b)
    assert rep.weakly_subadditive == (2 * a >= b)


def test_property_report_rejects_large_ground():
    with pytest.raises(ValueError, match="capped"):
        property_report(lmn(17, 1, 1))


def test_halved_slack_on_k9():
    k9 = generators.complete(9)
    w = halved_slack(k9, lmn(9, 1, 1), lmn(9, 2, 3))
    assert list(w.weights) == [1] * 9


def test_halved_slack_rejects_low_degree():
    c4 = MultiGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match="vertex 0"):
        halved_slack(c4, lmn(4, 1, 1), lmn(4, 2, 3))


def test_rho_slack_values():
    k9 = generators.complete(9)
    # k=4, rho=0: floor(3/4 * 8) - 1 - 2 = 3
    w = rho_slack(k9, lmn(9, 1, 1), lmn(9, 2, 3), 4, [0] * 9)
    assert list(w.weights) == [3] * 9
    with pytest.raises(ValueError, match="k > 2"):
        rho_slack(k9, lmn(9, 1, 1), lmn(9, 2, 3), 2, [0] * 9)


def test_pebble_params_dispatch():
    assert pebble_params(lmn(4, 2, 3)) == ((2, 2, 2, 2), 3)
    assert pebble_params(lmn(4, 1, 2)) is None  # outside the matroidal range
    assert pebble_params(const(3, 2)) == ((2, 2, 2), 2)
    assert pebble_params(vertex_weights([1, 0, 2])) == ((1, 0, 2), 0)
    assert pebble_params(table_func(2, {1: 1, 2: 1, 3: 1})) is None


def test_proper_pebble_params():
    mod = force_zero_on_ground(lmn(4, 1, 1))
    caps, ell, full_cap = proper_pebble_params(mod)
    assert caps == (1, 1, 1, 1) and ell == 1 and full_cap == 4
    assert proper_pebble_params(lmn(4, 1, 1)) is None
    off = with_overrides(lmn(4, 1, 1), {0b0011: 0})
    assert proper_pebble_params(off) is None
