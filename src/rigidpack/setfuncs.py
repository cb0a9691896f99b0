"""Integer-valued set functions on vertex subsets.

Covers the two-level family (one value on singletons, another on larger
sets), constants, explicit tables, pointwise overrides, and the derived
functions the packing and orientation pipelines build on the fly. Every
function is zero on the empty set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

from .graph import MultiGraph, mask_of, vertices_of

MAX_PROPERTY_GROUND = 16


@dataclass(frozen=True)
class SetFunc:
    ground: int
    kind: str  # "lmn" | "const" | "weights" | "table" | "mod"
    a: int = 0
    b: int = 0
    weights: tuple[int, ...] | None = None
    table: tuple[int, ...] | None = None
    base: "SetFunc | None" = None
    overrides: tuple[tuple[int, int], ...] = ()

    def value(self, mask: int) -> int:
        if mask == 0:
            return 0
        k = self.kind
        if k == "lmn":
            return self.a if mask & (mask - 1) == 0 else self.b
        if k == "const":
            return self.a
        if k == "weights":
            if mask & (mask - 1) == 0:
                return self.weights[mask.bit_length() - 1]
            return 0
        if k == "table":
            return self.table[mask]
        if k == "mod":
            for m, val in self.overrides:
                if m == mask:
                    return val
            return self.base.value(mask)
        raise ValueError(f"unknown set function kind {k!r}")

    __call__ = value

    @cached_property
    def singletons(self) -> tuple[int, ...]:
        return tuple(self.value(1 << v) for v in range(self.ground))

    def sum_singletons(self, mask: int) -> int:
        s = 0
        sing = self.singletons
        while mask:
            bit = mask & -mask
            s += sing[bit.bit_length() - 1]
            mask ^= bit
        return s

    def cap(self, mask: int) -> int:
        """Sparsity capacity: sum of singleton values minus the set value."""
        return self.sum_singletons(mask) - self.value(mask)

    @cached_property
    def rigid_target(self) -> int:
        """Edge count of a tight spanning sparse subgraph: cap(full set)."""
        n = self.ground
        if self.kind == "lmn":
            return self.a * n - self.b if n > 1 else 0
        if self.kind == "const":
            return self.a * max(n - 1, 0)
        full = (1 << n) - 1
        return self.sum_singletons(full) - self.value(full)

    def describe(self) -> str:
        k = self.kind
        if k == "lmn":
            return f"lmn:{self.a},{self.b}"
        if k == "const":
            return f"const:{self.a}"
        if k == "weights":
            return "w:" + ",".join(str(x) for x in self.weights)
        if k == "table":
            return "table"
        if k == "mod":
            ov = ";".join(f"{sorted(vertices_of(m))}={v}" for m, v in self.overrides)
            return f"mod({self.base.describe()};{ov})"
        return k


def lmn(ground: int, a: int, b: int) -> SetFunc:
    """a on single vertices, b on sets of two or more vertices."""
    return SetFunc(ground=ground, kind="lmn", a=a, b=b)


def const(ground: int, c: int) -> SetFunc:
    return SetFunc(ground=ground, kind="const", a=c)


def zero(ground: int) -> SetFunc:
    return const(ground, 0)


def vertex_weights(weights) -> SetFunc:
    """Per-vertex values on singletons, zero on every larger set."""
    w = tuple(int(x) for x in weights)
    return SetFunc(ground=len(w), kind="weights", weights=w)


def table_func(ground: int, values) -> SetFunc:
    """Explicit table over all subsets of a small ground set.

    `values` maps masks (or vertex tuples) to integers; every nonempty
    subset must be present. The empty set is forced to zero.
    """
    if ground > MAX_PROPERTY_GROUND:
        raise ValueError(f"table functions are capped at ground {MAX_PROPERTY_GROUND}")
    tab = [None] * (1 << ground)
    tab[0] = 0
    for key, val in values.items():
        m = key if isinstance(key, int) else mask_of(key)
        if not 0 <= m < (1 << ground):
            raise ValueError(f"table key {key!r} out of range")
        tab[m] = int(val)
    missing = [i for i, v in enumerate(tab) if v is None]
    if missing:
        raise ValueError(f"table is missing entries, first missing mask {missing[0]}")
    return SetFunc(ground=ground, kind="table", table=tuple(tab))


def with_overrides(base: SetFunc, overrides: dict[int, int]) -> SetFunc:
    ov = tuple(sorted((int(m), int(v)) for m, v in overrides.items()))
    for m, _ in ov:
        if not 0 < m < (1 << base.ground):
            raise ValueError(f"override mask {m} out of range")
    return SetFunc(ground=base.ground, kind="mod", base=base, overrides=ov)


def scaled(f: SetFunc, p: int) -> SetFunc:
    """Pointwise p * f, kept in closed form where possible."""
    if p < 0:
        raise ValueError("scale factor must be nonnegative")
    if f.kind == "lmn":
        return lmn(f.ground, p * f.a, p * f.b)
    if f.kind == "const":
        return const(f.ground, p * f.a)
    if f.kind == "weights":
        return vertex_weights(p * w for w in f.weights)
    if f.kind == "table":
        return SetFunc(ground=f.ground, kind="table", table=tuple(p * v for v in f.table))
    if f.kind == "mod":
        return SetFunc(ground=f.ground, kind="mod", base=scaled(f.base, p),
                       overrides=tuple((m, p * v) for m, v in f.overrides))
    raise ValueError(f"cannot scale set function of kind {f.kind!r}")


# ----------------------------------------------------------------------
# derived functions used by the degree-bounded pipelines


def halved_slack(graph: MultiGraph, l: SetFunc, ell: SetFunc,
                 extra=None) -> SetFunc:
    """Degree-eating weights floor(d(v)/2) - l(v) - ell(v) (+ optional extra).

    Rejects when some vertex degree falls below 2*ell(v) + 2*l(v), which is
    exactly when a weight would go negative.
    """
    w = []
    for v in range(graph.n):
        val = graph.degree(v) // 2 - l.singletons[v] - ell.singletons[v]
        if extra is not None:
            val += extra[v]
        if val < 0:
            raise ValueError(
                f"degree hypothesis fails at vertex {v}: "
                f"d={graph.degree(v)} < 2*{ell.singletons[v]} + 2*{l.singletons[v]}")
        w.append(val)
    return vertex_weights(w)


def rho_slack(graph: MultiGraph, l: SetFunc, ell: SetFunc, k, rho) -> SetFunc:
    """Degree-eating weights for the k/rho-refined degree bound.

    floor(((k-1)/k) d(v) - ((k-2)/k) rho(v)) - l(v) - ell(v) per vertex,
    zero on larger sets. Negative values surface the failed degree
    hypothesis with the violating vertex.
    """
    kf = Fraction(k)
    if kf <= 2:
        raise ValueError("rho slack needs k > 2")
    w = []
    for v in range(graph.n):
        val = math.floor(Fraction(kf - 1, kf) * graph.degree(v)
                         - Fraction(kf - 2, kf) * Fraction(rho[v]))
        val -= l.singletons[v] + ell.singletons[v]
        if val < 0:
            raise ValueError(f"degree/rho hypothesis fails at vertex {v}: slack {val} < 0")
        w.append(val)
    return vertex_weights(w)


# ----------------------------------------------------------------------
# structural property verification (oracle grade)


@dataclass(frozen=True)
class PropertyReport:
    nonnegative: bool
    nonincreasing: bool
    subadditive: bool
    weakly_subadditive: bool
    intersecting_supermodular: bool
    two_intersecting_supermodular: bool
    counterexamples: dict = field(compare=False, default_factory=dict)


def property_report(f: SetFunc) -> PropertyReport:
    """Decide every structural flag by exhaustive enumeration of set pairs.

    Counterexamples are the lexicographically least failing masks; each one
    re-fails its inequality when replayed through `value`.
    """
    n = f.ground
    if n > MAX_PROPERTY_GROUND:
        raise ValueError(f"property checking is capped at ground {MAX_PROPERTY_GROUND}")
    full = (1 << n) - 1
    vals = [f.value(m) for m in range(full + 1)]
    pops = [bin(m).count("1") for m in range(full + 1)]
    sing = [f.sum_singletons(m) for m in range(full + 1)]

    cex: dict[str, object] = {}
    nonnegative = True
    weakly = True
    for m in range(1, full + 1):
        if nonnegative and vals[m] < 0:
            nonnegative = False
            cex["nonnegative"] = m
        if weakly and sing[m] < vals[m]:
            weakly = False
            cex["weakly_subadditive"] = m

    nonincreasing = True
    subadditive = True
    super1 = True
    super2 = True
    for a in range(1, full + 1):
        va = vals[a]
        for b in range(1, full + 1):
            inter = a & b
            vb = vals[b]
            if nonincreasing and inter == a and a != b and va < vb:
                nonincreasing = False
                cex["nonincreasing"] = (a, b)
            if subadditive and inter == 0 and va + vb < vals[a | b]:
                subadditive = False
                cex["subadditive"] = (a, b)
            if inter:
                lhs = vals[inter] + vals[a | b]
                if lhs < va + vb:
                    if super1:
                        super1 = False
                        cex["intersecting_supermodular"] = (a, b)
                    if super2 and pops[inter] >= 2:
                        super2 = False
                        cex["two_intersecting_supermodular"] = (a, b)
        if not (nonincreasing or subadditive or super1 or super2):
            if not nonnegative and not weakly:
                break
    return PropertyReport(
        nonnegative=nonnegative,
        nonincreasing=nonincreasing,
        subadditive=subadditive,
        weakly_subadditive=weakly,
        intersecting_supermodular=super1,
        two_intersecting_supermodular=super2,
        counterexamples=cex,
    )


# ----------------------------------------------------------------------
# engine dispatch helpers


def pebble_params(f: SetFunc) -> tuple[tuple[int, ...], int] | None:
    """Per-vertex pebble capacities and gather deficit, if f is pebble-playable.

    Uniform two-level functions qualify when 0 <= b <= 2a - 1 (plus the
    degenerate all-zero case), constants always, and nonnegative
    singleton-supported weight functions with deficit zero.
    """
    if f.kind == "lmn":
        if f.a == 0 and f.b == 0:
            return (0,) * f.ground, 0
        if 0 <= f.b <= 2 * f.a - 1:
            return (f.a,) * f.ground, f.b
        return None
    if f.kind == "const":
        if f.a < 0:
            return None
        return (f.a,) * f.ground, f.a
    if f.kind == "weights" and all(w >= 0 for w in f.weights):
        return f.weights, 0
    return None


def proper_pebble_params(f: SetFunc):
    """Pebble parameters valid on proper subsets, for functions that only
    override the value on the full vertex set.

    Returns (caps, ell, full_capacity) or None.
    """
    if f.kind != "mod":
        return None
    full = (1 << f.ground) - 1
    if any(m != full for m, _ in f.overrides):
        return None
    base = pebble_params(f.base)
    if base is None:
        return None
    caps, ell = base
    return caps, ell, f.cap(full)
