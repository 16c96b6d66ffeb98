"""Exact rational-valued functions on a group: indicators, translation,
translation defects, convolution, tuple measures and the l1/l2 norms.

A function is one integer numerator per element over one common
denominator.  The numerators are int64 while 4 |G| max|num|^2 < 2**63,
which bounds every difference, square, sum of |G| squares and averaging
step the kernels form, and numpy object arrays of Python ints above it; an
operation whose result may pass the bound computes in Python ints.
Floating point is confined to the fourier module.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .groups import GroupElement, GroupSpec, require_same_spec
from .sets import _BLOCK_ENTRIES, GroupSet

__all__ = [
    "RationalFunc",
    "TupleMeasure",
    "indicator",
    "point_mass",
    "uniform_measure",
    "convolve",
    "mu_tuple",
]

_INT64_BOUND = 2**63
_TABLE_ENTRIES = 2**22  # translate index tables kept across passes up to this size

RationalLike = Fraction | int


def _fits(order: int, peak: int) -> bool:
    """Whether int64 holds every value formed from numerators up to `peak`."""
    return 4 * order * peak * peak < _INT64_BOUND


def _held(num: np.ndarray, order: int, bound: int) -> np.ndarray:
    """num in a dtype that holds every value up to `bound` formed from it."""
    return num if _fits(order, bound) else num.astype(object)


@dataclass(frozen=True, eq=False)
class RationalFunc:
    """The function num / den on G, indexed by canonical element index.

    num holds one integer per element (read-only, int64 or object by the
    module rule) and den > 0 need not be in lowest terms; equality and
    hashing compare values.
    """

    spec: GroupSpec
    num: np.ndarray
    den: int = 1
    peak: int = field(init=False, repr=False)  # max |num|

    def __post_init__(self) -> None:
        num = self.num
        if not isinstance(num, np.ndarray):
            num = np.array([operator.index(v) for v in num], dtype=object)
        elif num.dtype.kind in "biu" and num.dtype != np.int64:
            num = num.astype(object)
        elif num.dtype not in (np.int64, object):
            raise TypeError(f"numerators must be integers, got dtype {num.dtype}")
        if num.shape != (self.spec.order,):
            raise ValueError(f"expected {self.spec.order} values, got {num.size}")
        den = operator.index(self.den)
        if den <= 0:
            raise ValueError(f"the denominator must be positive, got {den}")
        peak = int(np.abs(num).max())
        num = num.astype(np.int64 if _fits(num.size, peak) else object, copy=False)
        num.flags.writeable = False
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "peak", peak)

    # construction -----------------------------------------------------------

    @classmethod
    def zero(cls, spec: GroupSpec) -> "RationalFunc":
        return cls(spec, np.zeros(spec.order, dtype=np.int64))

    @classmethod
    def from_pairs(
        cls, spec: GroupSpec, pairs: Mapping[int, RationalLike]
    ) -> "RationalFunc":
        vals = {int(i): Fraction(v) for i, v in pairs.items()}
        den = math.lcm(*(v.denominator for v in vals.values()))
        num = np.zeros(spec.order, dtype=object)
        for i, v in vals.items():
            num[i] = v.numerator * (den // v.denominator)
        return cls(spec, num, den)

    @classmethod
    def from_values(cls, spec: GroupSpec, values: Iterable[RationalLike]) -> "RationalFunc":
        vals = [Fraction(v) for v in values]
        den = math.lcm(*(v.denominator for v in vals))
        return cls(spec, [v.numerator * (den // v.denominator) for v in vals], den)

    # queries ------------------------------------------------------------------

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        """Every value as a Fraction, in index order; derived from num / den."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num.tolist())

    def value_at(self, x: GroupElement) -> Fraction:
        require_same_spec(self, x)
        return Fraction(int(self.num[x.index]), self.den)

    @cached_property
    def support_array(self) -> np.ndarray:
        return np.flatnonzero(self.num)

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(self.support_array.tolist())

    def support_set(self) -> GroupSet:
        return GroupSet(self.spec, frozenset(self.support))

    def is_zero(self) -> bool:
        return self.peak == 0

    def is_nonnegative(self) -> bool:
        return bool((self.num >= 0).all())

    @cached_property
    def _lowest(self) -> tuple[int, tuple[int, ...]]:
        """(den, numerators) in lowest terms."""
        nums = self.num.tolist()
        g = math.gcd(self.den, *nums)
        return self.den // g, tuple(n // g for n in nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RationalFunc):
            return NotImplemented
        return self.spec == other.spec and self._lowest == other._lowest

    def __hash__(self) -> int:
        return hash((self.spec, self._lowest))

    # norms ------------------------------------------------------------------

    def mass(self) -> Fraction:
        return Fraction(int(self.num.sum()), self.den)

    def l1_norm(self) -> Fraction:
        return Fraction(int(np.abs(self.num).sum()), self.den)

    def l2_norm_sq(self) -> Fraction:
        return Fraction(int((self.num * self.num).sum()), self.den * self.den)

    def inner(self, other: "RationalFunc") -> Fraction:
        # |G| max|f| max|g| < 2**61 when both are int64
        require_same_spec(self, other)
        return Fraction(int((self.num * other.num).sum()), self.den * other.den)

    # pointwise algebra -----------------------------------------------------

    def _combine(self, other: "RationalFunc", sign: int) -> "RationalFunc":
        require_same_spec(self, other)
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        bound = max(self.peak, 1) * a + max(other.peak, 1) * b
        order = self.spec.order
        x, y = _held(self.num, order, bound) * a, _held(other.num, order, bound) * b
        return RationalFunc(self.spec, x + y if sign > 0 else x - y, den)

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        return self._combine(other, 1)

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        return self._combine(other, -1)

    def __mul__(self, c: RationalLike) -> "RationalFunc":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = Fraction(c)
        p = c.numerator
        num = _held(self.num, self.spec.order, max(self.peak, 1) * abs(p)) * p
        return RationalFunc(self.spec, num, self.den * c.denominator)

    __rmul__ = __mul__

    def square(self) -> "RationalFunc":
        num = _held(self.num, self.spec.order, self.peak * self.peak)
        return RationalFunc(self.spec, num * num, self.den * self.den)

    # translation ---------------------------------------------------------------

    def translate(self, x: GroupElement) -> "RationalFunc":
        """tau_x f with (tau_x f)(y) = f(x + y); an exact isometry."""
        require_same_spec(self, x)
        return self.translate_index(x.index)

    def translate_index(self, xi: int) -> "RationalFunc":
        if xi == 0:
            return self
        return RationalFunc(self.spec, self.num[self.spec._translate_table(xi)], self.den)

    def translation_defects(self, xs: Sequence[int], p: int = 1) -> list[Fraction]:
        """[||f - tau_x f||_p^p for x in xs] for p in {1, 2}, exactly, with
        each x an element index."""
        scale = self.den**p
        return [Fraction(s, scale) for s in _Translates(self.spec, xs).sums(self, p)]

    def translation_defect(self, x: int, p: int = 1) -> Fraction:
        """||f - tau_x f||_p^p for p in {1, 2}, exactly, with x an element index."""
        return self.translation_defects([x], p)[0]

    def __repr__(self) -> str:
        pts = ", ".join(
            f"{self.spec.element_at(i)!r}:{Fraction(int(self.num[i]), self.den)}"
            for i in self.support[:6]
        )
        tail = ", ..." if len(self.support) > 6 else ""
        return f"RationalFunc[{self.spec!r}]{{{pts}{tail}}}"


class _Translates:
    """Index tables y -> y + x for x in xs, in row blocks of at most
    _BLOCK_ENTRIES entries (one row when |G| exceeds it).  The blocks are
    built once and kept while the whole table fits _TABLE_ENTRIES; a larger
    table is rebuilt block by block on every pass, so memory stays bounded.
    """

    def __init__(self, spec: GroupSpec, xs: Iterable[int]):
        self.spec = spec
        self.xs = [int(x) for x in xs]
        self.rows = max(1, _BLOCK_ENTRIES // spec.order)
        keep = len(self.xs) * spec.order <= _TABLE_ENTRIES
        self._kept = list(self._build()) if keep else None

    def _build(self):
        spec = self.spec
        for s in range(0, len(self.xs), self.rows):
            chunk = self.xs[s : s + self.rows]
            yield np.stack([spec._translate_table(x) for x in chunk])

    def sums(self, f: RationalFunc, p: int) -> list[int]:
        """den^p ||f - tau_x f||_p^p for each x in xs, as Python ints."""
        if p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {p}")
        require_same_spec(self, f)
        out: list[int] = []
        for table in self._kept if self._kept is not None else self._build():
            d = f.num[table] - f.num
            out.extend((np.abs(d) if p == 1 else d * d).sum(axis=1).tolist())
        return out


def _ones(S: GroupSet) -> np.ndarray:
    num = np.zeros(S.spec.order, dtype=np.int64)
    num[S.index_array] = 1
    return num


def indicator(A: GroupSet) -> RationalFunc:
    return RationalFunc(A.spec, _ones(A))


def point_mass(x: GroupElement) -> RationalFunc:
    return indicator(GroupSet.singleton(x))


def uniform_measure(S: GroupSet) -> RationalFunc:
    """The uniform probability measure on a non-empty set."""
    if not S.indices:
        raise ValueError("uniform measure needs a non-empty support")
    return RationalFunc(S.spec, _ones(S), len(S))


def convolve(f: RationalFunc, g: RationalFunc) -> RationalFunc:
    """(f * g)(y + z) = sum of f(y) g(z), exactly.

    Each point y of the smaller support adds f(y) times g moved onto y + G.
    A value is a sum of at most that many products, which bounds the dtype.
    """
    require_same_spec(f, g)
    spec = f.spec
    if len(f.support) > len(g.support):
        f, g = g, f
    gnum = _held(g.num, spec.order, len(f.support) * f.peak * g.peak)
    out = np.zeros(spec.order, dtype=gnum.dtype)
    for y, fy in zip(f.support, f.num[f.support_array].tolist()):
        out[spec._translate_table(y)] += fy * gnum
    return RationalFunc(spec, out, f.den * g.den)


@dataclass(frozen=True)
class TupleMeasure:
    """The averaged measure attached to a tuple a = (a_1, ..., a_l):

    the l-fold convolution of the measures (delta_0 + delta_{a_i}) / 2.
    Total mass is exactly 1 and the support lies inside the subgroup
    generated by the tuple; in an exponent-2 group it equals the uniform
    measure on that subgroup.
    """

    spec: GroupSpec
    elements: tuple[GroupElement, ...]
    func: RationalFunc


def mu_tuple(spec: GroupSpec, elements: Sequence[GroupElement]) -> TupleMeasure:
    """Build the tuple measure; the empty tuple gives the point mass at 0."""
    h = point_mass(spec.identity())
    for a in elements:
        h = average_with_translate(h, a)
    measure = TupleMeasure(spec, tuple(elements), h)
    if measure.func.mass() != 1:
        raise AssertionError("tuple measure mass must be exactly 1")
    return measure


def average_with_translate(h: RationalFunc, a: GroupElement) -> RationalFunc:
    """h * (delta_0 + delta_a) / 2, the one-step tuple-measure update:
    num + num[y - a] over 2 den, which the int64 bound covers."""
    require_same_spec(h, a)
    back = h.spec._translate_table((-a).index)
    return RationalFunc(h.spec, h.num + h.num[back], 2 * h.den)
