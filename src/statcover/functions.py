"""Exact rational-valued functions on a group.

Indicators, translation, convolution, the tuple measures built from
averaged point masses, and the l1/l2 norms.  Everything in this module is
computed in exact rational arithmetic; floating point is confined to the
fourier module so that threshold comparisons elsewhere never depend on
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .groups import GroupElement, GroupSpec, require_same_spec
from .sets import GroupSet

__all__ = [
    "RationalFunc",
    "TupleMeasure",
    "indicator",
    "point_mass",
    "uniform_measure",
    "convolve",
    "mu_tuple",
]

_ZERO = Fraction(0)
_HALF = Fraction(1, 2)

RationalLike = Fraction | int


@dataclass(frozen=True)
class RationalFunc:
    """A dense function G -> Q, indexed by canonical element index."""

    spec: GroupSpec
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.spec.order:
            raise ValueError(
                f"expected {self.spec.order} values, got {len(self.values)}"
            )

    # construction -----------------------------------------------------------

    @classmethod
    def zero(cls, spec: GroupSpec) -> "RationalFunc":
        return cls(spec, (_ZERO,) * spec.order)

    @classmethod
    def from_pairs(
        cls, spec: GroupSpec, pairs: Mapping[int, RationalLike]
    ) -> "RationalFunc":
        vals = [_ZERO] * spec.order
        for i, v in pairs.items():
            vals[int(i)] = Fraction(v)
        return cls(spec, tuple(vals))

    @classmethod
    def from_values(cls, spec: GroupSpec, values: Iterable[RationalLike]) -> "RationalFunc":
        return cls(spec, tuple(Fraction(v) for v in values))

    # queries ------------------------------------------------------------------

    def value_at(self, x: GroupElement) -> Fraction:
        require_same_spec(self, x)
        return self.values[x.index]

    @cached_property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, v in enumerate(self.values) if v)

    @cached_property
    def support_array(self) -> np.ndarray:
        return np.fromiter(self.support, dtype=np.int64, count=len(self.support))

    def support_set(self) -> GroupSet:
        return GroupSet(self.spec, frozenset(self.support))

    def is_zero(self) -> bool:
        return not self.support

    def is_nonnegative(self) -> bool:
        return all(self.values[i] > 0 for i in self.support)

    # norms ------------------------------------------------------------------

    def mass(self) -> Fraction:
        return sum((self.values[i] for i in self.support), _ZERO)

    def l1_norm(self) -> Fraction:
        return sum((abs(self.values[i]) for i in self.support), _ZERO)

    def l2_norm_sq(self) -> Fraction:
        return sum((self.values[i] ** 2 for i in self.support), _ZERO)

    def inner(self, other: "RationalFunc") -> Fraction:
        require_same_spec(self, other)
        f, g = (self, other) if len(self.support) <= len(other.support) else (other, self)
        return sum((f.values[i] * g.values[i] for i in f.support), _ZERO)

    # pointwise algebra -----------------------------------------------------

    def __add__(self, other: "RationalFunc") -> "RationalFunc":
        require_same_spec(self, other)
        return RationalFunc(
            self.spec, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __sub__(self, other: "RationalFunc") -> "RationalFunc":
        require_same_spec(self, other)
        return RationalFunc(
            self.spec, tuple(a - b for a, b in zip(self.values, other.values))
        )

    def __mul__(self, c: RationalLike) -> "RationalFunc":
        if not isinstance(c, (int, Fraction)):
            return NotImplemented
        c = Fraction(c)
        return RationalFunc(self.spec, tuple(c * v for v in self.values))

    __rmul__ = __mul__

    def square(self) -> "RationalFunc":
        return RationalFunc(self.spec, tuple(v * v for v in self.values))

    # translation ---------------------------------------------------------------

    def translate(self, x: GroupElement) -> "RationalFunc":
        """tau_x f with (tau_x f)(y) = f(x + y); an exact isometry."""
        require_same_spec(self, x)
        return self.translate_index(x.index)

    def translate_index(self, xi: int) -> "RationalFunc":
        spec = self.spec
        if xi == 0:
            return self
        sup = self.support
        if len(sup) * 4 <= spec.order:
            # sparse path: support of tau_x f is (-x) + support(f)
            src = self.support_array
            dst = spec.shift_indices(src, int(spec.negate_indices(
                np.array([xi], dtype=np.int64))[0]))
            vals = [_ZERO] * spec.order
            for s, d in zip(sup, dst.tolist()):
                vals[d] = self.values[s]
            return RationalFunc(spec, tuple(vals))
        perm = spec._translate_table(xi).tolist()
        vals_in = self.values
        return RationalFunc(spec, tuple(vals_in[p] for p in perm))

    def translation_defect(self, x: int, p: int = 1) -> Fraction:
        """||f - tau_x f||_p^p for p in {1, 2}, exactly, with x an element index.

        f(y) - f(x + y) can be nonzero only on supp f and supp f - x, so
        only those points are visited: each s in supp f gives f(s) - f(s + x),
        and each t in supp f outside supp f + x gives -f(t) at y = t - x.
        """
        if p not in (1, 2):
            raise ValueError(f"p must be 1 or 2, got {p}")
        sup = self.support
        if x == 0 or not sup:
            return _ZERO
        vals = self.values
        moved = self.spec.shift_indices(self.support_array, x).tolist()
        diffs = [vals[s] - vals[t] for s, t in zip(sup, moved) if vals[s] != vals[t]]
        hit = set(moved)
        diffs += [vals[t] for t in sup if t not in hit]
        if p == 1:
            return sum(map(abs, diffs), _ZERO)
        return sum((d * d for d in diffs), _ZERO)

    def __repr__(self) -> str:
        pts = ", ".join(
            f"{self.spec.element_at(i)!r}:{self.values[i]}" for i in self.support[:6]
        )
        tail = ", ..." if len(self.support) > 6 else ""
        return f"RationalFunc[{self.spec!r}]{{{pts}{tail}}}"


def indicator(A: GroupSet) -> RationalFunc:
    one = Fraction(1)
    return RationalFunc.from_pairs(A.spec, {i: one for i in A.indices})


def point_mass(x: GroupElement) -> RationalFunc:
    return RationalFunc.from_pairs(x.spec, {x.index: Fraction(1)})


def uniform_measure(S: GroupSet) -> RationalFunc:
    """The uniform probability measure on a non-empty set."""
    if not S.indices:
        raise ValueError("uniform measure needs a non-empty support")
    w = Fraction(1, len(S))
    return RationalFunc.from_pairs(S.spec, {i: w for i in S.indices})


def convolve(f: RationalFunc, g: RationalFunc) -> RationalFunc:
    """(f * g)(x) = sum over y + z = x of f(y) g(z), exactly.

    The loop runs over the supports, so point masses and measures stay
    cheap; dense operands fall back to the full O(|G|^2) double loop.
    """
    require_same_spec(f, g)
    spec = f.spec
    if f.is_zero() or g.is_zero():
        return RationalFunc.zero(spec)
    if len(f.support) > len(g.support):
        f, g = g, f
    out = [_ZERO] * spec.order
    g_sup = g.support
    g_arr = g.support_array
    g_vals = g.values
    for y in f.support:
        fy = f.values[y]
        targets = spec.shift_indices(g_arr, y).tolist()
        for z, t in zip(g_sup, targets):
            out[t] += fy * g_vals[z]
    return RationalFunc(spec, tuple(out))


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
        require_same_spec(h, a)
        h = _HALF * (h + h.translate(-a))
    measure = TupleMeasure(spec, tuple(elements), h)
    if measure.func.mass() != 1:
        raise AssertionError("tuple measure mass must be exactly 1")
    return measure


def average_with_translate(h: RationalFunc, a: GroupElement) -> RationalFunc:
    """h * (delta_0 + delta_a) / 2, the one-step tuple-measure update."""
    return _HALF * (h + h.translate(-a))
