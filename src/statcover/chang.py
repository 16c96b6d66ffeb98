"""Energy-decrement iteration producing near-invariant direction sets.

Starting from a non-negative function h, repeatedly convolve with averaged
point-mass measures along a greedily chosen path a_1, a_2, ... in A.  At
each stage either enough elements x of A nearly stabilize the current
function in l2 (the invariant outcome) or appending the first offending x
drops the energy by an exact factor of at most 1 - kappa/4, by the
parallelogram identity

    ||h * mu_(a, x)||_2^2 = ||h * mu_a||_2^2 - ||h * mu_a - tau_x(h * mu_a)||_2^2 / 4.

For h = 1_A the energy never falls below |A|^2 / |G|, which forces the
invariant outcome within ceil(log(|G|/|A|) / log(1/(1-kappa/4))) steps.

Along the path every function is an integer array over the whole group
divided by D 2^l, with D the common denominator of h and l the step count,
so the iteration keeps that pair (num, den) instead of Fraction values.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .functions import RationalFunc, average_with_translate, mu_tuple, convolve
from .groups import GroupElement, GroupSpec, require_same_spec
from .sets import GroupSet

__all__ = [
    "ChangOutcome",
    "invariant_set",
    "decrement_check",
    "chang_iterate",
    "energy_floor_steps",
]


@dataclass(frozen=True)
class ChangOutcome:
    """Either outcome of the iteration.

    kind 'invariant': path has length l, witnesses collects every x in A
    passing the strict kappa test against h * mu_path.
    kind 'decrement': the step cap was reached; energies[i] is the exact
    energy after i steps and each successive entry is at most (1 - kappa/4)
    times the previous one.
    """

    kind: str
    path: tuple[GroupElement, ...]
    energies: tuple[Fraction, ...]
    witnesses: GroupSet | None

    @property
    def l(self) -> int:
        return len(self.path)


_INT64_BOUND = 2**63
_BLOCK_ENTRIES = 2**18  # entries per row block of the |A| x |G| defect table
_TABLE_ENTRIES = 2**22  # translate index tables kept across steps up to this size


def _fit(num: np.ndarray) -> np.ndarray:
    """num as int64 while 4 |G| max|num|^2 < 2**63, else as Python ints.

    The bound covers every value the kernel forms from num: a difference
    of two entries is at most 2 max|num|, its square at most 4 max|num|^2,
    a row sum of squares at most 4 |G| max|num|^2, and the next averaging
    step at most doubles max|num|.
    """
    m = int(np.abs(num).max())
    dtype = np.int64 if 4 * num.size * m * m < _INT64_BOUND else object
    return num.astype(dtype, copy=False)


def _numerators(h: RationalFunc) -> tuple[np.ndarray, int]:
    """h as (num, den) with h = num / den and den the common denominator."""
    den = math.lcm(*(h.values[i].denominator for i in h.support))
    num = np.zeros(h.spec.order, dtype=object)
    for i in h.support:
        v = h.values[i]
        num[i] = v.numerator * (den // v.denominator)
    return _fit(num), den


def _average(
    spec: GroupSpec, num: np.ndarray, den: int, x: GroupElement
) -> tuple[np.ndarray, int]:
    """One step g <- (g + tau_{-x} g) / 2 on g = num / den."""
    back = spec._translate_table((-x).index)
    return _fit(num + num[back]), 2 * den


def _average_along(
    h: RationalFunc, path: tuple[GroupElement, ...]
) -> tuple[np.ndarray, int]:
    """h * mu_path as (num, den)."""
    num, den = _numerators(h)
    for x in path:
        num, den = _average(h.spec, num, den, x)
    return num, den


def _from_numerators(spec: GroupSpec, num: np.ndarray, den: int) -> RationalFunc:
    """The RationalFunc num / den, building a Fraction only where num is nonzero."""
    vals = [Fraction(0)] * spec.order
    for i in np.flatnonzero(num).tolist():
        vals[i] = Fraction(int(num[i]), den)
    return RationalFunc(spec, tuple(vals))


def _sum_sq(num: np.ndarray) -> int:
    return int((num * num).sum())


class _Translates:
    """Index tables y -> y + x for x in xs, in row blocks of at most
    _BLOCK_ENTRIES entries (one row when |G| exceeds it).  The blocks are
    built once and kept while the whole table fits _TABLE_ENTRIES; a larger
    table is rebuilt block by block on every pass, so memory stays bounded.
    """

    def __init__(self, spec: GroupSpec, xs: list[int]):
        self.spec = spec
        self.xs = xs
        self.rows = max(1, _BLOCK_ENTRIES // spec.order)
        keep = len(xs) * spec.order <= _TABLE_ENTRIES
        self._kept = list(self._build()) if keep else None

    def _build(self):
        spec = self.spec
        for s in range(0, len(self.xs), self.rows):
            chunk = self.xs[s : s + self.rows]
            yield np.stack([spec._translate_table(x) for x in chunk])

    def passing(self, num: np.ndarray, kappa: Fraction) -> set[int]:
        """{x : ||g - tau_x g||_2^2 < kappa ||g||_2^2} for g = num / den.

        The common den^2 cancels, so with kappa = p/q the exact test is
        q sum (num - num[y + x])^2 < p sum num^2, compared in Python ints.
        """
        cut = kappa.numerator * _sum_sq(num)
        q = kappa.denominator
        defects: list[int] = []
        for table in self._kept if self._kept is not None else self._build():
            d = num[table] - num
            defects.extend((d * d).sum(axis=1).tolist())
        return {x for x, s in zip(self.xs, defects) if q * s < cut}


def invariant_set(
    h: RationalFunc, A: GroupSet, a: tuple[GroupElement, ...], kappa: Fraction | int
) -> GroupSet:
    """{x in A : ||g - tau_x g||_2^2 < kappa ||g||_2^2} for g = h * mu_a, exactly."""
    require_same_spec(h, A)
    kappa = Fraction(kappa)
    if not 0 < kappa <= 1:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    if h.is_zero():
        raise ValueError("h must not be identically zero")
    for e in a:
        require_same_spec(h, e)
    num, _ = _average_along(h, tuple(a))
    passing = _Translates(A.spec, sorted(A.indices)).passing(num, kappa)
    return GroupSet(A.spec, frozenset(passing))


def decrement_check(
    h: RationalFunc,
    a: tuple[GroupElement, ...],
    x: GroupElement,
    kappa: Fraction | int,
) -> tuple[Fraction, bool]:
    """Energy after appending x to the path, plus whether the step shrank
    the energy by the factor 1 - kappa/4.

    The exact parallelogram identity relating old energy, new energy and
    the translation defect is re-derived and asserted.
    """
    require_same_spec(h, x)
    kappa = Fraction(kappa)
    g = convolve(h, mu_tuple(h.spec, a).func)
    old = g.l2_norm_sq()
    new_g = average_with_translate(g, x)
    new = new_g.l2_norm_sq()
    defect = g.translation_defect(x.index, 2)
    if new != old - defect / 4:
        raise AssertionError("parallelogram identity violated; this indicates a bug")
    return new, new <= (1 - kappa / 4) * old


def _power_covers(q: Fraction, n: int, ratio: Fraction) -> bool:
    """Whether q^n >= ratio, exactly, for rationals q, ratio > 1.

    In lowest terms q^n = ratio needs q_num^n = ratio_num.  While q_num^n
    may be that small the powers are compared in integers.  Past it the two
    differ, so the sign of n ln q - ln ratio decides; it is formed from
    correctly rounded Decimal logarithms of the four integers, at a
    precision doubled until the sign clears the rounding bound, so no large
    power is ever built.
    """
    if n * (q.numerator.bit_length() - 1) < ratio.numerator.bit_length():
        return q**n >= ratio
    prec = 40
    while True:
        with decimal.localcontext() as ctx:
            ctx.prec = prec
            lq_num, lq_den, lr_num, lr_den = (
                Fraction(decimal.Decimal(k).ln())
                for k in (q.numerator, q.denominator, ratio.numerator, ratio.denominator)
            )
        gap = n * (lq_num - lq_den) - (lr_num - lr_den)
        # each logarithm is off by at most half a unit in its last digit
        bound = (n * (lq_num + lq_den) + lr_num + lr_den) * Fraction(1, 10 ** (prec - 1))
        if abs(gap) > bound:
            return gap > 0
        prec *= 2


def energy_floor_steps(order: int, a_size: int, kappa: Fraction) -> int:
    """Step bound ceil(log(|G|/|A|) / log(1/(1-kappa/4))) from the energy floor:
    the least k with q^k >= |G|/|A|, where q = 4/(4 - kappa).

    The float quotient is accurate to a few ulps, so its ceiling is taken
    unless it lies within a relative 1e-9 of an integer n; then n or n + 1
    is decided exactly.
    """
    if a_size >= order:
        return 0
    kappa = Fraction(kappa)
    t = math.log1p((order - a_size) / a_size) / -math.log1p(-float(kappa) / 4)
    n = round(t)
    if abs(t - n) > 1e-9 * t:
        return math.ceil(t)
    covered = n > 0 and _power_covers(4 / (4 - kappa), n, Fraction(order, a_size))
    return n if covered else n + 1


def chang_iterate(
    h: RationalFunc,
    A: GroupSet,
    kappa: Fraction | int,
    eta: Fraction | int,
    k_max: int,
) -> ChangOutcome:
    """Single-path greedy dichotomy.

    At each step, stop with the invariant outcome once at least eta |A|
    elements pass the strict kappa test; otherwise append the first failing
    element in canonical order and continue.  Hitting k_max returns the
    decrement outcome with the full exact energy trace.
    """
    require_same_spec(h, A)
    kappa = Fraction(kappa)
    eta = Fraction(eta)
    if not 0 < kappa <= 1:
        raise ValueError(f"kappa must lie in (0, 1], got {kappa}")
    if not 0 <= eta <= 1:
        raise ValueError(f"eta must lie in [0, 1], got {eta}")
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    if h.is_zero():
        raise ValueError("h must not be identically zero")
    if not h.is_nonnegative():
        raise ValueError("h must be non-negative")
    if not A.indices:
        raise ValueError("A must be non-empty")

    spec = h.spec
    need = eta * len(A)
    translates = _Translates(spec, sorted(A.indices))
    num, den = _numerators(h)
    path: list[GroupElement] = []
    energies = [Fraction(_sum_sq(num), den * den)]
    while True:
        if len(path) >= k_max:
            # the dichotomy only admits invariant stops strictly below the cap
            return ChangOutcome(
                kind="decrement",
                path=tuple(path),
                energies=tuple(energies),
                witnesses=None,
            )
        passing = translates.passing(num, kappa)
        if len(passing) >= need:
            return ChangOutcome(
                kind="invariant",
                path=tuple(path),
                energies=tuple(energies),
                witnesses=GroupSet(spec, frozenset(passing)),
            )
        x = next(i for i in translates.xs if i not in passing)
        elem = spec.element_at(x)
        path.append(elem)
        num, den = _average(spec, num, den, elem)
        energies.append(Fraction(_sum_sq(num), den * den))
