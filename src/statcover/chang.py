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

The function after l steps has integer numerators num over D 2^l (D the
denominator of h).  Beside them the iteration keeps their autocorrelation
N(x) = sum_y num(y) num(y + x) over the whole group, which decides every
test at once: den^2 ||g - tau_x g||_2^2 = 2 (N(0) - N(x)) and the energy is
N(0) / den^2.  A step along a sets num' = num + num(. - a) and
N' = 2 N + N(. - a) + N(. + a), two gathers and adds over G, in the one
kernel _autocorrelation_step that chains._summed_energy also walks.  The
first N is summed from integer pair products over supp h.

N is held in the dtype of the numerators it comes from.  |N(x)| <= N(0) =
sum num^2 <= |G| max|num|^2, so every partial sum of an update is at most
4 |G| max|num|^2, which functions._fits keeps below 2**63 whenever the
numerators are int64; past that both are numpy object arrays of Python ints.

Exact energies cost Theta(l^2) bits over l steps, as the numerators gain a
bit per step, so long paths slow down: cyclic groups of exponent 243 or
more, where the second-stage kappa is tiny, stay out of reach.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .functions import RationalFunc, _brief, average_with_translate, convolve, mu_tuple
from .groups import GroupElement, GroupSpec, require_same_spec
from .sets import GroupSet, _pair_sums

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
    func is h * mu_path, the function after the last step, in both cases.
    """

    kind: str
    path: tuple[GroupElement, ...]
    energies: tuple[Fraction, ...]
    witnesses: GroupSet | None
    func: RationalFunc

    @property
    def l(self) -> int:
        return len(self.path)


def _autocorrelation(h: RationalFunc) -> np.ndarray:
    """N(x) = sum_y num(y) num(y + x) for the numerators of h, exactly.

    Each pair (y, z) of supp h adds num(y) num(z) at x = z - y, in blocks
    of at most sets._BLOCK_ENTRIES pairs.  A partial sum at x is at most
    N(0) <= |G| max|num|^2 by Cauchy-Schwarz, so N fits the numerators' dtype.
    """
    spec, supp = h.spec, h.support_array
    vals = h.num[supp]
    out = np.zeros(spec.order, dtype=h.num.dtype)
    for rows, cols, diffs in _pair_sums(spec, spec.negate_indices(supp), supp):
        np.add.at(out, diffs, vals[rows, None] * vals[cols])
    return out


def _autocorrelation_step(
    spec: GroupSpec, N: np.ndarray, a: int
) -> tuple[np.ndarray, np.ndarray]:
    """The autocorrelation 2 N + N(. - a) + N(. + a) of num + num(. - a), N
    that of num and a an element index, and the table y -> y - a it read.

    The one N update of the module and of chains._summed_energy.  Every
    partial sum is at most 4 N(0), which the caller keeps within N's dtype.
    """
    fwd = spec._translate_table(a)  # y -> y + a
    back = np.empty_like(fwd)
    back[fwd] = spec._arange  # y -> y - a
    return 2 * N + N[back] + N[fwd], back


def _step(g: RationalFunc, N: np.ndarray, a: int) -> tuple[RationalFunc, np.ndarray]:
    """g * (delta_0 + delta_a) / 2 and its autocorrelation 2 N + N(. - a) + N(. + a),
    for a an element index.

    The function is functions.average_with_translate's step, num + num(. - a)
    over 2 den, sharing its index table with the N update.
    """
    # every partial sum is at most 4 N(0) <= 4 |G| max|num|^2, which the
    # numerators' dtype holds
    N, back = _autocorrelation_step(g.spec, N.astype(g.num.dtype, copy=False), a)
    return RationalFunc(g.spec, g.num + g.num[back], 2 * g.den), N


def _invariant(N: np.ndarray, xs: np.ndarray, kappa: Fraction) -> np.ndarray:
    """Mask of the x in xs with ||g - tau_x g||_2^2 < kappa ||g||_2^2, N the
    autocorrelation of g's numerators.

    With kappa = p/q the test is 2q (N(0) - N(x)) < p N(0), that is
    N(0) - N(x) <= (p N(0) - 1) // 2q in integers; the cut is at most
    N(0) / 2, so it compares within N's dtype.
    """
    n0 = int(N[0])
    cut = (kappa.numerator * n0 - 1) // (2 * kappa.denominator)
    return N[0] - N[xs] <= cut


def invariant_set(
    h: RationalFunc, A: GroupSet, a: tuple[GroupElement, ...], kappa: Fraction | int
) -> GroupSet:
    """{x in A : ||g - tau_x g||_2^2 < kappa ||g||_2^2} for g = h * mu_a, exactly."""
    require_same_spec(h, A)
    kappa = Fraction(kappa)
    if not 0 < kappa <= 1:
        raise ValueError(f"kappa must lie in (0, 1], got {_brief(kappa)}")
    if h.is_zero():
        raise ValueError("h must not be identically zero")
    g, N = h, _autocorrelation(h)
    for e in a:
        require_same_spec(h, e)
        g, N = _step(g, N, e.index)
    xs = A.index_array
    return GroupSet(A.spec, xs[_invariant(N, xs, kappa)])


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
    is decided exactly.  kappa is checked against (0, 1] exactly, before
    any float conversion, and a kappa whose double is 0.0, or so small that
    the bound overflows a double, raises ValueError, as does a_size < 1.
    """
    if a_size < 1:
        raise ValueError(f"the set must be non-empty, got size {a_size}")
    kappa = Fraction(kappa)
    if not 0 < kappa <= 1:
        raise ValueError(f"kappa must lie in (0, 1], got {_brief(kappa)}")
    if float(kappa) == 0.0:
        raise ValueError(
            "kappa is positive but below the least positive double, 2**-1074, "
            "so it rounds to 0.0"
        )
    if a_size >= order:
        return 0
    t = math.log1p((order - a_size) / a_size) / -math.log1p(-float(kappa) / 4)
    if not math.isfinite(t):
        raise ValueError(
            f"kappa {float(kappa)!r} is too small: the step bound overflows a double"
        )
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
        raise ValueError(f"kappa must lie in (0, 1], got {_brief(kappa)}")
    if not 0 <= eta <= 1:
        raise ValueError(f"eta must lie in [0, 1], got {_brief(eta)}")
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
    xs = A.index_array
    g, N = h, _autocorrelation(h)
    path: list[GroupElement] = []
    energies = [Fraction(int(N[0]), g.den * g.den)]
    while True:
        if len(path) >= k_max:
            # the dichotomy only admits invariant stops strictly below the cap
            outcome = ChangOutcome(
                kind="decrement",
                path=tuple(path),
                energies=tuple(energies),
                witnesses=None,
                func=g,
            )
            break
        passing = _invariant(N, xs, kappa)
        failing = np.flatnonzero(~passing)
        if len(xs) - len(failing) >= need:
            outcome = ChangOutcome(
                kind="invariant",
                path=tuple(path),
                energies=tuple(energies),
                witnesses=GroupSet(spec, xs[passing]),
                func=g,
            )
            break
        x = int(xs[failing[0]])
        path.append(spec.element_at(x))
        g, N = _step(g, N, x)
        energies.append(Fraction(int(N[0]), g.den * g.den))
    if int(N[0]) != int((g.num * g.num).sum()):
        raise AssertionError(
            "autocorrelation N(0) differs from the energy of h * mu_path; "
            "this indicates a bug"
        )
    return outcome
