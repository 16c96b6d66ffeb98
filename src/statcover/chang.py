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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .functions import RationalFunc, average_with_translate, mu_tuple, convolve
from .groups import GroupElement, require_same_spec
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


def _invariant_indices(g: RationalFunc, A: GroupSet, kappa: Fraction) -> set[int]:
    cut = kappa * g.l2_norm_sq()
    return {x for x in A.indices if g.translation_defect(x, 2) < cut}


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
    g = convolve(h, mu_tuple(h.spec, a).func)
    return GroupSet(A.spec, frozenset(_invariant_indices(g, A, kappa)))


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


def energy_floor_steps(order: int, a_size: int, kappa: Fraction) -> int:
    """Step bound ceil(log(|G|/|A|) / log(1/(1-kappa/4))) from the energy floor."""
    if a_size >= order:
        return 0
    shrink = math.log(1.0 / (1.0 - float(kappa) / 4.0))
    return math.ceil(math.log(order / a_size) / shrink)


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
    g = h
    path: list[GroupElement] = []
    energies = [g.l2_norm_sq()]
    while True:
        if len(path) >= k_max:
            # the dichotomy only admits invariant stops strictly below the cap
            return ChangOutcome(
                kind="decrement",
                path=tuple(path),
                energies=tuple(energies),
                witnesses=None,
            )
        passing = _invariant_indices(g, A, kappa)
        if len(passing) >= need:
            return ChangOutcome(
                kind="invariant",
                path=tuple(path),
                energies=tuple(energies),
                witnesses=GroupSet(spec, frozenset(passing)),
            )
        x = next(i for i in sorted(A.indices) if i not in passing)
        elem = spec.element_at(x)
        path.append(elem)
        g = average_with_translate(g, elem)
        energies.append(g.l2_norm_sq())
