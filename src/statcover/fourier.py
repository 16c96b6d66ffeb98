"""Discrete Fourier transform over the dual group, spectra, annihilators.

This is the one module that computes in floating point (the transform and
the spectrum threshold).  Annihilators are decided by exact integer
congruences, never by a tolerance on |gamma(x) - 1|, because they feed
subgroup-size assertions that must be exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import sets
from .groups import Character, GroupSpec, _span_with
from .functions import RationalFunc, _brief
from .sets import GroupSet, _index_frozenset

__all__ = [
    "DualFunc",
    "CharSet",
    "PowerSpectrum",
    "dft",
    "power_spectrum",
    "spectrum",
    "annihilator",
    "DENSE_TRANSFORM_LIMIT",
    "SPECTRUM_GUARD",
]

# Up to this order the transform is the dense character-matrix product.
# Above it, an exponent-2 group takes the in-place float butterfly, which is
# bitwise equal to numpy fftn there, and any other group takes fftn, the
# per-coordinate mixed-radix factorization; the dense path and the fast
# paths are cross-checked to 1e-9 in the test suite.
DENSE_TRANSFORM_LIMIT = 1024

# Relative guard band on the spectrum threshold; characters inside the band
# are included.  Over-inclusion only shrinks annihilators, which is the safe
# direction for every downstream containment and size bound.
SPECTRUM_GUARD = 1e-9


@dataclass(frozen=True, eq=False)
class DualFunc:
    """A complex-valued function on the dual group, indexed like Character.

    values is complex128, or float64 where every value is real by
    construction (the butterfly path of dft).
    """

    spec: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.spec.order,):
            raise ValueError("dual function must have one value per character")

    def value_at(self, gamma: Character) -> complex:
        return complex(self.values[gamma.index])


@dataclass(frozen=True)
class CharSet:
    """A set of characters, stored as a frozenset of character indices.

    indices may be given as any iterable of ints; an integer numpy array is
    converted in one tolist() pass.
    """

    spec: GroupSpec
    indices: frozenset[int]

    def __post_init__(self) -> None:
        idx = _index_frozenset(self.indices)
        object.__setattr__(self, "indices", idx)
        if idx and (min(idx) < 0 or max(idx) >= self.spec.order):
            raise ValueError("character index out of range")

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, gamma: Character) -> bool:
        return gamma.spec == self.spec and gamma.index in self.indices

    def characters(self) -> Iterator[Character]:
        for i in sorted(self.indices):
            yield self.spec.character_at(i)

    def __or__(self, other: "CharSet") -> "CharSet":
        if other.spec != self.spec:
            raise ValueError("character sets over different groups")
        return CharSet(self.spec, self.indices | other.indices)


@lru_cache(maxsize=6)
def _dft_matrix(spec: GroupSpec) -> np.ndarray:
    """conj(gamma(x)) for every (character, element) pair; O(|G|^2) memory."""
    grid = np.stack(spec.digits(spec._arange), axis=1).astype(np.float64)
    scaled = grid / np.asarray(spec.moduli, dtype=np.float64)
    phase = scaled @ grid.T
    return np.exp(-2j * np.pi * phase)


def _butterfly(vals: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a float array of length 2^n, in place.

    Pass h pairs entries h apart into (a + b, a - b) for h = 1, 2, 4, ...:
    stride 1 is the last coordinate, so this is the axis order of numpy
    fftn (last axis first), and each length-2 pass rounds a + b and a - b
    exactly as fftn's does, so the result equals fftn's real part bitwise.
    """
    h = 1
    while h < vals.size:
        pairs = vals.reshape(-1, 2, h)
        first, second = pairs[:, 0], pairs[:, 1]
        old = first.copy()
        first += second
        np.subtract(old, second, out=second)
        h *= 2
    return vals


def dft(f: RationalFunc, *, force_dense: bool = False) -> DualFunc:
    """fhat(gamma) = sum_x f(x) conj(gamma(x)).

    Three paths: the dense character-matrix product up to
    DENSE_TRANSFORM_LIMIT (or with force_dense); above it, the butterfly on
    exponent-2 groups, whose characters are all real, so values is float64
    and equals numpy fftn's real part bitwise (fftn's imaginary parts are
    zero there); numpy fftn, the mixed-radix per-coordinate factorization,
    on every other group.

    Error bound of the butterfly: each output is a signed sum of the
    rounded values num / den, each within 2^-53 of its value relatively,
    added over n = log2 |G| levels of single rounded additions.  So each
    output is within gamma_(n+1) ||f||_1 of the exact fhat(gamma), with
    gamma_k = k u / (1 - k u) and u = 2^-53: (log2 |G| + 1) 2^-53 ||f||_1
    up to a factor below 1 + 10^-14.  For the dense and fftn paths no
    constant is proven here; the suite cross-checks them to 1e-9 (an
    a-priori fftn bound of the form c log2 |G| u, in the l2 norm, is
    Percival, Math. Comp. 72 (2003) 387-395).
    """
    spec = f.spec
    vals = np.zeros(spec.order, dtype=np.float64)
    # int / int is correctly rounded, so each entry is float(Fraction(n, den))
    den = f.den
    vals[f.support_array] = [n / den for n in f.num[f.support_array].tolist()]
    if force_dense or spec.order <= DENSE_TRANSFORM_LIMIT:
        out = _dft_matrix(spec) @ vals.astype(np.complex128)
    elif spec.exponent == 2:
        out = _butterfly(vals)
    else:
        out = np.fft.fftn(vals.reshape(spec.moduli)).reshape(-1)
    return DualFunc(spec, out)


def _check_threshold(eps: Fraction | float) -> float:
    """The double of a spectrum threshold, after an exact range check."""
    # Fraction and float compare exactly, and nan fails both comparisons
    if not 0 < eps <= 1:
        raise ValueError(f"spectrum threshold must lie in (0, 1], got {_brief(eps)}")
    eps_f = float(eps)
    if eps_f == 0.0:
        raise ValueError(
            "spectrum threshold is positive but below the least positive "
            "double, 2**-1074, so it rounds to 0.0"
        )
    return eps_f


@dataclass(frozen=True, eq=False)
class PowerSpectrum:
    """|fhat|^2 over the dual group and ||f||_1 for one nonzero f: one
    transform, cut at any number of thresholds."""

    spec: GroupSpec
    mag2: np.ndarray
    l1: Fraction

    def cut(self, eps: Fraction | float) -> CharSet:
        """Characters gamma with |fhat(gamma)| >= eps * l1norm(f).

        The comparison runs on squared magnitudes in double precision with
        a relative guard band of SPECTRUM_GUARD; borderline characters are
        kept.  Cuts are nested: a larger eps keeps a subset.
        """
        eps_f = _check_threshold(eps)
        thr2 = (eps_f * float(self.l1)) ** 2 * (1.0 - SPECTRUM_GUARD)
        return CharSet(self.spec, np.flatnonzero(self.mag2 >= thr2))


def power_spectrum(f: RationalFunc) -> PowerSpectrum:
    """Transform f once and keep |fhat|^2 and ||f||_1 for cutting."""
    l1 = f.l1_norm()
    if l1 == 0:
        raise ValueError("spectrum of the zero function is undefined")
    fh = dft(f).values
    if np.iscomplexobj(fh):
        mag2 = fh.real * fh.real + fh.imag * fh.imag
    else:
        mag2 = np.multiply(fh, fh, out=fh)
    return PowerSpectrum(f.spec, mag2, l1)


def spectrum(f: RationalFunc, eps: Fraction | float) -> CharSet:
    """Characters gamma with |fhat(gamma)| >= eps * l1norm(f): one
    transform and one cut (PowerSpectrum.cut)."""
    _check_threshold(eps)
    return power_spectrum(f).cut(eps)


def annihilator(chars: CharSet) -> GroupSet:
    """{x : gamma(x) = 1 for all gamma}; always a subgroup.

    gamma(x) = 1 holds iff sum_j c_j x_j / m_j is an integer, decided by the
    exact congruence sum_j c_j x_j (r / m_j) = 0 mod r with r the exponent.
    Since Ann(S) = Ann(<S>), only a greedy generating set of <S> filters the
    candidates: each filter character is the least one of S outside the
    span of those before it, so each at least doubles the span and there
    are at most log2 |<S>| filter passes.  In exponent 2 the bits of an
    index are its coordinates, so gamma(x) = 1 iff popcount(gamma & x) is
    even and no digits are read; otherwise the candidates' digits are read
    in blocks of at most sets._BLOCK_ENTRIES entries.
    """
    spec = chars.spec
    r = spec.exponent
    cand = spec._arange
    rest = np.sort(np.fromiter(chars.indices, dtype=np.int64, count=len(chars)))
    rest = rest[rest != 0]
    span = np.zeros(1, dtype=np.int64)
    in_span = np.zeros(spec.order, dtype=bool)
    step = max(1, sets._BLOCK_ENTRIES // spec.rank)  # candidates per block of digits
    while cand.size > 1 and rest.size:
        ci = int(rest[0])
        if r == 2:
            cand = cand[np.bitwise_count(cand & ci) & 1 == 0]
        else:
            w = [int(c_j) * (r // m) % r for c_j, m in zip(spec.digits(ci), spec.moduli)]
            keep = np.empty(cand.size, dtype=bool)
            for lo in range(0, cand.size, step):
                digits = spec.digits(cand[lo : lo + step])
                keep[lo : lo + step] = sum(x_j * w_j for x_j, w_j in zip(digits, w)) % r == 0
            cand = cand[keep]
        rest = rest[1:]
        if rest.size:  # extend the span only while S has characters outside it
            span = _span_with(spec, span, ci)
            in_span[span] = True
            rest = rest[~in_span[rest]]
    return GroupSet(spec, cand)
