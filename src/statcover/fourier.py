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

from .groups import Character, GroupSpec, _span_with
from .functions import RationalFunc
from .sets import GroupSet

__all__ = [
    "DualFunc",
    "CharSet",
    "dft",
    "spectrum",
    "annihilator",
    "DENSE_TRANSFORM_LIMIT",
    "SPECTRUM_GUARD",
]

# Above this order the transform switches from the dense character-matrix
# product to the per-coordinate mixed-radix factorization (numpy fftn); the
# two paths are cross-checked to 1e-9 in the test suite.
DENSE_TRANSFORM_LIMIT = 1024

# Relative guard band on the spectrum threshold; characters inside the band
# are included.  Over-inclusion only shrinks annihilators, which is the safe
# direction for every downstream containment and size bound.
SPECTRUM_GUARD = 1e-9


@dataclass(frozen=True, eq=False)
class DualFunc:
    """A complex-valued function on the dual group, indexed like Character."""

    spec: GroupSpec
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.values.shape != (self.spec.order,):
            raise ValueError("dual function must have one value per character")

    def value_at(self, gamma: Character) -> complex:
        return complex(self.values[gamma.index])


@dataclass(frozen=True)
class CharSet:
    """A set of characters, stored as a frozenset of character indices."""

    spec: GroupSpec
    indices: frozenset[int]

    def __post_init__(self) -> None:
        idx = frozenset(map(int, self.indices))
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
    grid = spec._grid.astype(np.float64)
    scaled = grid / np.asarray(spec.moduli, dtype=np.float64)
    phase = scaled @ grid.T
    return np.exp(-2j * np.pi * phase)


def dft(f: RationalFunc, *, force_dense: bool = False) -> DualFunc:
    """fhat(gamma) = sum_x f(x) conj(gamma(x)).

    Dense definition-style evaluation up to DENSE_TRANSFORM_LIMIT, the
    mixed-radix per-coordinate factorization beyond it.
    """
    spec = f.spec
    vals = np.zeros(spec.order, dtype=np.float64)
    # int / int is correctly rounded, so each entry is float(Fraction(n, den))
    den = f.den
    vals[f.support_array] = [n / den for n in f.num[f.support_array].tolist()]
    if force_dense or spec.order <= DENSE_TRANSFORM_LIMIT:
        out = _dft_matrix(spec) @ vals.astype(np.complex128)
    else:
        out = np.fft.fftn(vals.reshape(spec.moduli)).reshape(-1)
    return DualFunc(spec, out)


def spectrum(f: RationalFunc, eps: Fraction | float) -> CharSet:
    """Characters gamma with |fhat(gamma)| >= eps * l1norm(f).

    The comparison runs on squared magnitudes in double precision with a
    relative guard band of SPECTRUM_GUARD; borderline characters are kept.
    """
    eps_f = float(eps)
    if not 0.0 < eps_f <= 1.0:
        raise ValueError(f"spectrum threshold must lie in (0, 1], got {eps_f}")
    l1 = f.l1_norm()
    if l1 == 0:
        raise ValueError("spectrum of the zero function is undefined")
    fh = dft(f).values
    mag2 = fh.real * fh.real + fh.imag * fh.imag
    thr2 = (eps_f * float(l1)) ** 2 * (1.0 - SPECTRUM_GUARD)
    keep = np.nonzero(mag2 >= thr2)[0]
    return CharSet(f.spec, frozenset(keep.tolist()))


def annihilator(chars: CharSet) -> GroupSet:
    """{x : gamma(x) = 1 for all gamma}; always a subgroup.

    gamma(x) = 1 holds iff sum_j c_j x_j / m_j is an integer, decided by the
    exact congruence sum_j c_j x_j (r / m_j) = 0 mod r with r the exponent.
    Since Ann(S) = Ann(<S>), only a greedy generating set of <S> filters the
    candidates: each filter character is the least one of S outside the
    span of those before it, so each at least doubles the span and there
    are at most log2 |<S>| filter passes.
    """
    spec = chars.spec
    r = spec.exponent
    scale = np.array([r // m for m in spec.moduli], dtype=np.int64)
    cand = spec._arange
    grid = spec._grid
    rest = np.array(sorted(chars.indices - {0}), dtype=np.int64)
    span = np.zeros(1, dtype=np.int64)
    in_span = np.zeros(spec.order, dtype=bool)
    while cand.size > 1 and rest.size:
        ci = int(rest[0])
        w = (grid[ci] * scale) % r
        cand = cand[(grid[cand] @ w) % r == 0]
        rest = rest[1:]
        if rest.size:  # extend the span only while S has characters outside it
            span = _span_with(spec, span, ci)
            in_span[span] = True
            rest = rest[~in_span[rest]]
    return GroupSet(spec, frozenset(cand.tolist()))
