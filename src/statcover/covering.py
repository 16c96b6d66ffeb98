"""Greedy covering algorithms and their exact verifiers.

statistical_cover builds a certificate by adding, in canonical order, any
translate whose overlap with the growing union falls short of the target
fraction; ruzsa_cover is the separate disjoint-translates argument (it is
not the delta = 1 specialization, whose add-condition is vacuous).
verify_iterated_cover checks the convolution-power lower bound that a
covering certificate implies.  All comparisons are exact rationals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import sets
from .functions import _brief, convolve, indicator
from .sets import GroupSet, k_fold_sum, own_translate_rows, sumset
from .groups import require_same_spec

__all__ = [
    "CoverCertificate",
    "IteratedCoverCheck",
    "statistical_cover",
    "ruzsa_cover",
    "verify_covered",
    "verify_iterated_cover",
]


@dataclass(frozen=True)
class CoverCertificate:
    """Output of statistical_cover, replayable step by step.

    trace lists the chosen elements in insertion order, so prefixes of the
    trace reproduce each intermediate stage; per_x_coverage maps every
    x in A to the exact count |(x+B) & (X+B)| at termination.
    """

    A: GroupSet
    B: GroupSet
    X: GroupSet
    delta: Fraction
    K: Fraction
    size_bound: Fraction
    per_x_coverage: dict[int, int]
    trace: tuple[int, ...]
    valid: bool

    def min_coverage(self) -> Fraction:
        worst = min(self.per_x_coverage.values())
        return Fraction(worst, len(self.B))


def _counts(rows: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """|row & mask| for each packed row, as int64, in blocks of sets._BLOCK_ENTRIES words."""
    step = max(1, sets._BLOCK_ENTRIES // rows.shape[1])
    return np.concatenate([
        np.bitwise_count(rows[i : i + step] & mask).sum(axis=1, dtype=np.int64)
        for i in range(0, len(rows), step)
    ])


def _popcount(mask: np.ndarray) -> int:
    return int(np.bitwise_count(mask).sum(dtype=np.int64))


_FIRST_WINDOW = 8  # rows counted at once right after an addition


def _first_fit(rows: np.ndarray, need: int, union: np.ndarray, start: int) -> list[int]:
    """Positions the first-fit greedy adds to `union` (updated in place).

    Scanning in order from `start`, a row is added when |row & union| <
    need.  The union only grows, so a row that was not added is never
    added later, and each scan resumes after the last addition; that is
    the same sequence as rescanning from the top at every step.  Rows are
    counted in windows that start at _FIRST_WINDOW rows after an addition
    and double while no row in them falls short, up to the block budget,
    so an addition costs at most twice the rows it scans plus one first
    window.
    """
    picked: list[int] = []
    cap = max(1, sets._BLOCK_ENTRIES // rows.shape[1])
    width = min(_FIRST_WINDOW, cap)
    i = start
    while i < len(rows):
        counts = np.bitwise_count(rows[i : i + width] & union).sum(axis=1)
        below = np.flatnonzero(counts < need)
        if not below.size:
            i += width
            width = min(2 * width, cap)
            continue
        i += int(below[0])
        picked.append(i)
        union |= rows[i]
        i += 1
        width = min(_FIRST_WINDOW, cap)
    return picked


def statistical_cover(A: GroupSet, B: GroupSet, delta: Fraction | int) -> CoverCertificate:
    """Greedy covering: X subset of A with |(x+B) & (X+B)| >= (1-delta)|B| for all x in A.

    The certificate always satisfies |X| <= (K-1)/delta + 1 with
    K = |A+B|/|B| compared as exact rationals.
    """
    require_same_spec(A, B)
    if not A.indices or not B.indices:
        raise ValueError("covering needs non-empty A and B")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {_brief(delta)}")

    a_sorted = A.index_array
    rows = own_translate_rows(B, a_sorted)
    need = (1 - delta) * len(B)
    # an integer count c has c < need exactly when c < ceil(need)
    union = rows[0].copy()
    picked = [0] + _first_fit(rows, math.ceil(need), union, 1)
    chosen = a_sorted[picked].tolist()

    K = Fraction(_popcount(np.bitwise_or.reduce(rows, axis=0)), len(B))
    bound = (K - 1) / delta + 1
    per_x = dict(zip(a_sorted.tolist(), _counts(rows, union).tolist()))
    valid = len(chosen) <= bound and min(per_x.values()) >= need
    if not valid:
        raise RuntimeError(
            "statistical covering invariant violated; this indicates a bug"
        )
    return CoverCertificate(
        A=A,
        B=B,
        X=GroupSet(A.spec, frozenset(chosen)),
        delta=delta,
        K=K,
        size_bound=bound,
        per_x_coverage=per_x,
        trace=tuple(chosen),
        valid=True,
    )


def ruzsa_cover(A: GroupSet, B: GroupSet) -> GroupSet:
    """Greedy maximal B-separated X inside A; guarantees A inside X + B - B.

    The translates {x + B : x in X} are pairwise disjoint, so
    |X| <= |A+B| / |B| holds exactly.
    """
    require_same_spec(A, B)
    if not A.indices or not B.indices:
        raise ValueError("covering needs non-empty A and B")
    rows = own_translate_rows(B, A.index_array)
    # a translate is added when it misses the union: |row & union| < 1
    picked = _first_fit(rows, 1, np.zeros_like(rows[0]), 0)
    X = GroupSet(A.spec, A.index_array[picked])
    if len(X) * len(B) > _popcount(np.bitwise_or.reduce(rows, axis=0)):
        raise RuntimeError("ruzsa covering size bound violated; this indicates a bug")
    covered = sumset(X, B) - B
    if not A.issubset(covered):
        raise RuntimeError("ruzsa covering postcondition violated; this indicates a bug")
    return X


def verify_covered(
    A: GroupSet,
    X: GroupSet,
    delta: Fraction | int,
    B: GroupSet | None = None,
) -> tuple[bool, Fraction]:
    """Is every translate x+B (x in A) covered by X+B in at least (1-delta)|B| points?

    Returns (holds, worst coverage fraction).  B defaults to A, the case
    the covering definition is stated for.
    """
    if B is None:
        B = A
    require_same_spec(A, B)
    require_same_spec(A, X)
    if not A.indices or not B.indices:
        raise ValueError("coverage check needs non-empty A and B")
    delta = Fraction(delta)
    xb = np.bitwise_or.reduce(own_translate_rows(B, X.index_array), axis=0)
    worst = int(_counts(own_translate_rows(B, A.index_array), xb).min())
    return (worst >= (1 - delta) * len(B), Fraction(worst, len(B)))


@dataclass(frozen=True)
class IteratedCoverCheck:
    """Both sides of the k-step covering inequality, computed exactly."""

    lhs: Fraction
    rhs: Fraction
    holds: bool
    precondition_failures: tuple[str, ...]


def verify_iterated_cover(
    A: GroupSet, X: GroupSet, delta: Fraction | int, k: int
) -> IteratedCoverCheck:
    """Check <1_A * ... * 1_A (k+1 factors), 1_{kX+A}> >= (1-delta)^k |A|^(k+1).

    Preconditions (A covered by X at level 1-delta, identity in X, k >= 0)
    are reported rather than raised; the inequality is computed either way.
    """
    require_same_spec(A, X)
    delta = Fraction(delta)
    failures: list[str] = []
    if k < 0:
        raise ValueError("k must be non-negative")
    if not A.indices:
        raise ValueError("A must be non-empty")
    if not X.has_identity:
        failures.append("identity not in X")
    covered, frac = verify_covered(A, X, delta)
    if not covered:
        failures.append(f"A is not (1-delta)-covered by X (worst fraction {frac})")

    one_a = indicator(A)
    conv = one_a
    for _ in range(k):
        conv = convolve(conv, one_a)
    target = k_fold_sum(X, k) + A
    lhs = conv.inner(indicator(target))
    rhs = (1 - delta) ** k * Fraction(len(A)) ** (k + 1)
    return IteratedCoverCheck(
        lhs=lhs, rhs=rhs, holds=lhs >= rhs, precondition_failures=tuple(failures)
    )
