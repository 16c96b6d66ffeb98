"""Greedy covering algorithms and their exact verifiers.

statistical_cover builds a certificate by adding, in canonical order, any
translate whose overlap with the growing union falls short of the target
fraction; ruzsa_cover is the separate disjoint-translates argument (it is
not the delta = 1 specialization, whose add-condition is vacuous).
verify_iterated_cover checks the convolution-power lower bound that a
covering certificate implies.  All comparisons are exact, on integers or
rationals.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import or_

from .functions import _brief, convolve, indicator
from .sets import GroupSet, k_fold_sum, own_row_masks
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


def _first_fit(rows: list[int], need: int, union: int, start: int) -> tuple[list[int], int]:
    """Positions the first-fit greedy adds to `union`, and the grown union.

    Scanning in order from `start`, a row is added when |row & union| <
    need.  The union only grows, so a row that was not added is never
    added later, and one pass that reads each row once picks the same
    sequence as rescanning from the top at every step.
    """
    picked: list[int] = []
    for i in range(start, len(rows)):
        row = rows[i]
        if (row & union).bit_count() < need:
            picked.append(i)
            union |= row
    return picked, union


def statistical_cover(A: GroupSet, B: GroupSet, delta: Fraction | int) -> CoverCertificate:
    """Greedy covering: X subset of A with |(x+B) & (X+B)| >= (1-delta)|B| for all x in A.

    The certificate always satisfies |X| <= (K-1)/delta + 1 with
    K = |A+B|/|B|, decided exactly on integers.
    """
    require_same_spec(A, B)
    if not A.indices or not B.indices:
        raise ValueError("covering needs non-empty A and B")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {_brief(delta)}")

    a_sorted = A.index_array.tolist()
    rows = own_row_masks(B, A.index_array)
    b, p, q = len(B), delta.numerator, delta.denominator
    # a count c has c >= (1 - delta) b exactly when c q >= (q - p) b, that is
    # when c >= need = ceil((q - p) b / q)
    need = -(-(q - p) * b // q)
    picked, union = _first_fit(rows, need, rows[0], 1)
    chosen = [a_sorted[i] for i in [0] + picked]

    # with K = s / b, |X| <= (K - 1) / delta + 1 exactly when |X| b p <= (s - b) q + b p
    s = reduce(or_, rows).bit_count()
    per_x = {a: (row & union).bit_count() for a, row in zip(a_sorted, rows)}
    valid = len(chosen) * b * p <= (s - b) * q + b * p and min(per_x.values()) >= need
    if not valid:
        raise RuntimeError(
            "statistical covering invariant violated; this indicates a bug"
        )
    return CoverCertificate(
        A=A,
        B=B,
        X=GroupSet(A.spec, frozenset(chosen)),
        delta=delta,
        K=Fraction(s, b),
        size_bound=Fraction((s - b) * q + b * p, b * p),
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
    rows = own_row_masks(B, A.index_array)
    # a translate is added when it misses the union: |row & union| < 1
    picked, union = _first_fit(rows, 1, 0, 0)
    X = GroupSet(A.spec, A.index_array[picked])
    if len(X) * len(B) > reduce(or_, rows).bit_count():
        raise RuntimeError("ruzsa covering size bound violated; this indicates a bug")
    # a lies in X + B - B exactly when a + B meets X + B, the union
    if not all(row & union for row in rows):
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
    b, p, q = len(B), delta.numerator, delta.denominator
    # A's rows first: they build B's table when A lies in B, and X's rows
    # outside B (the identity of X.with_identity()) then read it
    rows = own_row_masks(B, A.index_array)
    xb = reduce(or_, own_row_masks(B, X.index_array), 0)
    worst = min((row & xb).bit_count() for row in rows)
    # worst >= (1 - delta) b, decided on integers for delta = p / q
    return (worst * q >= (q - p) * b, Fraction(worst, b))


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
