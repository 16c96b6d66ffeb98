"""Chain certificates over tuple sets: levels with per-fibre density bounds.

A Chain records explicit level sets L_0, ..., L_k of tuples over a base set
A together with a density vector nu.  The three chain axioms are

  start        L_0 = {()}
  powers       L_i is a set of length-i tuples with entries in A
  fibre growth every prefix in L_{i-1} extends to L_i by at least nu_i |A|
               choices of next entry (prefixes outside L_{i-1} are free)

Levels are stored explicitly so verification is an exact counting scan;
sizes are capped because level sets grow like |A|^k.  The summed energy
of the top level walks chang's autocorrelation recurrence, the kernel
chang._autocorrelation_step, over the prefix tree of the top tuples.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain as _chain
from typing import Sequence

import numpy as np

from .chang import _autocorrelation, _autocorrelation_step
from .covering import verify_covered
from .functions import _INT64_BOUND, indicator
from .groups import GroupElement, GroupSpec, require_same_spec
from .sets import GroupSet, _pair_sums, k_fold_sum

__all__ = [
    "Chain",
    "ChainCheck",
    "EnergyBoundCheck",
    "MAX_CHAIN_K",
    "MAX_CHAIN_TUPLES",
    "verify_chain",
    "product_chain",
    "intersect_chains",
    "covering_chain",
    "chain_top_in_target",
    "energy_bound_check",
]

# Hard configuration limits; explicit tuple storage is the whole point of
# these certificates, so refuse anything that cannot be stored that way.
MAX_CHAIN_K = 4
MAX_CHAIN_TUPLES = 10**6


@dataclass(frozen=True)
class Chain:
    """Levels L_0..L_k of index tuples over `base`, with density vector nu."""

    base: GroupSet
    levels: tuple[frozenset[tuple[int, ...]], ...]
    nu: tuple[Fraction, ...]

    @property
    def k(self) -> int:
        return len(self.nu)

    @property
    def top(self) -> frozenset[tuple[int, ...]]:
        return self.levels[-1]


@dataclass(frozen=True)
class ChainCheck:
    """Result of verify_chain; on failure names the axiom and a witness."""

    ok: bool
    axiom: str | None = None
    level: int | None = None
    witness: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.ok


def _check_caps(base_size: int, k: int) -> None:
    if k > MAX_CHAIN_K:
        raise ValueError(f"chain depth {k} exceeds the hard cap {MAX_CHAIN_K}")
    if base_size**k > MAX_CHAIN_TUPLES:
        raise ValueError(
            f"level sets of up to {base_size}^{k} tuples exceed the cap {MAX_CHAIN_TUPLES}"
        )


def verify_chain(chain: Chain) -> ChainCheck:
    """Exact check of all three chain axioms, one pass per level.

    Once the powers axiom holds, the fibre of p in L_i is the number of t
    in L_i with t[:-1] == p, all counted by one Counter.  A failing level
    is scanned again in its own order only to name the witness.
    """
    A = chain.base.indices
    k = chain.k
    if len(chain.levels) != k + 1 or chain.levels[0] != frozenset({()}):
        return ChainCheck(False, "start", 0, None)
    for i in range(1, k + 1):
        level = chain.levels[i]
        if not (set(map(len, level)) <= {i} and A.issuperset(_chain.from_iterable(level))):
            bad = next(t for t in level if len(t) != i or any(e not in A for e in t))
            return ChainCheck(False, "powers", i, bad)
    for i in range(1, k + 1):
        need = math.ceil(chain.nu[i - 1] * len(A))  # c < nu |A| iff c < need
        prev = chain.levels[i - 1]
        fibres = Counter(t[:-1] for t in chain.levels[i])
        if min(map(fibres.__getitem__, prev), default=need) < need:
            bad = next(p for p in prev if fibres[p] < need)
            return ChainCheck(False, "fibre-growth", i, bad)
    return ChainCheck(True)


def product_chain(base: GroupSet, factors: Sequence[GroupSet]) -> Chain:
    """The chain with levels A_1 x ... x A_i and nu_i = |A_i| / |A|."""
    if not factors:
        raise ValueError("need at least one factor")
    for f in factors:
        require_same_spec(base, f)
        if not f.indices:
            raise ValueError("factors must be non-empty")
        if not f.issubset(base):
            raise ValueError("every factor must be a subset of the base set")
    _check_caps(len(base), len(factors))
    levels: list[frozenset[tuple[int, ...]]] = [frozenset({()})]
    for f in factors:
        prev = levels[-1]
        levels.append(frozenset(p + (a,) for p in prev for a in f.indices))
    nu = tuple(Fraction(len(f), len(base)) for f in factors)
    return Chain(base, tuple(levels), nu)


def intersect_chains(c1: Chain, c2: Chain) -> Chain:
    """Levelwise intersection; densities combine as nu = nu1 + nu2 - 1.

    Writing nu = 1 - eta, this is the fibre-wise inclusion-exclusion bound
    1 - (eta1 + eta2), which must stay positive.
    """
    if c1.base != c2.base or c1.k != c2.k:
        raise ValueError("chains must share base set and depth")
    nu = []
    for n1, n2 in zip(c1.nu, c2.nu):
        combined = n1 + n2 - 1
        if combined <= 0:
            raise ValueError(
                f"density budget exhausted: (1-{1-n1}) and (1-{1-n2}) leave {combined}"
            )
        nu.append(combined)
    levels = tuple(
        l1 & l2 for l1, l2 in zip(c1.levels, c2.levels)
    )
    return Chain(c1.base, levels, tuple(nu))


def covering_chain(
    A: GroupSet,
    X: GroupSet,
    delta: Fraction | int,
    x: GroupElement,
    S: Sequence[int] | frozenset[int],
    k: int,
) -> Chain:
    """Chain witnessing that most tuples a in A^k keep x + sum_{s in S} a_s
    inside the |S|-fold sumset of X plus A.

    Built by recursion on the largest element of S: below it the selected-
    position chain for S minus that element is reused, at it the membership
    test filters extensions, above it levels extend by full copies of A.
    Densities are nu_i = 1 - delta for i in S and 1 otherwise.
    """
    require_same_spec(A, X)
    require_same_spec(A, x)
    delta = Fraction(delta)
    if not 0 <= delta < 1:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    if x not in A:
        raise ValueError("x must belong to A")
    if not X.has_identity:
        raise ValueError("X must contain the identity")
    S = frozenset(int(s) for s in S)
    if S and (min(S) < 1 or max(S) > k):
        raise ValueError("S must be a subset of {1, ..., k}")
    _check_caps(len(A), k)
    covered, frac = verify_covered(A, X, delta)
    if not covered:
        raise ValueError(
            f"A is not (1-{delta})-covered by X (worst coverage fraction {frac})"
        )
    levels = _covering_levels(A, X, x.index, S, k)
    nu = tuple(Fraction(1) - delta * (1 if i in S else 0) for i in range(1, k + 1))
    return Chain(A, tuple(levels), nu)


def _partial_sums(
    spec: GroupSpec, x_idx: int, tuples: Sequence[tuple[int, ...]], positions: Sequence[int]
) -> np.ndarray:
    """Indices of x + sum_{pos in positions} t[pos], one per tuple t, one
    add_indices call per position."""
    total = np.full(len(tuples), x_idx, dtype=np.int64)
    for pos in positions:
        entries = np.array([t[pos] for t in tuples], dtype=np.int64)
        total = spec.add_indices(total, entries)
    return total


def _covering_levels(
    A: GroupSet, X: GroupSet, x_idx: int, S: frozenset[int], depth: int
) -> list[frozenset[tuple[int, ...]]]:
    """Levels L_0, ..., L_depth of the covering chain for S, max(S) <= depth."""
    spec = A.spec
    a_idx = A.index_array.tolist()
    if not S:
        levels: list[frozenset[tuple[int, ...]]] = [frozenset({()})]
        for _ in range(depth):
            prev = levels[-1]
            levels.append(frozenset(p + (a,) for p in prev for a in a_idx))
        return levels

    j = max(S)
    rest = S - {j}
    levels = _covering_levels(A, X, x_idx, rest, j - 1)

    target = np.zeros(spec.order, dtype=bool)
    target[(k_fold_sum(X, len(S)) + A).index_array] = True
    # x plus the earlier selected coordinates of each length-(j-1) prefix,
    # then plus every a in A: the prefixes are the rows of one pair-sum table
    prefixes = list(levels[j - 1])
    partial = _partial_sums(spec, x_idx, prefixes, sorted(s - 1 for s in rest))
    new_level: set[tuple[int, ...]] = set()
    for rows, cols, sums in _pair_sums(spec, partial, A.index_array):
        r, c = np.nonzero(target[sums])
        new_level.update(
            prefixes[i] + (a_idx[a],)
            for i, a in zip((r + rows.start).tolist(), (c + cols.start).tolist())
        )
    levels.append(frozenset(new_level))
    for _ in range(j + 1, depth + 1):
        prev = levels[-1]
        levels.append(frozenset(p + (a,) for p in prev for a in a_idx))
    return levels


def chain_top_in_target(
    A: GroupSet, X: GroupSet, x: GroupElement, S: Sequence[int] | frozenset[int], chain: Chain
) -> bool:
    """Re-derive membership of every top-level tuple from sumset arithmetic."""
    S = frozenset(int(s) for s in S)
    target = k_fold_sum(X, len(S)) + A
    totals = _partial_sums(A.spec, x.index, list(chain.top), [s - 1 for s in S])
    return bool(np.isin(totals, target.index_array).all())


@dataclass(frozen=True)
class EnergyBoundCheck:
    """Both sides of the summed-energy lower bound, plus audit data.

    kx_size, kxa_size and the |kX| * |A| product are recorded so the
    intermediate containment used in deriving the bound can be inspected,
    though only the final inequality is asserted anywhere.
    """

    lhs: Fraction
    rhs: Fraction
    holds: bool
    delta: Fraction
    eta: Fraction
    kx_size: int
    kxa_size: int
    kx_times_a: int
    precondition_failures: tuple[str, ...]


def energy_bound_check(
    A: GroupSet,
    X: GroupSet,
    chain: Chain,
    delta: Fraction | int,
    eta: Fraction | int | None = None,
) -> EnergyBoundCheck:
    """Check sum over top tuples of ||1_A * mu_a||_2^2 against
    (1-eta)^(2k) (1-delta)^(2k) |A|^(k+1) / |kX|.

    eta defaults to the largest per-level deficit 1 - nu_i of the chain.
    Precondition failures (parameter ranges, covering, chain validity,
    identity in X) are reported; both sides are computed regardless.
    """
    require_same_spec(A, X)
    delta = Fraction(delta)
    if eta is None:
        eta = max((1 - n for n in chain.nu), default=Fraction(0))
    eta = Fraction(eta)
    k = chain.k

    failures: list[str] = []
    if not 0 <= delta < Fraction(1, 2):
        failures.append(f"delta {delta} outside [0, 1/2)")
    if not 0 <= eta < Fraction(1, 2):
        failures.append(f"eta {eta} outside [0, 1/2)")
    if not X.has_identity:
        failures.append("identity not in X")
    if chain.base != A:
        failures.append("chain base differs from A")
    covered, frac = verify_covered(A, X, delta)
    if not covered:
        failures.append(f"A not (1-delta)-covered by X (worst fraction {frac})")
    check = verify_chain(chain)
    if not check.ok:
        failures.append(f"chain fails axiom {check.axiom} at level {check.level}")

    kx = k_fold_sum(X, k)
    kxa = kx + A
    lhs = _summed_energy(A, chain)
    rhs = (
        (1 - eta) ** (2 * k)
        * (1 - delta) ** (2 * k)
        * Fraction(len(A)) ** (k + 1)
        / len(kx)
    )
    return EnergyBoundCheck(
        lhs=lhs,
        rhs=rhs,
        holds=lhs >= rhs,
        delta=delta,
        eta=eta,
        kx_size=len(kx),
        kxa_size=len(kxa),
        kx_times_a=len(kx) * len(A),
        precondition_failures=tuple(failures),
    )


def _summed_energy(A: GroupSet, chain: Chain) -> Fraction:
    """Sum of ||1_A * mu_t||_2^2 over the top tuples t, on chang's
    autocorrelation recurrence.

    1_A * mu_p has integer numerators over 2^|p|; let N_p be their
    autocorrelation, so N_() = chang._autocorrelation(1_A) and a step along
    a is chang._autocorrelation_step.  The energy of p + (a,) is
    N_{p+(a,)}(0) / 4^(|p|+1) = (2 N_p(0) + N_p(a) + N_p(-a)) / 4^(|p|+1),
    so each length k of top tuples gives one Fraction(sum, 4**k): the
    sorted tuples are walked as a prefix tree with one N per depth, one
    kernel step per internal node and two gathers per parent of leaves.
    A valid chain's top has the one length chain.k.
    """
    by_length: dict[int, list[tuple[int, ...]]] = {}
    for t in chain.top:
        by_length.setdefault(len(t), []).append(t)
    if not by_length:
        return Fraction(0)
    N = _autocorrelation(indicator(A))
    return sum(
        (Fraction(_leaf_sum(A.spec, N, tuples, k), 4**k) for k, tuples in by_length.items()),
        Fraction(0),
    )


def _leaf_sum(spec: GroupSpec, N: np.ndarray, tuples: list[tuple[int, ...]], k: int) -> int:
    """4^k times the summed energy of `tuples`, all of length k, N the
    autocorrelation of 1_A (see _summed_energy)."""
    if k == 0:
        return len(tuples) * int(N[0])
    T = np.array(sorted(tuples), dtype=np.int64)
    bad = T[(T < 0) | (T >= spec.order)]
    if bad.size:
        raise ValueError(f"element index {bad[0]} out of range [0, {spec.order})")
    # N_p(0) <= |A| 4^|p| bounds every entry of N_p, and a parent's at most
    # |G| leaves add at most 4 N_p(0) each
    if spec.order * int(N[0]) * 4**k >= _INT64_BOUND:
        N = N.astype(object)
    last = T[:, -1]
    neg = spec.negate_indices(last)
    starts = np.flatnonzero(
        np.concatenate(([True], (T[1:, :-1] != T[:-1, :-1]).any(axis=1)))
    ).tolist()
    total = 0
    stack = [N]  # stack[d]: N of the first d entries of the current parent
    prev: list[int] = []
    for lo, hi in zip(starts, starts[1:] + [len(T)]):
        parent = T[lo, :-1].tolist()
        common = 0
        while common < len(prev) and prev[common] == parent[common]:
            common += 1
        del stack[common + 1 :]
        for a in parent[common:]:
            stack.append(_autocorrelation_step(spec, stack[-1], a)[0])
        Np = stack[-1]
        total += 2 * (hi - lo) * int(Np[0]) + int(Np[last[lo:hi]].sum()) + int(Np[neg[lo:hi]].sum())
        prev = parent
    return total
