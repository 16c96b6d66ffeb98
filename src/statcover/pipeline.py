"""End-to-end structure pipeline for small-doubling sets.

Given A with doubling K, select a ratio-minimizing subset, build an almost
translation-invariant function in two stages, smooth it over the second
subgroup, bound the annihilator of the resulting large spectrum, and close
off with a second ratio minimization inside the near-invariant direction
set.  Every inequality the argument uses unconditionally is recomputed
exactly and recorded; asymptotic constants are reported, never asserted.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import sets
from .chang import ChangOutcome, chang_iterate, energy_floor_steps
from .covering import CoverCertificate, statistical_cover
from .fourier import PowerSpectrum, annihilator, power_spectrum, spectrum
from .functions import (
    RationalFunc,
    convolve,
    indicator,
    uniform_measure,
)
from .groups import GroupSpec, require_same_spec
from .sets import GroupSet, doubling_constant, subgroup_closure, sumset, translate_rows

__all__ = [
    "CheckRecord",
    "PetridisResult",
    "AlmostInvariantResult",
    "SpectrumBoundResult",
    "PipelineReport",
    "PipelineCheckError",
    "LemmaHypothesisError",
    "petridis_subset",
    "petridis_verify",
    "almost_invariant_pair",
    "annihilator_containment_check",
    "spec_annihilator_bound",
    "theorem_driver",
    "reverify_report",
]

EXHAUSTIVE_SUBSET_CAP = 18
# Most uint64 words in one block of the exhaustive Petridis table (512 KiB).
_SCAN_BLOCK_WORDS = 2**16
INVARIANCE_SCALE = 8  # covering parameter is the invariance parameter over this
N_RANDOM_C = 20  # random sets C of 1 to 8 elements in the Petridis family check


class PipelineCheckError(RuntimeError):
    """An unconditional pipeline check failed; carries the audit trail."""

    def __init__(self, message: str, checks: Sequence["CheckRecord"] = ()):
        super().__init__(message)
        self.checks = list(checks)


class LemmaHypothesisError(ValueError):
    """A stated hypothesis failed; distinct from a conclusion failing."""


@dataclass(frozen=True)
class CheckRecord:
    """One recorded inequality or containment with both sides kept exact."""

    name: str
    lhs: object
    rhs: object
    relation: str
    holds: bool
    detail: str = ""


@dataclass(frozen=True)
class PetridisResult:
    """A ratio-minimizing non-empty subset Z, with tie-break bookkeeping."""

    Z: GroupSet
    ratio: Fraction
    ties_broken: int
    mode: str
    candidates_scanned: int


def petridis_subset(
    A: GroupSet,
    cap: int = EXHAUSTIVE_SUBSET_CAP,
    *,
    within: GroupSet | None = None,
) -> PetridisResult:
    """Non-empty Z minimizing |A+Z| / |Z| over subsets of `within` (default A).

    A pool of at most `cap` elements is scanned exhaustively over all its
    non-empty subsets; a larger pool is scored over its singletons and the
    full pool only.  Ties break toward smaller |Z|, then the
    lexicographically least member list; ties_broken counts the other
    scored subsets that achieved the optimal ratio.

    The scan gives subset id bit i to elems[n - 1 - i], so among subsets of
    one size the larger id has the lexicographically smaller member list.
    The translates w + A are bitmasks over A + W packed into uint64 words,
    and the union of every subset is built by doubling,
    acc[2^i : 2^(i+1)] = acc[: 2^i] | row_i, one block of ids at a time;
    each block holds at most _SCAN_BLOCK_WORDS words.
    """
    if not 0 <= cap <= EXHAUSTIVE_SUBSET_CAP:
        raise ValueError(f"cap {cap} must lie in [0, {EXHAUSTIVE_SUBSET_CAP}]")
    within = A if within is None else within
    require_same_spec(A, within)
    if not A.indices or not within.indices:
        raise ValueError("A and the candidate pool must be non-empty")
    spec, elems = A.spec, sorted(within.indices)
    n = len(elems)
    if n > cap:
        # every singleton scores |A + {w}| / 1 = |A|, so one sumset decides
        # between the least singleton and the whole pool
        full, a = len(sumset(A, within)), len(A)
        if full < n * a:
            Z, ratio, ties = within, Fraction(full, n), 0
        else:
            Z, ratio = GroupSet(spec, frozenset(elems[:1])), Fraction(a)
            ties = n - 1 + (n > 1 and full == n * a)
        return PetridisResult(Z, ratio, ties, "singletons_and_A", n + (n > 1))

    shifted = np.stack([spec.shift_indices(A.index_array, w) for w in reversed(elems)])
    union, pos = np.unique(shifted, return_inverse=True)
    words = -(-len(union) // 64)
    bits = np.zeros((n, 64 * words), dtype=bool)
    bits[np.arange(n)[:, None], pos.reshape(n, -1)] = True
    rows = np.packbits(bits, axis=1).view(np.uint64)
    k = min(n, max(0, (_SCAN_BLOCK_WORDS // words).bit_length() - 1))
    low_size = np.bitwise_count(np.arange(1 << k, dtype=np.uint32))
    by_size = [np.flatnonzero(low_size == z) for z in range(k + 1)]
    acc = np.empty((1 << k, words), dtype=np.uint64)

    # per |Z|: least union size, how many ids reach it, and the largest such id
    least, count, top = [len(union) + 1] * (n + 1), [0] * (n + 1), [0] * (n + 1)
    for high in range(1 << (n - k)):
        high_bits = [k + i for i in range(n - k) if high >> i & 1]
        acc[0] = np.bitwise_or.reduce(rows[high_bits], axis=0)
        for i in range(k):
            np.bitwise_or(acc[: 1 << i], rows[i], out=acc[1 << i : 2 << i])
        sizes = np.bitwise_count(acc).sum(axis=1, dtype=np.uint32)
        for low_z, ids in enumerate(by_size):
            z, s = low_z + len(high_bits), sizes[ids]
            hits = np.flatnonzero(s == s.min())
            if s[hits[0]] < least[z]:
                least[z], count[z] = int(s[hits[0]]), 0
            if s[hits[0]] == least[z]:
                # later blocks and later ids are larger, so the last hit wins
                count[z] += len(hits)
                top[z] = high << k | int(ids[hits[-1]])

    ratio = min(Fraction(least[z], z) for z in range(1, n + 1))
    tied = [z for z in range(1, n + 1) if least[z] * ratio.denominator == ratio.numerator * z]
    members = frozenset(elems[n - 1 - i] for i in range(n) if top[tied[0]] >> i & 1)
    return PetridisResult(
        Z=GroupSet(spec, members),
        ratio=ratio,
        ties_broken=sum(count[z] for z in tied) - 1,
        mode="exhaustive",
        candidates_scanned=2**n - 1,
    )


def _union_sizes(B: GroupSet, family: Sequence[GroupSet]) -> np.ndarray:
    """|B + C| for each C in the family, from the packed rows of c + B.

    The members of every C are laid end to end and their rows built in
    chunks of at most sets._BLOCK_ENTRIES words.  Each chunk ORs together
    the rows of one C with one reduceat; a C cut by a chunk boundary carries
    its partial union into the next chunk.  An empty C has size 0.
    """
    members = [C.index_array for C in family]
    owner = np.repeat(np.arange(len(family)), [m.size for m in members])
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *members])
    words = -(-B.spec.order // 64)
    step = max(1, sets._BLOCK_ENTRIES // words)
    sizes = np.zeros(len(family), dtype=np.int64)
    carry = np.zeros(words, dtype="<u8")
    for s in range(0, flat.size, step):
        own = owner[s : s + step]
        starts = np.flatnonzero(np.diff(own, prepend=-1))
        unions = np.bitwise_or.reduceat(translate_rows(B, flat[s : s + step]), starts, axis=0)
        if s and own[0] == owner[s - 1]:
            unions[0] |= carry
        sizes[own[starts]] = np.bitwise_count(unions).sum(axis=1, dtype=np.int64)
        carry = unions[-1].copy()
    return sizes


def petridis_verify(
    A: GroupSet, Z: GroupSet, C_family: Sequence[GroupSet]
) -> bool:
    """Check |A+Z+C| <= K |Z+C| exactly for each C, with K = |A+Z| / |Z|.

    Every |A+Z+C| and |Z+C| is a union of packed translate rows
    (_union_sizes); an empty C holds trivially.
    """
    require_same_spec(A, Z)
    if not Z.indices:
        raise ValueError("Z must be non-empty")
    for C in C_family:
        require_same_spec(A, C)
    az = A + Z
    # |A+Z+C| |Z| <= |A+Z| |Z+C| for every C at once, in Python ints
    lhs = _union_sizes(az, C_family).astype(object) * len(Z)
    rhs = _union_sizes(Z, C_family).astype(object) * len(az)
    return bool(np.all(lhs <= rhs))


@dataclass(frozen=True)
class AlmostInvariantResult:
    """One stage of the construction: subgroup, function, good directions.

    f is the squared averaged indicator, supported on A + V; good collects
    every x in A whose translate moves f by at most eps of its l1 mass.
    """

    A: GroupSet
    eps: Fraction
    delta: Fraction
    cover: CoverCertificate
    X: GroupSet
    chang: ChangOutcome
    V: GroupSet
    f: RationalFunc
    good: GroupSet
    k_max: int
    checks: tuple[CheckRecord, ...]


def _stage_checks(stage: AlmostInvariantResult) -> list[CheckRecord]:
    A, f, V = stage.A, stage.f, stage.V
    spec = A.spec
    checks: list[CheckRecord] = []

    checks.append(
        CheckRecord(
            "cover-size-bound",
            len(stage.cover.X),
            stage.cover.size_bound,
            "<=",
            Fraction(len(stage.cover.X)) <= stage.cover.size_bound,
        )
    )
    witnesses = stage.chang.witnesses
    assert witnesses is not None
    checks.append(
        CheckRecord(
            "invariant-witness-count",
            len(witnesses),
            stage.delta * len(A),
            ">=",
            Fraction(len(witnesses)) >= stage.delta * len(A),
        )
    )
    floor = Fraction(len(A) ** 2, spec.order)
    worst = min(stage.chang.energies)
    checks.append(
        CheckRecord("energy-floor", worst, floor, ">=", worst >= floor)
    )
    support_ok = f.support_set().issubset(A + V)
    checks.append(
        CheckRecord(
            "function-support", len(f.support), len(A + V), "subset", support_ok
        )
    )
    cut = stage.eps * f.l1_norm()
    xs = sorted(witnesses.indices | stage.good.indices)
    moved = dict(zip(xs, f.translation_defects(xs)))
    bad = [x for x in sorted(witnesses.indices) if moved[x] > cut]
    checks.append(
        CheckRecord(
            "witnesses-near-invariant",
            len(witnesses) - len(bad),
            len(witnesses),
            "==",
            not bad,
            detail="witnesses must land in the good set",
        )
    )
    good_ok = all(moved[x] <= cut for x in stage.good.indices)
    checks.append(
        CheckRecord(
            "good-set-invariance",
            len(stage.good),
            len(A),
            "subset",
            good_ok and stage.good.issubset(A),
        )
    )
    return checks


def almost_invariant_pair(A: GroupSet, eps: Fraction | int) -> AlmostInvariantResult:
    """Build (V, f, good): f >= 0 supported on A + V, nearly fixed by good.

    Covering with parameter eps / INVARIANCE_SCALE, then the
    energy-decrement iteration on the indicator of A with kappa = eps^2/4
    and the covering parameter as the witness-density target.  The
    quarter-square choice is what the l2 -> l1 passage supports: for a
    witness x of the iteration,
    Cauchy-Schwarz gives ||f - tau_x f||_1 <= 2 ||g - tau_x g||_2 ||g||_2
    < 2 sqrt(kappa) ||g||_2^2 = eps ||f||_1, so every witness provably
    lands in the good set.  The energy floor guarantees the invariant
    outcome within the step cap, so the decrement branch never surfaces
    here; if it did it would be a bug, not an input condition.
    """
    if not A.indices:
        raise ValueError("A must be non-empty")
    eps = Fraction(eps)
    if not 0 < eps <= 1:
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    spec = A.spec
    delta = eps / INVARIANCE_SCALE

    cert = statistical_cover(A, A, delta)
    X = cert.X.with_identity()
    kappa = eps * eps / 4
    k_max = energy_floor_steps(spec.order, len(A), kappa) + 1
    outcome = chang_iterate(indicator(A), A, kappa, delta, k_max)
    if outcome.kind != "invariant":
        raise PipelineCheckError(
            "energy-decrement iteration exhausted its step cap; the energy "
            "floor makes this impossible, so this indicates a bug"
        )

    V = subgroup_closure(GroupSet(spec, frozenset(e.index for e in outcome.path)))
    f = outcome.func.square()
    cut = eps * f.l1_norm()
    xs = sorted(A.indices)
    good_idx = frozenset(x for x, d in zip(xs, f.translation_defects(xs)) if d <= cut)
    stage = AlmostInvariantResult(
        A=A,
        eps=eps,
        delta=delta,
        cover=cert,
        X=X,
        chang=outcome,
        V=V,
        f=f,
        good=GroupSet(spec, good_idx),
        k_max=k_max,
        checks=(),
    )
    checks = _stage_checks(stage)
    stage = replace(stage, checks=tuple(checks))
    failed = [c for c in checks if not c.holds]
    if failed:
        raise PipelineCheckError(
            f"stage checks failed: {[c.name for c in failed]}", checks
        )
    return stage


def _containment_hypotheses(g: RationalFunc, A: GroupSet, eps: Fraction | int) -> Fraction:
    """Verify the containment lemma's hypotheses exactly and return eps as
    a Fraction; raise LemmaHypothesisError naming the first that fails."""
    require_same_spec(g, A)
    eps = Fraction(eps)
    if g.is_zero():
        raise LemmaHypothesisError("g must not be identically zero")
    r = g.spec.exponent
    if r * eps > 1:
        raise LemmaHypothesisError(f"r * eps = {r * eps} exceeds 1")
    if eps <= 0:
        raise LemmaHypothesisError("eps must be positive")
    cut = eps * g.l1_norm()
    xs = sorted(A.indices)
    for a, moved in zip(xs, g.translation_defects(xs)):
        if moved > cut:
            raise LemmaHypothesisError(
                f"translate by element index {a} moves g by {moved} > eps * l1"
            )
    return eps


def annihilator_containment_check(
    g: RationalFunc, A: GroupSet, eps: Fraction | int
) -> bool:
    """Do all of A's characters fix g's large spectrum, i.e. is A inside
    the annihilator of the (r * eps)-spectrum of g?

    Hypotheses (g nonzero, every a in A moves g by at most eps of its l1
    mass, r * eps <= 1) are verified exactly and raise LemmaHypothesisError
    on failure; the return value reports only the conclusion.
    """
    eps = _containment_hypotheses(g, A, eps)
    return A.issubset(annihilator(spectrum(g, g.spec.exponent * eps)))


@dataclass(frozen=True)
class SpectrumBoundResult:
    """Annihilator size of the doubling-scaled spectrum vs 4 K |A|."""

    size: int
    bound: Fraction
    holds: bool
    threshold: float
    K: Fraction
    spectrum_size: int


def _bound_hypotheses(
    A: GroupSet, A_prime: GroupSet, h: RationalFunc, g: RationalFunc, eps: Fraction | int
) -> Fraction:
    """Verify the spectrum-bound hypotheses exactly and return eps as a
    Fraction; raise LemmaHypothesisError naming the first that fails."""
    require_same_spec(A, A_prime)
    require_same_spec(A, h)
    require_same_spec(A, g)
    eps = Fraction(eps)
    if not 0 < eps <= Fraction(1, 2):
        raise LemmaHypothesisError(f"eps must lie in (0, 1/2], got {eps}")
    if h.is_zero() or not h.is_nonnegative():
        raise LemmaHypothesisError("h must be non-negative and not identically zero")
    if not h.support_set().issubset(A):
        raise LemmaHypothesisError("h must be supported on A")
    if g.is_zero() or not g.is_nonnegative():
        raise LemmaHypothesisError("g must be non-negative and not identically zero")
    if not g.support_set().issubset(A_prime):
        raise LemmaHypothesisError("g must be supported on A_prime")
    cut = eps * h.l1_norm()
    xs = sorted(A_prime.indices)
    for a, moved in zip(xs, h.translation_defects(xs)):
        if moved > cut:
            raise LemmaHypothesisError(
                f"translate by element index {a} moves h by more than eps * l1"
            )
    return eps


def _bound_from(
    A: GroupSet, eps: Fraction, power: PowerSpectrum
) -> tuple[SpectrumBoundResult, GroupSet]:
    """The spectrum bound from g's power spectrum, with the annihilator."""
    K = doubling_constant(A)
    threshold = 1.0 / (4.0 * float(K) ** (2.0 * float(eps)))
    spec_set = power.cut(threshold)
    ann = annihilator(spec_set)
    bound = 4 * K * len(A)
    result = SpectrumBoundResult(
        size=len(ann),
        bound=bound,
        holds=Fraction(len(ann)) <= bound,
        threshold=threshold,
        K=K,
        spectrum_size=len(spec_set),
    )
    return result, ann


def spec_annihilator_bound(
    A: GroupSet,
    A_prime: GroupSet,
    h: RationalFunc,
    g: RationalFunc,
    eps: Fraction | int,
) -> SpectrumBoundResult:
    """Check |annihilator(Spec_{1/(4 K^(2 eps))}(g))| <= 4 K |A|.

    K is the exact doubling ratio of A; the threshold K^(2 eps) is evaluated
    in double precision under the over-inclusive spectrum policy, which can
    only shrink the annihilator.  All hypotheses are verified exactly.
    """
    eps = _bound_hypotheses(A, A_prime, h, g, eps)
    return _bound_from(A, eps, power_spectrum(g))[0]


def _rationalize(x: float) -> Fraction:
    return Fraction(x).limit_denominator(10**9)


def _audit_trail(
    stage1: Sequence[CheckRecord],
    stage2: Sequence[CheckRecord],
    driver: Sequence[CheckRecord],
) -> list[CheckRecord]:
    """Stage checks under their stage1-/stage2- names, then the driver checks."""
    out = [replace(c, name=f"stage1-{c.name}") for c in stage1]
    out += [replace(c, name=f"stage2-{c.name}") for c in stage2]
    return out + list(driver)


@dataclass(frozen=True)
class PipelineReport:
    """Full audit trail of one driver run; all named objects are kept so
    every recorded inequality can be recomputed from the report alone."""

    A: GroupSet
    K: Fraction
    epsilon: Fraction
    eta: Fraction
    petridis: PetridisResult
    stage1: AlmostInvariantResult
    stage2: AlmostInvariantResult
    h: RationalFunc
    support_set: GroupSet
    invariance_set: GroupSet
    spectrum_bound: SpectrumBoundResult
    loose_threshold: float
    loose_annihilator: GroupSet
    final_petridis: PetridisResult
    V3: GroupSet
    coset_count: int
    closure: GroupSet
    ratio: Fraction
    headline_comparison: float
    seed: int
    n_random_C: int
    checks: tuple[CheckRecord, ...] = field(default=())

    @property
    def Z(self) -> GroupSet:
        return self.petridis.Z

    @property
    def Z1(self) -> GroupSet:
        return self.stage1.good

    @property
    def Z2(self) -> GroupSet:
        return self.stage2.good

    @property
    def Z3(self) -> GroupSet:
        return self.final_petridis.Z

    def all_checks(self) -> list[CheckRecord]:
        return _audit_trail(self.stage1.checks, self.stage2.checks, self.checks)


def _random_c_family(
    spec: GroupSpec, seed: int, count: int, extra: Sequence[GroupSet]
) -> list[GroupSet]:
    rng = random.Random(seed)
    family: list[GroupSet] = []
    n_singletons = min(spec.order, 64)
    for i in rng.sample(range(spec.order), n_singletons):
        family.append(GroupSet(spec, frozenset([i])))
    for _ in range(count):
        size = rng.randint(1, min(8, spec.order))
        family.append(GroupSet(spec, frozenset(rng.sample(range(spec.order), size))))
    family.extend(extra)
    return family


def _driver_checks(report: PipelineReport) -> list[CheckRecord]:
    """Recompute every driver-level inequality from the report's objects."""
    A = report.A
    spec = A.spec
    K = report.K
    eps = report.epsilon
    eta = report.eta
    Z = report.Z
    V = report.stage1.V
    V1 = report.stage2.V
    f = report.stage1.f
    g = report.stage2.f
    h = report.h
    checks: list[CheckRecord] = []

    ratio = report.petridis.ratio
    checks.append(CheckRecord("petridis-ratio-vs-doubling", ratio, K, "<=", ratio <= K))
    zz = len(Z + Z)
    checks.append(
        CheckRecord("z-plus-z-doubling", zz, K * len(Z), "<=", Fraction(zz) <= K * len(Z))
    )

    W = V + V1
    T = Z + V + V1
    checks.append(
        CheckRecord(
            "support-set-recorded",
            len(report.support_set),
            len(T),
            "==",
            report.support_set.indices == T.indices,
            detail="recorded support set equals Z + V + V'",
        )
    )
    inv_set = report.stage1.good + V1
    checks.append(
        CheckRecord(
            "invariance-set-recorded",
            len(report.invariance_set),
            len(inv_set),
            "==",
            report.invariance_set.indices == inv_set.indices,
            detail="recorded invariance set equals Z' + V'",
        )
    )

    xs = sorted(V1.indices | report.invariance_set.indices)
    moved_by = dict(zip(xs, h.translation_defects(xs)))
    fixed = sum(1 for v in V1.indices if moved_by[v] == 0)
    checks.append(
        CheckRecord(
            "h-subgroup-invariance",
            fixed,
            len(V1),
            "==",
            fixed == len(V1),
            detail="h is exactly fixed by every V' translate",
        )
    )

    l1f = f.l1_norm()
    worst_move = max((moved_by[z] for z in report.invariance_set.indices), default=Fraction(0))
    checks.append(
        CheckRecord(
            "h-translate-invariance",
            worst_move,
            eps * l1f,
            "<=",
            worst_move <= eps * l1f,
        )
    )
    checks.append(
        CheckRecord(
            "h-support",
            len(h.support),
            len(T),
            "subset",
            h.support_set().issubset(T),
        )
    )

    tt = len(T + T)
    azw = len(A + Z + W)
    zw = len(Z + W)
    checks.append(CheckRecord("support-set-doubling-le-sum", tt, azw, "<=", tt <= azw))
    checks.append(
        CheckRecord(
            "petridis-consequence",
            azw,
            K * zw,
            "<=",
            Fraction(azw) <= K * zw,
            detail="ratio-minimizer consequence instantiated at C = V + V'",
        )
    )

    family = _random_c_family(spec, report.seed, report.n_random_C, [W])
    fam_ok = petridis_verify(A, Z, family)
    checks.append(
        CheckRecord(
            "petridis-family",
            int(fam_ok),
            1,
            "==",
            fam_ok,
            detail=f"{len(family)} sampled sets, all singleton translates included",
        )
    )

    sb = report.spectrum_bound
    checks.append(
        CheckRecord(
            "spectrum-annihilator-bound", sb.size, sb.bound, "<=", sb.holds
        )
    )

    K_role = doubling_constant(T)
    regime = float(K_role) ** (2.0 * float(eps)) <= math.sqrt(math.e)
    checks.append(
        CheckRecord(
            "loose-threshold-regime",
            float(K_role) ** (2.0 * float(eps)),
            math.sqrt(math.e),
            "<=",
            regime,
            detail="doubling of the support set stays within the loose threshold",
        )
    )

    # one annihilator at r * eta serves the recorded-loose recheck and the
    # containment check, whose threshold is r * eta too
    loose = spec.exponent * eta
    _containment_hypotheses(g, report.Z2, eta)
    loose_ann = annihilator(spectrum(g, loose))
    checks.append(
        CheckRecord(
            "loose-annihilator-recorded",
            len(report.loose_annihilator),
            len(loose_ann),
            "==",
            report.loose_threshold == float(loose)
            and report.loose_annihilator.indices == loose_ann.indices,
        )
    )
    checks.append(
        CheckRecord(
            "loose-annihilator-bound",
            len(loose_ann),
            4 * K * len(T),
            "<=",
            Fraction(len(loose_ann)) <= 4 * K * len(T),
        )
    )

    checks.append(
        CheckRecord(
            "annihilator-containment",
            len(report.Z2),
            len(loose_ann),
            "subset",
            report.Z2.issubset(loose_ann),
        )
    )
    gen2 = subgroup_closure(report.Z2)
    checks.append(
        CheckRecord(
            "generated-subgroup-in-annihilator",
            len(gen2),
            len(loose_ann),
            "subset",
            gen2.issubset(loose_ann),
        )
    )

    K3 = report.final_petridis.ratio
    az2 = Fraction(len(A + report.Z2), len(report.Z2))
    checks.append(
        CheckRecord("final-petridis-ratio", K3, az2, "<=", K3 <= az2)
    )
    Z3, V3 = report.Z3, report.V3
    checks.append(
        CheckRecord(
            "v3-is-generated-subgroup",
            len(V3),
            len(subgroup_closure(Z3)),
            "==",
            V3.indices == subgroup_closure(Z3).indices,
        )
    )
    checks.append(
        CheckRecord(
            "v3-in-annihilator", len(V3), len(loose_ann), "subset",
            V3.issubset(loose_ann),
        )
    )
    z3v3 = Z3 + V3
    checks.append(
        CheckRecord(
            "z3-v3-collapse", len(z3v3), len(V3), "==", z3v3.indices == V3.indices
        )
    )
    av3 = A + V3
    az3v3 = A + Z3 + V3
    checks.append(
        CheckRecord(
            "a-z3-v3-collapse", len(az3v3), len(av3), "==",
            az3v3.indices == av3.indices,
        )
    )
    checks.append(
        CheckRecord(
            "final-petridis-consequence",
            len(az3v3),
            K3 * len(z3v3),
            "<=",
            Fraction(len(az3v3)) <= K3 * len(z3v3),
            detail="ratio-minimizer consequence instantiated at C = V'''",
        )
    )
    divisible = len(av3) % len(V3) == 0
    checks.append(
        CheckRecord(
            "a-plus-v3-divisible", len(av3) % len(V3), 0, "==", divisible
        )
    )
    t = len(av3) // len(V3)
    checks.append(
        CheckRecord(
            "coset-count-recorded", report.coset_count, t, "==", report.coset_count == t
        )
    )
    checks.append(
        CheckRecord("coset-count-bound", t, K3, "<=", Fraction(t) <= K3)
    )

    closure = subgroup_closure(A)
    checks.append(
        CheckRecord(
            "closure-recorded",
            len(report.closure),
            len(closure),
            "==",
            report.closure.indices == closure.indices,
        )
    )
    r = spec.exponent
    tight = r**t * len(V3)
    checks.append(
        CheckRecord(
            "closure-size-bound",
            len(closure),
            tight,
            "<=",
            len(closure) <= tight,
            detail="coset representatives generate at most r^t classes over V'''",
        )
    )
    loose_size = r ** (t + len(Z3))
    checks.append(
        CheckRecord(
            "closure-size-consistency",
            len(closure),
            loose_size,
            "<=",
            len(closure) <= loose_size,
            detail="exponent power in generators of V''' plus coset count",
        )
    )
    checks.append(
        CheckRecord(
            "final-ratio-recorded",
            report.ratio,
            Fraction(len(closure), len(A)),
            "==",
            report.ratio == Fraction(len(closure), len(A)),
        )
    )
    return checks


def _headline_comparison(K: float) -> float:
    """exp(K log(2K)^2), or inf once it leaves the float range (from K = 37.9)."""
    try:
        return math.exp(K * math.log(2.0 * K) ** 2)
    except OverflowError:
        return math.inf


def theorem_driver(
    A: GroupSet,
    *,
    petridis_cap: int = EXHAUSTIVE_SUBSET_CAP,
    seed: int = 0,
) -> PipelineReport:
    """Run the full structure argument on A and return the audited report.

    Parameter choices: the first-stage invariance parameter is
    1 / (4 log 2K), the second-stage one is 1 / (4 r sqrt(e)) with r the
    group exponent; both are fixed as nearby exact rationals so that all
    downstream comparisons stay exact.  Any unconditional check failing
    raises PipelineCheckError with the audit trail attached.
    """
    if not A.indices:
        raise ValueError("A must be non-empty")
    spec = A.spec
    K = doubling_constant(A)
    eps = _rationalize(1.0 / (4.0 * math.log(2.0 * float(K))))
    r = spec.exponent
    eta = _rationalize(1.0 / (4.0 * r * math.sqrt(math.e)))

    pet = petridis_subset(A, petridis_cap)
    Z = pet.Z

    stage1 = almost_invariant_pair(Z, eps)
    Z1 = stage1.good
    stage2 = almost_invariant_pair(Z1, eta)
    V, V1 = stage1.V, stage2.V
    f, g = stage1.f, stage2.f

    h = convolve(f, uniform_measure(V1))
    T = Z + V + V1
    inv_set = Z1 + V1

    # one transform of g serves both thresholds; the cuts are nested, so
    # cuts of one size are one set and share an annihilator
    _bound_hypotheses(T, inv_set, h, g, eps)
    power = power_spectrum(g)
    sb, sb_ann = _bound_from(T, eps, power)
    loose_threshold = float(r * eta)
    loose_chars = power.cut(loose_threshold)
    loose_ann = sb_ann if len(loose_chars) == sb.spectrum_size else annihilator(loose_chars)

    Z2 = stage2.good
    pet3 = petridis_subset(A, petridis_cap, within=Z2)
    V3 = subgroup_closure(pet3.Z)
    av3 = A + V3
    coset_count = len(av3) // len(V3)

    closure = subgroup_closure(A)
    ratio = Fraction(len(closure), len(A))
    headline = _headline_comparison(float(K))

    report = PipelineReport(
        A=A,
        K=K,
        epsilon=eps,
        eta=eta,
        petridis=pet,
        stage1=stage1,
        stage2=stage2,
        h=h,
        support_set=T,
        invariance_set=inv_set,
        spectrum_bound=sb,
        loose_threshold=loose_threshold,
        loose_annihilator=loose_ann,
        final_petridis=pet3,
        V3=V3,
        coset_count=coset_count,
        closure=closure,
        ratio=ratio,
        headline_comparison=headline,
        seed=seed,
        n_random_C=N_RANDOM_C,
    )
    checks = _driver_checks(report)
    report = replace(report, checks=tuple(checks))
    failed = [c for c in report.all_checks() if not c.holds]
    if failed:
        raise PipelineCheckError(
            f"pipeline checks failed: {[c.name for c in failed]}",
            report.all_checks(),
        )
    return report


def reverify_report(report: PipelineReport) -> list[CheckRecord]:
    """Recompute every recorded check from the report's stored objects."""
    return _audit_trail(
        _stage_checks(report.stage1), _stage_checks(report.stage2), _driver_checks(report)
    )
