"""Parameterized verification sweeps over generated instance families.

Each suite runs one family of checks over seeded instances and returns a
SuiteResult listing every failure; the CLI wires these into the
verify-lemmas command and the acceptance tests run them at full scale.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations

from .chains import (
    chain_top_in_target,
    covering_chain,
    energy_bound_check,
    intersect_chains,
    product_chain,
    verify_chain,
)
from .chang import chang_iterate, decrement_check, energy_floor_steps, invariant_set
from .covering import CoverCertificate, ruzsa_cover, statistical_cover, verify_covered
from .fourier import annihilator, dft, spectrum
from .functions import RationalFunc, convolve, indicator, uniform_measure
from .groups import GroupSpec, closure_indices
from .pipeline import (
    annihilator_containment_check,
    petridis_subset,
    petridis_verify,
    spec_annihilator_bound,
    theorem_driver,
)
from .sets import GroupSet, generate_instance, k_fold_sum, subgroup_closure

__all__ = [
    "SuiteResult",
    "default_group_pool",
    "covering_instances",
    "covering_suite",
    "ruzsa_suite",
    "iterated_cover_suite",
    "chain_suite",
    "energy_suite",
    "chang_suite",
    "fourier_suite",
    "duality_suite",
    "containment_suite",
    "petridis_suite",
    "pipeline_suite",
    "run_all_suites",
]

FAMILIES = ("random", "independent", "subgroup", "coset_union")


@dataclass
class SuiteResult:
    """Outcome of one sweep: how many checks ran and which ones failed."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, passed: bool, label: str) -> None:
        self.checks += 1
        if not passed:
            self.failures.append(label)

    def summary(self) -> str:
        state = "pass" if self.ok else f"FAIL ({len(self.failures)})"
        return f"{self.name}: {self.checks} checks, {state}, {self.elapsed:.1f}s"


def default_group_pool(max_order: int = 2048) -> list[GroupSpec]:
    """Assorted products of cyclic groups covering ranks and exponents."""
    moduli = [
        (7,),
        (16,),
        (2, 2, 2),
        (2, 4),
        (3, 3),
        (12,),
        (5, 5),
        (2, 4, 8),
        (6, 6),
        (64,),
        (2,) * 5,
        (2,) * 8,
        (2,) * 11,
        (3, 3, 3),
        (3,) * 6,
        (4, 4, 4),
        (16, 16),
        (2, 3, 5, 7),
        (9, 9),
        (12, 12),
        (32, 64),
        (2048,),
        (8, 8, 8),
        (3, 4, 5),
        (10, 10),
    ]
    pool = [GroupSpec(m) for m in moduli]
    return [s for s in pool if s.order <= max_order]


def _instance_for(family: str, spec: GroupSpec, seed: int) -> GroupSet:
    rng = random.Random(seed)
    if family == "random":
        lo = min(3, spec.order)
        hi = max(lo, min(36, spec.order // 2))
        size = min(rng.randint(lo, hi), spec.order)
        return generate_instance("random", spec, size=size, seed=seed)
    if family == "independent":
        return generate_instance("independent", spec, seed=seed)
    if family == "subgroup":
        return generate_instance(
            "subgroup", spec, n_generators=rng.randint(1, 3), max_size=128, seed=seed
        )
    if family == "coset_union":
        return generate_instance(
            "coset_union",
            spec,
            n_generators=rng.randint(1, 2),
            n_cosets=rng.randint(2, 4),
            max_size=64,
            seed=seed,
        )
    raise ValueError(f"unknown family {family!r}")


def covering_instances(
    families: tuple[str, ...] = FAMILIES,
    per_family: int = 200,
    seed: int = 1,
    pool: list[GroupSpec] | None = None,
) -> list[tuple[str, GroupSet]]:
    """Deterministic labelled instances cycling through the group pool."""
    pool = pool or default_group_pool()
    out: list[tuple[str, GroupSet]] = []
    for family in families:
        for i in range(per_family):
            spec = pool[i % len(pool)]
            inst_seed = seed * 1_000_003 + i
            A = _instance_for(family, spec, inst_seed)
            out.append((f"{family}/{spec!r}/seed{inst_seed}", A))
    return out


def covering_suite(
    instances: list[tuple[str, GroupSet]],
    deltas: tuple[Fraction, ...] = (
        Fraction(1, 10),
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(3, 4),
    ),
) -> tuple[SuiteResult, list[tuple[str, CoverCertificate]]]:
    """Certificate size bound and coverage replay for every instance/delta."""
    res = SuiteResult("statistical-covering")
    t0 = time.time()
    certs: list[tuple[str, CoverCertificate]] = []
    for label, A in instances:
        for delta in deltas:
            cert = statistical_cover(A, A, delta)
            certs.append((label, cert))
            res.record(
                Fraction(len(cert.X)) <= cert.size_bound,
                f"{label} delta={delta}: |X|={len(cert.X)} > {cert.size_bound}",
            )
            ok, frac = verify_covered(A, cert.X, delta)
            res.record(ok, f"{label} delta={delta}: coverage replay {frac}")
    res.elapsed = time.time() - t0
    return res, certs


def ruzsa_suite(instances: list[tuple[str, GroupSet]]) -> SuiteResult:
    """Disjoint translates, size bound, and difference-cover containment."""
    res = SuiteResult("ruzsa-covering")
    t0 = time.time()
    for label, A in instances:
        X = ruzsa_cover(A, A)
        XA = X + A
        # translates of equal size |A| are pairwise disjoint iff |X + A| = |X| |A|
        res.record(len(XA) == len(X) * len(A), f"{label}: translates overlap")
        res.record(
            len(X) * len(A) <= len(A + A),
            f"{label}: |X|={len(X)} exceeds |A+A|/|A|",
        )
        res.record(
            A.issubset(XA - A), f"{label}: A not inside X + A - A"
        )
    res.elapsed = time.time() - t0
    return res


def iterated_cover_suite(
    instances: list[tuple[str, GroupSet]],
    deltas: tuple[Fraction, ...],
    ks: tuple[int, ...] = (1, 2, 3),
    max_set_size: int = 10,
) -> SuiteResult:
    """Convolution-power lower bound for small-set certificates.

    Convolution powers of the indicator are shared across deltas and ks,
    and the covering set gains the identity so the inequality's stated
    preconditions hold.
    """
    res = SuiteResult("iterated-cover")
    t0 = time.time()
    for label, A in instances:
        if len(A) > max_set_size:
            continue
        one_a = indicator(A)
        powers = {1: one_a}
        for k in range(1, max(ks) + 1):
            powers[k + 1] = convolve(powers[k], one_a)
        for delta in deltas:
            cert = statistical_cover(A, A, delta)
            X = cert.X.with_identity()
            ok, _ = verify_covered(A, X, delta)
            res.record(ok, f"{label} delta={delta}: enlarged X lost coverage")
            for k in ks:
                lhs = powers[k + 1].inner(indicator(k_fold_sum(X, k) + A))
                rhs = (1 - delta) ** k * Fraction(len(A)) ** (k + 1)
                res.record(
                    lhs >= rhs,
                    f"{label} delta={delta} k={k}: {lhs} < {rhs}",
                )
    res.elapsed = time.time() - t0
    return res


def _chain_cardinality_ok(chain) -> bool:
    lower = Fraction(len(chain.base)) ** chain.k
    for nu in chain.nu:
        lower *= nu
    return Fraction(len(chain.top)) >= lower


def _chain_bases(
    n_instances: int, seed: int, max_size: int, pool: list[GroupSpec] | None = None
) -> list[tuple[str, GroupSet, Fraction, GroupSet]]:
    """(label, A, delta, X) bases with A (1-delta)-covered by X containing 0."""
    pool = pool or [
        GroupSpec((7,)),
        GroupSpec((2, 4)),
        GroupSpec((3, 3)),
        GroupSpec((12,)),
        GroupSpec((2, 2, 2)),
        GroupSpec((16,)),
    ]
    out = []
    for i in range(n_instances):
        spec = pool[i % len(pool)]
        rng = random.Random(seed * 7919 + i)
        size = rng.randint(3, min(max_size, spec.order - 1))
        A = generate_instance("random", spec, size=size, seed=seed * 7919 + i)
        delta = (Fraction(1, 4), Fraction(1, 10))[i % 2]
        X = statistical_cover(A, A, delta).X.with_identity()
        out.append((f"{spec!r}/seed{seed * 7919 + i}", A, delta, X))
    return out


def _chain_family(A: GroupSet, X: GroupSet, delta: Fraction, k: int, seed: int):
    """The length-k chains that the chain and energy sweeps enumerate for one base.

    Returns (covering, width, p1, p2, inter): covering lists (S, x, chain)
    for every selection set S and every shift x in A; p1 is the product
    chain over k copies of the first `width` elements of A and p2 the one
    over k seeded samples of `width` elements; inter is their intersection
    when every summed fibre density exceeds one, else None.
    """
    covering = [
        (S, x, covering_chain(A, X, delta, x, S, k))
        for r in range(k + 1)
        for S in map(frozenset, combinations(range(1, k + 1), r))
        for x in A
    ]
    rng = random.Random(seed * 393241 + k * 17 + len(A))
    idx = sorted(A.indices)
    width = len(idx) // 2 + 1
    p1 = product_chain(A, [GroupSet(A.spec, frozenset(idx[:width]))] * k)
    p2 = product_chain(
        A, [GroupSet(A.spec, frozenset(rng.sample(idx, width))) for _ in range(k)]
    )
    inter = None
    if all(n1 + n2 > 1 for n1, n2 in zip(p1.nu, p2.nu)):
        inter = intersect_chains(p1, p2)
    return covering, width, p1, p2, inter


def chain_suite(n_instances: int = 6, seed: int = 1, k_max: int = 3) -> SuiteResult:
    """Exhaustive chain constructions: every S, every shift, small bases."""
    res = SuiteResult("chain-certificates")
    t0 = time.time()
    for label, A, delta, X in _chain_bases(n_instances, seed, max_size=5):
        for k in range(1, k_max + 1):
            covering, width, p1, p2, inter = _chain_family(A, X, delta, k, seed)
            for S, x, ch in covering:
                res.record(
                    verify_chain(ch).ok,
                    f"{label} k={k} S={sorted(S)} x={x!r}: axioms fail",
                )
                res.record(
                    _chain_cardinality_ok(ch),
                    f"{label} k={k} S={sorted(S)} x={x!r}: cardinality",
                )
                res.record(
                    chain_top_in_target(A, X, x, S, ch),
                    f"{label} k={k} S={sorted(S)} x={x!r}: top outside target",
                )
            for tag, ch in (("slice", p1), ("sampled", p2)):
                res.record(verify_chain(ch).ok, f"{label} k={k} product/{tag}: axioms")
                res.record(
                    _chain_cardinality_ok(ch), f"{label} k={k} product/{tag}: cardinality"
                )
            expect = width**k
            res.record(
                len(p1.top) == expect,
                f"{label} k={k}: product top size {len(p1.top)} != {expect}",
            )
            if inter is not None:
                res.record(
                    verify_chain(inter).ok, f"{label} k={k} intersection: axioms"
                )
                res.record(
                    _chain_cardinality_ok(inter),
                    f"{label} k={k} intersection: cardinality",
                )
                sub = all(
                    li <= l1 and li <= l2
                    for li, l1, l2 in zip(inter.levels, p1.levels, p2.levels)
                )
                res.record(sub, f"{label} k={k} intersection: not a sub-chain")
    res.elapsed = time.time() - t0
    return res


def energy_suite(
    n_exhaustive: int = 6, n_random: int = 100, seed: int = 1
) -> SuiteResult:
    """Summed-energy lower bound over exhaustive small and random larger chains.

    The exhaustive part mirrors the chain-suite regime (every selection set
    and shift, plus the slice product chains and their intersections) for
    every chain whose density deficit stays below one half, the bound's
    stated parameter range.
    """
    res = SuiteResult("energy-bound")
    t0 = time.time()
    half = Fraction(1, 2)
    for label, A, delta, X in _chain_bases(n_exhaustive, seed, max_size=5):
        for k in (1, 2, 3):
            covering, _, p1, _, inter = _chain_family(A, X, delta, k, seed)
            for S, x, ch in covering:
                chk = energy_bound_check(A, X, ch, delta)
                res.record(
                    chk.holds and not chk.precondition_failures,
                    f"{label} k={k} S={sorted(S)} x={x!r}: {chk.lhs} < {chk.rhs} "
                    f"or {chk.precondition_failures}",
                )
            for tag, ch in (("product", p1), ("intersection", inter)):
                if ch is None or max(1 - n for n in ch.nu) >= half:
                    continue
                chk = energy_bound_check(A, X, ch, delta)
                res.record(
                    chk.holds and not chk.precondition_failures,
                    f"{label} k={k} {tag}: {chk.lhs} < {chk.rhs} "
                    f"or {chk.precondition_failures}",
                )
    small_pool = [GroupSpec((16,)), GroupSpec((2, 4)), GroupSpec((3, 3)), GroupSpec((2, 2, 2)), GroupSpec((5, 5)), GroupSpec((12,))]
    for i in range(n_random):
        spec = small_pool[i % len(small_pool)]
        rng = random.Random(seed * 104729 + i)
        size = rng.randint(3, min(8, spec.order - 1))
        A = generate_instance("random", spec, size=size, seed=seed * 104729 + i)
        delta = (Fraction(1, 4), Fraction(1, 10))[i % 2]
        X = statistical_cover(A, A, delta).X.with_identity()
        k = rng.randint(1, 3)
        S = frozenset(rng.sample(range(1, k + 1), rng.randint(0, k)))
        x = rng.choice(list(A))
        ch = covering_chain(A, X, delta, x, S, k)
        chk = energy_bound_check(A, X, ch, delta)
        res.record(
            chk.holds and not chk.precondition_failures,
            f"random {i} {spec!r} k={k} S={sorted(S)}: energy bound",
        )
    res.elapsed = time.time() - t0
    return res


def chang_suite(n_runs: int = 100, seed: int = 1) -> SuiteResult:
    """Parallelogram replay, witness counts, and the step cap on indicators."""
    res = SuiteResult("energy-decrement")
    t0 = time.time()
    pool = [GroupSpec((16,)), GroupSpec((2, 4)), GroupSpec((3, 3)), GroupSpec((2, 2, 2, 2)), GroupSpec((12,)), GroupSpec((64,)), GroupSpec((2, 4, 8))]
    kappas = (Fraction(1), Fraction(1, 2), Fraction(1, 4))
    etas = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    for i in range(n_runs):
        spec = pool[i % len(pool)]
        rng = random.Random(seed * 65537 + i)
        family = ("random", "independent", "subgroup")[i % 3]
        A = _instance_for(family, spec, seed * 65537 + i)
        if len(A) > 16:
            A = GroupSet(spec, frozenset(sorted(A.indices)[:16]))
        kappa = kappas[i % 3]
        eta = etas[(i // 3) % 3]
        h = indicator(A)
        cap = energy_floor_steps(spec.order, len(A), kappa)
        out = chang_iterate(h, A, kappa, eta, cap + 1)
        label = f"run{i} {family}/{spec!r} kappa={kappa} eta={eta}"
        res.record(out.kind == "invariant", f"{label}: no invariant outcome")
        res.record(out.l <= cap, f"{label}: l={out.l} beyond cap {cap}")
        if out.witnesses is not None:
            res.record(
                Fraction(len(out.witnesses)) >= eta * len(A),
                f"{label}: witness count {len(out.witnesses)}",
            )
            replay = invariant_set(h, A, out.path, kappa)
            res.record(
                replay.indices == out.witnesses.indices,
                f"{label}: witness replay mismatch",
            )
        floor = Fraction(len(A) ** 2, spec.order)
        res.record(
            all(e >= floor for e in out.energies), f"{label}: energy floor broken"
        )
        shrink = 1 - kappa / 4
        for step, x in enumerate(out.path):
            new_e, dec = decrement_check(h, out.path[:step], x, kappa)
            res.record(
                dec and new_e == out.energies[step + 1],
                f"{label} step {step}: decrement replay",
            )
        res.record(
            all(
                out.energies[j + 1] <= shrink * out.energies[j]
                for j in range(len(out.path))
            ),
            f"{label}: decrement factor",
        )
    res.elapsed = time.time() - t0
    return res


def _random_sparse_func(spec: GroupSpec, rng: random.Random, max_support: int = 48) -> RationalFunc:
    size = rng.randint(1, min(max_support, spec.order))
    support = rng.sample(range(spec.order), size)
    return RationalFunc.from_pairs(
        spec,
        {
            i: Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            for i in support
        },
    )


def fourier_suite(
    specs: list[GroupSpec] | None = None, n_funcs: int = 100, seed: int = 1
) -> SuiteResult:
    """Parseval and convolution-theorem residuals on random rational functions."""
    res = SuiteResult("fourier-identities")
    t0 = time.time()
    specs = specs or [GroupSpec((2, 8)), GroupSpec((4, 8, 8)), GroupSpec((2, 2, 4, 4, 8, 8))]
    tol = 1e-9
    for spec in specs:
        rng = random.Random(seed * 31337 + spec.order)
        for i in range(n_funcs):
            f = _random_sparse_func(spec, rng)
            if f.is_zero():
                continue
            fh = dft(f).values
            exact = float(f.l2_norm_sq())
            plancherel = float((abs(fh) ** 2).mean())
            rel = abs(exact - plancherel) / max(exact, 1e-300)
            res.record(rel <= tol, f"{spec!r} fn{i}: parseval residual {rel:.2e}")

            g = _random_sparse_func(spec, rng)
            if g.is_zero():
                continue
            gh = dft(g).values
            ch = dft(convolve(f, g)).values
            prod = fh * gh
            scale = max(float(abs(prod).max()), 1.0)
            resid = float(abs(ch - prod).max()) / scale
            res.record(
                resid <= tol, f"{spec!r} fn{i}: convolution residual {resid:.2e}"
            )
    res.elapsed = time.time() - t0
    return res


def all_subgroups(spec: GroupSpec, max_generators: int) -> list[GroupSet]:
    """Every subgroup reachable from generator sets of the given size."""
    seen: set[frozenset[int]] = {frozenset({0})}
    for r in range(1, max_generators + 1):
        for gens in combinations(range(1, spec.order), r):
            seen.add(closure_indices(spec, gens))
    return [GroupSet(spec, s) for s in sorted(seen, key=lambda s: (len(s), sorted(s)))]


def duality_suite(specs: list[GroupSpec] | None = None) -> SuiteResult:
    """|annihilator(spectrum(1_V, eps))| = |V| for every subgroup V."""
    res = SuiteResult("subgroup-duality")
    t0 = time.time()
    specs = specs or [GroupSpec((2, 2, 2, 2)), GroupSpec((3, 3, 3))]
    for spec in specs:
        for V in all_subgroups(spec, max_generators=spec.rank):
            for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                ann = annihilator(spectrum(indicator(V), eps))
                res.record(
                    ann.indices == V.indices,
                    f"{spec!r} |V|={len(V)} eps={eps}: annihilator mismatch",
                )
    res.elapsed = time.time() - t0
    return res


def containment_suite(n_runs: int = 100, seed: int = 1) -> SuiteResult:
    """Spectrum-annihilator containment on constructed invariant functions.

    Each instance builds a non-negative g from subgroup indicators (sums,
    translates, convolutions, smoothings), takes A to be the full set of
    directions that move g by at most eps of its mass, and checks that A
    lands inside the annihilator of the (r * eps)-spectrum.
    """
    res = SuiteResult("annihilator-containment")
    t0 = time.time()
    pool = [
        GroupSpec((2, 2, 2, 2)),
        GroupSpec((3, 3, 3)),
        GroupSpec((4, 4)),
        GroupSpec((2, 8)),
        GroupSpec((6, 6)),
        GroupSpec((5, 5)),
        GroupSpec((2, 2, 3)),
    ]
    for i in range(n_runs):
        spec = pool[i % len(pool)]
        rng = random.Random(seed * 49999 + i)
        V = subgroup_closure(
            generate_instance("random", spec, size=rng.randint(1, 2), seed=seed * 49999 + i)
        )
        style = i % 5
        if style == 0:
            g = indicator(V)
        elif style == 1:
            W = subgroup_closure(
                generate_instance("random", spec, size=1, seed=seed * 49999 + i + 1)
            )
            g = indicator(V) + indicator(W)
        elif style == 2:
            c = spec.element_at(rng.randrange(spec.order))
            g = indicator(V).translate(c) + 2 * uniform_measure(V)
        elif style == 3:
            W = subgroup_closure(
                generate_instance("random", spec, size=1, seed=seed * 49999 + i + 2)
            )
            g = convolve(indicator(V), indicator(W))
        else:
            noise = RationalFunc.from_pairs(
                spec,
                {
                    j: Fraction(rng.randint(1, 5), 7)
                    for j in rng.sample(range(spec.order), min(4, spec.order))
                },
            )
            g = convolve(noise, uniform_measure(V))
        r = spec.exponent
        eps = rng.choice([Fraction(1, r), Fraction(1, 2 * r), Fraction(1, 4 * r)])
        cut = eps * g.l1_norm()
        moved = g.translation_defects(range(spec.order))
        good = frozenset(a for a, d in enumerate(moved) if d <= cut)
        A = GroupSet(spec, good)
        ok = annihilator_containment_check(g, A, eps)
        res.record(ok, f"run{i} {spec!r} style{style} eps={eps}: containment")
    res.elapsed = time.time() - t0
    return res


def petridis_suite(n_runs: int = 40, seed: int = 1, n_c: int = 25) -> SuiteResult:
    """Ratio-minimizer consequence |A+Z+C| <= K |Z+C| over sampled C."""
    res = SuiteResult("ratio-minimizer")
    t0 = time.time()
    pool = [GroupSpec((16,)), GroupSpec((3, 3)), GroupSpec((2, 2, 2, 2)), GroupSpec((12,)), GroupSpec((2, 4, 4)), GroupSpec((5, 5))]
    for i in range(n_runs):
        spec = pool[i % len(pool)]
        rng = random.Random(seed * 2_000_003 + i)
        A = generate_instance(
            "random", spec, size=rng.randint(2, min(10, spec.order // 2)), seed=seed * 2_000_003 + i
        )
        pr = petridis_subset(A)
        family = [
            GroupSet(spec, frozenset([j])) for j in range(min(spec.order, 32))
        ]
        for _ in range(n_c):
            size = rng.randint(1, min(8, spec.order))
            family.append(
                GroupSet(spec, frozenset(rng.sample(range(spec.order), size)))
            )
        res.record(
            petridis_verify(A, pr.Z, family),
            f"run{i} {spec!r}: consequence fails for some C",
        )
    res.elapsed = time.time() - t0
    return res


def pipeline_suite(
    max_rank: int = 12, n_random: int = 4, seed: int = 1
) -> tuple[SuiteResult, list]:
    """Full driver runs; every unconditional check must pass.

    Covers the independent family in Z_2^n for 2 <= n <= max_rank (whose
    closure ratio has the closed form 2^n / (n+1)), a subgroup instance,
    and random sets in Z_3^4.  Returns the reports for reuse.
    """
    res = SuiteResult("pipeline-driver")
    t0 = time.time()
    reports = []
    for n in range(2, max_rank + 1):
        spec = GroupSpec((2,) * n)
        A = generate_instance("independent", spec)
        rep = theorem_driver(A, seed=seed)
        reports.append(rep)
        res.record(
            all(c.holds for c in rep.all_checks()),
            f"independent n={n}: driver checks",
        )
        res.record(
            rep.ratio == Fraction(2**n, n + 1),
            f"independent n={n}: ratio {rep.ratio} != 2^n/(n+1)",
        )
    sub_spec = GroupSpec((2, 4, 4))
    V = subgroup_closure(generate_instance("random", sub_spec, size=2, seed=seed))
    rep = theorem_driver(V, seed=seed)
    reports.append(rep)
    res.record(
        rep.ratio == 1 and all(c.holds for c in rep.all_checks()),
        "subgroup: ratio 1 and checks",
    )
    z34 = GroupSpec((3, 3, 3, 3))
    for i in range(n_random):
        rng = random.Random(seed * 424243 + i)
        A = generate_instance("random", z34, size=rng.randint(4, 10), seed=seed * 424243 + i)
        rep = theorem_driver(A, seed=seed * 424243 + i)
        reports.append(rep)
        res.record(
            all(c.holds for c in rep.all_checks()), f"Z3^4 seed {i}: driver checks"
        )
    for rep in reports:
        sb = spec_annihilator_bound(
            rep.support_set, rep.invariance_set, rep.h, rep.stage2.f, rep.epsilon
        )
        res.record(sb.holds, "spectrum annihilator bound replay")
    res.elapsed = time.time() - t0
    return res, reports


def run_all_suites(spec: GroupSpec, seed: int, trials: int = 12) -> list[SuiteResult]:
    """Scaled-down run of every suite against one group, for the CLI."""
    pool = [spec]
    instances = covering_instances(per_family=trials, seed=seed, pool=pool)
    cov, _ = covering_suite(instances)
    results = [cov, ruzsa_suite(instances)]
    results.append(
        iterated_cover_suite(instances, (Fraction(1, 4), Fraction(1, 2)))
    )
    results.append(chain_suite(n_instances=2, seed=seed))
    results.append(energy_suite(n_exhaustive=1, n_random=max(4, trials // 2), seed=seed))
    results.append(chang_suite(n_runs=max(6, trials), seed=seed))
    small = [GroupSpec((2, 8)), GroupSpec((4, 8, 8))]
    results.append(fourier_suite(small, n_funcs=max(6, trials), seed=seed))
    results.append(duality_suite([GroupSpec((2, 2, 2, 2)), GroupSpec((3, 3, 3))]))
    results.append(containment_suite(n_runs=max(6, trials), seed=seed))
    results.append(petridis_suite(n_runs=max(4, trials // 2), seed=seed))
    pipe, _ = pipeline_suite(max_rank=6, n_random=2, seed=seed)
    results.append(pipe)
    return results
