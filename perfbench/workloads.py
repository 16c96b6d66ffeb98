"""The three benchmark workloads: inputs, one item of work, output checks, digests.

A workload's setup() turns a seed into a list of items.  run() does one
item's work through the public statcover API and is the only part that is
timed.  check() re-derives the item's claims with arithmetic of its own and
returns the names of the checks that failed; digest() hashes the exact
outputs.  Neither check() nor digest() is timed, and digest() reads only
stored fields, so it never enters a traced library function.

Instance costs are heavy-tailed across random draws: over ten seeds, a
seed-drawn cert-sweep corpus took 3.4-7.6 s per pass, almost all of it in
a few Z_2048 subgroup and coset-union instances of 512-1536 elements, and
random driver sets in Z_8^3 take 0.4 s or 2.7 s depending on the draw.  A
benchmark drawing those instances from the seed would measure the draw, not
the code.  So the covering corpus and the driver sets are fixed at
CORPUS_SEED, the seed of the acceptance tests; the benchmark seed draws the
small chain bases and their shifts, the order of items, and the random
C-family that theorem_driver samples for its Petridis check.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

import statcover as sc
from statcover import suites

CORPUS_SEED = 11
DELTAS = (Fraction(1, 10), Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
CHAIN_DELTA = Fraction(1, 4)
CHAIN_K_MAX = 3
SMALL_POOL = ((7,), (16,), (2, 2, 2), (2, 4), (3, 3), (12,))


@dataclass(frozen=True)
class Item:
    label: str
    spec: sc.GroupSpec
    indices: frozenset
    chain_x: int | None = None  # cert-sweep: the shift x of the item's chain certificates

    def fresh_set(self) -> sc.GroupSet:
        # a new GroupSet per run, so no pass reuses another's cached masks
        return sc.GroupSet(self.spec, self.indices)


# --- arithmetic of the benchmark's own, independent of the library ------------


class Arith:
    """Mixed-radix index arithmetic on Z_m1 x ... x Z_mn (last coordinate fastest)."""

    def __init__(self, moduli):
        self.mods = np.asarray(moduli, dtype=np.int64)
        self.order = int(np.prod(self.mods))
        w = np.ones(len(moduli), dtype=np.int64)
        for j in range(len(moduli) - 2, -1, -1):
            w[j] = w[j + 1] * moduli[j + 1]
        self.weights = w

    def coords(self, idx):
        idx = np.asarray(idx, dtype=np.int64)
        return (idx[..., None] // self.weights) % self.mods

    def index(self, co):
        return (co % self.mods) @ self.weights

    def sums(self, xs, ys) -> np.ndarray:
        """Matrix of indices of x + y for x in xs (rows), y in ys (columns)."""
        return self.index(self.coords(xs)[:, None, :] + self.coords(ys)[None, :, :])

    def sumset(self, xs, ys) -> set[int]:
        return set(np.unique(self.sums(sorted(xs), sorted(ys))).tolist())

    def neg(self, xs) -> list[int]:
        return self.index(-self.coords(sorted(xs))).tolist()

    def closure(self, gens) -> set[int]:
        """Subgroup generated by `gens`, by breadth-first search from 0."""
        gens = sorted(set(gens))
        seen, frontier = {0}, [0]
        while frontier:
            fresh = set(self.sums(frontier, gens).ravel().tolist()) - seen
            seen |= fresh
            frontier = sorted(fresh)
        return seen


def _energy(add, A, tup) -> Fraction:
    """||1_A * mu_a||_2^2, convolving with (delta_0 + delta_a) / 2 per entry."""
    h = {a: Fraction(1) for a in A}
    for a in tup:
        nxt: dict[int, Fraction] = {}
        for y, v in h.items():
            for z in (y, add[y][a]):
                nxt[z] = nxt.get(z, 0) + v / 2
        h = nxt
    return sum(v * v for v in h.values())


def _digest(parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


# --- cert-sweep ---------------------------------------------------------------


class CertSweep:
    """Covering and chain certificates over the acceptance instance families.

    Per pass: the first PER_FAMILY instances of each generator family from
    the criterion-1 acceptance corpus, cycling over default_group_pool(), plus
    N_SMALL seed-drawn small bases that also run the chain certificates.
    """

    name = "cert-sweep"
    PER_FAMILY = 100
    N_SMALL = 18
    item_limit_s = 20

    def setup(self, seed: int) -> list[Item]:
        pool = suites.default_group_pool()
        corpus = suites.covering_instances(
            per_family=self.PER_FAMILY, seed=CORPUS_SEED, pool=pool
        )
        items = [Item(label, A.spec, A.indices) for label, A in corpus]
        small_specs = [sc.GroupSpec(m) for m in SMALL_POOL]
        rng = random.Random(seed)
        for i in range(self.N_SMALL):
            spec = small_specs[i % len(small_specs)]
            size = 3 + (i // len(small_specs)) % 3  # each group gets sizes 3, 4 and 5
            A = sc.generate_instance("random", spec, size=size, seed=rng.randrange(2**32))
            x = rng.choice(sorted(A.indices))
            items.append(Item(f"chain/{spec!r}/seed{seed}/{i}", spec, A.indices, x))
        rng.shuffle(items)
        for spec in {*pool, *small_specs}:
            spec.shift_indices(np.zeros(1, dtype=np.int64), 0)  # lazy index tables
        return items

    def run(self, item: Item, seed: int) -> dict:
        A = item.fresh_set()
        covers = []
        for delta in DELTAS:
            cert = sc.statistical_cover(A, A, delta)
            covers.append((cert, sc.verify_covered(A, cert.X, delta)))
        X = sc.ruzsa_cover(A, A)
        spec = A.spec
        masks = [
            sc.sets.indices_to_mask(spec.order, spec.shift_indices(A.index_array, x).tolist())
            for x in sorted(X.indices)
        ]
        out = {
            "covers": covers,
            "ruzsa": X,
            "ruzsa_disjoint": all(m1 & m2 == 0 for m1, m2 in combinations(masks, 2)),
            "ruzsa_contains": A.issubset((X + A) - A),
            "chains": [],
        }
        if item.chain_x is not None:
            Xc = sc.statistical_cover(A, A, CHAIN_DELTA).X.with_identity()
            x = spec.element_at(item.chain_x)
            for k in range(1, CHAIN_K_MAX + 1):
                for r in range(k + 1):
                    for S in combinations(range(1, k + 1), r):
                        ch = sc.covering_chain(A, Xc, CHAIN_DELTA, x, S, k)
                        out["chains"].append(
                            (k, S, Xc, ch, sc.verify_chain(ch),
                             sc.energy_bound_check(A, Xc, ch, CHAIN_DELTA))
                        )
        return out

    def check(self, item: Item, out: dict) -> list[str]:
        ar = Arith(item.spec.moduli)
        A = sorted(item.indices)
        n = len(A)
        rows = ar.sums(A, A)  # row i: the translate A[i] + A
        in_row = np.zeros((n, ar.order), dtype=bool)
        in_row[np.arange(n)[:, None], rows] = True
        pos = {a: i for i, a in enumerate(A)}
        K = Fraction(int(in_row.any(axis=0).sum()), n)
        failed = []
        for delta, (cert, (ok, frac)) in zip(DELTAS, out["covers"]):
            chosen = [pos[x] for x in cert.trace]
            if cert.K != K or Fraction(len(cert.X)) > (K - 1) / delta + 1:
                failed.append(f"cover-size-bound@{delta}")
            cover = (in_row & in_row[chosen].any(axis=0)).sum(axis=1)
            worst = Fraction(int(cover.min()), n)
            if not ok or worst != frac or worst < 1 - delta:
                failed.append(f"cover-replay@{delta}")
        X = [pos[x] for x in sorted(out["ruzsa"].indices)]
        if not out["ruzsa_disjoint"] or in_row[X].sum(axis=0).max() > 1:
            failed.append("ruzsa-disjoint")
        if len(X) * n > K * n:
            failed.append("ruzsa-size-bound")
        covered = ar.sumset(ar.sumset(out["ruzsa"].indices, A), ar.neg(A))
        if not out["ruzsa_contains"] or not set(A) <= covered:
            failed.append("ruzsa-containment")
        add = ar.sums(range(ar.order), range(ar.order)).tolist() if out["chains"] else None
        for k, S, Xc, ch, vc, eb in out["chains"]:
            tag = f"k={k},S={list(S)}"
            nu = tuple(1 - CHAIN_DELTA * (i in S) for i in range(1, k + 1))
            if not vc.ok or ch.nu != nu or not _chain_axioms(ch, A):
                failed.append(f"chain-axioms[{tag}]")
            kx = {0}
            for _ in range(k):
                kx = ar.sumset(kx, Xc.indices)
            sx = {0}
            for _ in S:
                sx = ar.sumset(sx, Xc.indices)
            target = ar.sumset(sx, A)
            for t in ch.top:
                total = item.chain_x
                for j in S:
                    total = add[total][t[j - 1]]
                if total not in target:
                    failed.append(f"chain-top-outside-target[{tag}]")
                    break
            eta = CHAIN_DELTA if S else 0
            rhs = ((1 - eta) ** (2 * k) * (1 - CHAIN_DELTA) ** (2 * k)
                   * Fraction(n) ** (k + 1) / len(kx))
            lhs = sum(_energy(add, A, t) for t in ch.top)
            if eb.precondition_failures or (eb.lhs, eb.rhs) != (lhs, rhs) or lhs < rhs:
                failed.append(f"energy-bound[{tag}]")
        return failed

    def digest(self, item: Item, out: dict) -> str:
        return _digest((
            item.label,
            [(c.trace, c.K, c.size_bound, sorted(c.per_x_coverage.items()), v)
             for c, v in out["covers"]],
            sorted(out["ruzsa"].indices), out["ruzsa_disjoint"], out["ruzsa_contains"],
            [(k, S, [sorted(lv) for lv in ch.levels], ch.nu, vc.ok, eb.lhs, eb.rhs)
             for k, S, _, ch, vc, eb in out["chains"]],
        ))


def _chain_axioms(chain, A) -> bool:
    """Start, powers and fibre growth, counted directly from the levels."""
    base = set(A)
    if chain.levels[0] != frozenset({()}) or len(chain.levels) != chain.k + 1:
        return False
    for i in range(1, chain.k + 1):
        level = chain.levels[i]
        if any(len(t) != i or not set(t) <= base for t in level):
            return False
        grow: dict[tuple, int] = {}
        for t in level:
            grow[t[:-1]] = grow.get(t[:-1], 0) + 1
        need = chain.nu[i - 1] * len(base)
        if any(grow.get(p, 0) < need for p in chain.levels[i - 1]):
            return False
    return True


# --- driver ladders -------------------------------------------------------------


class _Driver:
    """One theorem_driver call per item; the seed is the driver's C-family seed."""

    item_limit_s = 30

    def run(self, item: Item, seed: int):
        return sc.theorem_driver(item.fresh_set(), seed=seed)

    def check(self, item: Item, rep) -> list[str]:
        failed = [f"recorded:{c.name}" for c in rep.all_checks() if not c.holds]
        replay = sc.reverify_report(rep)
        recorded = [(c.name, c.lhs, c.rhs, c.holds) for c in rep.all_checks()]
        if [(c.name, c.lhs, c.rhs, c.holds) for c in replay] != recorded:
            failed.append("reverify-differs")
        failed += [f"reverify:{c.name}" for c in replay if not c.holds]
        closure = Arith(item.spec.moduli).closure(item.indices)
        if set(rep.closure.indices) != closure:
            failed.append("closure-bfs")
        if rep.ratio != Fraction(len(closure), len(item.indices)):
            failed.append("closure-ratio")
        return failed

    def digest(self, item: Item, rep) -> str:
        stages = [
            (st.cover.trace, [e.index for e in st.chang.path], st.chang.energies,
             sorted(st.good.indices), sorted(st.V.indices))
            for st in (rep.stage1, rep.stage2)
        ]
        return _digest((
            item.label, rep.K, rep.epsilon, rep.eta, sorted(rep.petridis.Z.indices),
            stages, [(c.name, c.lhs, c.rhs, c.relation, c.holds) for c in rep.all_checks()],
            sorted(rep.closure.indices), rep.ratio, sorted(rep.final_petridis.Z.indices),
            rep.spectrum_bound.size, sorted(rep.loose_annihilator.indices),
        ))


class DriverWide(_Driver):
    """The independent set {0, e_1, ..., e_n} in Z_2^n: few large dense operations."""

    name = "driver-wide"
    RANKS = (11, 12, 13, 14)

    def setup(self, seed: int) -> list[Item]:
        items = []
        for n in self.RANKS:
            spec = sc.GroupSpec((2,) * n)
            A = sc.generate_instance("independent", spec)
            spec.shift_indices(np.zeros(1, dtype=np.int64), 0)  # lazy index tables
            items.append(Item(f"independent/Z2^{n}", spec, A.indices))
        return items

    def check(self, item: Item, rep) -> list[str]:
        failed = super().check(item, rep)
        n = item.spec.rank
        if rep.ratio != Fraction(2**n, n + 1):
            failed.append("ratio-2^n/(n+1)")
        return failed


class DriverDeep(_Driver):
    """Random sets of 5-16 elements in small groups: many chang steps on small functions."""

    name = "driver-deep"
    RUNGS = (
        ((16,), 5),
        ((4, 4, 4, 4), 8),
        ((5, 5, 5), 14),
        ((3,) * 6, 16),
        ((2, 4, 8), 7),
        ((8, 8, 8), 10),
        ((8, 8, 8), 16),
    )

    def setup(self, seed: int) -> list[Item]:
        items = []
        for j, (moduli, size) in enumerate(self.RUNGS):
            spec = sc.GroupSpec(moduli)
            A = sc.generate_instance("random", spec, size=size, seed=CORPUS_SEED * 1000 + j)
            sc.dft(sc.indicator(A))  # lazy character matrix of the dense transform
            items.append(Item(f"random/{spec!r}/{size}", spec, A.indices))
        random.Random(seed).shuffle(items)
        return items


WORKLOADS = {w.name: w for w in (CertSweep(), DriverWide(), DriverDeep())}
