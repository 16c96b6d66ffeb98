"""Independent brute-force oracles used to freeze expected test values.

Everything here works on plain coordinate tuples with stdlib arithmetic,
deliberately sharing no code path with the package implementations.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import product


def add_c(mods, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, mods))


def neg_c(mods, a):
    return tuple((-x) % m for x, m in zip(a, mods))


def all_coords(mods):
    return [tuple(c) for c in product(*(range(m) for m in mods))]


def closure_bfs(mods, gens):
    """Subgroup generated by gens: breadth-first sums over coordinate tuples."""
    identity = tuple(0 for _ in mods)
    seen = {identity}
    frontier = [identity]
    gens = [tuple(g) for g in gens]
    while frontier:
        nxt = []
        for f in frontier:
            for g in gens:
                c = add_c(mods, f, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return seen


def annihilator_oracle(mods, chars):
    """{x : gamma(x) = 1 for every gamma in chars}, chars as coordinate tuples.

    The phase sum_j c_j x_j / m_j is summed in Fractions over every x of the
    group; gamma(x) = 1 exactly when that phase is an integer.
    """
    chars = [tuple(c) for c in chars]
    out = set()
    for x in all_coords(mods):
        if all(
            sum((Fraction(c * xc, m) for c, xc, m in zip(gamma, x, mods)), Fraction(0)).denominator == 1
            for gamma in chars
        ):
            out.add(x)
    return out


def sumset_oracle(mods, A, B):
    return {add_c(mods, a, b) for a in A for b in B}


def overlap_oracle(mods, A, x):
    """|A cap (A - x)|: the a in A with a + x in A."""
    members = set(A)
    return sum(1 for a in members if add_c(mods, a, x) in members)


def petridis_verify_oracle(mods, A, Z, family):
    """Whether |A+Z+C| |Z| <= |A+Z| |Z+C| for every non-empty C in family,
    by sumset replays on coordinate tuples."""
    az, z = sumset_oracle(mods, A, Z), len(set(Z))
    return all(
        len(sumset_oracle(mods, az, C)) * z <= len(az) * len(sumset_oracle(mods, Z, C))
        for C in family
        if C
    )


def k_fold_oracle(mods, X, k):
    acc = {tuple(0 for _ in mods)}
    for _ in range(k):
        acc = sumset_oracle(mods, acc, X)
    return acc


def translate_oracle(mods, values, x):
    """(tau_x f)(y) = f(x + y) on dicts keyed by coordinate tuples."""
    return {y: values.get(add_c(mods, x, y), Fraction(0)) for y in all_coords(mods)}


def convolve_oracle(mods, f, g):
    """Full double loop over the group on dicts keyed by coordinate tuples."""
    out = {c: Fraction(0) for c in all_coords(mods)}
    for y, fy in f.items():
        for z, gz in g.items():
            out[add_c(mods, y, z)] += fy * gz
    return out


def mu_oracle(mods, elements):
    identity = tuple(0 for _ in mods)
    meas = {identity: Fraction(1)}
    for a in elements:
        half = {identity: Fraction(1, 2), tuple(a): Fraction(1, 2)}
        if tuple(a) == identity:
            half = {identity: Fraction(1)}
        meas = convolve_oracle(mods, meas, half)
    return meas


def l2_sq_oracle(values):
    return sum((v * v for v in values.values()), Fraction(0))


def l1_oracle(values):
    return sum((abs(v) for v in values.values()), Fraction(0))


def inner_oracle(f, g):
    """sum_y f(y) g(y) on dicts keyed by coordinate tuples."""
    return sum((v * g.get(y, Fraction(0)) for y, v in f.items()), Fraction(0))


def defect_oracle(mods, values, x, p):
    """||f - tau_x f||_p^p by a full sum over the group."""
    moved = translate_oracle(mods, values, x)
    return sum(
        (abs(values.get(y, Fraction(0)) - moved[y]) ** p for y in all_coords(mods)),
        Fraction(0),
    )


def energy_oracle(mods, A, tuple_a):
    """||1_A * mu_a||_2^2 by full convolution."""
    ind = {tuple(a): Fraction(1) for a in A}
    conv = convolve_oracle(mods, ind, mu_oracle(mods, tuple_a))
    return l2_sq_oracle(conv)


def char_eval_oracle(mods, gamma, x):
    phase = sum(c * xc / m for c, xc, m in zip(gamma, x, mods))
    return cmath.exp(2j * math.pi * phase)


def dft_oracle(mods, values_by_coords):
    """Definition-level double loop with cmath; values keyed by coords."""
    coords = all_coords(mods)
    out = []
    for gamma in coords:
        total = 0j
        for x in coords:
            v = values_by_coords.get(x, 0)
            if v:
                total += float(v) * char_eval_oracle(mods, gamma, x).conjugate()
        out.append(total)
    return out


def eq2_lhs_oracle(mods, A, X, k):
    """<1_A * ... * 1_A (k+1 factors), 1_{kX+A}> by tuple enumeration."""
    target = sumset_oracle(mods, k_fold_oracle(mods, X, k), A)
    count = 0
    for combo in product(sorted(A), repeat=k + 1):
        total = combo[0]
        for c in combo[1:]:
            total = add_c(mods, total, c)
        if total in target:
            count += 1
    return count


def petridis_scan_oracle(mods, A, pool=None):
    """(best ratio, list of optimal subsets) by scanning all non-empty subsets."""
    pool = sorted(pool if pool is not None else A)
    best = None
    winners = []
    for mask in range(1, 2 ** len(pool)):
        Z = [pool[i] for i in range(len(pool)) if mask >> i & 1]
        ratio = Fraction(len(sumset_oracle(mods, A, Z)), len(Z))
        if best is None or ratio < best:
            best = ratio
            winners = [tuple(Z)]
        elif ratio == best:
            winners.append(tuple(Z))
    return best, winners


def petridis_fallback_oracle(mods, A, pool):
    """(best ratio, list of optimal subsets) over the singletons of the pool
    and the full pool, each distinct subset scored once."""
    pool = sorted(pool)
    candidates = [(z,) for z in pool]
    if len(pool) > 1:
        candidates.append(tuple(pool))
    best = None
    winners = []
    for Z in candidates:
        ratio = Fraction(len(sumset_oracle(mods, A, Z)), len(Z))
        if best is None or ratio < best:
            best = ratio
            winners = [Z]
        elif ratio == best:
            winners.append(Z)
    return best, winners


def coverage_count_oracle(mods, A, X, B, x):
    """|(x + B) & (X + B)| by plain set arithmetic."""
    xb = {add_c(mods, x, b) for b in B}
    cover = sumset_oracle(mods, X, B)
    return len(xb & cover)


def statistical_cover_oracle(mods, A, B, delta):
    """Replay of the greedy covering loop with plain sets, first-in-order."""
    a_sorted = sorted(A)
    X = [a_sorted[0]]
    need = (1 - Fraction(delta)) * len(B)
    while True:
        found = None
        for x in a_sorted:
            if coverage_count_oracle(mods, A, X, B, x) < need:
                found = x
                break
        if found is None:
            return X
        X.append(found)


def chang_oracle(mods, h, A, kappa, eta, k_max):
    """Replay of the greedy energy-decrement iteration on dicts of Fractions.

    h maps coordinate tuples to rationals and A is a collection of
    coordinate tuples.  Each stage tests every x in A against
    ||g - tau_x g||_2^2 < kappa ||g||_2^2 by a full sum over the group, then
    either stops or appends the first failing x in lexicographic order
    (the canonical index order) and sets g <- (g + tau_{-x} g) / 2.
    Returns (kind, path, energies, witnesses); witnesses is None for the
    decrement outcome.
    """
    coords = all_coords(mods)
    g = {y: Fraction(h.get(y, 0)) for y in coords}
    kappa, eta = Fraction(kappa), Fraction(eta)
    a_sorted = sorted(set(A))
    path = []
    energies = [l2_sq_oracle(g)]
    while True:
        if len(path) >= k_max:
            return "decrement", path, energies, None
        passing = set()
        for x in a_sorted:
            defect = sum(((g[y] - g[add_c(mods, x, y)]) ** 2 for y in coords), Fraction(0))
            if defect < kappa * energies[-1]:
                passing.add(x)
        if len(passing) >= eta * len(a_sorted):
            return "invariant", path, energies, passing
        x = next(a for a in a_sorted if a not in passing)
        path.append(x)
        back = neg_c(mods, x)
        g = {y: (g[y] + g[add_c(mods, back, y)]) / 2 for y in coords}
        energies.append(l2_sq_oracle(g))
