import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from statcover import (
    Chain,
    GroupSet,
    GroupSpec,
    chain_top_in_target,
    covering_chain,
    energy_bound_check,
    generate_instance,
    intersect_chains,
    product_chain,
    statistical_cover,
    subgroup_closure,
    verify_chain,
)

from statcover.chains import ChainCheck, _summed_energy
from statcover.functions import average_with_translate, indicator

from oracles import add_c, energy_oracle, k_fold_oracle, sumset_oracle


def z7_setup():
    spec = GroupSpec((7,))
    A = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
    X = GroupSet.from_elements(spec, [(0,), (2,)])
    return spec, A, X


class TestVerifyChain:
    def test_full_product_passes(self):
        spec = GroupSpec((5,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (3,)])
        ch = product_chain(A, [A, A])
        assert verify_chain(ch).ok

    def test_half_level_density(self):
        spec = GroupSpec((4,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,), (3,)])
        half = frozenset({(0,), (1,)})
        good = Chain(A, (frozenset({()}), half), (Fraction(1, 2),))
        assert verify_chain(good).ok
        greedy = Chain(A, (frozenset({()}), half), (Fraction(3, 4),))
        out = verify_chain(greedy)
        assert not out.ok
        assert out.axiom == "fibre-growth"
        assert out.witness == ()

    @pytest.mark.parametrize("nu, ok", [(Fraction(2, 3), True), (Fraction(5, 6), False)])
    def test_fractional_need_rounds_up(self, nu, ok):
        # two of three extensions: 2 >= (2/3) 3, but 2 < (5/6) 3 = 5/2
        spec = GroupSpec((7,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        ch = Chain(A, (frozenset({()}), frozenset({(0,), (2,)})), (nu,))
        assert verify_chain(ch) == (ChainCheck(True) if ok else ChainCheck(False, "fibre-growth", 1, ()))

    @pytest.mark.parametrize("short", range(5))
    def test_fibre_witness_is_below_the_need(self, short):
        # need at level 2 is (3/5) 5 = 3; every prefix has exactly 3
        # extensions except `short`, which has 2, so only it may be named
        spec = GroupSpec((7,))
        A = GroupSet.from_elements(spec, [(a,) for a in range(5)])
        level1 = frozenset((a,) for a in range(5))
        level2 = frozenset((a, b) for a in range(5) for b in range(2 if a == short else 3))
        ch = Chain(A, (frozenset({()}), level1, level2), (Fraction(1), Fraction(3, 5)))
        assert verify_chain(ch) == ChainCheck(False, "fibre-growth", 2, (short,))

    def test_empty_level_with_positive_density(self):
        spec = GroupSpec((3,))
        A = GroupSet.full(spec)
        ch = Chain(A, (frozenset({()}), frozenset()), (Fraction(1, 3),))
        assert not verify_chain(ch).ok

    def test_bad_start(self):
        spec = GroupSpec((3,))
        A = GroupSet.full(spec)
        ch = Chain(A, (frozenset({(0,)}), frozenset({(0, 1)})), (Fraction(1),))
        out = verify_chain(ch)
        assert not out.ok and out.axiom == "start"

    def test_powers_violation(self):
        spec = GroupSpec((4,))
        A = GroupSet.from_elements(spec, [(0,), (1,)])
        ch = Chain(A, (frozenset({()}), frozenset({(3,)})), (Fraction(1, 2),))
        out = verify_chain(ch)
        assert not out.ok and out.axiom == "powers"

    def test_prefixes_outside_previous_level_unconstrained(self):
        # tuples whose prefix was dropped from the previous level are free
        spec = GroupSpec((4,))
        A = GroupSet.from_elements(spec, [(0,), (1,)])
        levels = (
            frozenset({()}),
            frozenset({(0,)}),
            frozenset({(0, 0), (0, 1), (1, 0)}),
        )
        ch = Chain(A, levels, (Fraction(1, 2), Fraction(1)))
        assert verify_chain(ch).ok


    @given(st.sampled_from([(7,), (8,), (2, 2, 2), (3, 3)]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_per_tuple_scan(self, mods, data):
        # drawn chains (products, intersections and covering chains are
        # valid), and the same chains broken on each axiom, get the same
        # ChainCheck, witness included, as the loop verify_chain replaced
        spec = GroupSpec(mods)
        A, chain = _draw_chain(data, spec)
        levels, nu, k = list(chain.levels), list(chain.nu), chain.k
        broken = data.draw(st.sampled_from(["none", "start", "powers", "fibre-growth", "nu"]))
        i = data.draw(st.integers(1, k)) if k else 0
        outside = min(set(range(spec.order)) - A.indices)
        if broken == "start":
            if data.draw(st.booleans()) or not k:
                levels[0] = frozenset({(min(A.indices),)})
            else:
                levels.pop()
        elif broken == "powers" and k:
            length = data.draw(st.sampled_from([i - 1, i, i + 1]))
            entries = data.draw(st.lists(st.sampled_from(sorted(A.indices)), min_size=length, max_size=length))
            if length == i:
                entries[data.draw(st.integers(0, i - 1))] = outside
            levels[i] = levels[i] | {tuple(entries)}
        elif broken == "fibre-growth" and k:
            dropped = data.draw(st.sets(st.sampled_from(sorted(levels[i])))) if levels[i] else set()
            levels[i] = levels[i] - dropped
        elif broken == "nu" and k:
            nu[i - 1] = data.draw(st.fractions(min_value=0, max_value=2, max_denominator=6))
        broken_chain = Chain(A, tuple(levels), tuple(nu))
        assert verify_chain(broken_chain) == _verify_chain_loop(broken_chain)


def _verify_chain_loop(chain):
    """The per-tuple, per-prefix scan verify_chain replaced."""
    A = chain.base.indices
    k = chain.k
    if len(chain.levels) != k + 1:
        return ChainCheck(False, "start", 0, None)
    if chain.levels[0] != frozenset({()}):
        return ChainCheck(False, "start", 0, None)
    for i in range(1, k + 1):
        for t in chain.levels[i]:
            if len(t) != i or any(e not in A for e in t):
                return ChainCheck(False, "powers", i, t)
    size = len(A)
    for i in range(1, k + 1):
        need = chain.nu[i - 1] * size
        level = chain.levels[i]
        for prefix in chain.levels[i - 1]:
            count = sum(1 for a in A if prefix + (a,) in level)
            if count < need:
                return ChainCheck(False, "fibre-growth", i, prefix)
    return ChainCheck(True)


class TestProductChain:
    def test_nu_and_sizes(self):
        spec = GroupSpec((5,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,), (4,)])
        A1 = GroupSet.from_elements(spec, [(0,)])
        A2 = GroupSet.from_elements(spec, [(1,), (2,)])
        ch = product_chain(A, [A1, A2])
        assert ch.nu == (Fraction(1, 4), Fraction(1, 2))
        assert len(ch.top) == 2
        assert verify_chain(ch).ok

    def test_cardinality_equality(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(1)
        A = generate_instance("random", spec, size=5, seed=1)
        idx = sorted(A.indices)
        factors = [
            GroupSet(spec, frozenset(rng.sample(idx, rng.randint(1, 5)))) for _ in range(3)
        ]
        ch = product_chain(A, factors)
        expect = 1
        for f in factors:
            expect *= len(f)
        assert len(ch.top) == expect

    def test_requires_subsets(self):
        spec = GroupSpec((5,))
        A = GroupSet.from_elements(spec, [(0,), (1,)])
        with pytest.raises(ValueError):
            product_chain(A, [GroupSet.from_elements(spec, [(3,)])])

    def test_caps(self):
        spec = GroupSpec((64,))
        A = generate_instance("random", spec, size=40, seed=2)
        with pytest.raises(ValueError):
            product_chain(A, [A] * 5)  # depth cap
        with pytest.raises(ValueError):
            product_chain(A, [A] * 4)  # 40^4 tuples over the size cap


class TestIntersectChains:
    def test_same_chain_doubles_deficit(self):
        spec = GroupSpec((5,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,), (3,)])
        big = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        ch = product_chain(A, [big, big])
        out = intersect_chains(ch, ch)
        assert out.levels == ch.levels
        assert out.nu == (Fraction(1, 2), Fraction(1, 2))
        assert verify_chain(out).ok

    def test_two_large_products(self):
        spec = GroupSpec((3, 3))
        A = generate_instance("random", spec, size=6, seed=3)
        idx = sorted(A.indices)
        rng = random.Random(4)
        f1 = [GroupSet(spec, frozenset(rng.sample(idx, 5))) for _ in range(2)]
        f2 = [GroupSet(spec, frozenset(rng.sample(idx, 5))) for _ in range(2)]
        c1, c2 = product_chain(A, f1), product_chain(A, f2)
        out = intersect_chains(c1, c2)
        assert verify_chain(out).ok
        assert all(
            li <= l1 and li <= l2
            for li, l1, l2 in zip(out.levels, c1.levels, c2.levels)
        )

    def test_budget_exhausted(self):
        spec = GroupSpec((4,))
        A = GroupSet.full(spec)
        small = GroupSet.from_elements(spec, [(0,)])
        ch = product_chain(A, [small])
        with pytest.raises(ValueError):
            intersect_chains(ch, ch)

    def test_shape_mismatch(self):
        spec = GroupSpec((4,))
        A = GroupSet.full(spec)
        with pytest.raises(ValueError):
            intersect_chains(product_chain(A, [A]), product_chain(A, [A, A]))


class TestCoveringChain:
    def test_empty_selection_gives_full_products(self):
        spec, A, X = z7_setup()
        ch = covering_chain(A, X.with_identity(), Fraction(1, 2), spec.element((0,)), (), 3)
        assert all(len(ch.levels[i]) == len(A) ** i for i in range(4))
        assert ch.nu == (Fraction(1), Fraction(1), Fraction(1))
        assert verify_chain(ch).ok

    def test_subgroup_gives_full_products(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1)]))
        X = GroupSet.from_elements(spec, [(0, 0)])
        ch = covering_chain(V, X, Fraction(0), V.min_element(), (1, 2), 2)
        assert len(ch.top) == len(V) ** 2
        assert verify_chain(ch).ok

    def test_z7_single_position(self):
        spec, A, X = z7_setup()
        ch = covering_chain(A, X.with_identity(), Fraction(1, 2), spec.element((0,)), (1,), 1)
        assert {t[0] for t in ch.top} == set(A.indices)
        assert verify_chain(ch).ok

    def test_top_membership_rederived(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(5)
        for _ in range(6):
            A = generate_instance("random", spec, size=4, seed=rng.getrandbits(30))
            delta = Fraction(1, 4)
            X = statistical_cover(A, A, delta).X.with_identity()
            k = rng.randint(1, 3)
            S = frozenset(rng.sample(range(1, k + 1), rng.randint(0, k)))
            x = rng.choice(list(A))
            ch = covering_chain(A, X, delta, x, S, k)
            assert verify_chain(ch).ok
            assert chain_top_in_target(A, X, x, S, ch)

    def test_precondition_errors(self):
        spec, A, X = z7_setup()
        no_identity = GroupSet.from_elements(spec, [(2,), (4,)])
        with pytest.raises(ValueError, match="identity"):
            covering_chain(A, no_identity, Fraction(1, 2), spec.element((0,)), (1,), 1)
        with pytest.raises(ValueError):
            covering_chain(
                A, X.with_identity(), Fraction(1, 2), spec.element((5,)), (1,), 1
            )  # x outside A
        with pytest.raises(ValueError):
            covering_chain(
                A, GroupSet.from_elements(spec, [(0,)]), Fraction(1, 10), spec.element((0,)), (1,), 1
            )  # not covered at this delta


class TestCardinalityBound:
    def test_lower_bound_for_verified_chains(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(6)
        for _ in range(10):
            A = generate_instance("random", spec, size=5, seed=rng.getrandbits(30))
            delta = Fraction(1, 4)
            X = statistical_cover(A, A, delta).X.with_identity()
            k = rng.randint(1, 3)
            S = frozenset(rng.sample(range(1, k + 1), rng.randint(0, k)))
            ch = covering_chain(A, X, delta, rng.choice(list(A)), S, k)
            assert verify_chain(ch).ok
            lower = Fraction(len(A)) ** k
            for nu in ch.nu:
                lower *= nu
            assert len(ch.top) >= lower


class TestEnergyBound:
    def test_subgroup_equality(self):
        spec = GroupSpec((2, 2))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 0)]))
        X = GroupSet.from_elements(spec, [(0, 0)])
        for k in (1, 2):
            ch = product_chain(V, [V] * k)
            chk = energy_bound_check(V, X, ch, Fraction(0))
            assert not chk.precondition_failures
            assert chk.lhs == chk.rhs == Fraction(len(V)) ** (k + 1)
            assert chk.holds

    def test_z7_reported_values(self):
        spec = GroupSpec((7,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        X = GroupSet.from_elements(spec, [(0,), (2,)])
        ch = product_chain(A, [A])
        chk = energy_bound_check(A, X, ch, Fraction(1, 2))
        assert (chk.lhs, chk.rhs, chk.holds) == (Fraction(15, 2), Fraction(9, 8), True)
        # delta = 1/2 sits outside the stated parameter range and is reported
        assert any("delta" in f for f in chk.precondition_failures)

    def test_energy_matches_oracle(self):
        spec = GroupSpec((2, 4))
        rng = random.Random(7)
        A = generate_instance("random", spec, size=3, seed=9)
        X = statistical_cover(A, A, Fraction(1, 4)).X.with_identity()
        ch = covering_chain(A, X, Fraction(1, 4), next(iter(A)), (1,), 2)
        chk = energy_bound_check(A, X, ch, Fraction(1, 4))
        oracle = sum(
            (
                energy_oracle(
                    spec.moduli,
                    {e.coords for e in A},
                    [spec.element_at(i).coords for i in t],
                )
                for t in ch.top
            ),
            Fraction(0),
        )
        assert chk.lhs == oracle

    def test_audit_fields(self):
        spec = GroupSpec((7,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        X = GroupSet.from_elements(spec, [(0,), (2,)]).with_identity()
        ch = product_chain(A, [A, A])
        chk = energy_bound_check(A, X, ch, Fraction(1, 4))
        assert chk.kxa_size <= chk.kx_times_a
        assert chk.kx_size == len(
            (X + X).indices
        )


# orders 7 to 16: 2-groups and others
ENERGY_GROUPS = [(8,), (2, 2, 2), (2, 4), (16,), (7,), (3, 3), (12,)]


def _per_leaf_energy(A, chain):
    """The sum _summed_energy replaced: one RationalFunc per prefix-tree node
    through average_with_translate, and one l2_norm_sq per top tuple."""
    spec = A.spec
    total = Fraction(0)
    stack = [indicator(A)]
    prev = ()
    for t in sorted(chain.top):
        common = 0
        for a, b in zip(prev, t):
            if a != b:
                break
            common += 1
        del stack[common + 1 :]
        for i in range(common, len(t)):
            stack.append(average_with_translate(stack[-1], spec.element_at(t[i])))
        total += stack[-1].l2_norm_sq()
        prev = t
    return total


def _tuple_chain(A, top, k):
    """A Chain with the given top of length-k tuples and its prefixes below."""
    levels = tuple(frozenset(t[:i] for t in top) for i in range(k)) + (frozenset(top),)
    if not top:
        levels = (frozenset({()}),) * k + (frozenset(),)
    return Chain(A, levels, (Fraction(1),) * k)


def _draw_chain(data, spec):
    """A base set of 1-4 elements and a depth-0..3 chain over it: a product,
    an intersection of two products, a covering chain, or an arbitrary
    subset of A^k."""
    A = GroupSet(spec, data.draw(st.sets(st.integers(0, spec.order - 1), min_size=1, max_size=4)))
    elems = sorted(A.indices)
    k = data.draw(st.integers(0, 3))
    kind = data.draw(st.sampled_from(["product", "intersected", "covering", "subset"]))
    subset = st.sets(st.sampled_from(elems), min_size=1)
    if k and kind == "product":
        return A, product_chain(A, [GroupSet(spec, data.draw(subset)) for _ in range(k)])
    if k and kind == "intersected":
        f1 = [data.draw(subset) for _ in range(k)]
        # each second factor meets the first, so nu1 + nu2 - 1 > 0
        f2 = [set(A.indices) - f | {min(f)} | data.draw(st.sets(st.sampled_from(elems))) for f in f1]
        return A, intersect_chains(
            product_chain(A, [GroupSet(spec, f) for f in f1]),
            product_chain(A, [GroupSet(spec, f) for f in f2]),
        )
    if k and kind == "covering":
        delta = data.draw(st.sampled_from([Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]))
        X = statistical_cover(A, A, delta).X.with_identity()
        x = spec.element_at(data.draw(st.sampled_from(elems)))
        S = data.draw(st.sets(st.integers(1, k)))
        return A, covering_chain(A, X, delta, x, S, k)
    top = data.draw(st.sets(st.tuples(*[st.sampled_from(elems)] * k), max_size=12))
    return A, _tuple_chain(A, top, k)


class TestSummedEnergy:
    """_summed_energy on chang's autocorrelation recurrence."""

    @given(st.sampled_from(ENERGY_GROUPS), st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_energy_oracle(self, mods, data):
        spec = GroupSpec(mods)
        A, chain = _draw_chain(data, spec)
        a_coords = {e.coords for e in A}
        oracle = sum(
            (energy_oracle(mods, a_coords, [spec.element_at(i).coords for i in t]) for t in chain.top),
            Fraction(0),
        )
        assert _summed_energy(A, chain) == oracle

    @given(st.sampled_from(ENERGY_GROUPS + [(4, 4, 4), (2,) * 6, (3, 3, 3)]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_per_leaf_sum(self, mods, data):
        A, chain = _draw_chain(data, GroupSpec(mods))
        assert _summed_energy(A, chain) == _per_leaf_energy(A, chain)

    def test_depth_zero_and_empty_top(self):
        spec = GroupSpec((7,))
        A = GroupSet(spec, frozenset([0, 1, 3]))
        assert _summed_energy(A, _tuple_chain(A, {()}, 0)) == 3
        assert _summed_energy(A, _tuple_chain(A, set(), 0)) == 0
        assert _summed_energy(A, _tuple_chain(A, set(), 2)) == 0

    def test_mixed_lengths_sum_per_length(self):
        # a top that fails the powers axiom still gets every tuple's energy
        spec = GroupSpec((3, 3))
        A = GroupSet(spec, frozenset([0, 1, 4]))
        top = frozenset({(), (1,), (1, 4), (4, 0, 1), (4, 1)})
        chain = Chain(A, (frozenset({()}), top), (Fraction(1),))
        assert _summed_energy(A, chain) == _per_leaf_energy(A, chain)

    def test_long_tuple_crosses_into_python_ints(self):
        # |G| |A| 4^k = 8 * 3 * 4^30 passes int64, so N is walked as Python ints
        spec = GroupSpec((8,))
        A = GroupSet(spec, frozenset([0, 1, 3]))
        chain = _tuple_chain(A, {(1,) * 30, (1,) * 29 + (3,), (3,) * 30}, 30)
        assert _summed_energy(A, chain) == _per_leaf_energy(A, chain)

    def test_entry_outside_the_group_is_rejected(self):
        spec = GroupSpec((7,))
        A = GroupSet(spec, frozenset([0, 1]))
        chain = Chain(A, (frozenset({()}), frozenset({(1,), (7,)})), (Fraction(1),))
        with pytest.raises(ValueError, match="out of range"):
            _summed_energy(A, chain)


class TestCoveringLevels:
    @given(st.sampled_from(ENERGY_GROUPS), st.data())
    @settings(max_examples=25, deadline=None)
    def test_levels_match_selected_sum_oracle(self, mods, data):
        # level i holds the t in A^i with x + sum_{s' in S, s' <= s} t_s' in
        # |{s' in S : s' <= s}| X + A for every s in S up to i
        spec = GroupSpec(mods)
        A = GroupSet(spec, data.draw(st.sets(st.integers(0, spec.order - 1), min_size=1, max_size=4)))
        X = statistical_cover(A, A, Fraction(1, 2)).X.with_identity()
        x = data.draw(st.sampled_from(sorted(A.indices)))
        k = data.draw(st.integers(1, 3))
        S = sorted(data.draw(st.sets(st.integers(1, k))))
        ch = covering_chain(A, X, Fraction(1, 2), spec.element_at(x), S, k)
        co = {i: spec.element_at(i).coords for i in range(spec.order)}
        a_co, x_co = [co[a] for a in A.indices], [co[i] for i in X.indices]
        targets = {r: sumset_oracle(mods, k_fold_oracle(mods, x_co, r), a_co) for r in range(k + 1)}

        def keeps(t):
            total = co[x]
            for r, s in enumerate((s for s in S if s <= len(t)), start=1):
                total = add_c(mods, total, co[t[s - 1]])
                if total not in targets[r]:
                    return False
            return True

        levels = [frozenset({()})]
        for i in range(1, k + 1):
            levels.append(frozenset(p + (a,) for p in levels[-1] for a in A.indices if keeps(p + (a,))))
        assert ch.levels == tuple(levels)
        assert chain_top_in_target(A, X, spec.element_at(x), S, ch)
