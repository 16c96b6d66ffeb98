import decimal
import hashlib
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statcover import (
    GroupSet,
    GroupSpec,
    chang_iterate,
    decrement_check,
    energy_floor_steps,
    generate_instance,
    indicator,
    invariant_set,
    subgroup_closure,
)
from statcover import chang, functions, sets
from statcover.functions import RationalFunc

from oracles import (
    chang_oracle,
    defect_oracle,
    inner_oracle,
    overlap_oracle,
    translate_oracle,
)


class TestInvariantSet:
    def test_subgroup_everything_invariant(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1)]))
        out = invariant_set(indicator(V), V, (), Fraction(1, 2))
        assert out == V

    def test_point_mass_in_z2(self):
        spec = GroupSpec((2,))
        h = indicator(GroupSet.from_elements(spec, [(0,)]))
        out = invariant_set(h, GroupSet.full(spec), (), Fraction(1))
        assert sorted(out.indices) == [0]

    def test_tiny_kappa_keeps_exact_invariance_only(self):
        spec = GroupSpec((8,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (4,)])
        h = indicator(A)
        out = invariant_set(h, GroupSet.full(spec), (), Fraction(1, 10**9))
        assert sorted(out.indices) == [0]

    def test_zero_h_rejected(self):
        spec = GroupSpec((3,))
        with pytest.raises(ValueError):
            invariant_set(RationalFunc.zero(spec), GroupSet.full(spec), (), Fraction(1))

    @pytest.mark.parametrize("kappa", [Fraction(0), Fraction(1) + Fraction(1, 10**12)])
    def test_kappa_outside_the_half_open_unit_interval_is_rejected(self, kappa):
        # kappa = 1 is accepted (test_point_mass_in_z2); 0 and just past 1 are not
        spec = GroupSpec((3,))
        h = indicator(GroupSet.full(spec))
        with pytest.raises(ValueError, match="kappa must lie in"):
            invariant_set(h, GroupSet.full(spec), (), kappa)


class TestDecrementCheck:
    def test_halving_example(self):
        spec = GroupSpec((4,))
        h = indicator(GroupSet.from_elements(spec, [(0,), (1,)]))
        new_e, held = decrement_check(h, (), spec.element((1,)), Fraction(1))
        assert new_e == Fraction(3, 2)
        assert held  # 3/2 <= (1 - 1/4) * 2

    def test_invariant_translate_never_decrements(self):
        spec = GroupSpec((2, 2))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 0)]))
        h = indicator(V)
        new_e, held = decrement_check(h, (), spec.element((1, 0)), Fraction(1, 2))
        assert new_e == h.l2_norm_sq()
        assert not held

    def test_identity_holds_for_random_steps(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(1)
        for _ in range(10):
            A = generate_instance("random", spec, size=4, seed=rng.getrandbits(30))
            h = indicator(A)
            path = tuple(
                spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(0, 2))
            )
            x = spec.element_at(rng.randrange(spec.order))
            # decrement_check itself asserts the parallelogram identity
            new_e, _ = decrement_check(h, path, x, Fraction(1, 2))
            assert new_e >= 0


class TestChangIterate:
    def test_subgroup_immediate_invariance(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(0, 1)]))
        out = chang_iterate(indicator(V), V, Fraction(1, 2), Fraction(1), 5)
        assert out.kind == "invariant"
        assert out.l == 0
        assert out.witnesses == V

    def test_two_point_set_energy_trace(self):
        spec = GroupSpec((4,))
        A = GroupSet.from_elements(spec, [(0,), (1,)])
        out = chang_iterate(indicator(A), A, Fraction(1), Fraction(1), 10)
        assert out.energies[0] == 2
        assert out.energies[1] == Fraction(3, 2)
        shrink = Fraction(3, 4)
        for i in range(len(out.path)):
            assert out.energies[i + 1] <= shrink * out.energies[i]

    def test_decrement_outcome_when_capped(self):
        spec = GroupSpec((3,))
        A = GroupSet.from_elements(spec, [(1,)])
        out = chang_iterate(indicator(A), A, Fraction(1), Fraction(1, 2), 2)
        assert out.kind == "decrement"
        assert out.l == 2
        assert out.witnesses is None
        assert len(out.energies) == 3

    def test_telescoped_bound_exact(self):
        spec = GroupSpec((16,))
        A = generate_instance("random", spec, size=5, seed=3)
        kappa = Fraction(1, 2)
        out = chang_iterate(indicator(A), A, kappa, Fraction(3, 4), 40)
        start = out.energies[0]
        for i, e in enumerate(out.energies):
            assert e <= (1 - kappa / 4) ** i * start

    def test_energy_floor_and_step_cap(self):
        specs = [GroupSpec((16,)), GroupSpec((2, 2, 2, 2)), GroupSpec((3, 3))]
        rng = random.Random(4)
        for spec in specs:
            for _ in range(5):
                A = generate_instance(
                    "random", spec, size=rng.randint(2, 6), seed=rng.getrandbits(30)
                )
                kappa = Fraction(1, 2)
                cap = energy_floor_steps(spec.order, len(A), kappa)
                out = chang_iterate(indicator(A), A, kappa, Fraction(1, 4), cap + 1)
                assert out.kind == "invariant"
                assert out.l <= cap
                floor = Fraction(len(A) ** 2, spec.order)
                assert all(e >= floor for e in out.energies)

    def test_witnesses_reverify(self):
        spec = GroupSpec((3, 3))
        A = generate_instance("random", spec, size=5, seed=5)
        kappa, eta = Fraction(1, 4), Fraction(1, 4)
        cap = energy_floor_steps(spec.order, len(A), kappa)
        out = chang_iterate(indicator(A), A, kappa, eta, cap + 1)
        assert out.kind == "invariant"
        replay = invariant_set(indicator(A), A, out.path, kappa)
        assert replay == out.witnesses
        assert Fraction(len(out.witnesses)) >= eta * len(A)

    def test_validation(self):
        spec = GroupSpec((4,))
        A = GroupSet.from_elements(spec, [(0,), (1,)])
        h = indicator(A)
        with pytest.raises(ValueError):
            chang_iterate(h, A, Fraction(0), Fraction(1, 2), 5)
        with pytest.raises(ValueError):
            chang_iterate(h, A, Fraction(1, 2), Fraction(3, 2), 5)
        with pytest.raises(ValueError):
            chang_iterate(RationalFunc.zero(spec), A, Fraction(1), Fraction(1), 5)
        signed = RationalFunc.from_pairs(spec, {0: 1, 1: -1})
        with pytest.raises(ValueError):
            chang_iterate(signed, A, Fraction(1), Fraction(1), 5)


KERNEL_GROUPS = [(16,), (2, 2, 2), (3, 3), (2, 6), (5,), (4, 4)]


def _run_both(spec, pairs, a_indices, kappa, eta, k_max):
    """chang_iterate and chang_oracle on the same input, both as coordinates."""
    h = RationalFunc.from_pairs(spec, pairs)
    A = GroupSet(spec, frozenset(a_indices))
    out = chang_iterate(h, A, kappa, eta, k_max)
    coords = {spec.element_at(i).coords: Fraction(v) for i, v in pairs.items()}
    oracle = chang_oracle(
        spec.moduli, coords, [e.coords for e in A], kappa, eta, k_max
    )
    return out, oracle


def _assert_same(out, oracle):
    kind, path, energies, witnesses = oracle
    assert out.kind == kind
    assert [e.coords for e in out.path] == path
    assert out.energies == tuple(energies)
    assert all(type(e) is Fraction for e in out.energies)
    if witnesses is None:
        assert out.witnesses is None
    else:
        assert {e.coords for e in out.witnesses} == witnesses


class TestIntegerKernel:
    """The integer-numerator iteration against a Fraction replay over the whole group."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_mixed_denominators(self, data):
        spec = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS)))
        idx = st.integers(0, spec.order - 1)
        pairs = data.draw(
            st.dictionaries(
                idx,
                st.fractions(min_value=0, max_value=4, max_denominator=12).filter(bool),
                min_size=1,
                max_size=6,
            )
        )
        a_indices = data.draw(st.sets(idx, min_size=1, max_size=6))
        q = data.draw(st.integers(1, 64))
        kappa = Fraction(data.draw(st.integers(1, q)), q)
        eta = Fraction(data.draw(st.integers(0, 6)), 6)
        k_max = data.draw(st.integers(0, 8))
        _assert_same(*_run_both(spec, pairs, a_indices, kappa, eta, k_max))

    def test_long_run_crosses_into_python_ints(self):
        spec = GroupSpec((16,))
        A = generate_instance("random", spec, size=5, seed=3)
        pairs = {i: 1 for i in A.indices}
        out, oracle = _run_both(spec, pairs, A.indices, Fraction(1, 1000), Fraction(1), 100)
        _assert_same(out, oracle)
        start, end = indicator(A), out.func
        assert start.num.dtype == np.int64 and end.num.dtype == object
        assert end.den == 2 ** out.l and out.l > 40

    def test_signed_values_at_the_int64_edge(self):
        # |G| max|num|^2 = 2**62 fits int64, but the differences reach
        # 2 * 2**30, so a row sum of their squares is 2**64
        spec = GroupSpec((4,))
        m = 2**30
        h = RationalFunc.from_pairs(spec, {0: m, 1: -m, 2: m, 3: -m})
        full = GroupSet.full(spec)
        kappa = Fraction(1, 2)
        expected = {
            x for x in full.indices if h.translation_defect(x, 2) < kappa * h.l2_norm_sq()
        }
        assert invariant_set(h, full, (), kappa).indices == expected == {0, 2}

    def test_several_row_blocks(self):
        spec = GroupSpec((1024,))
        rows = functions._BLOCK_ENTRIES // spec.order
        a_indices = random.Random(7).sample(range(spec.order), 300)
        assert len(a_indices) > rows
        pairs = {i: 1 for i in range(600)}
        out, oracle = _run_both(spec, pairs, a_indices, Fraction(1, 2), Fraction(1, 10), 3)
        _assert_same(out, oracle)
        # the witnesses are the x within 150 of 0, so both row blocks hold some
        assert out.kind == "invariant"
        first_block = sorted(a_indices)[:rows]
        assert out.witnesses.indices & set(first_block)
        assert out.witnesses.indices - set(first_block)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_rebuilt_tables_match_kept_tables(self, data):
        spec = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS)))
        idx = st.integers(0, spec.order - 1)
        A = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=8))))
        h = indicator(GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=8)))))
        args = (h, A, Fraction(1, 3), Fraction(1, 2), 6)
        kept = chang_iterate(*args)
        budgets = (functions._BLOCK_ENTRIES, sets._BLOCK_ENTRIES)
        try:
            # one row per defect block and one pair per product block
            functions._BLOCK_ENTRIES, sets._BLOCK_ENTRIES = 1, 1
            rebuilt = chang_iterate(*args)
        finally:
            functions._BLOCK_ENTRIES, sets._BLOCK_ENTRIES = budgets
        assert rebuilt == kept


class TestAutocorrelation:
    """The recurrence N' = 2N + N(. - a) + N(. + a) that decides every test."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_indicator_matches_oracle(self, data):
        # test_matches_oracle_mixed_denominators covers non-negative
        # mixed-denominator h on the same groups
        spec = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS)))
        idx = st.integers(0, spec.order - 1)
        a_indices = data.draw(st.sets(idx, min_size=1, max_size=8))
        pairs = {i: 1 for i in a_indices}
        q = data.draw(st.integers(1, 64))
        kappa = Fraction(data.draw(st.integers(1, q)), q)
        eta = Fraction(data.draw(st.integers(0, 6)), 6)
        k_max = data.draw(st.integers(0, 12))
        _assert_same(*_run_both(spec, pairs, a_indices, kappa, eta, k_max))

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_indicator_counts_overlaps(self, data):
        spec = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS + [(2, 4, 8), (3, 9)])))
        idx = st.integers(0, spec.order - 1)
        A = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=12))))
        N = chang._autocorrelation(indicator(A))
        coords = [e.coords for e in A]
        assert N.tolist() == [
            overlap_oracle(spec.moduli, coords, x.coords) for x in spec.elements()
        ]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_pair_blocks_match_oracle(self, data):
        spec = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS)))
        idx = st.integers(0, spec.order - 1)
        values = st.fractions(min_value=-4, max_value=4, max_denominator=12)
        pairs = data.draw(st.dictionaries(idx, values, min_size=1, max_size=8))
        h = RationalFunc.from_pairs(spec, pairs)
        N = chang._autocorrelation(h)
        budget = sets._BLOCK_ENTRIES
        try:
            sets._BLOCK_ENTRIES = data.draw(st.integers(1, 4))
            assert chang._autocorrelation(h).tolist() == N.tolist()
        finally:
            sets._BLOCK_ENTRIES = budget
        f = {spec.element_at(i).coords: Fraction(v) for i, v in pairs.items()}
        mods = spec.moduli
        assert [Fraction(n, h.den**2) for n in N.tolist()] == [
            inner_oracle(f, translate_oracle(mods, f, x.coords)) for x in spec.elements()
        ]

    def test_recurrence_crosses_into_python_ints(self):
        spec = GroupSpec((16,))
        A = generate_instance("random", spec, size=5, seed=3)
        out = chang_iterate(indicator(A), A, Fraction(1, 1000), Fraction(1), 100)
        g, N = indicator(A), chang._autocorrelation(indicator(A))
        dtypes = [N.dtype]
        for e in out.path:
            g, N = chang._step(g, N, e.index)
            assert N.tolist() == chang._autocorrelation(g).tolist()
            dtypes.append(N.dtype)
        assert g == out.func and out.l > 40
        assert dtypes[0] == np.int64 and dtypes[-1] == object
        assert int(N[0]) == int((g.num * g.num).sum())

    def test_stage_two_run_on_z64_matches_recorded_values(self):
        # the second-stage call of theorem_driver on the random |A| = 8 set
        # in Z_64 (seed 2), with the digests of its path and of its exact
        # energies as computed by the earlier per-x defect kernel
        spec = GroupSpec((64,))
        A = GroupSet(spec, frozenset([5]))
        kappa = Fraction(405785562169, 289155191903362576)
        eta = Fraction(637013, 2150926096)
        out = chang_iterate(indicator(A), A, kappa, eta, 11854168)
        assert out.kind == "invariant" and out.l == 3953
        assert out.witnesses == A
        path = ",".join(str(e.index) for e in out.path)
        energies = ",".join(f"{e.numerator}/{e.denominator}" for e in out.energies)
        assert hashlib.sha256(path.encode()).hexdigest() == (
            "24968cafe2fcf023c58b5d052b943926ea00aee26fb384a5faf249dc4ccf2435"
        )
        assert hashlib.sha256(energies.encode()).hexdigest() == (
            "092e2ceab387222678ee49454587f8fe97dcaf2ca7caac5c320fc6e557b33a63"
        )

    def test_wrong_energy_numerator_is_reported(self, monkeypatch):
        spec = GroupSpec((8,))
        A = GroupSet(spec, frozenset([0, 1, 3]))
        right = chang._autocorrelation

        def off_by_one(h):
            N = right(h).copy()
            N[0] += 1
            return N

        monkeypatch.setattr(chang, "_autocorrelation", off_by_one)
        with pytest.raises(AssertionError, match="indicates a bug"):
            chang_iterate(indicator(A), A, Fraction(1, 2), Fraction(1, 2), 5)


class TestDefectRowBlocks:
    """The block split of RationalFunc.translation_defects, which chang no longer uses."""

    def test_several_row_blocks(self):
        spec = GroupSpec((1024,))
        rows = functions._BLOCK_ENTRIES // spec.order
        xs = random.Random(7).sample(range(spec.order), 300)
        assert len(xs) > rows
        f = RationalFunc.from_pairs(spec, {i: Fraction(i % 7 - 3, 5) for i in range(600)})
        for p in (1, 2):
            got = f.translation_defects(xs, p)
            norm = RationalFunc.l1_norm if p == 1 else RationalFunc.l2_norm_sq
            assert got == [norm(f - f.translate_index(x)) for x in xs]

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_row_per_block_matches_one_block(self, data):
        spec = GroupSpec(data.draw(st.sampled_from(KERNEL_GROUPS)))
        idx = st.integers(0, spec.order - 1)
        values = st.fractions(min_value=-4, max_value=4, max_denominator=12)
        pairs = data.draw(st.dictionaries(idx, values, min_size=1, max_size=8))
        f = RationalFunc.from_pairs(spec, pairs)
        xs = data.draw(st.lists(idx, max_size=10))
        p = data.draw(st.sampled_from([1, 2]))
        whole = f.translation_defects(xs, p)
        budget = functions._BLOCK_ENTRIES
        try:
            functions._BLOCK_ENTRIES = 1
            split = f.translation_defects(xs, p)
        finally:
            functions._BLOCK_ENTRIES = budget
        coords = {spec.element_at(i).coords: Fraction(v) for i, v in pairs.items()}
        mods = spec.moduli
        assert split == whole == [
            defect_oracle(mods, coords, spec.element_at(x).coords, p) for x in xs
        ]


def _is_least_step(k, order, a_size, kappa):
    q = 4 / (4 - Fraction(kappa))
    ratio = Fraction(order, a_size)
    return q**k >= ratio and (k == 0 or q ** (k - 1) < ratio)


class TestEnergyFloorSteps:
    @given(
        st.integers(2, 2**40),
        st.floats(0, 1, exclude_min=True),
        st.integers(1, 1000),
        st.data(),
    )
    @settings(max_examples=80, deadline=None)
    def test_least_power_covering_the_ratio(self, order, frac, q, data):
        a_size = max(1, min(order - 1, int(order * frac)))
        kappa = Fraction(data.draw(st.integers(1, q)), q)
        k = energy_floor_steps(order, a_size, kappa)
        assert _is_least_step(k, order, a_size, kappa)

    @given(st.integers(3, 400), st.integers(1, 60), st.integers(1, 5), st.data())
    @settings(max_examples=80, deadline=None)
    def test_exact_powers_decided_exactly(self, b, n, s, data):
        # q = c/b with b < c <= 4b/3 gives kappa = 4 (c - b) / c in (0, 1];
        # |G| / |A| = q^n exactly, where the float quotient sits on n
        c = data.draw(st.integers(b + 1, 4 * b // 3))
        kappa = Fraction(4 * (c - b), c)
        order, a_size = c**n * s, b**n * s
        k = energy_floor_steps(order, a_size, kappa)
        assert k == n
        assert _is_least_step(k, order, a_size, kappa)

    @given(st.integers(2, 3000), st.integers(1, 2**40), st.integers(1, 2**40), st.data())
    @settings(max_examples=60, deadline=None)
    def test_power_test_without_powers(self, m, u, v, data):
        # q = (m+1)/m near 1 and a small ratio: the logarithm path decides,
        # checked against the integer powers, which stay affordable here
        q = Fraction(m + 1, m)
        ratio = Fraction(max(u, v) + 1, min(u, v))
        n0 = math.floor(math.log(ratio) / math.log(q))
        n = max(1, n0 + data.draw(st.integers(-1, 2)))
        assert chang._power_covers(q, n, ratio) == (q**n >= ratio)

    def test_tiny_kappa_builds_no_huge_power(self):
        # the quotient is near 1e14 steps, so the relative 1e-9 window always
        # holds an integer and the exact decision must not form q^n
        kappa = Fraction(1, 10**12)
        k = energy_floor_steps(2**40, 3, kappa)
        D = decimal.Decimal
        with decimal.localcontext() as ctx:
            ctx.prec = 80
            t = (D(2**40) / 3).ln() / (4 / (4 - D(1) / D(10**12))).ln()
        assert k == math.ceil(t)

    def test_no_steps_when_a_fills_the_group(self):
        assert energy_floor_steps(8, 8, Fraction(1, 2)) == 0
        assert energy_floor_steps(8, 9, Fraction(1, 2)) == 0

    @pytest.mark.parametrize("kappa", [Fraction(10**400), Fraction(3, 2), Fraction(0), Fraction(-1, 4)])
    def test_kappa_outside_the_range_is_refused(self, kappa):
        with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1\]"):
            energy_floor_steps(64, 3, kappa)
        with pytest.raises(ValueError, match=r"kappa must lie in \(0, 1\]"):
            energy_floor_steps(8, 8, kappa)

    @pytest.mark.parametrize("a_size", [0, -3])
    def test_empty_set_is_refused(self, a_size):
        with pytest.raises(ValueError, match="non-empty"):
            energy_floor_steps(7, a_size, Fraction(1, 2))

    def test_kappa_below_the_least_double_is_refused(self):
        with pytest.raises(ValueError, match="least positive double"):
            energy_floor_steps(64, 3, Fraction(1, 10**400))

    def test_kappa_whose_bound_overflows_is_refused(self):
        # 2**-1070 / 4 is a double, but log(64/3) over it is not
        with pytest.raises(ValueError, match="overflows a double"):
            energy_floor_steps(64, 3, Fraction(1, 2**1070))
