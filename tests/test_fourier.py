import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statcover import (
    CharSet,
    GroupSet,
    GroupSpec,
    annihilator,
    convolve,
    dft,
    indicator,
    spectrum,
    subgroup_closure,
)
from statcover.fourier import (
    DENSE_TRANSFORM_LIMIT,
    SPECTRUM_GUARD,
    PowerSpectrum,
    _dft_matrix,
    power_spectrum,
)
from statcover import sets
from statcover.functions import RationalFunc

from oracles import all_coords, annihilator_oracle, char_eval_oracle, dft_oracle

from test_functions import rand_func, as_dict


class TestTransform:
    def test_full_group_indicator(self):
        spec = GroupSpec((2,))
        out = dft(indicator(GroupSet.full(spec))).values
        assert abs(out[0] - 2) < 1e-12 and abs(out[1]) < 1e-12

    def test_point_masses(self):
        spec = GroupSpec((2,))
        at0 = dft(indicator(GroupSet.from_elements(spec, [(0,)]))).values
        at1 = dft(indicator(GroupSet.from_elements(spec, [(1,)]))).values
        assert np.allclose(at0, [1, 1]) and np.allclose(at1, [1, -1])

    def test_trivial_character_value_is_mass(self):
        spec = GroupSpec((3, 4))
        rng = random.Random(2)
        for _ in range(5):
            f = rand_func(spec, rng)
            assert abs(dft(f).values[0] - float(f.mass())) <= 1e-9 * max(
                1.0, float(f.l1_norm())
            )

    @pytest.mark.parametrize("mods", [(2, 3), (4,), (2, 2, 2), (6,), (3, 4)])
    def test_matches_definition_oracle(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(4)
        for _ in range(4):
            f = rand_func(spec, rng)
            got = dft(f).values
            oracle = dft_oracle(spec.moduli, as_dict(f))
            assert np.allclose(got, oracle, atol=1e-10)

    def test_dense_and_factorized_paths_agree(self):
        # order above the dense limit exercises the per-axis factorization
        spec = GroupSpec((3, 3, 3, 3, 3, 2, 3))
        assert spec.order > DENSE_TRANSFORM_LIMIT
        rng = random.Random(5)
        f = rand_func(spec, rng, max_support=40)
        fast = dft(f).values
        dense = dft(f, force_dense=True).values
        scale = max(1.0, float(np.abs(dense).max()))
        assert float(np.abs(fast - dense).max()) / scale <= 1e-9

    @pytest.mark.parametrize("mods", [(3, 4), (2,) * 11])
    def test_bitwise_equal_to_float_of_every_value(self, mods):
        # the transform reads float(v) for every value, zeros included
        spec = GroupSpec(mods)
        rng = random.Random(6)
        for _ in range(3):
            f = rand_func(spec, rng, max_support=30)
            vals = np.array([float(v) for v in f.values], dtype=np.float64)
            if spec.order <= DENSE_TRANSFORM_LIMIT:
                ref = _dft_matrix(spec) @ vals.astype(np.complex128)
            else:
                ref = np.fft.fftn(vals.reshape(spec.moduli)).reshape(-1)
            assert np.array_equal(dft(f).values, ref)


class TestParsevalAndConvolution:
    @pytest.mark.parametrize("mods", [(2, 8), (3, 3, 3), (4, 4)])
    def test_parseval(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(6)
        for _ in range(10):
            f = rand_func(spec, rng, max_support=10)
            if f.is_zero():
                continue
            exact = float(f.l2_norm_sq())
            mean_sq = float((np.abs(dft(f).values) ** 2).mean())
            assert abs(exact - mean_sq) <= 1e-9 * max(1.0, exact)

    @pytest.mark.parametrize("mods", [(2, 8), (3, 3, 3)])
    def test_convolution_theorem(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(7)
        for _ in range(8):
            f, g = rand_func(spec, rng), rand_func(spec, rng)
            lhs = dft(convolve(f, g)).values
            rhs = dft(f).values * dft(g).values
            scale = max(1.0, float(np.abs(rhs).max()))
            assert float(np.abs(lhs - rhs).max()) / scale <= 1e-9


class TestSpectrum:
    def test_subgroup_indicator(self):
        spec = GroupSpec((2, 2))
        V = GroupSet.from_elements(spec, [(0, 0), (0, 1)])
        out = spectrum(indicator(V), Fraction(1, 2))
        assert sorted(out.indices) == [0, 2]

    def test_trivial_character_always_in(self):
        spec = GroupSpec((5,))
        rng = random.Random(8)
        for _ in range(5):
            f = rand_func(spec, rng)
            f = RationalFunc.from_values(spec, (abs(v) for v in f.values))
            if f.is_zero():
                continue
            assert 0 in spectrum(f, Fraction(1)).indices

    def test_full_group_keeps_only_trivial(self):
        spec = GroupSpec((3, 2))
        out = spectrum(indicator(GroupSet.full(spec)), Fraction(1, 2))
        assert sorted(out.indices) == [0]

    def test_zero_function_rejected(self):
        spec = GroupSpec((2,))
        with pytest.raises(ValueError):
            spectrum(RationalFunc.zero(spec), Fraction(1, 2))

    def test_threshold_range(self):
        spec = GroupSpec((2,))
        f = indicator(GroupSet.full(spec))
        with pytest.raises(ValueError):
            spectrum(f, Fraction(0))
        with pytest.raises(ValueError):
            spectrum(f, Fraction(3, 2))


class TestAnnihilator:
    def test_trivial_character_annihilates_everything(self):
        spec = GroupSpec((3, 2))
        out = annihilator(CharSet(spec, frozenset([0])))
        assert len(out) == spec.order

    def test_all_characters_leave_identity(self):
        spec = GroupSpec((2, 4))
        out = annihilator(CharSet(spec, frozenset(range(spec.order))))
        assert sorted(out.indices) == [0]

    def test_subgroup_duality(self):
        spec = GroupSpec((2, 2))
        V = GroupSet.from_elements(spec, [(0, 0), (0, 1)])
        perp = spectrum(indicator(V), Fraction(1))
        assert annihilator(perp) == V

    @pytest.mark.parametrize("mods", [(2, 4), (3, 3), (6, 2), (5,)])
    def test_matches_float_tolerance_oracle(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(9)
        for _ in range(6):
            chars = frozenset(rng.sample(range(spec.order), rng.randint(1, 4)))
            got = annihilator(CharSet(spec, chars))
            by_float = {
                x
                for x in all_coords(mods)
                if all(
                    abs(char_eval_oracle(mods, spec.element_at(c).coords, x) - 1) < 1e-9
                    for c in chars
                )
            }
            assert {e.coords for e in got} == by_float

    def test_union_intersection(self):
        spec = GroupSpec((2, 2, 2))
        rng = random.Random(10)
        for _ in range(6):
            g1 = CharSet(spec, frozenset(rng.sample(range(8), 2)))
            g2 = CharSet(spec, frozenset(rng.sample(range(8), 2)))
            assert annihilator(g1 | g2) == annihilator(g1) & annihilator(g2)

    def test_result_is_subgroup(self):
        spec = GroupSpec((4, 3))
        rng = random.Random(11)
        for _ in range(5):
            chars = CharSet(spec, frozenset(rng.sample(range(spec.order), 3)))
            out = annihilator(chars)
            assert subgroup_closure(out) == out

    def test_subgroup_enumeration_counts(self):
        # Gaussian binomial totals: 67 subgroups in Z_2^4, 28 in Z_3^3
        from statcover.suites import all_subgroups

        assert len(all_subgroups(GroupSpec((2, 2, 2, 2)), 4)) == 67
        assert len(all_subgroups(GroupSpec((3, 3, 3)), 3)) == 28

    @pytest.mark.parametrize("mods", [(2, 2, 4), (3, 9)])
    def test_spectrum_annihilator_recovers_subgroups(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(12)
        for _ in range(6):
            gens = [spec.element_at(rng.randrange(spec.order)) for _ in range(2)]
            V = subgroup_closure(GroupSet.from_elements(spec, gens))
            for eps in (Fraction(1, 10), Fraction(1, 2), Fraction(1)):
                assert annihilator(spectrum(indicator(V), eps)) == V


ANNIHILATOR_GROUPS = [(64,), (4, 6), (2, 2, 4), (3, 9), (2,) * 6, (12, 18)]


class TestAnnihilatorDifferential:
    """annihilator (greedy generating set) against exact phases over all x."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_exact_phase_oracle(self, data):
        mods = data.draw(st.sampled_from(ANNIHILATOR_GROUPS))
        spec = GroupSpec(mods)
        n = spec.order
        size = data.draw(st.sampled_from([0, 1, 2, 3, 4, n // 3, n]))
        chars = data.draw(
            st.sets(st.integers(0, n - 1), min_size=size, max_size=size)
        )
        got = annihilator(CharSet(spec, frozenset(chars)))
        oracle = annihilator_oracle(mods, [spec.character_at(c).coords for c in chars])
        assert {e.coords for e in got} == oracle

    @pytest.mark.parametrize("mods", ANNIHILATOR_GROUPS)
    def test_full_dual_and_empty_set(self, mods):
        spec = GroupSpec(mods)
        assert annihilator(CharSet(spec, frozenset(range(spec.order)))).indices == {0}
        assert len(annihilator(CharSet(spec, frozenset()))) == spec.order

    @pytest.mark.parametrize("mods", ANNIHILATOR_GROUPS)
    def test_subgroup_generated_by_chars_gives_same_annihilator(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(4)
        for _ in range(6):
            chars = rng.sample(range(spec.order), 3)
            span = subgroup_closure(GroupSet(spec, frozenset(chars))).indices
            got = annihilator(CharSet(spec, frozenset(chars)))
            assert got == annihilator(CharSet(spec, span))
            assert {e.coords for e in got} == annihilator_oracle(
                mods, [spec.character_at(c).coords for c in chars]
            )


class TestAnnihilatorDigitBlocks:
    """The non-exponent-2 filter reads candidate digits in blocks."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_small_blocks_match_one_block(self, data):
        mods = data.draw(st.sampled_from([m for m in ANNIHILATOR_GROUPS if max(m) > 2]))
        spec = GroupSpec(mods)
        chars = CharSet(spec, frozenset(data.draw(st.sets(st.integers(0, spec.order - 1), max_size=4))))
        whole = annihilator(chars)
        budget = sets._BLOCK_ENTRIES
        try:
            sets._BLOCK_ENTRIES = data.draw(st.integers(1, 3 * spec.rank))
            assert annihilator(chars) == whole
        finally:
            sets._BLOCK_ENTRIES = budget

    def test_memory_stays_within_blocks(self):
        # the digits of all 3**12 candidates at once take 48 MiB; a block
        # holds at most 2**18 digit entries (2 MiB)
        spec = GroupSpec((3,) * 12)
        basis = [spec.index_of([0] * j + [1] + [0] * (11 - j)) for j in range(12)]
        chars = CharSet(spec, frozenset(basis))
        spec._arange  # built outside the traced window
        tracemalloc.start()
        try:
            ann = annihilator(chars)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ann.indices == {0}
        assert peak <= 24 * 2**20


def signed_func(spec, rng, support):
    """Random signed values over mixed denominators on `support` points."""
    return RationalFunc.from_pairs(
        spec,
        {
            i: Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 12))
            for i in rng.sample(range(spec.order), support)
        },
    )


def float_values(f):
    return np.array([float(v) for v in f.values], dtype=np.float64)


def fftn_spectrum(f, eps):
    """The spectrum as computed through numpy fftn on every group."""
    fh = np.fft.fftn(float_values(f).reshape(f.spec.moduli)).reshape(-1)
    mag2 = fh.real * fh.real + fh.imag * fh.imag
    thr2 = (float(eps) * float(f.l1_norm())) ** 2 * (1.0 - SPECTRUM_GUARD)
    return frozenset(np.nonzero(mag2 >= thr2)[0].tolist())


def exact_walsh(f):
    """den * fhat over Z_2^n in Python ints: the butterfly on the numerators."""
    out = np.array(f.num.tolist(), dtype=object)
    h = 1
    while h < out.size:
        pairs = out.reshape(-1, 2, h)
        a, b = pairs[:, 0].copy(), pairs[:, 1].copy()
        pairs[:, 0], pairs[:, 1] = a + b, a - b
        h *= 2
    return out


class TestButterfly:
    """The exponent-2 transform above the dense limit is bitwise numpy fftn."""

    @pytest.mark.parametrize("n", range(11, 17))
    def test_bitwise_equal_to_fftn(self, n):
        spec = GroupSpec((2,) * n)
        assert spec.order > DENSE_TRANSFORM_LIMIT
        rng = random.Random(n)
        for support in (1, 7, 300, spec.order // 3):
            f = signed_func(spec, rng, support)
            ref = np.fft.fftn(float_values(f).reshape(spec.moduli)).reshape(-1)
            got = dft(f).values
            assert got.dtype == np.float64
            assert not np.any(ref.imag)
            assert np.array_equal(got, ref.real)

    @pytest.mark.parametrize("n", [11, 14])
    def test_within_the_certified_bound(self, n):
        # |computed - exact| <= gamma_(n+1) ||f||_1, checked in Fractions
        spec = GroupSpec((2,) * n)
        rng = random.Random(40 + n)
        u = Fraction(1, 2**53)
        gamma = (n + 1) * u / (1 - (n + 1) * u)
        for support in (5, spec.order // 2):
            f = signed_func(spec, rng, support)
            exact = exact_walsh(f)
            got = dft(f).values
            bound = gamma * f.l1_norm()
            for i in rng.sample(range(spec.order), 200):
                assert abs(Fraction(float(got[i])) - Fraction(exact[i], f.den)) <= bound

    def test_guard_covers_the_bound_at_every_order(self):
        # a member has |fhat| >= t l1, computed >= (t - E) l1; it is kept when
        # t^2 (1 - guard) <= (t - E)^2, which 2 t E + E^2 <= guard t^2
        # ensures with room for the few-ulp roundings of both squares.  The
        # least driver threshold is r eta ~ 1 / (4 sqrt(e)) ~ 0.1516.
        u = 2.0**-53
        for n in range(64):  # every exponent-2 order a GroupSpec admits
            E = (n + 1) * u / (1 - (n + 1) * u)
            for t in (0.15, 0.1516, 0.25, 0.5, 1.0):
                assert 2 * t * E + E * E <= SPECTRUM_GUARD * t * t / 2


class TestPowerSpectrum:
    @pytest.mark.parametrize("mods", [(2, 2, 4), (3, 9), (2,) * 11, (2,) * 13, (4, 4, 4, 4, 8)])
    def test_cuts_equal_spectrum(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(13)
        f = signed_func(spec, rng, min(40, spec.order))
        power = power_spectrum(f)
        assert isinstance(power, PowerSpectrum) and power.l1 == f.l1_norm()
        cuts = []
        for eps in (Fraction(1), Fraction(1, 2), 0.3, Fraction(1, 7), 0.05, Fraction(1, 10**6)):
            cut = power.cut(eps)
            assert cut == spectrum(f, eps)
            cuts.append(cut.indices)
        # thresholds fall along the list, so each cut holds the one before
        assert all(a <= b for a, b in zip(cuts, cuts[1:]))

    @pytest.mark.parametrize("mods", [(2,) * 11, (2,) * 12, (2,) * 14, (4, 4, 4, 4, 8)])
    def test_spectrum_unchanged_from_fftn(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(17)
        for support in (3, 64):
            f = signed_func(spec, rng, support)
            for eps in (Fraction(1, 3), Fraction(1, 2), Fraction(9, 10)):
                assert spectrum(f, eps).indices == fftn_spectrum(f, eps)
        A = GroupSet(spec, frozenset(rng.sample(range(spec.order), 5)))
        g = indicator(A).square()
        assert spectrum(g, 0.1516).indices == fftn_spectrum(g, 0.1516)

    def test_thresholds_checked_before_any_float(self):
        spec = GroupSpec((2, 2))
        f = indicator(GroupSet.full(spec))
        power = power_spectrum(f)
        for bad in (Fraction(10**400), Fraction(-1, 3), 0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
                spectrum(f, bad)
            with pytest.raises(ValueError, match=r"must lie in \(0, 1\]"):
                power.cut(bad)
        with pytest.raises(ValueError, match="least positive double"):
            spectrum(f, Fraction(1, 10**400))
        assert spectrum(f, 5e-324).indices == frozenset(range(4))

    def test_zero_function_rejected(self):
        with pytest.raises(ValueError, match="zero function"):
            power_spectrum(RationalFunc.zero(GroupSpec((2,) * 11)))


class TestExponentTwoAnnihilator:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_exact_phase_oracle(self, data):
        n = data.draw(st.integers(1, 12))
        spec = GroupSpec((2,) * n)
        size = data.draw(st.integers(0, min(spec.order, 6)))
        chars = data.draw(
            st.sets(st.integers(0, spec.order - 1), min_size=size, max_size=size)
        )
        got = annihilator(CharSet(spec, frozenset(chars)))
        oracle = annihilator_oracle(spec.moduli, [spec.character_at(c).coords for c in chars])
        assert {e.coords for e in got} == oracle

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_empty_and_full_dual_against_oracle(self, n):
        spec = GroupSpec((2,) * n)
        every = [spec.character_at(c).coords for c in range(spec.order)]
        full = annihilator(CharSet(spec, frozenset(range(spec.order))))
        assert {e.coords for e in full} == annihilator_oracle(spec.moduli, every)
        empty = annihilator(CharSet(spec, frozenset()))
        assert {e.coords for e in empty} == annihilator_oracle(spec.moduli, [])

    def test_reads_no_grid(self):
        spec = GroupSpec((2,) * 12)
        rng = random.Random(3)
        chars = CharSet(spec, np.array(rng.sample(range(spec.order), 40)))
        assert annihilator(CharSet(spec, frozenset(range(spec.order)))).indices == {0}
        assert len(annihilator(CharSet(spec, frozenset()))) == spec.order
        got = annihilator(chars)
        assert "_grid" not in spec.__dict__
        assert got == subgroup_closure(got)
        assert all(
            bin(x & c).count("1") % 2 == 0 for x in got.indices for c in chars.indices
        )
