import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from statcover import (
    GroupSet,
    GroupSpec,
    convolve,
    indicator,
    k_fold_sum,
    mu_tuple,
    point_mass,
    subgroup_closure,
    uniform_measure,
)
from statcover.functions import RationalFunc, average_with_translate
from statcover.groups import GroupMismatchError

from oracles import (
    all_coords,
    convolve_oracle,
    eq2_lhs_oracle,
    l2_sq_oracle,
    mu_oracle,
    translate_oracle,
)


def rand_func(spec, rng, max_support=6):
    size = rng.randint(1, min(max_support, spec.order))
    return RationalFunc.from_pairs(
        spec,
        {
            i: Fraction(rng.randint(-9, 9), rng.randint(1, 7))
            for i in rng.sample(range(spec.order), size)
        },
    )


def as_dict(f):
    return {
        f.spec.element_at(i).coords: f.values[i] for i in range(f.spec.order) if f.values[i]
    }


class TestIndicator:
    def test_empty_is_zero(self):
        spec = GroupSpec((3, 2))
        assert indicator(GroupSet.empty(spec)).is_zero()

    def test_full_is_constant_one(self):
        spec = GroupSpec((2, 2))
        f = indicator(GroupSet.full(spec))
        assert all(v == 1 for v in f.values)

    def test_l1_is_cardinality(self):
        spec = GroupSpec((5, 3))
        rng = random.Random(3)
        for _ in range(5):
            A = GroupSet(spec, frozenset(rng.sample(range(spec.order), 4)))
            assert indicator(A).l1_norm() == len(A)
            assert indicator(A).l2_norm_sq() == len(A)


class TestTranslate:
    def test_point_mass_shift(self):
        spec = GroupSpec((5,))
        f = indicator(GroupSet.from_elements(spec, [(3,)]))
        shifted = f.translate(spec.element((2,)))
        assert as_dict(shifted) == {(1,): Fraction(1)}

    def test_identity_translate(self):
        spec = GroupSpec((4,))
        f = point_mass(spec.element((2,)))
        assert f.translate(spec.identity()) == f

    def test_inverse_translate(self):
        spec = GroupSpec((3, 4))
        rng = random.Random(0)
        f = rand_func(spec, rng)
        x = spec.element((2, 3))
        assert f.translate(x).translate(-x) == f

    def test_matches_reindex_oracle(self):
        spec = GroupSpec((2, 3))
        rng = random.Random(1)
        for _ in range(8):
            f = rand_func(spec, rng)
            x = spec.element_at(rng.randrange(spec.order))
            got = f.translate(x)
            oracle = translate_oracle(spec.moduli, as_dict(f), x.coords)
            assert all(
                got.value_at(spec.element(c)) == oracle[c] for c in all_coords(spec.moduli)
            )

    @given(st.data())
    @settings(max_examples=40)
    def test_translate_isometry_symmetry(self, data):
        mods = tuple(data.draw(st.lists(st.integers(2, 5), min_size=1, max_size=2)))
        spec = GroupSpec(mods)
        pairs = data.draw(
            st.dictionaries(
                st.integers(0, spec.order - 1),
                st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=1,
                max_size=5,
            )
        )
        f = RationalFunc.from_pairs(spec, pairs)
        x = spec.element_at(data.draw(st.integers(0, spec.order - 1)))
        fwd = f - f.translate(x)
        bwd = f - f.translate(-x)
        assert fwd.l1_norm() == bwd.l1_norm()
        assert fwd.l2_norm_sq() == bwd.l2_norm_sq()

    def test_norm_preserved(self):
        spec = GroupSpec((6,))
        rng = random.Random(5)
        f = rand_func(spec, rng)
        x = spec.element((4,))
        assert f.translate(x).l1_norm() == f.l1_norm()
        assert f.translate(x).l2_norm_sq() == f.l2_norm_sq()

    def test_sparse_and_dense_paths_match_oracle(self):
        # small support in a big group takes the sparse gather; a support
        # above a quarter of the group takes the dense permutation
        spec = GroupSpec((5, 5))
        rng = random.Random(17)
        sparse = RationalFunc.from_pairs(
            spec, {i: Fraction(rng.randint(1, 9), 4) for i in rng.sample(range(25), 3)}
        )
        dense = RationalFunc.from_pairs(
            spec, {i: Fraction(rng.randint(1, 9), 4) for i in rng.sample(range(25), 18)}
        )
        for f in (sparse, dense):
            for _ in range(4):
                x = spec.element_at(rng.randrange(spec.order))
                got = f.translate(x)
                oracle = translate_oracle(spec.moduli, as_dict(f), x.coords)
                assert all(
                    got.value_at(spec.element(c)) == oracle[c]
                    for c in all_coords(spec.moduli)
                )


DEFECT_GROUPS = [(2, 2, 2), (3, 5), (4, 4), (12,)]


class TestTranslationDefect:
    @given(st.data())
    @settings(max_examples=80)
    def test_matches_oracle_and_dense_difference(self, data):
        mods = data.draw(st.sampled_from(DEFECT_GROUPS))
        spec = GroupSpec(mods)
        # sparse supports take the sparse translate path, dense ones the permutation
        lo, hi = data.draw(st.sampled_from([(0, 3), (spec.order // 2, spec.order)]))
        pairs = data.draw(
            st.dictionaries(
                st.integers(0, spec.order - 1),
                st.fractions(min_value=-3, max_value=3, max_denominator=6),
                min_size=lo,
                max_size=hi,
            )
        )
        f = RationalFunc.from_pairs(spec, pairs)
        x = spec.element_at(data.draw(st.integers(0, spec.order - 1)))
        values = as_dict(f)
        moved = translate_oracle(mods, values, x.coords)
        diff = {c: values.get(c, Fraction(0)) - moved[c] for c in all_coords(mods)}
        dense = f - f.translate_index(x.index)
        for p, oracle, old in (
            (1, sum((abs(v) for v in diff.values()), Fraction(0)), dense.l1_norm()),
            (2, l2_sq_oracle(diff), dense.l2_norm_sq()),
        ):
            got = f.translation_defect(x.index, p)
            assert type(got) is Fraction
            assert got == oracle == old

    def test_zero_defects_are_fractions(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(0, 2)]))
        f = indicator(V)
        cases = [
            (f, 0),
            (f, spec.index_of((0, 2))),
            (RationalFunc.zero(spec), 3),
        ]
        for g, x in cases:
            for p in (1, 2):
                got = g.translation_defect(x, p)
                assert type(got) is Fraction and got == 0

    def test_disjoint_translate_counts_both_supports(self):
        spec = GroupSpec((7,))
        f = indicator(GroupSet.from_elements(spec, [(0,), (1,)]))
        assert f.translation_defect(3) == 4
        assert f.translation_defect(1) == 2
        assert (3 * f).translation_defect(3, 2) == 36

    def test_rejects_other_p(self):
        f = point_mass(GroupSpec((5,)).element((1,)))
        with pytest.raises(ValueError, match="p must be 1 or 2"):
            f.translation_defect(1, 3)


class TestConvolve:
    def test_point_masses_add(self):
        spec = GroupSpec((2, 3))
        a, b = spec.element((1, 2)), spec.element((1, 1))
        conv = convolve(point_mass(a), point_mass(b))
        assert as_dict(conv) == {(a + b).coords: Fraction(1)}

    def test_representation_count(self):
        spec = GroupSpec((4,))
        A = GroupSet.from_elements(spec, [(0,), (1,)])
        conv = convolve(indicator(A), indicator(A))
        assert conv.value_at(spec.element((1,))) == 2

    def test_delta_unit(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(2)
        f = rand_func(spec, rng)
        assert convolve(f, point_mass(spec.identity())) == f

    def test_commutative_and_oracle(self):
        spec = GroupSpec((2, 4))
        rng = random.Random(4)
        for _ in range(6):
            f, g = rand_func(spec, rng), rand_func(spec, rng)
            conv = convolve(f, g)
            assert conv == convolve(g, f)
            oracle = convolve_oracle(spec.moduli, as_dict(f), as_dict(g))
            assert as_dict(conv) == {c: v for c, v in oracle.items() if v}

    def test_mass_multiplicative_for_nonnegative(self):
        spec = GroupSpec((5, 2))
        rng = random.Random(6)
        for _ in range(5):
            f = rand_func(spec, rng)
            g = rand_func(spec, rng)
            f = RationalFunc(spec, tuple(abs(v) for v in f.values))
            g = RationalFunc(spec, tuple(abs(v) for v in g.values))
            assert convolve(f, g).l1_norm() == f.l1_norm() * g.l1_norm()

    def test_spec_mismatch(self):
        with pytest.raises(GroupMismatchError):
            convolve(
                indicator(GroupSet.full(GroupSpec((2,)))),
                indicator(GroupSet.full(GroupSpec((3,)))),
            )


class TestTupleMeasure:
    def test_empty_tuple_is_point_mass(self):
        spec = GroupSpec((3, 2))
        mu = mu_tuple(spec, ())
        assert as_dict(mu.func) == {(0, 0): Fraction(1)}

    def test_single_element_in_z2(self):
        spec = GroupSpec((2,))
        mu = mu_tuple(spec, (spec.element((1,)),))
        assert mu.func.values == (Fraction(1, 2), Fraction(1, 2))

    def test_exponent_two_uniform_on_span(self):
        spec = GroupSpec((2, 2))
        mu = mu_tuple(spec, (spec.element((1, 0)), spec.element((0, 1))))
        assert all(v == Fraction(1, 4) for v in mu.func.values)

    def test_mass_and_support(self):
        spec = GroupSpec((3, 4))
        rng = random.Random(8)
        for _ in range(6):
            elems = tuple(
                spec.element_at(rng.randrange(spec.order)) for _ in range(rng.randint(0, 3))
            )
            mu = mu_tuple(spec, elems)
            assert mu.func.mass() == 1
            span = subgroup_closure(GroupSet.from_elements(spec, elems))
            assert mu.func.support_set().issubset(span)
            # dyadic values: denominators divide 2^length
            for i in mu.func.support:
                assert (2 ** len(elems)) % mu.func.values[i].denominator == 0

    def test_extension_identity(self):
        spec = GroupSpec((4, 2))
        rng = random.Random(9)
        elems = tuple(spec.element_at(rng.randrange(spec.order)) for _ in range(2))
        x = spec.element_at(rng.randrange(spec.order))
        extended = mu_tuple(spec, elems + (x,))
        half = Fraction(1, 2)
        step = half * (point_mass(spec.identity()) + point_mass(x))
        assert extended.func == convolve(mu_tuple(spec, elems).func, step)

    def test_matches_oracle(self):
        spec = GroupSpec((3, 3))
        elems = (spec.element((1, 0)), spec.element((1, 2)), spec.element((0, 1)))
        mu = mu_tuple(spec, elems)
        oracle = mu_oracle(spec.moduli, [e.coords for e in elems])
        assert as_dict(mu.func) == {c: v for c, v in oracle.items() if v}


class TestNormsAndInner:
    def test_indicator_l2(self):
        spec = GroupSpec((7,))
        A = GroupSet.from_elements(spec, [(0,), (2,), (5,)])
        assert indicator(A).l2_norm_sq() == 3

    def test_inner_counts_intersection(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(11)
        A = GroupSet(spec, frozenset(rng.sample(range(9), 4)))
        B = GroupSet(spec, frozenset(rng.sample(range(9), 5)))
        assert indicator(A).inner(indicator(B)) == len(A & B)

    def test_translate_defect(self):
        spec = GroupSpec((4,))
        f = indicator(GroupSet.from_elements(spec, [(0,), (1,)]))
        diff = f - f.translate(spec.element((1,)))
        assert diff.l2_norm_sq() == 2

    def test_uniform_measure(self):
        spec = GroupSpec((6,))
        V = subgroup_closure(GroupSet.from_elements(spec, [(2,)]))
        mu = uniform_measure(V)
        assert mu.mass() == 1
        assert mu.l1_norm() == 1
        with pytest.raises(ValueError):
            uniform_measure(GroupSet.empty(spec))


class TestIteratedCoverSubstrate:
    @pytest.mark.parametrize("mods", [(7,), (2, 4), (3, 3)])
    def test_inner_product_matches_tuple_enumeration(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(13)
        for _ in range(4):
            A = GroupSet(spec, frozenset(rng.sample(range(spec.order), rng.randint(2, 5))))
            X = GroupSet(
                spec, frozenset(rng.sample(range(spec.order), rng.randint(1, 3))) | {0}
            )
            for k in (1, 2, 3):
                conv = indicator(A)
                for _ in range(k):
                    conv = convolve(conv, indicator(A))
                lhs = conv.inner(indicator(k_fold_sum(X, k) + A))
                oracle = eq2_lhs_oracle(
                    spec.moduli,
                    {e.coords for e in A},
                    {e.coords for e in X},
                    k,
                )
                assert lhs == oracle


class TestAverageWithTranslate:
    def test_equals_convolution_step(self):
        spec = GroupSpec((5,))
        f = indicator(GroupSet.from_elements(spec, [(0,), (1,), (3,)]))
        a = spec.element((2,))
        step = Fraction(1, 2) * (point_mass(spec.identity()) + point_mass(a))
        assert average_with_translate(f, a) == convolve(f, step)
