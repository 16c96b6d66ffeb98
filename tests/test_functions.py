import random
from fractions import Fraction

import numpy as np
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
    defect_oracle,
    eq2_lhs_oracle,
    inner_oracle,
    l1_oracle,
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
        # small and large supports, both through the one translate table
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
        # sparse and dense supports
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
            f = RationalFunc.from_values(spec, (abs(v) for v in f.values))
            g = RationalFunc.from_values(spec, (abs(v) for v in g.values))
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


REPR_GROUPS = [(2, 2, 2), (3, 5), (4, 4), (12,), (2, 6)]
# scales that move the numerators across the int64 bound 4 |G| max|num|^2 < 2**63,
# directly or through the common denominator of two operands
SCALES = [Fraction(1), Fraction(2**31), Fraction(2**62), Fraction(1, 2**62), Fraction(3, 2**40)]


@st.composite
def scaled_pairs(draw, spec):
    scale = draw(st.sampled_from(SCALES))
    pairs = draw(
        st.dictionaries(
            st.integers(0, spec.order - 1),
            st.fractions(min_value=-5, max_value=5, max_denominator=12),
            max_size=spec.order,
        )
    )
    return {i: v * scale for i, v in pairs.items()}


def by_coords(spec, pairs):
    return {spec.element_at(i).coords: Fraction(v) for i, v in pairs.items() if v}


def pointwise(mods, op, *dicts):
    return {y: op(*(d.get(y, Fraction(0)) for d in dicts)) for y in all_coords(mods)}


def assert_matches(f, oracle):
    """Same values as the oracle, with the dtype the int64 rule picks."""
    assert as_dict(f) == {c: v for c, v in oracle.items() if v}
    fits = 4 * f.spec.order * f.peak**2 < 2**63
    assert f.num.dtype == (np.int64 if fits else object)
    assert not f.num.flags.writeable


class TestExactRepresentation:
    """Every RationalFunc operation against the dict oracles."""

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_operations_match_oracles(self, data):
        mods = data.draw(st.sampled_from(REPR_GROUPS))
        spec = GroupSpec(mods)
        fp, gp = data.draw(scaled_pairs(spec)), data.draw(scaled_pairs(spec))
        f, g = RationalFunc.from_pairs(spec, fp), RationalFunc.from_pairs(spec, gp)
        fd, gd = by_coords(spec, fp), by_coords(spec, gp)
        c = data.draw(st.sampled_from([Fraction(-3, 7), 2**40, Fraction(5, 2**50), 0]))
        assert_matches(f + g, pointwise(mods, lambda a, b: a + b, fd, gd))
        assert_matches(f - g, pointwise(mods, lambda a, b: a - b, fd, gd))
        assert_matches(c * f, pointwise(mods, lambda a: c * a, fd))
        assert_matches(f * c, pointwise(mods, lambda a: c * a, fd))
        assert_matches(f.square(), pointwise(mods, lambda a: a * a, fd))
        x = spec.element_at(data.draw(st.integers(0, spec.order - 1)))
        assert_matches(f.translate_index(x.index), translate_oracle(mods, fd, x.coords))
        assert_matches(convolve(f, g), convolve_oracle(mods, fd, gd))
        for got, oracle in (
            (f.inner(g), inner_oracle(fd, gd)),
            (f.mass(), sum(fd.values(), Fraction(0))),
            (f.l1_norm(), l1_oracle(fd)),
            (f.l2_norm_sq(), l2_sq_oracle(fd)),
        ):
            assert type(got) is Fraction and got == oracle
        xs = data.draw(st.lists(st.integers(0, spec.order - 1), max_size=6))
        for p in (1, 2):
            got = f.translation_defects(xs, p)
            assert all(type(d) is Fraction for d in got)
            assert got == [defect_oracle(mods, fd, spec.element_at(y).coords, p) for y in xs]

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_mu_tuple_matches_oracle(self, data):
        spec = GroupSpec(data.draw(st.sampled_from(REPR_GROUPS)))
        idx = st.integers(0, spec.order - 1)
        elems = [spec.element_at(i) for i in data.draw(st.lists(idx, max_size=5))]
        mu = mu_tuple(spec, elems)
        assert_matches(mu.func, mu_oracle(spec.moduli, [e.coords for e in elems]))

    def test_each_operation_crosses_into_python_ints(self):
        # 4 |G| m^2 = 2**62 keeps f in int64; 2m, m^2 and a 2**40 rescale do not fit
        spec = GroupSpec((4,))
        mods, m = spec.moduli, 2**29
        f = RationalFunc.from_pairs(spec, {0: m, 1: -m, 3: 7})
        g = RationalFunc.from_pairs(spec, {1: Fraction(1, 2**40), 2: Fraction(-3, 2**40)})
        fd, gd = as_dict(f), as_dict(g)
        assert f.num.dtype == np.int64 and g.num.dtype == np.int64
        sq = f.square()
        crossing = [
            (f + f, pointwise(mods, lambda a: 2 * a, fd)),
            (f - (-1) * f, pointwise(mods, lambda a: 2 * a, fd)),
            (f + g, pointwise(mods, lambda a, b: a + b, fd, gd)),
            (3 * f, pointwise(mods, lambda a: 3 * a, fd)),
            (sq, pointwise(mods, lambda a: a * a, fd)),
            (convolve(f, f), convolve_oracle(mods, fd, fd)),
            (sq.translate_index(1), translate_oracle(mods, as_dict(sq), (1,))),
        ]
        for got, oracle in crossing:
            assert got.num.dtype == object
            assert_matches(got, oracle)
        assert sq.inner(f) == inner_oracle(as_dict(sq), fd)
        assert (sq.mass(), sq.l1_norm(), sq.l2_norm_sq()) == (
            sum(as_dict(sq).values()), l1_oracle(as_dict(sq)), l2_sq_oracle(as_dict(sq))
        )
        for p in (1, 2):
            assert sq.translation_defects([0, 1, 2, 3], p) == [
                defect_oracle(mods, as_dict(sq), (y,), p) for y in range(4)
            ]
        # and back: cancellation leaves numerators that fit again
        assert (sq - sq).num.dtype == np.int64 and (sq - sq).is_zero()
        elems = [spec.element((1,))] * 33  # numerators up to 2**33 over 2**33
        mu = mu_tuple(spec, elems)
        assert mu.func.num.dtype == object
        assert_matches(mu.func, mu_oracle(mods, [e.coords for e in elems]))

    def test_unreduced_denominators_compare_equal(self):
        spec = GroupSpec((3,))
        a = RationalFunc(spec, np.array([2, -4, 0]), 4)
        b = RationalFunc(spec, [1, -2, 0], 2)
        c = RationalFunc.from_values(spec, [Fraction(1, 2), -1, 0])
        big = RationalFunc(spec, [2**70, -(2**71), 0], 2**71)
        assert a.num.dtype == np.int64 and big.num.dtype == object
        assert a == b == c == big and big == a
        assert len({a, b, c, big}) == 1
        assert a.values == big.values == (Fraction(1, 2), Fraction(-1), Fraction(0))
        assert a != RationalFunc(spec, [1, -2, 1], 2)
        assert RationalFunc.zero(spec) != RationalFunc.zero(GroupSpec((3, 2))) and a != 0

    def test_numerators_are_integers_and_read_only(self):
        spec = GroupSpec((3,))
        with pytest.raises(TypeError):
            RationalFunc(spec, (Fraction(1, 2), 0, 0))
        with pytest.raises(TypeError):
            RationalFunc(spec, np.array([0.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match="positive"):
            RationalFunc(spec, [1, 0, 0], 0)
        with pytest.raises(ValueError, match="expected 3 values"):
            RationalFunc.from_values(spec, [1, 2])
        f = indicator(GroupSet.full(spec))
        with pytest.raises(ValueError):
            f.num[0] = 5
