import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statcover import (
    GroupMismatchError,
    GroupSet,
    GroupSpec,
    annihilator,
    indicator,
    spectrum,
    statistical_cover,
    subgroup_closure,
    sumset,
)
from statcover.groups import closure_indices
from statcover.sets import indices_to_mask, own_row_masks

from oracles import add_c, all_coords, closure_bfs, neg_c

small_moduli = st.lists(st.integers(min_value=2, max_value=6), min_size=1, max_size=3)


def spec_and_elements(draw_mods):
    spec = GroupSpec(tuple(draw_mods))
    return spec


class TestSpecValidation:
    def test_rejects_width_one_factor(self):
        with pytest.raises(ValueError):
            GroupSpec((1, 4))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            GroupSpec(())

    def test_order_and_exponent(self):
        spec = GroupSpec((2, 4, 6))
        assert spec.order == 48
        assert spec.exponent == 12

    def test_order_limit_stops_int64_wraparound(self):
        # Z_2^63 is the largest power of two whose indices fit in int64
        big = GroupSpec((2,) * 63)
        assert big.index_of([1] + [0] * 62) == 2**62
        assert int(big._weights[0]) == 2**62
        for moduli in ((2,) * 64, (2,) * 70, (3,) * 40):
            with pytest.raises(ValueError, match=r"exceeds the limit 2\*\*63"):
                GroupSpec(moduli)


class TestElementArithmetic:
    def test_add_reduces_componentwise(self):
        spec = GroupSpec((2, 4))
        assert (spec.element((1, 1)) + spec.element((1, 3))).coords == (0, 0)

    def test_identity_is_self_inverse(self):
        spec = GroupSpec((2, 4))
        assert (-spec.identity()) == spec.identity()

    def test_exponent_kills_every_element(self):
        spec = GroupSpec((2, 4))
        x = spec.element((1, 3))
        assert (4 * x) == spec.identity()

    def test_cross_group_add_raises(self):
        a = GroupSpec((2, 2)).element((1, 0))
        b = GroupSpec((2, 4)).element((1, 0))
        with pytest.raises(GroupMismatchError):
            a + b

    @given(small_moduli, st.data())
    def test_group_laws(self, mods, data):
        spec = GroupSpec(tuple(mods))
        pick = st.integers(min_value=0, max_value=spec.order - 1)
        x = spec.element_at(data.draw(pick))
        y = spec.element_at(data.draw(pick))
        z = spec.element_at(data.draw(pick))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x + (-x) == spec.identity()
        assert -(-x) == x

    @pytest.mark.parametrize("mods", [(2, 3), (4, 2), (2, 2, 2)])
    def test_group_laws_exhaustive_small(self, mods):
        spec = GroupSpec(mods)
        elems = list(spec.elements())
        for x in elems:
            assert x + (-x) == spec.identity()
            for y in elems:
                assert x + y == y + x
                for z in elems:
                    assert (x + y) + z == x + (y + z)


class TestEnumeration:
    def test_lexicographic_order(self):
        spec = GroupSpec((2, 2))
        assert [e.coords for e in spec.elements()] == [
            (0, 0),
            (0, 1),
            (1, 0),
            (1, 1),
        ]

    def test_cyclic(self):
        spec = GroupSpec((3,))
        assert [e.coords for e in spec.elements()] == [(0,), (1,), (2,)]

    def test_index_roundtrip(self):
        spec = GroupSpec((2, 3, 4))
        for i in range(spec.order):
            assert spec.element_at(i).index == i
        assert GroupSpec((2, 2)).element((1, 0)).index == 2

    def test_out_of_range_rejected(self):
        spec = GroupSpec((2, 2))
        with pytest.raises(ValueError):
            spec.element((0, 2))
        with pytest.raises(ValueError):
            spec.element_at(4)


class TestDigits:
    def test_digits_match_element_coordinates(self):
        spec = GroupSpec((2, 3, 4))
        digits = spec.digits(spec._arange)
        assert [(d.dtype, d.shape) for d in digits] == [(np.int64, (spec.order,))] * 3
        assert list(zip(*(d.tolist() for d in digits))) == [e.coords for e in spec.elements()]
        # each digit array takes the operand's shape; one index gives one digit each
        assert [d.shape for d in spec.digits(spec._arange.reshape(4, 6))] == [(4, 6)] * 3
        assert [int(d) for d in spec.digits(23)] == [1, 2, 3]

    @given(st.lists(st.integers(min_value=2, max_value=9), min_size=1, max_size=6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_element_at(self, mods, data):
        spec = GroupSpec(tuple(mods))
        idx = st.integers(min_value=0, max_value=spec.order - 1)
        xs = data.draw(st.lists(idx, min_size=1, max_size=8))
        digits = spec.digits(np.array(xs))
        for k, x in enumerate(xs):
            assert tuple(int(d[k]) for d in digits) == spec.element_at(x).coords

    def test_order_limit(self):
        # np.unravel_index takes fewer than 2**63 cells; Z_2^63 has 2**63
        spec = GroupSpec((2,) * 63)
        xs = np.array([2**63 - 1, 2**62, 5], dtype=np.int64)
        digits = spec.digits(xs)
        for k, x in enumerate(xs.tolist()):
            assert [int(d[k]) for d in digits] == [x >> (62 - j) & 1 for j in range(63)]
        assert spec.negate_indices(xs).tolist() == xs.tolist()

    @pytest.mark.parametrize(
        "mods",
        [(7,), (3, 5), (2, 3, 4), (3, 4, 2, 3), (5, 2, 2, 3, 2), (3,) * 6, (2, 3, 2, 3, 2, 2, 3)],
    )
    def test_negate_matches_coordinate_negation(self, mods):
        spec = GroupSpec(mods)
        coords = all_coords(mods)
        negated = spec.negate_indices(spec._arange.reshape(-1, 1))
        assert negated.dtype == np.int64 and negated.shape == (spec.order, 1)
        assert [coords[i] for i in negated.ravel().tolist()] == [neg_c(mods, c) for c in coords]

    def test_cover_and_annihilator_hold_no_coordinate_table(self):
        # a |G| x rank table of coordinates is 4.5 MiB at Z_3^10; the cover
        # below needs the digits of a few indices, and the annihilator
        # filter those of its candidates while it runs
        spec = GroupSpec((3,) * 10)
        A = GroupSet(spec, frozenset([0, 1, 3]))
        A.index_array, spec._arange  # built outside the traced window
        tracemalloc.start()
        try:
            cert = statistical_cover(A, A, Fraction(1, 4))
            ann = annihilator(spectrum(indicator(A), 1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert cert.valid
        assert ann.indices == set(range(9))  # x_j = 0 for j < 8: Ann(Spec) = <A>
        assert peak <= 8.5 * 2**20


class TestExponentMinimality:
    @pytest.mark.parametrize("mods", [(2, 4), (3, 3), (2, 3, 4), (6,), (2, 2, 2)])
    def test_exponent_is_least(self, mods):
        spec = GroupSpec(mods)
        r = spec.exponent
        orders = [spec.element_at(i).element_order() for i in range(spec.order)]
        assert all(r % o == 0 for o in orders)
        assert math.lcm(*orders) == r
        # every maximal prime-power divisor is witnessed by some element
        for p in {2, 3, 5, 7, 11}:
            if r % p == 0:
                d = r // p
                assert any((d * spec.element_at(i)) != spec.identity() for i in range(spec.order))


class TestCharacters:
    def test_fourth_root(self):
        spec = GroupSpec((4,))
        val = spec.character((1,))(spec.element((1,)))
        assert abs(val - 1j) < 1e-12

    def test_trivial_character(self):
        spec = GroupSpec((2, 3))
        triv = spec.trivial_character()
        assert all(abs(triv(x) - 1) < 1e-12 for x in spec.elements())

    def test_sign_character(self):
        spec = GroupSpec((2,))
        assert abs(spec.character((1,))(spec.element((1,))) + 1) < 1e-12

    @pytest.mark.parametrize("mods", [(2, 2), (3,), (2, 4), (6,), (2, 3)])
    def test_multiplicative_exhaustive(self, mods):
        spec = GroupSpec(mods)
        for gamma in spec.characters():
            for x in spec.elements():
                for y in spec.elements():
                    assert abs(gamma(x + y) - gamma(x) * gamma(y)) <= 1e-12

    def test_unit_modulus(self):
        spec = GroupSpec((5, 4))
        gamma = spec.character((3, 2))
        assert all(abs(abs(gamma(x)) - 1) <= 1e-12 for x in spec.elements())

    def test_shares_validation_and_index_with_elements(self):
        spec = GroupSpec((5, 4))
        for i in range(spec.order):
            x, gamma = spec.element_at(i), spec.character_at(i)
            assert x.index == gamma.index == i and x.coords == gamma.coords
            assert x != gamma and gamma != x
            assert hash(gamma) == hash(spec.character(gamma.coords))
        for make in (spec.element, spec.character):
            with pytest.raises(ValueError, match="out of range"):
                make((5, 0))
            with pytest.raises(ValueError, match="expected 2 coordinates"):
                make((1,))


class TestSubgroupClosure:
    def test_empty_generates_identity(self):
        spec = GroupSpec((3, 3))
        out = subgroup_closure(GroupSet.empty(spec))
        assert sorted(out.indices) == [0]

    def test_basis_generates_group(self):
        spec = GroupSpec((2, 2))
        S = GroupSet.from_elements(spec, [(0, 1), (1, 0)])
        out = subgroup_closure(S)
        oracle = closure_bfs(spec.moduli, [(0, 1), (1, 0)])
        assert {e.coords for e in out} == oracle
        assert len(out) == 4

    def test_idempotent_on_subgroups(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(0, 1)]))
        assert subgroup_closure(V) == V
        assert len(V) == 4

    @pytest.mark.parametrize("mods", [(2, 2, 2), (3, 3), (2, 4), (12,), (2, 3, 4)])
    def test_matches_bfs_oracle_and_lagrange(self, mods):
        import random

        spec = GroupSpec(mods)
        rng = random.Random(5)
        for _ in range(12):
            gens = [spec.element_at(rng.randrange(spec.order)) for _ in range(2)]
            got = subgroup_closure(GroupSet.from_elements(spec, gens))
            oracle = closure_bfs(spec.moduli, [g.coords for g in gens])
            assert {e.coords for e in got} == oracle
            assert spec.order % len(got) == 0  # Lagrange
            # closed under add and negate
            members = list(got)
            assert all((x + y) in got for x in members for y in members)
            assert all((-x) in got for x in members)

    def test_closure_indices_plain(self):
        spec = GroupSpec((5,))
        assert closure_indices(spec, [2]) == frozenset(range(5))


SPAN_GROUPS = [(64,), (4, 6), (2, 2, 4), (3, 9), (2,) * 6, (12, 18)]


class TestClosureDifferential:
    """closure_indices (coset doubling) against the breadth-first oracle."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_bfs_oracle(self, data):
        mods = data.draw(st.sampled_from(SPAN_GROUPS))
        spec = GroupSpec(mods)
        gens = data.draw(
            st.lists(st.integers(0, spec.order - 1), min_size=0, max_size=4)
        )
        got = closure_indices(spec, gens)
        oracle = closure_bfs(mods, [spec.element_at(g).coords for g in gens])
        assert {spec.element_at(i).coords for i in got} == oracle

    def test_cyclic_2048_from_one(self):
        spec = GroupSpec((2048,))
        assert closure_indices(spec, [1]) == frozenset(range(2048))
        assert closure_indices(spec, [3]) == frozenset(range(2048))
        assert closure_indices(spec, [512]) == frozenset({0, 512, 1024, 1536})

    @pytest.mark.parametrize("mods", SPAN_GROUPS)
    def test_generators_inside_span_and_repeated(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(3)
        for _ in range(8):
            base = [rng.randrange(spec.order) for _ in range(2)]
            span = closure_indices(spec, base)
            inside = rng.sample(sorted(span), min(3, len(span)))
            assert closure_indices(spec, base + inside) == span
            assert closure_indices(spec, base + base + [0]) == span
            oracle = closure_bfs(mods, [spec.element_at(g).coords for g in base + inside])
            assert {spec.element_at(i).coords for i in span} == oracle


class TestAddIndices:
    # 2-groups with fields of one, two and three bits, and groups with other moduli
    @given(
        st.sampled_from([(2,) * 5, (16,), (2, 4, 8), (4, 4), (7,), (12,), (3, 3, 3), (2, 3, 4)]),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_coordinate_addition(self, mods, data):
        spec = GroupSpec(mods)
        coords = all_coords(mods)
        idx = st.integers(min_value=0, max_value=spec.order - 1)
        xs = data.draw(st.lists(idx, min_size=1, max_size=6))
        ys = data.draw(st.lists(idx, min_size=1, max_size=6))
        sums = spec.add_indices(np.array(xs)[:, None], np.array(ys))
        assert sums.dtype == np.int64 and sums.shape == (len(xs), len(ys))
        for x, row in zip(xs, sums.tolist()):
            assert [coords[s] for s in row] == [add_c(mods, coords[x], coords[y]) for y in ys]
            assert spec.shift_indices(np.array(ys), x).tolist() == row
            assert [spec.add_index(y, x) for y in ys] == row

    def test_two_groups_never_build_the_grid(self):
        spec = GroupSpec((2, 4, 8, 2))
        span = closure_indices(spec, [5, 77, 100])
        GroupSet(spec, span).shifted(3)
        assert "_grid" not in vars(spec)
        assert {spec.element_at(i).coords for i in span} == closure_bfs(
            spec.moduli, [spec.element_at(g).coords for g in (5, 77, 100)]
        )


class TestTranslateTable:
    # exponent 2 takes the xor table; 2-groups such as Z_16 and Z_2 x Z_4
    # take the outer sum, as every other group does
    @pytest.mark.parametrize(
        "mods",
        [(2, 3, 4), (7,), (6, 10), (3, 3, 3), (4, 6), (16,), (2, 4)]
        + [(2,) * n for n in range(1, 9)],
    )
    def test_matches_shift_indices_for_every_x(self, mods):
        spec = GroupSpec(mods)
        for x in range(spec.order):
            table = spec._translate_table(x)
            assert table.dtype == np.int64
            assert np.array_equal(table, spec.shift_indices(spec._arange, x))

    def test_matches_shift_indices_for_sampled_x_in_z2_14(self):
        spec = GroupSpec((2,) * 14)
        for x in [0, 1, spec.order - 1] + random.Random(14).sample(range(spec.order), 40):
            table = spec._translate_table(x)
            assert table.dtype == np.int64
            assert np.array_equal(table, spec.shift_indices(spec._arange, x))

    def test_table_cannot_write_into_the_cached_place_values(self):
        spec = GroupSpec((7,))
        table = spec._translate_table(3)
        with pytest.raises(ValueError):
            table[0] = 0
        assert spec._translate_table(3).tolist() == [3, 4, 5, 6, 0, 1, 2]

    def test_matches_coordinate_addition(self):
        mods = (3, 4, 2)
        spec = GroupSpec(mods)
        coords = all_coords(mods)
        for x in range(spec.order):
            table = spec._translate_table(x).tolist()
            xc = spec.element_at(x).coords
            assert [coords[i] for i in table] == [add_c(mods, y, xc) for y in coords]


# cyclic, mixed radix, bit-field 2-groups of exponent 2 and above, and ranks 6 to 8
SHIFT_GROUPS = [
    (7,), (64,), (65,), (2, 3, 4, 5), (6, 10), (2, 4, 8), (16, 4),
    (2,) * 7, (3,) * 6, (2, 3, 2, 3, 2, 5), (4,) + (2,) * 7,
]


def shifted_mask(spec, members, x):
    """The mask of x + members, from the index sums of shift_indices."""
    shifted = spec.shift_indices(np.array(sorted(members), dtype=np.int64), x)
    return indices_to_mask(spec.order, shifted.tolist())


class TestShiftMask:
    @given(st.sampled_from(SHIFT_GROUPS), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_shifted_indices(self, mods, data):
        spec = GroupSpec(mods)
        members = data.draw(st.sets(st.integers(0, spec.order - 1)))
        x = data.draw(st.one_of(st.just(0), st.integers(0, spec.order - 1)))
        got = spec._shift_mask(indices_to_mask(spec.order, members), x)
        assert got == shifted_mask(spec, members, x)
        assert got >> spec.order == 0

    def test_digit_masks_only_in_small_groups(self):
        # a group of order up to 64 keeps at most 31 one-word masks; past
        # that only cyclic groups take shifts, so the row source and sumset
        # build no digit mask there
        for mods in [(2,) * 6, (8, 8), (2, 32), (32, 2), (2, 3, 2, 5)]:
            spec = GroupSpec(mods)
            spec._weights, spec._full_mask  # built outside the traced window
            tracemalloc.start()
            try:
                spec._mask_axes
                held, _ = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert held <= 4096
        spec = GroupSpec((4, 32, 32))
        A = GroupSet(spec, random.Random(5).sample(range(spec.order), 8))
        rows = own_row_masks(A, A.index_array)
        B = GroupSet(spec, range(0, spec.order, 3))
        S = sumset(A, B)
        assert "_mask_axes" not in spec.__dict__
        assert rows == [A.shifted(x).mask for x in A.index_array.tolist()]
        assert S.indices == set(np.concatenate([spec.shift_indices(B.index_array, a) for a in A.indices]).tolist())
