import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from statcover import (
    GroupSet,
    GroupSpec,
    doubling_constant,
    generate_instance,
    is_subgroup,
    k_fold_sum,
    subgroup_closure,
    sumset,
)
from statcover.groups import GroupMismatchError
from statcover.sets import translate_masks

from oracles import k_fold_oracle, sumset_oracle


def make_set(spec, coords):
    return GroupSet.from_elements(spec, coords)


class TestSumset:
    def test_three_corner_example(self):
        spec = GroupSpec((2, 2))
        A = make_set(spec, [(0, 0), (0, 1), (1, 0)])
        assert len(A + A) == 4

    def test_identity_neutral(self):
        spec = GroupSpec((5, 3))
        A = generate_instance("random", spec, size=6, seed=3)
        assert (A + make_set(spec, [(0, 0)])) == A

    def test_subgroup_absorbs_itself(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(make_set(spec, [(1, 2)]))
        assert V + V == V

    def test_empty_operand(self):
        spec = GroupSpec((3,))
        A = make_set(spec, [(1,)])
        assert len(A + GroupSet.empty(spec)) == 0

    def test_spec_mismatch(self):
        with pytest.raises(GroupMismatchError):
            sumset(make_set(GroupSpec((2,)), [(0,)]), make_set(GroupSpec((3,)), [(0,)]))

    @pytest.mark.parametrize("mods", [(2, 2, 2), (3, 3), (12,), (2, 3, 4)])
    def test_oracle_equivalence(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(7)
        for _ in range(10):
            A = generate_instance("random", spec, size=rng.randint(1, 5), seed=rng.getrandbits(30))
            B = generate_instance("random", spec, size=rng.randint(1, 5), seed=rng.getrandbits(30))
            got = {e.coords for e in A + B}
            assert got == sumset_oracle(mods, [e.coords for e in A], [e.coords for e in B])

    @given(
        st.lists(st.integers(min_value=2, max_value=5), min_size=1, max_size=2),
        st.data(),
    )
    @settings(max_examples=60)
    def test_size_bounds_and_commutativity(self, mods, data):
        spec = GroupSpec(tuple(mods))
        idx = st.sets(
            st.integers(min_value=0, max_value=spec.order - 1), min_size=1, max_size=6
        )
        A = GroupSet(spec, frozenset(data.draw(idx)))
        B = GroupSet(spec, frozenset(data.draw(idx)))
        C = GroupSet(spec, frozenset(data.draw(idx)))
        s = A + B
        assert max(len(A), len(B)) <= len(s) <= len(A) * len(B)
        assert s == B + A
        assert (A + B) + C == A + (B + C)

    def test_difference_via_negation(self):
        spec = GroupSpec((7,))
        A = make_set(spec, [(0,), (1,), (2,)])
        assert sorted(e.coords[0] for e in A - A) == [0, 1, 2, 5, 6]

    def test_size_bounds_exhaustive_z6(self):
        spec = GroupSpec((6,))
        subsets = [
            GroupSet(spec, frozenset(i for i in range(6) if mask >> i & 1))
            for mask in range(1, 64)
        ]
        for A in subsets:
            for B in subsets:
                s = len(A + B)
                assert max(len(A), len(B)) <= s <= len(A) * len(B)


class TestTranslateMasks:
    @given(
        st.sampled_from([(2, 2, 2), (3, 5), (4, 4), (12,), (2, 3, 4)]),
        st.data(),
    )
    @settings(max_examples=60)
    def test_matches_sumset_oracle(self, mods, data):
        spec = GroupSpec(mods)
        idx = st.integers(min_value=0, max_value=spec.order - 1)
        B = GroupSet(spec, frozenset(data.draw(st.sets(idx, max_size=spec.order))))
        xs = data.draw(st.lists(idx, max_size=6))
        masks = translate_masks(B, xs)
        assert len(masks) == len(xs)
        b_coords = [e.coords for e in B]
        for x, m in zip(xs, masks):
            members = {spec.element_at(i).coords for i in range(spec.order) if m >> i & 1}
            assert members == sumset_oracle(mods, [spec.element_at(x).coords], b_coords)
            assert m == B.shifted(x).mask


class TestKFold:
    def test_interval_growth(self):
        spec = GroupSpec((5,))
        X = make_set(spec, [(0,), (1,)])
        assert sorted(e.coords[0] for e in k_fold_sum(X, 3)) == [0, 1, 2, 3]

    def test_zero_gives_identity(self):
        spec = GroupSpec((4, 2))
        X = make_set(spec, [(1, 1)])
        out = k_fold_sum(X, 0)
        assert sorted(out.indices) == [0]

    def test_subgroup_fixed(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(make_set(spec, [(0, 1)]))
        for k in (1, 2, 5):
            assert k_fold_sum(V, k) == V

    def test_monotone_with_identity(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(1)
        for _ in range(8):
            X = generate_instance("random", spec, size=3, seed=rng.getrandbits(30)).with_identity()
            for k in range(4):
                assert k_fold_sum(X, k).issubset(k_fold_sum(X, k + 1))

    def test_matches_oracle(self):
        spec = GroupSpec((2, 3))
        X = make_set(spec, [(1, 1), (0, 2)])
        for k in range(4):
            got = {e.coords for e in k_fold_sum(X, k)}
            assert got == k_fold_oracle(spec.moduli, {e.coords for e in X}, k)

    def test_negative_k_rejected(self):
        spec = GroupSpec((3,))
        with pytest.raises(ValueError):
            k_fold_sum(make_set(spec, [(0,)]), -1)


class TestDoubling:
    def test_full_group(self):
        spec = GroupSpec((2, 3))
        assert doubling_constant(GroupSet.full(spec)) == 1

    def test_interval_in_z7(self):
        spec = GroupSpec((7,))
        assert doubling_constant(make_set(spec, [(0,), (1,), (2,)])) == Fraction(5, 3)

    def test_subgroup(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(make_set(spec, [(1, 0)]))
        assert doubling_constant(V) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            doubling_constant(GroupSet.empty(GroupSpec((2,))))

    @pytest.mark.parametrize("mods", [(8,), (2, 4), (3, 3), (12,)])
    def test_doubling_one_iff_coset(self, mods):
        """Exhaustive over all non-empty subsets of groups up to order 12."""
        spec = GroupSpec(mods)
        universe = list(range(spec.order))
        for size in range(1, spec.order + 1):
            for subset in combinations(universe, size):
                A = GroupSet(spec, frozenset(subset))
                shifted = A.shifted(-A.min_element())
                coset = is_subgroup(shifted)
                assert (doubling_constant(A) == 1) == coset


class TestGenerators:
    def test_independent_contents(self):
        spec = GroupSpec((2, 2, 2))
        A = generate_instance("independent", spec)
        assert {e.coords for e in A} == {
            (0, 0, 0),
            (1, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        }

    def test_random_deterministic(self):
        spec = GroupSpec((13,))
        a = generate_instance("random", spec, size=5, seed=7)
        b = generate_instance("random", spec, size=5, seed=7)
        assert a == b
        assert len(a) == 5

    def test_subgroup_from_generators(self):
        spec = GroupSpec((2, 4))
        H = generate_instance("subgroup", spec, generators=[(0, 1)])
        assert len(H) == 4
        assert is_subgroup(H)

    def test_random_subgroup_is_subgroup(self):
        spec = GroupSpec((2, 2, 2, 2))
        H = generate_instance("subgroup", spec, n_generators=2, seed=5)
        assert is_subgroup(H)

    def test_coset_union_is_union_of_cosets(self):
        spec = GroupSpec((2, 2, 2))
        A = generate_instance("coset_union", spec, n_generators=1, n_cosets=2, seed=9)
        assert len(A) >= 1
        # A is a union of cosets of its stabilizer {h : h + A = A}, so the
        # stabilizer size divides |A|
        stab = [i for i in range(spec.order) if A.shifted(i) == A]
        assert len(A) % len(stab) == 0

    def test_size_overflow(self):
        spec = GroupSpec((3,))
        with pytest.raises(ValueError):
            generate_instance("random", spec, size=4, seed=0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_instance("arithmetic", GroupSpec((3,)), size=1, seed=0)
