import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from statcover import (
    CharSet,
    GroupSet,
    GroupSpec,
    doubling_constant,
    generate_instance,
    is_subgroup,
    k_fold_sum,
    subgroup_closure,
    sumset,
)
from statcover import covering, sets, statistical_cover
from statcover.groups import GroupMismatchError
from statcover.sets import own_row_masks, translate_rows

from oracles import k_fold_oracle, sumset_oracle


def make_set(spec, coords):
    return GroupSet.from_elements(spec, coords)


# orders 7, 12, 27, 64, 65, 120 and 128: rows of less than one word, exactly
# one word, one bit past a word and two words; 2-groups and others; ranks 1 to 7
KERNEL_GROUPS = [(7,), (12,), (3, 3, 3), (4, 4, 4), (5, 13), (2, 3, 4, 5), (2,) * 7]


def row_int(row):
    """A packed row as one Python int (bit y <-> element index y)."""
    return int.from_bytes(row.tobytes(), "little")


def draw_set(data, spec, min_size=0, max_size=None):
    idx = st.integers(min_value=0, max_value=spec.order - 1)
    drawn = data.draw(st.sets(idx, min_size=min_size, max_size=max_size or spec.order))
    return GroupSet(spec, frozenset(drawn))


class TestIndexArrays:
    """GroupSet and CharSet take index arrays as they take any iterable."""

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16, np.float64])
    def test_array_equals_the_iterable(self, dtype):
        spec = GroupSpec((4, 6))
        arr = np.array([17, 3, 3, 0, 23], dtype=dtype)
        for cls in (GroupSet, CharSet):
            made = cls(spec, arr)
            assert made == cls(spec, frozenset(map(int, arr)))
            assert made.indices == {0, 3, 17, 23}
            assert all(type(i) is int for i in made.indices)

    def test_array_out_of_range(self):
        spec = GroupSpec((4, 6))
        for cls in (GroupSet, CharSet):
            with pytest.raises(ValueError, match="out of range"):
                cls(spec, np.array([0, 24]))
            with pytest.raises(ValueError, match="out of range"):
                cls(spec, np.array([-1, 2]))
            assert len(cls(spec, np.zeros(0, dtype=np.int64))) == 0


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
    @given(st.sampled_from(KERNEL_GROUPS + [(2, 2, 2), (3, 5), (4, 4)]), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_sumset_oracle(self, mods, data):
        spec = GroupSpec(mods)
        B = draw_set(data, spec)
        xs = data.draw(st.lists(st.integers(min_value=0, max_value=spec.order - 1), max_size=6))
        rows = translate_rows(B, xs)
        assert rows.dtype == np.dtype("<u8")
        assert rows.shape == (len(xs), -(-spec.order // 64))
        b_coords = [e.coords for e in B]
        for x, row in zip(xs, rows):
            m = row_int(row)
            assert m >> spec.order == 0  # padding bits are zero
            members = {spec.element_at(i).coords for i in range(spec.order) if m >> i & 1}
            assert members == sumset_oracle(mods, [spec.element_at(x).coords], b_coords)
            assert m == B.shifted(x).mask

    @given(st.sampled_from(KERNEL_GROUPS), st.data())
    @settings(max_examples=30, deadline=None)
    def test_one_entry_blocks_match_one_block(self, mods, data):
        spec = GroupSpec(mods)
        A = draw_set(data, spec, min_size=1, max_size=12)
        B = draw_set(data, spec, min_size=1)
        delta = data.draw(st.sampled_from([Fraction(1, 10**30), Fraction(1, 3), Fraction(1)]))

        def run():
            cert = statistical_cover(A, B, delta)
            return (
                translate_rows(B, A.index_array).tolist(), A + B, B + A,
                cert, covering.verify_covered(A, cert.X, delta, B=B),
                covering.ruzsa_cover(A, B),
            )

        one_block = run()
        budget = sets._BLOCK_ENTRIES
        try:
            sets._BLOCK_ENTRIES = 1
            blocked = run()
        finally:
            sets._BLOCK_ENTRIES = budget
        assert blocked == one_block

    @pytest.mark.parametrize("mods", [(2048,), (3,) * 7])  # 2-group path and digit path
    def test_memory_stays_within_blocks(self, mods):
        # 1536 x 1536 sums take 18 MiB kept whole; a block is at most 2**18
        # int64 sums (2 MiB), and two blocks meet when one hands over
        spec = GroupSpec(mods)
        A = generate_instance("random", spec, size=1536, seed=5)
        A.index_array  # built outside the traced window
        tracemalloc.start()
        try:
            S = A + A
            cert = statistical_cover(A, A, Fraction(1, 4))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(S) == spec.order and cert.valid
        assert peak <= 6 * 2**20


    def test_digit_chunks_stay_within_blocks(self):
        # all 59049 digits of B would take 4.5 MiB; a chunk of B holds at most
        # 2**18 digit entries (2 MiB)
        spec = GroupSpec((3,) * 10)
        A, B = GroupSet(spec, frozenset([1, 500])), GroupSet.full(spec)
        A.index_array, B.index_array  # built outside the traced window
        tracemalloc.start()
        try:
            rows = translate_rows(B, A.index_array)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.bitwise_count(rows).sum(axis=1).tolist() == [spec.order] * 2
        assert peak <= 3.5 * 2**20

class TestOwnRows:
    """Masks of B's own translates, built once per set and kept on it as ints."""

    @given(st.sampled_from(KERNEL_GROUPS), st.data())
    @settings(max_examples=25, deadline=None)
    def test_rows_equal_translate_rows(self, mods, data):
        spec = GroupSpec(mods)
        B = draw_set(data, spec, min_size=1, max_size=12)
        xs = data.draw(st.lists(st.sampled_from(sorted(B.indices)), min_size=1, max_size=6))
        assert own_row_masks(B, xs) == [row_int(r) for r in translate_rows(B, xs)]
        assert own_row_masks(B, xs) == [B.shifted(x).mask for x in xs]
        table = own_row_masks(B, B.index_array)
        assert table == list(B._row_masks)
        assert table == [row_int(r) for r in translate_rows(B, B.index_array)]

    def test_request_outside_the_set_builds_no_table(self):
        spec = GroupSpec((3, 5))
        B = GroupSet(spec, frozenset([1, 4, 9]))
        xs = [0, 4]  # 0 is not in B
        assert own_row_masks(B, xs) == [row_int(r) for r in translate_rows(B, xs)]
        assert "_row_masks" not in B.__dict__

    def test_kept_table_is_read_only(self):
        # the kept table is a tuple of ints, and callers get lists they may change
        B = GroupSet(GroupSpec((12,)), frozenset([0, 5, 7]))
        rows = own_row_masks(B, B.index_array)
        rows[0] = 0
        assert type(B._row_masks) is tuple
        assert all(type(r) is int for r in B._row_masks)
        assert B._row_masks[0] == B.mask and own_row_masks(B, B.index_array)[0] == B.mask
        with pytest.raises(TypeError):
            B._row_masks[0] = 1

    @pytest.mark.parametrize("mods", [(7,), (2, 3, 4, 5), (2,) * 7])
    def test_past_the_budget_rows_are_built_per_call(self, mods, monkeypatch):
        spec = GroupSpec(mods)
        A = generate_instance("random", spec, size=min(spec.order, 9), seed=4)
        delta = Fraction(1, 3)

        def run(A):
            cert = statistical_cover(A, A, delta)
            X = cert.X.with_identity()
            return (
                own_row_masks(A, A.index_array), cert,
                covering.verify_covered(A, cert.X, delta), covering.verify_covered(A, X, delta),
                covering.ruzsa_cover(A, A),
            )

        kept = GroupSet(spec, A.indices)
        with_table = run(kept)
        assert kept._row_masks is not None
        table_bytes = len(A) * -(-spec.order // 64) * 8
        monkeypatch.setattr(sets, "_ROW_TABLE_BYTES", table_bytes - 1)
        fresh = GroupSet(spec, A.indices)
        assert run(fresh) == with_table
        assert fresh._row_masks is None

    def test_rows_are_converted_a_block_at_a_time(self, monkeypatch):
        # a block of 8 words holds one 512-bit row, so each call of
        # translate_rows builds one row; six rows of a 5-element set in
        # Z_2^9 lie on the index-sum side of the row rule
        spec = GroupSpec((2,) * 9)
        B = generate_instance("random", spec, size=5, seed=2)
        xs = [0, 3, 9, 17, 100, 200]
        assert not sets._by_shifts(spec)
        whole = own_row_masks(B, xs)
        calls = []
        build = sets.translate_rows

        def counted(B, xs):
            calls.append(len(xs))
            return build(B, xs)

        monkeypatch.setattr(sets, "_BLOCK_ENTRIES", 8)
        monkeypatch.setattr(sets, "translate_rows", counted)
        assert own_row_masks(B, xs) == whole
        assert calls == [1] * len(xs)

    @pytest.mark.parametrize("mods", [(16,), (3, 3, 3)])
    def test_identity_row_is_one_shift(self, mods, monkeypatch):
        # on the mask side of the row rule, verify_covered(A, X.with_identity())
        # takes A's rows from its table and the identity's row from A.mask,
        # so no packed row is built
        spec = GroupSpec(mods)
        A = generate_instance("random", spec, size=5, seed=3)
        assert sets._by_shifts(spec)
        delta = Fraction(1, 4)
        X = statistical_cover(A, A, delta).X.with_identity()
        want = covering.verify_covered(GroupSet(spec, A.indices), X, delta)
        calls = []
        monkeypatch.setattr(sets, "translate_rows", lambda B, xs: calls.append(len(xs)))
        assert covering.verify_covered(A, X, delta) == want
        assert own_row_masks(A, X.index_array) == [A.shifted(x).mask for x in sorted(X.indices)]
        assert calls == []


class TestRowForms:
    """Shifts of B.mask and packed index sums give the same rows and sumsets."""

    @staticmethod
    def forced(form):
        return lambda spec: form

    @given(st.sampled_from(KERNEL_GROUPS + [(2,) * 9, (3,) * 6, (2, 4, 8)]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_rows_and_sumsets_agree(self, mods, data):
        spec = GroupSpec(mods)
        A = draw_set(data, spec, min_size=1, max_size=12)
        B = draw_set(data, spec, min_size=1)
        xs = np.array(data.draw(st.lists(st.integers(0, spec.order - 1), max_size=6)), dtype=np.int64)
        coords = lambda S: [e.coords for e in S]
        want_sum = sumset_oracle(mods, coords(A), coords(B))
        got, rule = [], sets._by_shifts
        for form in (True, False):
            sets._by_shifts = self.forced(form)
            try:
                fresh = GroupSet(spec, B.indices)
                rows = sets._translate_masks(fresh, xs)
                S = sumset(A, fresh)
            finally:
                sets._by_shifts = rule
            assert {e.coords for e in S} == want_sum
            assert S.mask == sets.indices_to_mask(spec.order, S.indices)
            got.append((rows, S))
        assert got[0] == got[1]
        # the row of x is the mask of {x} + B
        translates = [sumset_oracle(mods, [spec.element_at(x).coords], coords(B)) for x in xs.tolist()]
        mask_of = lambda cs: sets.indices_to_mask(spec.order, [spec.index_of(c) for c in cs])
        assert got[0][0] == [mask_of(t) for t in translates]

    @given(st.sampled_from(KERNEL_GROUPS), st.data())
    @settings(max_examples=25, deadline=None)
    def test_mixed_requests_read_the_table(self, mods, data):
        # rows of xs in B come from B's table once it is built, the others
        # are built alone, and the order of xs is kept
        spec = GroupSpec(mods)
        B = draw_set(data, spec, min_size=1, max_size=12)
        xs = data.draw(st.lists(st.integers(0, spec.order - 1), min_size=1, max_size=8))
        want = [row_int(r) for r in translate_rows(B, xs)]
        assert own_row_masks(B, xs) == want
        own_row_masks(B, B.index_array)  # builds the table
        assert own_row_masks(B, xs) == want


class TestDenseAndSparseSumset:
    @pytest.mark.parametrize("dense", [True, False])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_oracle(self, dense, data):
        mods = data.draw(st.sampled_from(KERNEL_GROUPS if dense else KERNEL_GROUPS[3:]))
        spec = GroupSpec(mods)
        cap = None if dense else 4
        A = draw_set(data, spec, min_size=1, max_size=cap)
        B = draw_set(data, spec, min_size=1, max_size=cap)
        assume((len(A) * len(B) * 8 >= spec.order) == dense)
        got = {e.coords for e in A + B}
        assert got == sumset_oracle(mods, [e.coords for e in A], [e.coords for e in B])

    def test_carries_match_oracle(self):
        rng = random.Random(3)
        for mods in [(7,), (12,), (3, 3, 3), (5, 13), (2, 3, 4, 5)]:
            spec = GroupSpec(mods)
            for _ in range(4):
                A, B = (
                    generate_instance(
                        "random", spec, size=rng.randint(1, spec.order), seed=rng.getrandbits(30)
                    )
                    for _ in range(2)
                )
                got = {e.coords for e in A + B}
                assert got == sumset_oracle(mods, [e.coords for e in A], [e.coords for e in B])
                rows = translate_rows(B, A.index_array)
                assert [row_int(r) for r in rows] == [B.shifted(x).mask for x in sorted(A.indices)]


    def test_shifted_sumset_holds_one_shift_at_a_time(self):
        # 1000 shifts of a 2^16-bit mask near the top of Z_65536 would take
        # 8 MiB held at once; ORed as they are made, the peak stays a few
        # |G|-sized buffers
        spec = GroupSpec((2**16,))
        A = GroupSet(spec, range(spec.order - 1000, spec.order))
        B = GroupSet(spec, range(spec.order // 2, spec.order // 2 + 3000))
        assert sets._by_shifts(spec)
        for S in (A, B):
            S.mask, S.index_array  # built outside the traced window
        spec._full_mask
        tracemalloc.start()
        try:
            S = sumset(A, B)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * spec.order
        half = spec.order // 2
        assert S.indices == {(half - 1000 + i) % spec.order for i in range(3999)}

    @pytest.mark.parametrize("count", [3, 40])
    def test_indices_to_mask_forms_agree_and_check_bounds(self, count):
        # both sides of _SMALL_MASK, from an iterable and from an array
        spec = GroupSpec((300,))
        idx = random.Random(count).sample(range(spec.order), count)
        want = sum(1 << i for i in idx)
        assert sets.indices_to_mask(spec.order, idx) == want
        assert sets.indices_to_mask(spec.order, iter(idx)) == want
        assert sets.indices_to_mask(spec.order, np.array(idx, dtype=np.int64)) == want
        for bad in (spec.order, -1):
            with pytest.raises(IndexError):
                sets.indices_to_mask(spec.order, idx[:-1] + [bad])
            with pytest.raises(IndexError):
                sets.indices_to_mask(spec.order, np.array(idx[:-1] + [bad], dtype=np.int64))


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

    @pytest.mark.parametrize("kind, option", [
        ("random", "size"), ("subgroup", "n_generators"),
        ("coset_union", "n_generators"), ("coset_union", "n_cosets"),
    ])
    @pytest.mark.parametrize("value", [0, -1])
    def test_counts_below_one_are_refused(self, kind, option, value):
        spec = GroupSpec((8, 8))
        with pytest.raises(ValueError, match=f"{option} must be at least 1, got {value}"):
            generate_instance(kind, spec, **{option: value})

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
