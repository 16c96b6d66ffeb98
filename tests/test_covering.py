import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from statcover import (
    GroupSet,
    GroupSpec,
    generate_instance,
    ruzsa_cover,
    statistical_cover,
    subgroup_closure,
    verify_covered,
    verify_iterated_cover,
)
from statcover import covering
from statcover.sets import indices_to_mask

from oracles import (
    coverage_count_oracle,
    eq2_lhs_oracle,
    neg_c,
    statistical_cover_oracle,
    sumset_oracle,
)


def z7_interval():
    spec = GroupSpec((7,))
    return spec, GroupSet.from_elements(spec, [(0,), (1,), (2,)])


class TestStatisticalCover:
    def test_subgroup_single_element(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1)]))
        cert = statistical_cover(V, V, Fraction(1, 3))
        assert sorted(cert.X.indices) == [min(V.indices)]
        assert all(c == len(V) for c in cert.per_x_coverage.values())

    def test_z7_interval_hand_run(self):
        spec, A = z7_interval()
        cert = statistical_cover(A, A, Fraction(1, 2))
        assert sorted(e.coords[0] for e in cert.X) == [0, 2]
        assert cert.K == Fraction(5, 3)
        assert cert.size_bound == Fraction(7, 3)
        assert cert.trace == (0, 2)

    def test_postcondition_replay(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(3)
        for _ in range(8):
            A = generate_instance("random", spec, size=4, seed=rng.getrandbits(30))
            delta = Fraction(rng.randint(1, 3), 4)
            cert = statistical_cover(A, A, delta)
            ok, frac = verify_covered(A, cert.X, delta)
            assert ok
            assert frac >= 1 - delta

    def test_matches_plain_set_oracle(self):
        specs = [GroupSpec((7,)), GroupSpec((2, 4)), GroupSpec((12,)), GroupSpec((3, 3))]
        rng = random.Random(4)
        for spec in specs:
            for _ in range(6):
                A = generate_instance(
                    "random", spec, size=rng.randint(2, 5), seed=rng.getrandbits(30)
                )
                delta = Fraction(rng.randint(1, 4), 4)
                cert = statistical_cover(A, A, delta)
                oracle = statistical_cover_oracle(
                    spec.moduli, {e.coords for e in A}, {e.coords for e in A}, delta
                )
                assert [spec.element_at(i).coords for i in cert.trace] == oracle

    def test_trace_growth_bound(self):
        """Replaying prefixes of the trace: each addition grows the union by
        more than delta |B|, so |X_i + B| > delta |B| i + |B| for i >= 1."""
        spec = GroupSpec((16,))
        rng = random.Random(5)
        for _ in range(8):
            A = generate_instance("random", spec, size=6, seed=rng.getrandbits(30))
            delta = Fraction(1, 4)
            cert = statistical_cover(A, A, delta)
            b_arr = A.index_array
            union = 0
            for i, x in enumerate(cert.trace):
                union |= indices_to_mask(
                    spec.order, spec.shift_indices(b_arr, x).tolist()
                )
                if i == 0:
                    assert union.bit_count() == len(A)
                else:
                    assert union.bit_count() > delta * len(A) * i + len(A)

    def test_delta_one_returns_seed_only(self):
        spec, A = z7_interval()
        cert = statistical_cover(A, A, Fraction(1))
        assert sorted(cert.X.indices) == [0]
        ok, _ = verify_covered(A, cert.X, Fraction(1))
        assert ok  # threshold zero is vacuous

    def test_integer_decisions_match_the_rationals(self):
        # every delta p/q with q <= 6; |B| = 5 puts the coverage exactly on
        # the threshold for q = 5
        spec = GroupSpec((3, 4))
        rng = random.Random(5)
        for _ in range(6):
            A = generate_instance("random", spec, size=5, seed=rng.getrandbits(30))
            X = GroupSet(spec, rng.sample(sorted(A.indices), 2))
            for q in range(1, 7):
                for p in range(1, q + 1):
                    delta = Fraction(p, q)
                    ok, frac = verify_covered(A, X, delta)
                    assert type(frac) is Fraction and ok == (frac >= 1 - delta)
                    cert = statistical_cover(A, A, delta)
                    assert type(cert.K) is Fraction and type(cert.size_bound) is Fraction
                    assert cert.size_bound == (cert.K - 1) / delta + 1
                    assert len(cert.X) <= cert.size_bound

    def test_rejects_bad_inputs(self):
        spec, A = z7_interval()
        with pytest.raises(ValueError):
            statistical_cover(GroupSet.empty(spec), A, Fraction(1, 2))
        with pytest.raises(ValueError):
            statistical_cover(A, A, Fraction(0))
        with pytest.raises(ValueError):
            statistical_cover(A, A, Fraction(3, 2))

    def test_distinct_base_set(self):
        spec = GroupSpec((16,))
        rng = random.Random(9)
        for _ in range(6):
            A = generate_instance("random", spec, size=4, seed=rng.getrandbits(30))
            B = generate_instance("random", spec, size=3, seed=rng.getrandbits(30))
            delta = Fraction(1, 4)
            cert = statistical_cover(A, B, delta)
            assert cert.X.issubset(A)
            assert Fraction(len(cert.X)) <= cert.size_bound
            ok, frac = verify_covered(A, cert.X, delta, B=B)
            assert ok and frac >= 1 - delta
            oracle = statistical_cover_oracle(
                spec.moduli, {e.coords for e in A}, {e.coords for e in B}, delta
            )
            assert [spec.element_at(i).coords for i in cert.trace] == oracle


class TestRuzsaCover:
    def test_z7_interval(self):
        spec, A = z7_interval()
        X = ruzsa_cover(A, A)
        assert sorted(e.coords[0] for e in X) == [0]
        assert A.issubset((X + A) - A)
        assert sorted(e.coords[0] for e in (X + A) - A) == [0, 1, 2, 5, 6]

    def test_already_covered_by_one_translate(self):
        spec = GroupSpec((8,))
        B = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        A = GroupSet.from_elements(spec, [(1,), (2,)])  # inside 1 + B - B
        X = ruzsa_cover(A, B)
        assert len(X) == 1

    def test_subgroup(self):
        spec = GroupSpec((2, 2))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 0)]))
        assert len(ruzsa_cover(V, V)) == 1

    def test_properties_random(self):
        specs = [GroupSpec((16,)), GroupSpec((3, 3)), GroupSpec((2, 2, 2, 2))]
        rng = random.Random(6)
        for spec in specs:
            for _ in range(8):
                A = generate_instance(
                    "random", spec, size=rng.randint(2, 6), seed=rng.getrandbits(30)
                )
                B = generate_instance(
                    "random", spec, size=rng.randint(2, 6), seed=rng.getrandbits(30)
                )
                X = ruzsa_cover(A, B)
                assert A.issubset((X + B) - B)
                assert len(X) * len(B) <= len(A + B)
                translates = [
                    set(spec.shift_indices(B.index_array, x).tolist()) for x in X.indices
                ]
                for i in range(len(translates)):
                    for j in range(i + 1, len(translates)):
                        assert not (translates[i] & translates[j])

    @given(st.sampled_from([(7,), (12,), (3, 3), (2, 2, 2, 2), (5, 13), (2, 3, 4)]), st.data())
    @settings(max_examples=60, deadline=None)
    def test_row_postcondition_matches_sumset_oracle(self, mods, data):
        # a lies in X + B - B exactly when a + B meets X + B; checked here on
        # coordinate sumsets, for B = A and for B drawn apart
        spec = GroupSpec(mods)
        idx = st.integers(min_value=0, max_value=spec.order - 1)
        A = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=10))))
        if data.draw(st.booleans()):
            B = A
        else:
            B = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=10))))
        X = ruzsa_cover(A, B)
        b = [e.coords for e in B]
        x_plus_b = sumset_oracle(mods, [e.coords for e in X], b)
        assert {a.coords for a in A} <= sumset_oracle(mods, x_plus_b, [neg_c(mods, y) for y in b])
        picked, union = [], set()  # first fit on disjoint translates
        for a in A:
            translate = sumset_oracle(mods, [a.coords], b)
            if not translate & union:
                picked.append(a.coords)
                union |= translate
        assert [e.coords for e in X] == picked

    def test_postcondition_fails_on_a_short_cover(self, monkeypatch):
        # 3 + B misses 0 + B, so X = {0} leaves 3 outside X + B - B
        spec = GroupSpec((8,))
        A = GroupSet(spec, frozenset([0, 3]))
        B = GroupSet(spec, frozenset([0, 1]))
        monkeypatch.setattr(covering, "_first_fit", lambda rows, need, union, start: ([0], rows[0]))
        with pytest.raises(RuntimeError, match="postcondition"):
            ruzsa_cover(A, B)


class TestVerifyCovered:
    def test_subgroup_identity_cover(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1)]))
        ok, frac = verify_covered(V, GroupSet.from_elements(spec, [(0, 0)]), Fraction(0))
        assert ok and frac == 1

    def test_single_translate_fails_tight_threshold(self):
        spec, A = z7_interval()
        ok, frac = verify_covered(
            A, GroupSet.from_elements(spec, [(0,)]), Fraction(1, 3)
        )
        assert not ok and frac == Fraction(1, 3)

    def test_counts_match_oracle(self):
        spec = GroupSpec((3, 3))
        rng = random.Random(7)
        for _ in range(6):
            A = generate_instance("random", spec, size=4, seed=rng.getrandbits(30))
            X = generate_instance("random", spec, size=2, seed=rng.getrandbits(30))
            _, frac = verify_covered(A, X, Fraction(1, 2))
            worst = min(
                coverage_count_oracle(
                    spec.moduli,
                    {e.coords for e in A},
                    {e.coords for e in X},
                    {e.coords for e in A},
                    a.coords,
                )
                for a in A
            )
            assert frac == Fraction(worst, len(A))

    def test_delta_one_vacuous(self):
        spec = GroupSpec((9,))
        A = GroupSet.from_elements(spec, [(0,), (4,)])
        X = GroupSet.from_elements(spec, [(2,)])
        ok, _ = verify_covered(A, X, Fraction(1))
        assert ok


TINY = Fraction(1, 10**30)


def coords(S):
    return {e.coords for e in S}


class TestExtremeDeltas:
    """delta = 1/10**30 needs full coverage and delta = 1 none; the threshold
    is an exact integer, so neither may be rounded or cross-multiplied."""

    def test_tiny_delta_needs_every_point(self):
        spec, A = z7_interval()
        cert = statistical_cover(A, A, TINY)
        assert cert.trace == (0, 1, 2)
        assert set(cert.per_x_coverage.values()) == {3}
        assert verify_covered(A, GroupSet.from_elements(spec, [(0,), (1,)]), TINY) == (
            False, Fraction(2, 3)
        )

    @given(st.sampled_from([(7,), (12,), (3, 3, 3), (2,) * 7]), st.data())
    @settings(max_examples=40, deadline=None)
    def test_match_oracles(self, mods, data):
        spec = GroupSpec(mods)
        idx = st.integers(min_value=0, max_value=spec.order - 1)
        A = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=8))))
        B = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=8))))
        for delta in (TINY, Fraction(1)):
            cert = statistical_cover(A, B, delta)
            oracle = statistical_cover_oracle(mods, coords(A), coords(B), delta)
            assert [spec.element_at(i).coords for i in cert.trace] == oracle
            for x, count in cert.per_x_coverage.items():
                assert count == coverage_count_oracle(
                    mods, coords(A), coords(cert.X), coords(B), spec.element_at(x).coords
                )
            X = GroupSet(spec, frozenset(data.draw(st.sets(idx, max_size=4))))
            worst = min(
                coverage_count_oracle(mods, coords(A), coords(X), coords(B), a.coords)
                for a in A
            )
            assert verify_covered(A, X, delta, B=B) == (
                worst >= (1 - delta) * len(B), Fraction(worst, len(B))
            )


class TestFirstFitWork:
    @pytest.mark.parametrize("skipped", [0, 2048, 4095])
    def test_work_and_calls_stay_bounded(self, skipped):
        # row i holds bit i alone, and the union already holds the bits of the
        # first `skipped` rows: the scan passes them over, then picks every
        # later row, reading each row once
        n = 4096

        class CountedRows(list):
            def __getitem__(self, i):
                self.reads.append(i)
                return super().__getitem__(i)

        rows = CountedRows(1 << i for i in range(n))
        rows.reads = []
        union = (1 << skipped) - 1
        picked, union = covering._first_fit(rows, 1, union, 0)
        assert picked == list(range(skipped, n))
        assert union == (1 << n) - 1
        assert rows.reads == list(range(n))
        rows.reads.clear()
        assert covering._first_fit(rows, 1, 0, 5) == (list(range(5, n)), (1 << n) - (1 << 5))
        assert rows.reads == list(range(5, n))

    def test_ruzsa_picks_every_disjoint_translate(self):
        spec = GroupSpec((2,) * 12)
        A = GroupSet.full(spec)
        assert ruzsa_cover(A, GroupSet(spec, frozenset([0]))) == A


class TestIteratedCover:
    def test_subgroup_equality_case(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(0, 1)]))
        X = GroupSet.from_elements(spec, [(0, 0)])
        chk = verify_iterated_cover(V, X, Fraction(0), 2)
        assert chk.holds and not chk.precondition_failures
        assert chk.lhs == chk.rhs == len(V) ** 3

    def test_z7_values(self):
        spec, A = z7_interval()
        X = GroupSet.from_elements(spec, [(0,), (2,)])
        chk = verify_iterated_cover(A, X, Fraction(1, 2), 2)
        assert (chk.lhs, chk.rhs, chk.holds) == (27, Fraction(27, 4), True)

    def test_k_zero(self):
        spec, A = z7_interval()
        chk = verify_iterated_cover(A, A.with_identity(), Fraction(1, 2), 0)
        assert chk.lhs == chk.rhs == len(A)
        assert chk.holds

    def test_missing_identity_reported(self):
        spec, A = z7_interval()
        X = GroupSet.from_elements(spec, [(2,)])
        chk = verify_iterated_cover(A, X, Fraction(1), 1)
        assert any("identity" in f for f in chk.precondition_failures)

    def test_not_covered_reported(self):
        spec, A = z7_interval()
        X = GroupSet.from_elements(spec, [(0,)])
        chk = verify_iterated_cover(A, X, Fraction(1, 10), 1)
        assert any("covered" in f for f in chk.precondition_failures)

    def test_lhs_matches_tuple_enumeration(self):
        spec = GroupSpec((2, 3))
        rng = random.Random(8)
        for _ in range(5):
            A = generate_instance("random", spec, size=3, seed=rng.getrandbits(30))
            X = generate_instance(
                "random", spec, size=2, seed=rng.getrandbits(30)
            ).with_identity()
            for k in (1, 2, 3):
                chk = verify_iterated_cover(A, X, Fraction(1, 2), k)
                oracle = eq2_lhs_oracle(
                    spec.moduli, {e.coords for e in A}, {e.coords for e in X}, k
                )
                assert chk.lhs == oracle
