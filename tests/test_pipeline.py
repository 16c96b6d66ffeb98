import math
from dataclasses import replace
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from statcover import (
    GroupSet,
    GroupSpec,
    LemmaHypothesisError,
    almost_invariant_pair,
    annihilator_containment_check,
    doubling_constant,
    generate_instance,
    indicator,
    petridis_subset,
    petridis_verify,
    reverify_report,
    spec_annihilator_bound,
    subgroup_closure,
    theorem_driver,
    uniform_measure,
)
from statcover import fourier, pipeline, sets
from statcover.functions import RationalFunc, average_with_translate
from statcover.pipeline import _headline_comparison

from oracles import (
    closure_bfs,
    convolve_oracle,
    mu_oracle,
    petridis_fallback_oracle,
    petridis_scan_oracle,
    petridis_verify_oracle,
)


def _least_winner(spec, winners):
    """The tie-break winner: smallest size, then lexicographic member indices."""
    return min(
        (tuple(sorted(spec.index_of(c) for c in z)) for z in winners),
        key=lambda t: (len(t), t),
    )


class TestPetridisSubset:
    def test_subgroup_minimizer_is_itself(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1)]))
        out = petridis_subset(V)
        assert out.Z == V
        assert out.ratio == 1
        assert out.ties_broken == 0

    def test_z7_interval(self):
        spec = GroupSpec((7,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        out = petridis_subset(A)
        assert out.Z == A
        assert out.ratio == Fraction(5, 3)

    def test_singleton(self):
        spec = GroupSpec((5,))
        A = GroupSet.from_elements(spec, [(3,)])
        out = petridis_subset(A)
        assert out.Z == A and out.ratio == 1

    @pytest.mark.parametrize("mods", [(12,), (2, 2, 2), (3, 3)])
    def test_matches_subset_scan_oracle(self, mods):
        spec = GroupSpec(mods)
        rng = random.Random(2)
        for _ in range(6):
            A = generate_instance(
                "random", spec, size=rng.randint(2, 6), seed=rng.getrandbits(30)
            )
            out = petridis_subset(A)
            best, winners = petridis_scan_oracle(spec.moduli, {e.coords for e in A})
            assert out.ratio == best
            assert out.ties_broken == len(winners) - 1
            assert tuple(sorted(out.Z.indices)) == _least_winner(spec, winners)

    def test_candidate_pool_restriction(self):
        spec = GroupSpec((8,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,), (4,)])
        pool = GroupSet.from_elements(spec, [(1,), (4,)])
        out = petridis_subset(A, within=pool)
        assert out.Z.issubset(pool)
        best, _ = petridis_scan_oracle(
            spec.moduli, {e.coords for e in A}, pool={e.coords for e in pool}
        )
        assert out.ratio == best

    def test_exhaustive_cap_directs_to_fallback(self):
        spec = GroupSpec((64,))
        A = generate_instance("random", spec, size=20, seed=1)
        out = petridis_subset(A, cap=18)
        assert out.mode == "singletons_and_A"
        assert out.candidates_scanned == len(A) + 1
        assert petridis_subset(A) == out

    @pytest.mark.parametrize("cap", [-1, 19])
    def test_cap_outside_range_rejected(self, cap):
        spec = GroupSpec((5,))
        A = GroupSet.from_elements(spec, [(3,)])
        with pytest.raises(ValueError, match=r"\[0, 18\]"):
            petridis_subset(A, cap=cap)

    def test_fallback_considers_singletons_and_full(self):
        spec = GroupSpec((16,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        full = petridis_subset(A)
        fb = petridis_subset(A, cap=0)
        assert fb.mode == "singletons_and_A"
        assert fb.ratio >= full.ratio
        options = [Fraction(len(A + GroupSet.singleton(z)), 1) for z in A]
        options.append(doubling_constant(A))
        assert fb.ratio == min(options)

    def test_fallback_scores_a_one_element_pool_once(self):
        spec = GroupSpec((5,))
        A = GroupSet.from_elements(spec, [(3,)])
        out = petridis_subset(A, cap=0)
        assert out.mode == "singletons_and_A"
        assert (out.Z, out.ratio) == (A, 1)
        assert out.ties_broken == 0
        assert out.candidates_scanned == 1

    @given(
        st.sampled_from([(12,), (2, 2, 2, 2), (3, 3), (2, 3, 4), (5, 5)]),
        st.booleans(),
        st.booleans(),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_oracle_on_random_pools(self, mods, restricted, fallback, data):
        spec = GroupSpec(mods)
        idx = st.integers(min_value=0, max_value=spec.order - 1)
        A = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=6))))
        pool = A
        if restricted:
            pool = GroupSet(spec, frozenset(data.draw(st.sets(idx, min_size=1, max_size=10))))
        cap = data.draw(st.integers(0, len(pool) - 1)) if fallback else 18
        out = petridis_subset(A, cap=cap, within=pool if restricted else None)
        oracle = petridis_fallback_oracle if fallback else petridis_scan_oracle
        best, winners = oracle(
            spec.moduli, [e.coords for e in A], [e.coords for e in pool]
        )
        assert out.mode == ("singletons_and_A" if fallback else "exhaustive")
        assert out.ratio == best
        assert out.ties_broken == len(winners) - 1
        assert tuple(sorted(out.Z.indices)) == _least_winner(spec, winners)

    def test_block_split_matches_one_block(self, monkeypatch):
        spec = GroupSpec((4, 4, 4))
        A = GroupSet(spec, frozenset({0, 21, 42}))
        pool = GroupSet(spec, frozenset(range(0, 40, 4)))
        one = petridis_subset(A, within=pool)
        # 2**8 one-word rows per block: four blocks of the 2**10 subset ids
        monkeypatch.setattr(pipeline, "_SCAN_BLOCK_WORDS", 2**8)
        assert petridis_subset(A, within=pool) == one
        monkeypatch.setattr(pipeline, "_SCAN_BLOCK_WORDS", 1)
        assert petridis_subset(A, within=pool) == one

    def test_eighteen_element_pool_recorded(self):
        # recorded from the recursive scan this exhaustive table replaced
        spec = GroupSpec((4, 4, 4))
        A = GroupSet(spec, frozenset({0, 21, 42}))
        pool = GroupSet(spec, frozenset(range(0, 64, 4)) | {1, 2})
        assert len(pool) == 18
        out = petridis_subset(A, within=pool)
        assert sorted(out.Z.indices) == [1, 60]
        assert out.ratio == 2
        assert out.ties_broken == 2
        assert out.candidates_scanned == 2**18 - 1

    @pytest.mark.parametrize(
        "A_idx, pool_idx",
        [
            # every sum distinct: the ratios tie at |A|, W ties with 500 singletons
            ([0, 512], range(500)),
            # W an interval: |A + W| < |W| |A|, W itself wins
            ([0, 1, 7], range(3, 603)),
        ],
    )
    def test_large_fallback_matches_closed_form(self, A_idx, pool_idx):
        spec = GroupSpec((1024,))
        A = GroupSet(spec, frozenset(A_idx))
        pool = GroupSet(spec, frozenset(pool_idx))
        out = petridis_subset(A, within=pool)
        best, winners = petridis_fallback_oracle(
            spec.moduli, [e.coords for e in A], [e.coords for e in pool]
        )
        assert out.mode == "singletons_and_A"
        assert out.candidates_scanned == len(pool) + 1
        assert out.ratio == best
        assert out.ties_broken == len(winners) - 1
        assert tuple(sorted(out.Z.indices)) == _least_winner(spec, winners)


class TestPetridisVerify:
    def test_identity_c_gives_equality(self):
        spec = GroupSpec((7,))
        A = GroupSet.from_elements(spec, [(0,), (1,), (2,)])
        Z = petridis_subset(A).Z
        assert petridis_verify(A, Z, [GroupSet.from_elements(spec, [(0,)])])

    def test_all_singletons_hold(self):
        spec = GroupSpec((3, 3))
        A = generate_instance("random", spec, size=4, seed=3)
        Z = petridis_subset(A).Z
        family = [GroupSet(spec, frozenset([i])) for i in range(spec.order)]
        assert petridis_verify(A, Z, family)

    def test_random_c_family(self):
        spec = GroupSpec((2, 2, 2, 2))
        rng = random.Random(4)
        A = generate_instance("random", spec, size=5, seed=4)
        Z = petridis_subset(A).Z
        family = [
            GroupSet(spec, frozenset(rng.sample(range(16), rng.randint(1, 6))))
            for _ in range(40)
        ]
        assert petridis_verify(A, Z, family)

VERIFY_GROUPS = [(16,), (3, 3), (2, 2, 2, 2), (2, 4, 4), (5, 5), (12,)]


def _verify_replay(A, Z, family):
    spec = A.spec

    def coords(S):
        return [e.coords for e in S]

    return petridis_verify_oracle(
        spec.moduli, coords(A), coords(Z), [coords(C) for C in family]
    )


@st.composite
def _verify_case(draw):
    """A, an arbitrary Z and a family with empty sets, singletons and repeats."""
    spec = GroupSpec(draw(st.sampled_from(VERIFY_GROUPS)))

    def subsets(lo, hi):
        idx = st.integers(0, spec.order - 1)
        return st.sets(idx, min_size=lo, max_size=hi).map(
            lambda s: GroupSet(spec, frozenset(s))
        )

    A, Z = draw(subsets(1, 6)), draw(subsets(1, 6))
    family = draw(
        st.lists(st.one_of(subsets(0, 0), subsets(1, 1), subsets(1, spec.order)), max_size=8)
    )
    family += family[: draw(st.integers(0, len(family)))]
    return A, Z, family


def _pinned_case(mods, A, Z, family):
    spec = GroupSpec(mods)
    return (
        GroupSet(spec, frozenset(A)),
        GroupSet(spec, frozenset(Z)),
        [GroupSet(spec, frozenset(C)) for C in family],
    )


# Z is no ratio minimizer: |A+Z| / |Z| = 6/5 but |A+Z+C| / |Z+C| = 8/6 for
# the last C
_FAILING_CASE = _pinned_case((2, 2, 2, 2), [3, 7], [1, 5, 8, 9, 12], [[], [4], [1, 8]])
# an empty C, a singleton, a repeated member and the whole group
_HOLDING_CASE = _pinned_case(
    (12,), [0, 1, 5], [2, 3], [[], [7], [0, 6], [0, 6], list(range(12))]
)

# in chunks of two rows the middle C is cut after its first member, in a
# chunk that also ends another C
_SPLIT_CASE = _pinned_case((16,), [0], [0], [[1], [2, 3, 4], [5]])


class TestPetridisFamilyRows:
    """petridis_verify on packed translate rows against sumset replays."""

    @given(_verify_case())
    @example(_FAILING_CASE)
    @example(_HOLDING_CASE)
    @settings(max_examples=80, deadline=None)
    def test_matches_sumset_replay(self, case):
        A, Z, family = case
        assert petridis_verify(A, Z, family) == _verify_replay(A, Z, family)

    def test_pinned_cases_take_both_outcomes(self):
        assert not petridis_verify(*_FAILING_CASE)
        assert petridis_verify(*_HOLDING_CASE)

    @given(_verify_case(), st.integers(1, 4))
    @example(_SPLIT_CASE, 2)
    @settings(max_examples=40, deadline=None)
    def test_small_chunks_match_one_chunk(self, case, rows):
        # every group here has one word per row, so a chunk holds `rows` rows
        A, Z, family = case
        az = A + Z

        def run():
            sizes = [pipeline._union_sizes(B, family).tolist() for B in (az, Z)]
            return sizes, petridis_verify(A, Z, family)

        whole = run()
        budget = sets._BLOCK_ENTRIES
        try:
            sets._BLOCK_ENTRIES = rows
            split = run()
        finally:
            sets._BLOCK_ENTRIES = budget
        assert split == whole
        assert whole[0] == [[len(B + C) for C in family] for B in (az, Z)]

    def test_memory_stays_within_chunks(self):
        # the 4096 rows of C + A + Z take 8 MiB at once; a chunk holds at most
        # 2**18 words (2 MiB)
        spec = GroupSpec((2,) * 14)
        C = subgroup_closure(GroupSet(spec, frozenset(1 << i for i in range(12))))
        A = GroupSet(spec, frozenset([0, 5, 1000, 9999, 16000]))
        Z = GroupSet(spec, frozenset([0, 3, 77]))
        assert len(C) == 2**12
        for S in (A, Z, A + Z, C):
            S.index_array  # built outside the traced window
        tracemalloc.start()
        try:
            ok = petridis_verify(A, Z, [C])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ok == _verify_replay(A, Z, [C])
        assert peak <= 4 * 2**20


class TestAlmostInvariantPair:
    def test_subgroup_zero_defect(self):
        spec = GroupSpec((2, 2, 2))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 0, 0), (0, 1, 0)]))
        stage = almost_invariant_pair(V, Fraction(1, 4))
        assert sorted(stage.V.indices) == [0]
        assert stage.f == indicator(V)
        assert stage.good == V
        assert all(c.holds for c in stage.checks)

    def test_independent_set_with_identity(self):
        spec = GroupSpec((2,) * 6)
        A = generate_instance("independent", spec)
        stage = almost_invariant_pair(A, Fraction(1, 2))
        assert stage.f.support_set().issubset(A + stage.V)
        l1 = stage.f.l1_norm()
        for x in stage.good.indices:
            moved = (stage.f - stage.f.translate_index(x)).l1_norm()
            assert moved <= stage.eps * l1
        assert stage.chang.witnesses.issubset(stage.good)

    def test_random_instances_verify(self):
        spec = GroupSpec((3, 3, 3))
        rng = random.Random(5)
        for _ in range(4):
            A = generate_instance(
                "random", spec, size=rng.randint(3, 7), seed=rng.getrandbits(30)
            )
            stage = almost_invariant_pair(A, Fraction(1, 5))
            assert all(c.holds for c in stage.checks)
            assert stage.good.issubset(A)

    @pytest.mark.parametrize("mods", [(3, 3, 3), (16,), (2, 2, 2, 2), (5, 5)])
    def test_f_matches_fraction_averaging(self, mods):
        # f is the square of 1_A averaged along the chang path, step by step
        spec = GroupSpec(mods)
        rng = random.Random(8)
        for _ in range(3):
            A = generate_instance(
                "random", spec, size=rng.randint(3, 7), seed=rng.getrandbits(30)
            )
            stage = almost_invariant_pair(A, Fraction(1, 3))
            g = indicator(A)
            for e in stage.chang.path:
                g = average_with_translate(g, e)
            assert stage.chang.func == g
            assert stage.f == g.square()
            path = [e.coords for e in stage.chang.path]
            ind = {e.coords: Fraction(1) for e in A}
            oracle = convolve_oracle(mods, ind, mu_oracle(mods, path))
            assert all(stage.f.value_at(spec.element(c)) == v * v for c, v in oracle.items())

    def test_eps_validation(self):
        spec = GroupSpec((4,))
        A = GroupSet.from_elements(spec, [(0,), (1,)])
        with pytest.raises(ValueError):
            almost_invariant_pair(A, Fraction(0))
        with pytest.raises(ValueError):
            almost_invariant_pair(GroupSet.empty(spec), Fraction(1, 2))


class TestAnnihilatorContainment:
    def test_subgroup_case(self):
        spec = GroupSpec((2, 2, 2))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1, 0)]))
        g = indicator(V)
        A = GroupSet.from_elements(spec, [(0, 0, 0), (1, 1, 0)])
        assert annihilator_containment_check(g, A, Fraction(1, 4))

    def test_identity_alone_always_contained(self):
        spec = GroupSpec((5,))
        g = indicator(GroupSet.from_elements(spec, [(0,), (1,)]))
        A = GroupSet.from_elements(spec, [(0,)])
        assert annihilator_containment_check(g, A, Fraction(1, 5))

    def test_hypothesis_failure_is_distinct(self):
        spec = GroupSpec((5,))
        g = indicator(GroupSet.from_elements(spec, [(0,)]))
        A = GroupSet.from_elements(spec, [(2,)])  # moves the point mass entirely
        with pytest.raises(LemmaHypothesisError):
            annihilator_containment_check(g, A, Fraction(1, 5))

    def test_threshold_cap(self):
        spec = GroupSpec((5,))
        g = indicator(GroupSet.full(spec))
        with pytest.raises(LemmaHypothesisError):
            annihilator_containment_check(
                g, GroupSet.from_elements(spec, [(0,)]), Fraction(1, 2)
            )  # r * eps = 5/2 > 1

    def test_randomized_invariant_functions(self):
        spec = GroupSpec((6, 6))
        rng = random.Random(6)
        r = spec.exponent
        for _ in range(8):
            V = subgroup_closure(
                GroupSet(spec, frozenset([rng.randrange(spec.order)]))
            )
            g = indicator(V) + 2 * uniform_measure(V)
            eps = Fraction(1, r)
            l1 = g.l1_norm()
            good = frozenset(
                a
                for a in range(spec.order)
                if (g - g.translate_index(a)).l1_norm() <= eps * l1
            )
            assert annihilator_containment_check(g, GroupSet(spec, good), eps)


class TestSpectrumBound:
    def test_subgroup_case(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1)]))
        h = g = indicator(V)
        out = spec_annihilator_bound(V, V, h, g, Fraction(1, 2))
        assert out.K == 1
        assert out.size == len(V)
        assert out.bound == 4 * len(V)
        assert out.holds

    def test_hypothesis_checks(self):
        spec = GroupSpec((2, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 1)]))
        h = indicator(V)
        with pytest.raises(LemmaHypothesisError):
            spec_annihilator_bound(V, V, h, h, Fraction(3, 4))  # eps > 1/2
        small = GroupSet.from_elements(spec, [(0, 0)])
        with pytest.raises(LemmaHypothesisError):
            spec_annihilator_bound(small, V, h, h, Fraction(1, 2))  # h not on A
        signed = RationalFunc.from_pairs(spec, {0: 1, 1: -1})
        with pytest.raises(LemmaHypothesisError):
            spec_annihilator_bound(V, V, signed, h, Fraction(1, 2))


class TestTheoremDriver:
    def test_subgroup_report(self):
        spec = GroupSpec((3, 3))
        V = subgroup_closure(GroupSet.from_elements(spec, [(1, 2)]))
        rep = theorem_driver(V)
        assert rep.ratio == 1
        assert rep.closure == V
        assert all(c.holds for c in rep.all_checks())

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_independent_family_ratio(self, n):
        spec = GroupSpec((2,) * n)
        A = generate_instance("independent", spec)
        rep = theorem_driver(A)
        assert rep.ratio == Fraction(2**n, n + 1)
        oracle = closure_bfs(spec.moduli, [e.coords for e in A])
        assert len(rep.closure) == len(oracle)

    def test_random_z3_instance_and_reverify(self):
        spec = GroupSpec((3, 3, 3, 3))
        A = generate_instance("random", spec, size=7, seed=9)
        rep = theorem_driver(A, seed=9)
        again = reverify_report(rep)
        assert all(c.holds for c in again)
        names = [c.name for c in rep.all_checks()]
        assert names == [c.name for c in again]

    def test_mixed_moduli(self):
        spec = GroupSpec((2, 3, 4))
        A = generate_instance("random", spec, size=5, seed=11)
        rep = theorem_driver(A, seed=11)
        oracle = closure_bfs(spec.moduli, [e.coords for e in A])
        assert len(rep.closure) == len(oracle)
        assert rep.coset_count == len(rep.A + rep.V3) // len(rep.V3)

    def test_coset_without_identity(self):
        spec = GroupSpec((4, 4))
        V = subgroup_closure(GroupSet.from_elements(spec, [(2, 0), (0, 2)]))
        A = V.shifted(spec.element((1, 1)))
        assert not A.has_identity
        rep = theorem_driver(A)
        assert rep.K == 1
        oracle = closure_bfs(spec.moduli, [e.coords for e in A])
        assert rep.ratio == Fraction(len(oracle), len(A))

    def test_large_pool_falls_back_to_restricted_scan(self):
        spec = GroupSpec((2,) * 6)
        W = generate_instance("subgroup", spec, n_generators=5, seed=2)
        assert len(W) > 18
        rep = theorem_driver(W)
        assert rep.petridis.mode == "singletons_and_A"
        assert rep.final_petridis.mode == "singletons_and_A"
        assert rep.ratio == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            theorem_driver(GroupSet.empty(GroupSpec((2,))))


def _count_transforms(monkeypatch):
    """Count fourier.dft calls and the pipeline's annihilator calls."""
    calls = {"dft": 0, "annihilator": 0}
    dft, ann = fourier.dft, pipeline.annihilator

    def counted_dft(f, **kw):
        calls["dft"] += 1
        return dft(f, **kw)

    def counted_annihilator(chars):
        calls["annihilator"] += 1
        return ann(chars)

    monkeypatch.setattr(fourier, "dft", counted_dft)
    monkeypatch.setattr(pipeline, "annihilator", counted_annihilator)
    return calls


DRIVER_CASES = [
    # (group, kind, size, seed, annihilators): the two cuts of g keep the
    # same characters on Z_2^12 and differ on Z_2 x Z_2 x Z_4
    ((2,) * 12, "independent", None, 0, 2),
    ((2, 2, 4), "random", 8, 2, 3),
]


class TestOneTransformPerDriverCall:
    @pytest.mark.parametrize("mods, kind, size, seed, anns", DRIVER_CASES)
    def test_transform_and_annihilator_counts(self, monkeypatch, mods, kind, size, seed, anns):
        A = generate_instance(kind, GroupSpec(mods), size=size, seed=seed)
        calls = _count_transforms(monkeypatch)
        rep = theorem_driver(A, seed=seed)
        # the driver cuts one transform twice; its checks transform once more
        assert calls == {"dft": 2, "annihilator": anns}
        calls.update(dft=0, annihilator=0)
        again = reverify_report(rep)
        assert calls["dft"] >= 1 and calls["annihilator"] >= 1
        assert again == rep.all_checks()

    @pytest.mark.parametrize("mods, kind, size, seed, anns", DRIVER_CASES)
    def test_shared_results_equal_separate_calls(self, mods, kind, size, seed, anns):
        A = generate_instance(kind, GroupSpec(mods), size=size, seed=seed)
        rep = theorem_driver(A, seed=seed)
        g, r = rep.stage2.f, A.spec.exponent
        sb = spec_annihilator_bound(rep.support_set, rep.invariance_set, rep.h, g, rep.epsilon)
        assert sb == rep.spectrum_bound
        loose = fourier.spectrum(g, rep.loose_threshold)
        assert (len(loose) == sb.spectrum_size) == (anns == 2)
        assert rep.loose_annihilator == fourier.annihilator(loose)
        assert annihilator_containment_check(g, rep.Z2, rep.eta)
        assert rep.loose_threshold == float(r * rep.eta)

    def test_tampered_loose_records_fail_the_recheck(self):
        A = generate_instance("random", GroupSpec((2, 2, 4)), size=8, seed=2)
        rep = theorem_driver(A, seed=2)

        def recorded(report):
            (check,) = [c for c in reverify_report(report) if c.name == "loose-annihilator-recorded"]
            return check.holds

        assert recorded(rep)
        assert not recorded(replace(rep, loose_threshold=rep.spectrum_bound.threshold))
        assert not recorded(replace(rep, loose_annihilator=GroupSet.full(A.spec)))

    def test_containment_hypotheses_still_checked(self):
        # the recheck shares the loose annihilator but still verifies that
        # Z'' moves g by at most eta of its l1 mass
        A = generate_instance("random", GroupSpec((2, 2, 4)), size=8, seed=2)
        rep = theorem_driver(A, seed=2)
        moved = replace(rep, stage2=replace(rep.stage2, good=GroupSet.full(A.spec)))
        with pytest.raises(LemmaHypothesisError, match="moves g by"):
            reverify_report(moved)


class TestHeadlineComparison:
    def test_value_inside_float_range(self):
        assert _headline_comparison(2.0) == math.exp(2.0 * math.log(4.0) ** 2)
        assert math.isfinite(_headline_comparison(37.8))

    def test_inf_past_float_range(self):
        assert _headline_comparison(38.0) == math.inf
        assert _headline_comparison(1e6) == math.inf
