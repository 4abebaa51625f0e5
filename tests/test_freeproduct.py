import itertools
import pickle
import random

import pytest
from hypothesis import given, strategies as st

from tsslab import tss, verify
from tsslab.groups import make_cyclic, make_dihedral, make_symmetric
from tsslab.specs import parse_group_spec
from tsslab.tss import max_tss_size
from tsslab.words.freeproduct import (
    FpWord,
    format_fp,
    fp_ball,
    fp_commuting_cliques,
    fp_conjugate,
    fp_check_power_family,
    fp_cyclic_reduce,
    fp_families,
    fp_family_cliques,
    fp_from_syllables,
    fp_identity,
    fp_inverse,
    fp_multiply,
    fp_power,
    fp_primitive_root,
    fp_tss_analyze,
    parse_fp,
    parse_fp_raw,
)
from tsslab.groups import GroupError

from helpers import (
    ref_free_product_scan,
    ref_fp_commuting_cliques,
    ref_fp_cyclic_reduce,
    ref_fp_multiply,
    ref_fp_primitive_root,
)

Z2 = make_cyclic(2)
Z3 = make_cyclic(3)
Z3B = make_cyclic(3)
D8 = make_dihedral(4)
S3 = make_symmetric(3)


def dw(*syls):
    return fp_from_syllables(D8, S3, syls)


def zw(*syls):
    return fp_from_syllables(Z3, Z3B, syls)


@st.composite
def raw_syllables(draw):
    n = draw(st.integers(0, 8))
    return [
        (draw(st.integers(0, 1)), draw(st.integers(0, 5)))
        for _ in range(n)
    ]


def _valid(syl):
    tag, elem = syl
    order = D8.order if tag == 0 else S3.order
    return elem < order


class TestNormalForm:
    def test_inverse_cancels(self):
        w = dw((0, 1))
        assert fp_multiply(w, fp_inverse(w)).is_identity()

    def test_full_cascade(self):
        # (g1 h g2) * (g2^-1 h^-1) = g1
        u = dw((0, 1), (1, 2), (0, 3))
        v = dw((0, int(D8.inv[3])), (1, int(S3.inv[2])))
        assert fp_multiply(u, v) == dw((0, 1))

    def test_no_merge_across_factors(self):
        u = dw((0, 1), (1, 2))
        v = dw((0, 2), (1, 1))
        assert len(fp_multiply(u, v)) == 4

    def test_rejects_identity_syllable_in_normal_form(self):
        with pytest.raises(ValueError):
            FpWord(D8, S3, ((0, 0),))

    def test_rejects_adjacent_same_factor(self):
        with pytest.raises(ValueError):
            FpWord(D8, S3, ((0, 1), (0, 2)))

    @given(raw_syllables())
    def test_normalize_idempotent(self, raw):
        raw = [s for s in raw if _valid(s)]
        w = fp_from_syllables(D8, S3, raw)
        assert fp_from_syllables(D8, S3, w.syllables) == w

    @given(raw_syllables())
    def test_length_never_increases(self, raw):
        raw = [s for s in raw if _valid(s)]
        assert len(fp_from_syllables(D8, S3, raw)) <= len(raw)

    @given(raw_syllables(), raw_syllables(), raw_syllables())
    def test_associativity(self, a, b, c):
        u = fp_from_syllables(D8, S3, [s for s in a if _valid(s)])
        v = fp_from_syllables(D8, S3, [s for s in b if _valid(s)])
        w = fp_from_syllables(D8, S3, [s for s in c if _valid(s)])
        assert fp_multiply(fp_multiply(u, v), w) == fp_multiply(u, fp_multiply(v, w))


class TestCyclicReduce:
    def test_factor_conjugate(self):
        w = dw((0, 1), (1, 2), (0, 3))
        core, conj = fp_cyclic_reduce(w)
        assert len(core) <= 2
        assert fp_multiply(fp_multiply(conj, core), fp_inverse(conj)) == w

    def test_already_reduced(self):
        w = dw((0, 1), (1, 2))
        core, conj = fp_cyclic_reduce(w)
        assert core == w and conj.is_identity()

    def test_rotation_with_merge(self):
        # g1 h g2 with g2 g1 != e: core length 2, conjugator g1
        w = dw((0, 1), (1, 2), (0, 2))
        core, conj = fp_cyclic_reduce(w)
        assert core == dw((1, 2), (0, D8.mul[2][1]))
        assert conj == dw((0, 1))
        assert fp_multiply(fp_multiply(conj, core), fp_inverse(conj)) == w

    @given(raw_syllables())
    def test_roundtrip(self, raw):
        w = fp_from_syllables(D8, S3, [s for s in raw if _valid(s)])
        core, conj = fp_cyclic_reduce(w)
        assert fp_multiply(fp_multiply(conj, core), fp_inverse(conj)) == w
        if len(core) >= 2:
            assert core.syllables[0][0] != core.syllables[-1][0]


class TestPrimitiveRoot:
    def test_square(self):
        v = dw((0, 1), (1, 2))
        root, exp = fp_primitive_root(fp_power(v, 2))
        assert (root, exp) == (v, 2)

    def test_conjugated_power(self):
        v = dw((0, 1), (1, 2))
        w = fp_conjugate(dw((1, 3)), fp_power(v, 3))
        root, exp = fp_primitive_root(w)
        assert exp == 3
        assert fp_power(root, 3) == w

    def test_rejects_factor_words(self):
        with pytest.raises(ValueError):
            fp_primitive_root(dw((0, 1)))


class TestAnalyze:
    def test_conjugated_factor_tss(self):
        w = dw((1, 2), (0, 4))
        s = [fp_conjugate(w, dw((0, x))) for x in (1, 3)]
        verdict = fp_tss_analyze(s)
        assert verdict.is_tss
        assert verdict.classification == "factor_conjugate"
        assert verdict.factor_tag == 0
        assert verdict.factor_elements == (1, 3)
        assert verdict.factor_certificate is not None

    def test_conjugated_non_tss_subset(self):
        # {e', r} pulled through a conjugator: commuting but r !~ r^2 swap
        s = [dw((0, 1)), dw((0, 2))]
        verdict = fp_tss_analyze(s)
        assert not verdict.is_tss
        assert verdict.classification == "factor_conjugate"

    def test_powers_rejected(self):
        v = dw((0, 1), (1, 2))
        verdict = fp_tss_analyze([v, fp_power(v, 2)])
        assert not verdict.is_tss
        assert verdict.classification == "powers_of_common_element"

    def test_inverse_power_pair_rejected(self):
        v = dw((0, 1), (1, 2))
        verdict = fp_tss_analyze([v, fp_inverse(v)])
        assert not verdict.is_tss
        assert "k = -k" in verdict.reason

    def test_singleton(self):
        assert fp_tss_analyze([dw((0, 1), (1, 2))]).is_tss

    def test_identity_in_set_rejected(self):
        verdict = fp_tss_analyze([fp_identity(D8, S3), dw((0, 2))])
        assert not verdict.is_tss
        assert verdict.classification == "contains_identity"

    def test_rejects_non_commuting(self):
        with pytest.raises(ValueError, match="commute"):
            fp_tss_analyze([dw((0, 1)), dw((1, 2))])

    def test_rejects_mixed_factor_pairs(self):
        with pytest.raises(ValueError, match="different free products"):
            fp_tss_analyze([dw((0, 1)), zw((0, 1))])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError, match="repeated"):
            fp_tss_analyze([dw((0, 1)), dw((0, 1))])


class TestBallAndCliques:
    def test_ball_count_z3z3(self):
        # 1 + 4 + 8 + 16 words of length <= 3
        assert len(fp_ball(Z3, Z3B, 3)) == 29

    def test_family_cliques_match_exact_graph(self):
        # oracle: exact pairwise-commutation graph on the Z3 * Z3 ball, and on
        # the non-abelian mixed D8 * Z2 ball of 79 words
        for left, right, words in ((Z3, Z3B, 29), (D8, Z2, 79)):
            ball = fp_ball(left, right, 3)
            assert len(ball) == words
            ball = [w for w in ball if not w.is_identity()]
            commuting = {
                (i, j)
                for i, u in enumerate(ball)
                for j, v in enumerate(ball)
                if i < j and fp_multiply(u, v) == fp_multiply(v, u)
            }

            def cliques(chosen, start, out):
                if len(chosen) >= 2:
                    out.append(tuple(sorted(ball[i].syllables for i in chosen)))
                for idx in range(start, len(ball)):
                    if all((min(c, idx), max(c, idx)) in commuting for c in chosen):
                        chosen.append(idx)
                        cliques(chosen, idx + 1, out)
                        chosen.pop()

            exact: list = []
            cliques([], 0, exact)
            family = [
                tuple(sorted(w.syllables for w in clique))
                for clique in fp_commuting_cliques(left, right, 3)
            ]
            assert sorted(exact) == sorted(family)

    def test_no_tss_beyond_factor_bound(self):
        bound = max(max_tss_size(Z3).s_of_g, max_tss_size(Z3B).s_of_g)
        for clique in fp_commuting_cliques(Z3, Z3B, 3):
            verdict = fp_tss_analyze(clique)
            if verdict.is_tss:
                assert verdict.size <= bound

    def test_s4_factor_bound(self):
        # Z3 * S4: the S4 Klein triple survives conjugation into the product
        s4 = make_symmetric(4)
        bound = max(max_tss_size(Z3).s_of_g, max_tss_size(s4).s_of_g)
        assert bound == 3
        biggest = 1
        for clique in fp_commuting_cliques(Z3, s4, 3):
            verdict = fp_tss_analyze(clique)
            if verdict.is_tss:
                biggest = max(biggest, verdict.size)
                assert verdict.size <= bound
                assert verdict.classification == "factor_conjugate"
        assert biggest == 3


class TestTextForm:
    def test_format(self):
        assert format_fp(dw((0, 3), (1, 5))) == "[G:3][H:5]"
        assert format_fp(fp_identity(D8, S3)) == "e"

    def test_parse_strict(self):
        w = parse_fp("[G:3][H:5]", D8, S3)
        assert w == dw((0, 3), (1, 5))

    def test_parse_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="did you mean"):
            parse_fp("[G:1][G:2]", D8, S3)

    def test_parse_raw_normalizes(self):
        assert parse_fp_raw("[G:1][G:2]", D8, S3) == dw((0, 3))

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_fp("[X:1]", D8, S3)
        with pytest.raises(ValueError):
            parse_fp("[G:zz]", D8, S3)
        with pytest.raises(ValueError):
            parse_fp("G:1", D8, S3)


class TestJunctionAgreesWithWholeWord:
    """fp_multiply works only at the seam; the reference re-normalizes the
    whole concatenation through the checking constructor."""

    def test_every_pair_of_the_z3_z3_ball(self):
        ball = fp_ball(Z3, Z3B, 3)
        for u, v in itertools.product(ball, repeat=2):
            assert fp_multiply(u, v) == ref_fp_multiply(u, v)

    def test_seeded_pairs_of_the_d8_s3_ball(self):
        ball = fp_ball(D8, S3, 4)
        rng = random.Random(0)
        for _ in range(2000):
            u, v = rng.choice(ball), rng.choice(ball)
            assert fp_multiply(u, v) == ref_fp_multiply(u, v)

    def test_full_cancellation_cascades_through_both_words(self):
        u = dw((0, 1), (1, 2), (0, 3), (1, 1))
        assert fp_multiply(u, fp_inverse(u)) == fp_identity(D8, S3)
        # three cancels, then a merge in the left factor
        v = dw((1, int(S3.inv[1])), (0, int(D8.inv[3])), (1, int(S3.inv[2])), (0, 5))
        assert fp_multiply(u, v) == dw((0, D8.mul[1][5]))

    def test_results_are_normal(self):
        ball = fp_ball(D8, S3, 3)
        rng = random.Random(1)
        for _ in range(500):
            w = fp_multiply(rng.choice(ball), rng.choice(ball))
            assert FpWord(D8, S3, w.syllables) == w  # the checking constructor accepts it


class TestMemoizedReductions:
    def test_cyclic_reduce_and_root_match_uncached_reference_on_d8_s3_ball(self):
        for w in fp_ball(D8, S3, 4):
            want = ref_fp_cyclic_reduce(w)
            assert fp_cyclic_reduce(w) == want
            assert fp_cyclic_reduce(w) == want  # served from the word
            if len(want[0]) < 2:
                with pytest.raises(ValueError, match="non-factor words only"):
                    fp_primitive_root(w)
                continue
            root, exp = ref_fp_primitive_root(w)
            assert fp_primitive_root(w) == (root, exp)
            assert fp_primitive_root(w) == (root, exp)
            assert fp_power(root, exp) == w

    def test_memo_is_per_word_not_per_syllables(self):
        # the same syllables in different free products reduce to words over
        # their own factors
        syls = ((0, 1), (1, 1), (0, 1))
        for left, right in ((Z3, Z3B), (Z3B, Z3), (D8, S3)):
            w = fp_from_syllables(left, right, syls)
            core, conj = fp_cyclic_reduce(w)
            assert (core, conj) == ref_fp_cyclic_reduce(w)
            assert core.left is left and conj.right is right
            square = fp_power(fp_from_syllables(left, right, syls[:2]), 2)
            root, exp = fp_primitive_root(square)
            assert (root, exp) == ref_fp_primitive_root(square)
            assert root.left is left and root.right is right

    def test_memo_is_invisible_to_eq_hash_and_repr(self):
        # a conjugated square: neither its core nor its root is the word itself
        v = fp_conjugate(dw((1, 3)), fp_power(dw((0, 1), (1, 2)), 2))
        assert v.syllables[0][0] == v.syllables[-1][0]
        filled = FpWord(D8, S3, v.syllables)
        blank = FpWord(D8, S3, v.syllables)
        assert fp_cyclic_reduce(filled)[0] is fp_cyclic_reduce(filled)[0]
        assert fp_primitive_root(filled)[0] is fp_primitive_root(filled)[0]
        assert fp_primitive_root(filled)[1] == 2
        assert filled == blank
        assert hash(filled) == hash(blank)
        assert repr(filled) == repr(blank)
        assert repr(filled) == f"FpWord(left={D8!r}, right={S3!r}, syllables={v.syllables!r})"
        assert {filled: 1}[blank] == 1

    def test_cyclically_reduced_primitive_word_is_its_own_core_and_root(self):
        w = dw((0, 1), (1, 2), (0, 3), (1, 1))
        core, conj = fp_cyclic_reduce(w)
        assert core is w and conj.is_identity()
        assert fp_primitive_root(w)[0] is w
        assert fp_primitive_root(w) == (w, 1)

    def test_words_are_slotted_and_pickle(self):
        w = dw((0, 1), (1, 2))
        fp_cyclic_reduce(w)
        assert not hasattr(w, "__dict__")
        with pytest.raises(AttributeError):
            w.syllables = ()
        back = pickle.loads(pickle.dumps(w))
        assert back.syllables == w.syllables and len(back) == 2


class TestInputChecksKept:
    """Words enter through checked doors; each keeps its exact message."""

    @pytest.mark.parametrize("syls,exc,message", [
        (((2, 1),), ValueError, "syllable tag 2 must be 0 or 1"),
        (((0, 8),), GroupError, "element index 8 out of range for D8 (order 8)"),
        (((1, 6),), GroupError, "element index 6 out of range for S3 (order 6)"),
        (((1, 0),), ValueError,
         "identity syllables are not allowed in normal form; build via fp_from_syllables"),
        (((0, 1), (0, 2)), ValueError,
         "adjacent syllables share a factor; build via fp_from_syllables"),
    ])
    def test_constructor(self, syls, exc, message):
        with pytest.raises(exc) as info:
            FpWord(D8, S3, syls)
        assert str(info.value) == message

    @pytest.mark.parametrize("raw,exc,message", [
        ([(0, 1), (1, 6)], GroupError, "element index 6 out of range for S3 (order 6)"),
        ([(0, -1)], GroupError, "element index -1 out of range for D8 (order 8)"),
        ([(0, 1), (3, 1)], ValueError, "syllable tag 3 must be 0 or 1"),
    ])
    def test_from_syllables(self, raw, exc, message):
        with pytest.raises(exc) as info:
            fp_from_syllables(D8, S3, raw)
        assert str(info.value) == message

    @pytest.mark.parametrize("text,message", [
        ("[G:1][G:2]", "'[G:1][G:2]' is not in normal form; did you mean '[G:3]'?"),
        ("[G:0]", "'[G:0]' is not in normal form; did you mean 'e'?"),
        ("[H:9]", "element index 9 out of range for S3 (order 6)"),
        ("[X:1]", "factor tag must be G or H, got 'X'"),
    ])
    def test_parse_fp(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_fp(text, D8, S3)
        assert str(info.value) == message


class TestBallSize:
    @pytest.mark.parametrize("bad", [0, -1])
    def test_ball_and_cliques_reject_non_positive_syllables(self, bad):
        message = f"max_syllables must be >= 1, got {bad}"
        with pytest.raises(ValueError) as info:
            fp_ball(D8, S3, bad)
        assert str(info.value) == message
        with pytest.raises(ValueError) as info:
            list(fp_commuting_cliques(D8, S3, bad))
        assert str(info.value) == message

    def test_one_syllable_ball(self):
        assert len(fp_ball(D8, S3, 1)) == 1 + 7 + 5


def _suite_instance(params):
    inst = verify._run_free_product(params)
    return inst.verdict, inst.detail, inst.value, inst.counterexample, inst.repro


def _syllables(cliques):
    return [[w.syllables for w in clique] for clique in cliques]


SMALL_FACTORS = ["cyclic:2", "cyclic:3", "dihedral:3", "dihedral:4", "sym:3"]


class TestFamiliesAgainstTheCliqueScan:
    """The suite checks root families once and analyzes factor cliques; the
    reference analyzes every clique of the word-by-word listing."""

    @pytest.mark.parametrize("left,right", itertools.product(SMALL_FACTORS, repeat=2))
    def test_every_small_pair_at_balls_1_to_3(self, left, right):
        g, h = parse_group_spec(left), parse_group_spec(right)
        for n in (1, 2, 3):
            params = {"left": left, "right": right, "max_syllables": n}
            assert _suite_instance(params) == ref_free_product_scan(params)
            assert (_syllables(fp_commuting_cliques(g, h, n))
                    == _syllables(ref_fp_commuting_cliques(g, h, n)))

    @pytest.mark.parametrize("left,right,n,value", [
        ("cyclic:3", "cyclic:3", 4, 1),
        ("dihedral:4", "sym:3", 4, 2),
        ("cyclic:3", "sym:4", 3, 3),  # the S4 Klein triple
    ])
    def test_default_grid_and_a_size_3_tss(self, left, right, n, value):
        params = {"left": left, "right": right, "max_syllables": n}
        got = _suite_instance(params)
        assert got == ref_free_product_scan(params)
        assert got[0] == "pass" and got[2] == value
        g, h = parse_group_spec(left), parse_group_spec(right)
        assert (_syllables(fp_commuting_cliques(g, h, n))
                == _syllables(ref_fp_commuting_cliques(g, h, n)))

    @pytest.mark.parametrize("left,right,n", [
        ("dihedral:4", "sym:3", 3), ("cyclic:3", "sym:4", 3), ("sym:3", "dihedral:3", 2),
    ])
    def test_same_first_counterexample_under_a_lowered_bound(self, left, right, n, monkeypatch):
        low = tss.max_tss_size(make_cyclic(2))
        monkeypatch.setattr(tss, "max_tss_size", lambda g, *args, **kwargs: low)
        params = {"left": left, "right": right, "max_syllables": n}
        got = _suite_instance(params)
        assert got[0] == "fail" and got == ref_free_product_scan(params)


class TestRootFamilies:
    def test_every_root_family_clique_is_powers_of_one_element(self):
        families = fp_families(D8, S3, 4)
        kinds = {"factor": 0, "root": 0}
        cliques = {"factor": 0, "root": 0}
        for family in families:
            kind = "factor" if family.roots is None else "root"
            assert family.key[0] == kind
            kinds[kind] += 1
            for clique in fp_family_cliques(family):
                cliques[kind] += 1
                if kind == "root":
                    verdict = fp_tss_analyze(clique)
                    assert verdict.classification == "powers_of_common_element"
                    assert not verdict.is_tss
        assert sum(len(f.members) for f in families) == 2952
        assert kinds == {"factor": 14, "root": 1400}
        assert cliques == {"factor": 80, "root": 1750}

    def test_checked_exponents_are_the_powers_of_the_first_root(self):
        for family in fp_families(D8, S3, 4):
            if family.roots is None:
                continue
            exps = fp_check_power_family(family)
            root = family.roots[0][0]
            for w, k in zip(family.members, exps):
                assert fp_power(FpWord(D8, S3, root), k).syllables == w

    def _root_family(self, size):
        return next(f for f in fp_families(D8, S3, 4) if f.roots and len(f.members) == size)

    def test_merged_root_families_fail_the_check(self):
        a, b = [f for f in fp_families(D8, S3, 4) if f.roots][:2]
        merged = a._replace(members=a.members + b.members, roots=a.roots + b.roots)
        with pytest.raises(ValueError, match="^elements do not commute"):
            fp_check_power_family(merged)

    def test_a_member_that_is_not_its_roots_power_fails_the_check(self):
        family, other = [f for f in fp_families(D8, S3, 4) if f.roots][:2]
        swapped = family._replace(members=other.members[:1], roots=family.roots[:1])
        with pytest.raises(RuntimeError, match="^root extraction failed for "):
            fp_check_power_family(swapped)

    def test_a_root_that_is_not_the_familys_fails_the_check(self):
        # v^2 recorded as its own root: a true power, but of another element
        family = self._root_family(4)
        planted = tuple((w, 1) if e == 2 else (r, e)
                        for w, (r, e) in zip(family.members, family.roots))
        with pytest.raises(RuntimeError, match="different roots"):
            fp_check_power_family(family._replace(roots=planted))

    def test_repeated_exponents_fail_the_check(self):
        family = self._root_family(2)
        twice = family._replace(members=family.members[:1] * 2, roots=family.roots[:1] * 2)
        with pytest.raises(RuntimeError, match="duplicate powers"):
            fp_check_power_family(twice)

    def test_factor_families_are_not_checked_as_powers(self):
        family = next(f for f in fp_families(D8, S3, 2) if f.roots is None)
        with pytest.raises(ValueError, match="is not a root family"):
            fp_check_power_family(family)
