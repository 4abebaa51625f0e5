import itertools
import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tsslab.words.baumslag import (
    BS_A,
    BS_B,
    BS_IDENTITY,
    BsElement,
    bs_ab,
    bs_classification_check,
    bs_commutes,
    bs_conjugate,
    bs_inverse,
    bs_multiply,
    bs_swap_decide,
    bs_swap_search,
    format_bs,
    parse_bs,
)

from helpers import bs_power, ref_bs_commutes, ref_bs_commuting_pairs

ns = st.sampled_from([-5, -4, -3, -2, -1, 1, 2, 3, 4, 5])
elements = st.builds(
    BsElement,
    st.fractions(min_value=-8, max_value=8, max_denominator=16),
    st.integers(min_value=-4, max_value=4),
)


class TestArithmetic:
    def test_defining_relation_n2(self):
        lhs = bs_multiply(bs_multiply(BS_B, BS_A, 2), bs_inverse(BS_B, 2), 2)
        assert lhs == BsElement(2, 0)

    @given(ns)
    def test_defining_relation_all_n(self, n):
        lhs = bs_multiply(bs_multiply(BS_B, BS_A, n), bs_inverse(BS_B, n), n)
        assert lhs == bs_power(BS_A, n, n)

    def test_ab_versus_ba(self):
        assert bs_multiply(BS_A, BS_B, 2) == BsElement(1, 1)
        assert bs_multiply(BS_B, BS_A, 2) == BsElement(2, 1)

    @given(elements, ns)
    def test_inverse_exact(self, x, n):
        assert bs_multiply(x, bs_inverse(x, n), n) == BS_IDENTITY
        assert bs_multiply(bs_inverse(x, n), x, n) == BS_IDENTITY

    @given(elements, elements, elements, ns)
    def test_associativity(self, x, y, z, n):
        assert bs_multiply(bs_multiply(x, y, n), z, n) == bs_multiply(x, bs_multiply(y, z, n), n)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError):
            bs_multiply(BS_A, BS_B, 0)


class TestCommutes:
    def test_a_powers_always_commute(self):
        for n in (-3, -1, 2, 5):
            assert bs_commutes(bs_ab(4, 0), bs_ab(-7, 0), n)

    def test_exponent_identity_radius_6(self):
        # the commutation of a^i b^j and a^x b^y is exactly i + x n^j = x + i n^y
        for n in (-2, -1, 2, 3):
            npow = {t: Fraction(n) ** t for t in range(-6, 7)}
            for i in range(-6, 7):
                for j in range(-6, 7):
                    u = bs_multiply(bs_ab(i, 0), bs_ab(0, j), n)
                    for x in range(-6, 7):
                        for y in range(-6, 7):
                            v = bs_multiply(bs_ab(x, 0), bs_ab(0, y), n)
                            condition = i + x * npow[j] == x + i * npow[y]
                            assert bs_commutes(u, v, n) == condition

    def test_minus_one_even_tails(self):
        assert bs_commutes(bs_ab(1, 2), bs_ab(-1, 2), -1)

    def test_n2_counterexample(self):
        assert not bs_commutes(bs_ab(1, 1), bs_ab(2, 1), 2)


class TestClosedFormCommutes:
    """``bs_commutes`` (one comparison) against ``ref_bs_commutes`` (products
    both ways), for every n in -3..3 except 0."""

    @pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
    def test_matches_products_on_the_pool(self, n):
        pool = _pool(n)
        for u, v in itertools.product(pool, repeat=2):
            assert bs_commutes(u, v, n) == ref_bs_commutes(u, v, n), (u, v)

    @given(elements, elements, st.sampled_from([-3, -2, -1, 1, 2, 3]))
    def test_matches_products_on_fractional_r(self, u, v, n):
        assert bs_commutes(u, v, n) == ref_bs_commutes(u, v, n)

    def test_rejects_zero_n(self):
        with pytest.raises(ValueError, match="^BS\\(1, n\\) requires a nonzero n$"):
            bs_commutes(BS_A, BS_B, 0)


class TestRigidPairsByKey:
    """The rigid branch lists, by key, exactly the pairs that testing every
    pair of the ball finds, in the same order."""

    @pytest.mark.parametrize("n", [2, 3, -2, -3])
    @pytest.mark.parametrize("radius", range(1, 7))
    def test_same_pairs_as_all_pairs(self, n, radius):
        report = bs_classification_check(n, radius)
        assert [(i.u, i.v) for i in report.instances] == ref_bs_commuting_pairs(n, radius)


class TestSwapSearch:
    def test_witness_b_for_inverse_powers(self):
        res = bs_swap_search(bs_ab(3, 0), bs_ab(-3, 0), -1, 6)
        assert res.witness == BS_B

    def test_even_tail_needs_odd_f(self):
        res = bs_swap_search(bs_ab(2, 2), bs_ab(-2, 2), -1, 6)
        assert res.witness is not None and res.witness.t % 2 == 1

    def test_degenerate_identity_witness(self):
        res = bs_swap_search(BS_A, BS_A, 2, 6)
        assert res.witness == BS_IDENTITY

    def test_exhausts_for_rigid_n(self):
        res = bs_swap_search(bs_ab(1, 0), bs_ab(2, 0), 2, 6)
        assert res.exhausted
        assert res.describe() == "exhausted(6)"

    def test_rejects_non_commuting(self):
        with pytest.raises(ValueError):
            bs_swap_search(bs_ab(1, 1), bs_ab(2, 1), 2, 6)

    def test_witness_swaps_exactly(self):
        u, v = bs_ab(2, 4), bs_ab(-2, 4)
        res = bs_swap_search(u, v, -1, 6)
        h = res.witness
        assert bs_conjugate(h, u, -1) == v
        assert bs_conjugate(h, v, -1) == u


# (bound, depth) settings of the spiral search that the decider must reproduce
SEARCH_SETTINGS = [(b, d) for b in range(1, 7) for d in range(3)]


def _pool(n):
    """Elements with Z[1/n] fractions, b-exponents -2..2 and a few powers."""
    rs = sorted({Fraction(r) for r in (0, 1, -1, 2, Fraction(1, n), Fraction(-3, n * n))})
    pool = [BsElement(r, t) for r in rs for t in range(-2, 3)]
    return pool + [bs_power(u, k, n) for u in pool[::6] for k in (-1, 2)]


def _commuting_pairs(n):
    """Ordered commuting pairs from ``_pool(n)``: every pair with u = v or with
    equal b-exponents and r_u = -r_v, and a stride sample of about 36 of the
    rest."""
    pairs = [(u, v) for u, v in itertools.product(_pool(n), repeat=2) if bs_commutes(u, v, n)]
    near = [(u, v) for u, v in pairs if u == v or (u.t == v.t and u.r == -v.r)]
    rest = [p for p in pairs if p not in near]
    return near + rest[::max(1, len(rest) // 36)]


def _assert_same(decided, searched, context):
    assert decided.witness == searched.witness, context
    assert decided.describe() == searched.describe(), context


class TestExactDecision:
    @pytest.mark.parametrize("n", [-3, -2, -1, 1, 2, 3])
    def test_matches_search_on_commuting_pairs(self, n):
        # each pair against one search setting, cycling through all 18
        pairs = _commuting_pairs(n)
        seen = set()
        for i, (u, v) in enumerate(pairs):
            bound, depth = SEARCH_SETTINGS[i % len(SEARCH_SETTINGS)]
            res = bs_swap_decide(u, v, n, bound)
            _assert_same(res, bs_swap_search(u, v, n, bound, depth), (u, v, bound, depth))
            seen.add("identity" if res.witness == BS_IDENTITY
                     else "exhausted" if res.exhausted else "b")
        assert len(pairs) >= 2 * len(SEARCH_SETTINGS)
        assert seen == ({"identity", "b", "exhausted"} if n == -1 else {"identity", "exhausted"})

    @pytest.mark.parametrize("bound,depth", SEARCH_SETTINGS)
    def test_witnesses_at_every_setting(self, bound, depth):
        for u, v in [(bs_ab(3, 0), bs_ab(-3, 0)), (bs_ab(2, -4), bs_ab(-2, -4)),
                     (bs_ab(0, 2), bs_ab(0, 2))]:
            res = bs_swap_decide(u, v, -1, bound)
            _assert_same(res, bs_swap_search(u, v, -1, bound, depth), (u, v, bound, depth))
            assert res.witness == (BS_IDENTITY if u == v else BS_B)

    @pytest.mark.parametrize("n,u,v", [
        (2, bs_ab(1, 1), bs_ab(2, 1)),  # equal b-exponents
        (2, bs_ab(1, 0), bs_ab(0, 1)),  # unequal b-exponents
        (-3, bs_ab(Fraction(1, 3), -1), bs_ab(1, 2)),
        (-1, bs_ab(1, 1), bs_ab(2, 1)),
        (-1, BS_A, BS_B),
    ])
    def test_rejects_non_commuting_like_search(self, n, u, v):
        for decide in (bs_swap_search, bs_swap_decide):
            with pytest.raises(ValueError, match="^swap search requires commuting inputs$"):
                decide(u, v, n, 3)

    @pytest.mark.parametrize("n,bound,message", [
        (0, 3, "^BS\\(1, n\\) requires a nonzero n$"),
        (2, 0, "^bound must be >= 1, got 0$"),
        (-1, -2, "^bound must be >= 1, got -2$"),
    ])
    def test_rejects_bad_arguments_like_search(self, n, bound, message):
        for decide in (bs_swap_search, bs_swap_decide):
            with pytest.raises(ValueError, match=message):
                decide(BS_A, BS_A, n, bound)

    def test_no_third_element_by_search(self):
        # for every n = -1 pair {a^x b^2m, a^-x b^2m} within radius 3, no third
        # element a^z b^2m, |z| <= 3, that commutes with both can be swapped
        # with a^x b^2m by the search at the bound `table` uses
        for x in range(1, 4):
            for m in range(-3, 4):
                u, v = bs_ab(x, 2 * m), bs_ab(-x, 2 * m)
                for z in range(-3, 4):
                    w = bs_ab(z, 2 * m)
                    if w in (u, v) or not (bs_commutes(u, w, -1) and bs_commutes(v, w, -1)):
                        continue
                    assert bs_swap_search(u, w, -1, 4).exhausted, (u, w)


class TestClassification:
    def test_minus_one_certifies_pairs(self):
        report = bs_classification_check(-1, 3, bound=5)
        assert report.branch == "inverse_pairs"
        assert report.all_ok
        assert all(i.verdict == "pass" for i in report.instances)

    def test_rigid_n_exhausts(self):
        report = bs_classification_check(2, 3, bound=5)
        assert report.branch == "rigid"
        assert report.all_ok
        assert all(i.verdict.startswith("exhausted") for i in report.instances)

    def test_minus_one_radius_5(self):
        # every pair {a^x b^2m, a^-x b^2m} with |x|, |m| <= 5 certifies, and
        # no third element extends it
        report = bs_classification_check(-1, 5, bound=6)
        assert report.all_ok
        assert len(report.instances) == 5 * 11

    def test_abelian_branch(self):
        report = bs_classification_check(1, 2)
        assert report.branch == "abelian" and report.all_ok

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            bs_classification_check(0, 2)

    @pytest.mark.parametrize("n", [-2, -1, 1, 2])
    @pytest.mark.parametrize("radius,bound,message", [
        (0, 6, "radius must be >= 1, got 0"),
        (2, 0, "bound must be >= 1, got 0"),
    ])
    def test_rejects_bad_radius_and_bound_for_every_n(self, n, radius, bound, message):
        with pytest.raises(ValueError, match=message):
            bs_classification_check(n, radius, bound=bound)

    def test_unique_solution_detail_present(self):
        report = bs_classification_check(3, 2, bound=4)
        details = {i.detail for i in report.instances}
        assert any("n^f = -1" in d for d in details)


class TestTextForm:
    def test_format(self):
        assert format_bs(bs_ab(Fraction(3, 4), -2), 2) == "a^3/2^2 b^-2"
        assert format_bs(BS_A, 2) == "a^1/2^0 b^0"

    def test_negative_base(self):
        e = BsElement(Fraction(-1, 2), 1)
        text = format_bs(e, -2)
        assert parse_bs(text, -2) == e

    @pytest.mark.parametrize("r,n", [(Fraction(1, 3), 2), (Fraction(1, 2), -1),
                                     (Fraction(1, 2), 1), (Fraction(5, 7 * 2**10), 6)])
    def test_rejects_r_outside_z_1_over_n(self, r, n):
        with pytest.raises(ValueError, match=re.escape(f"r = {r} is not in Z[1/{n}]")):
            format_bs(BsElement(r, 0), n)

    @given(st.integers(-50, 50), st.integers(0, 12), st.sampled_from([1, -1, 2, -2, 3, 6, -12]))
    def test_roundtrip_in_z_1_over_n(self, p, q, n):
        x = BsElement(Fraction(p) / Fraction(n) ** q, q)
        assert parse_bs(format_bs(x, n), n) == x

    @given(elements)
    def test_roundtrip_n3(self, x):
        # restrict to Z[1/3] elements
        num, den = x.r.numerator, x.r.denominator
        if den not in (1, 3, 9):
            return
        assert parse_bs(format_bs(x, 3), 3) == x

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="did you mean"):
            parse_bs("a^4/2^2 b^0", 2)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_bs("a^1 b^0", 2)
        with pytest.raises(ValueError):
            parse_bs("a^1/3^0 b^0", 2)
