import itertools

import pytest
from hypothesis import given, strategies as st

from tsslab.words.freegroup import (
    FreeWord,
    cyclic_reduce,
    f2_commutes,
    f2_conjugate_test,
    f2_inverse,
    f2_multiply,
    f2_power,
    f2_reduce,
    f2_tss_obstruction,
    format_f2,
    parse_f2,
    parse_f2_letters,
    primitive_root,
)

from helpers import ref_f2_multiply

letters_strategy = st.lists(
    st.sampled_from([1, -1, 2, -2]), min_size=0, max_size=20
)


def words(min_len=0):
    return letters_strategy.map(f2_reduce).filter(lambda w: len(w) >= min_len)


class TestArithmetic:
    def test_cancellation(self):
        assert f2_multiply(parse_f2("a"), parse_f2("A")).is_identity()

    def test_single_cancellation(self):
        assert format_f2(f2_multiply(parse_f2("ab"), parse_f2("Ba"))) == "aa"

    def test_inverse_reverses_and_negates(self):
        assert format_f2(f2_inverse(parse_f2("aBa"))) == "AbA"

    @given(words(), words(), words())
    def test_associativity(self, u, v, w):
        assert f2_multiply(f2_multiply(u, v), w) == f2_multiply(u, f2_multiply(v, w))

    @given(letters_strategy)
    def test_reduction_idempotent(self, letters):
        once = f2_reduce(letters)
        assert f2_reduce(once.letters) == once

    @given(words())
    def test_inverse_property(self, w):
        assert f2_multiply(w, f2_inverse(w)).is_identity()

    def test_reduced_invariant_enforced(self):
        with pytest.raises(ValueError):
            FreeWord((1, -1))


class TestCommutes:
    def test_powers_of_generator(self):
        a = parse_f2("a")
        res = f2_commutes(f2_power(a, 2), f2_power(a, 3))
        assert res is not None
        assert (format_f2(res.root), res.exp_u, res.exp_v) == ("a", 2, 3)

    def test_ab_ba_do_not_commute(self):
        assert f2_commutes(parse_f2("ab"), parse_f2("ba")) is None

    def test_powers_of_ab(self):
        ab = parse_f2("ab")
        res = f2_commutes(f2_power(ab, 2), f2_power(ab, 3))
        assert res is not None
        assert (format_f2(res.root), res.exp_u, res.exp_v) == ("ab", 2, 3)

    def test_negative_exponent_recovered(self):
        ab = parse_f2("ab")
        res = f2_commutes(f2_power(ab, 2), f2_power(ab, -3))
        assert res is not None and res.exp_v == -3

    @given(words(min_len=1), st.integers(1, 4), st.integers(-4, 4).filter(bool))
    def test_power_pairs_commute(self, base, i, j):
        u, v = f2_power(base, i), f2_power(base, j)
        res = f2_commutes(u, v)
        assert res is not None
        assert f2_power(res.root, res.exp_u) == u
        assert f2_power(res.root, res.exp_v) == v


class TestPrimitiveRoot:
    def test_identity(self):
        root, exp = primitive_root(f2_reduce([]))
        assert root.is_identity() and exp == 0

    def test_power(self):
        root, exp = primitive_root(f2_power(parse_f2("abb"), 3))
        assert (format_f2(root), exp) == ("abb", 3)

    def test_conjugate_of_generator(self):
        root, exp = primitive_root(parse_f2("abA"))
        assert (format_f2(root), exp) == ("abA", 1)

    @given(words(min_len=1), st.integers(1, 5))
    def test_root_of_power_exponent_multiplies(self, w, k):
        root_w, exp_w = primitive_root(w)
        root_p, exp_p = primitive_root(f2_power(w, k))
        assert root_p == root_w
        assert exp_p == exp_w * k


class TestConjugacy:
    def test_rotation(self):
        witness = f2_conjugate_test(parse_f2("ab"), parse_f2("ba"))
        assert witness is not None
        u, v = parse_f2("ab"), parse_f2("ba")
        assert f2_multiply(f2_multiply(witness, u), f2_inverse(witness)) == v

    def test_commutator_not_conjugate_to_inverse(self):
        u = parse_f2("abAB")
        assert f2_conjugate_test(u, f2_inverse(u)) is None

    def test_a2_not_conjugate_to_a_minus_2(self):
        a = parse_f2("a")
        assert f2_conjugate_test(f2_power(a, 2), f2_power(a, -2)) is None

    def test_same_word(self):
        w = parse_f2("abAbb")
        witness = f2_conjugate_test(w, w)
        assert witness is not None

    @given(words(min_len=1), words())
    def test_conjugates_detected_with_valid_witness(self, u, h):
        v = f2_multiply(f2_multiply(h, u), f2_inverse(h))
        witness = f2_conjugate_test(u, v)
        assert witness is not None
        assert f2_multiply(f2_multiply(witness, u), f2_inverse(witness)) == v

    def test_cyclic_reduce_roundtrip(self):
        w = parse_f2("aabAA")
        core, conj = cyclic_reduce(w)
        assert f2_multiply(f2_multiply(conj, core), f2_inverse(conj)) == w
        # core is cyclically reduced
        assert not core.letters or core.letters[0] != -core.letters[-1]


class TestObstruction:
    def test_generator(self):
        ev = f2_tss_obstruction(parse_f2("a"))
        assert ev.certified and not ev.conjugate_to_inverse
        assert format_f2(ev.root) == "a" and ev.exponent == 1

    def test_abab(self):
        ev = f2_tss_obstruction(parse_f2("abab"))
        assert (format_f2(ev.root), ev.exponent) == ("ab", 2)
        assert ev.certified

    def test_conjugate_of_generator(self):
        ev = f2_tss_obstruction(parse_f2("abA"))
        assert (format_f2(ev.root), ev.exponent) == ("abA", 1)
        assert ev.certified

    def test_rejects_identity(self):
        with pytest.raises(ValueError):
            f2_tss_obstruction(f2_reduce([]))

    def test_exhaustive_short_words(self):
        # every reduced word of length <= 6: never conjugate to its inverse
        def extend(stack, length, out):
            if length == 0:
                out.append(FreeWord(tuple(stack)))
                return
            for x in (1, -1, 2, -2):
                if stack and stack[-1] == -x:
                    continue
                stack.append(x)
                extend(stack, length - 1, out)
                stack.pop()

        for length in range(1, 7):
            out: list[FreeWord] = []
            extend([], length, out)
            assert len(out) == 4 * 3 ** (length - 1)
            for w in out:
                ev = f2_tss_obstruction(w)
                assert ev.certified, format_f2(w)


class TestParsing:
    def test_strict_rejects_unreduced(self):
        with pytest.raises(ValueError, match="did you mean"):
            parse_f2("aA")

    def test_raw_letters(self):
        assert parse_f2_letters("aAb") == [1, -1, 2]

    def test_identity_forms(self):
        assert parse_f2("e").is_identity()
        assert parse_f2("").is_identity()

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            parse_f2("ax")

    @given(words())
    def test_format_parse_roundtrip(self, w):
        assert parse_f2(format_f2(w)) == w


def _reduced_words_up_to(length):
    out = [FreeWord(())]
    level = [()]
    for _ in range(length):
        level = [w + (x,) for w in level for x in (1, -1, 2, -2) if not w or w[-1] != -x]
        out.extend(FreeWord(w) for w in level)
    return out


class TestJunctionAgreesWithWholeWord:
    def test_every_pair_of_reduced_words_up_to_length_3(self):
        ball = _reduced_words_up_to(3)
        assert len(ball) == 1 + 4 + 12 + 36
        for u, v in itertools.product(ball, repeat=2):
            assert f2_multiply(u, v) == ref_f2_multiply(u, v)

    def test_products_pass_the_checking_constructor(self):
        ball = _reduced_words_up_to(3)
        for u, v in itertools.product(ball, repeat=2):
            w = f2_multiply(u, v)
            assert FreeWord(w.letters) == w


class TestInputChecksKept:
    @pytest.mark.parametrize("letters,message", [
        ((3,), "letter 3 is not one of +-1, +-2"),
        ((1, 0), "letter 0 is not one of +-1, +-2"),
        ((1, -1), "word (1, -1) is not freely reduced; build via f2_reduce"),
        ((2, 1, -1), "word (2, 1, -1) is not freely reduced; build via f2_reduce"),
    ])
    def test_constructor(self, letters, message):
        with pytest.raises(ValueError) as info:
            FreeWord(letters)
        assert str(info.value) == message

    @pytest.mark.parametrize("letters", [(3,), (1, 2, 5), (-3, 1)])
    def test_reduce_checks_letters(self, letters):
        bad = next(x for x in letters if x not in (1, -1, 2, -2))
        with pytest.raises(ValueError) as info:
            f2_reduce(letters)
        assert str(info.value) == f"letter {bad} is not one of +-1, +-2"

    @pytest.mark.parametrize("letters,bad", [
        ((1, 3, -3), 3), ((2, -2, 0), 0), ((1, -1, 5, -5, 1), 5)])
    def test_reduce_checks_letters_that_cancel(self, letters, bad):
        with pytest.raises(ValueError) as info:
            f2_reduce(letters)
        assert str(info.value) == f"letter {bad} is not one of +-1, +-2"

    def test_reduce_accepts_every_good_letter(self):
        assert f2_reduce([1, -1, 2, -2, 1, 2]) == FreeWord((1, 2))
        assert f2_reduce(iter([2, 2, -2])) == FreeWord((2,))

    @pytest.mark.parametrize("text,message", [
        ("aAb", "word 'aAb' is not freely reduced; did you mean 'b'?"),
        ("abBA", "word 'abBA' is not freely reduced; did you mean 'e'?"),
        ("ax", "invalid letter 'x': words use a, A, b, B"),
    ])
    def test_parse_f2(self, text, message):
        with pytest.raises(ValueError) as info:
            parse_f2(text)
        assert str(info.value) == message


class TestFreeGroupSuite:
    """``verify free-group`` runs one conjugacy test per word, and keeps both
    failure messages and repro strings (checked with planted evidence)."""

    def test_one_conjugacy_test_per_word(self, monkeypatch):
        from tsslab import verify
        from tsslab.words import freegroup

        calls = []
        real = freegroup.f2_conjugate_test
        monkeypatch.setattr(freegroup, "f2_conjugate_test",
                            lambda u, v: calls.append((u, v)) or real(u, v))
        inst = verify.verify_suite("free-group", grid=[{"length": 3}]).instances[0]
        assert inst.verdict == "pass" and len(calls) == 36
        assert all(v == f2_inverse(u) for u, v in calls)

    @pytest.mark.parametrize("conjugate,detail,repro", [
        (True, "abA is conjugate to its inverse", "tsslab word f2 conjugate abA aBA"),
        (False, "obstruction chain failed for abA", "tsslab word f2 obstruction abA"),
    ])
    def test_planted_evidence_fails(self, monkeypatch, conjugate, detail, repro):
        from dataclasses import replace

        from tsslab import verify
        from tsslab.words import freegroup

        real = freegroup.f2_tss_obstruction
        bad = parse_f2("abA")

        def planted(w):
            evidence = real(w)
            if w == bad:
                evidence = replace(evidence, conjugate_to_inverse=conjugate, certified=False)
            return evidence

        monkeypatch.setattr(freegroup, "f2_tss_obstruction", planted)
        inst = verify.verify_suite("free-group", grid=[{"length": 3}]).instances[0]
        assert inst.verdict == "fail"
        assert (inst.detail, inst.repro) == (detail, repro)
        assert inst.counterexample == {"word": "abA"}
