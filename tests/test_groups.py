import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tsslab import groups
from tsslab.cayley import CayleyTableError, from_cayley_table, to_cayley_table
from tsslab import homs, tss, verify
from tsslab.cli import main
from tsslab.groups import (
    GroupError,
    SemidirectParams,
    centralizer,
    conjugacy_classes,
    derived_series,
    direct_product,
    generated_subgroup,
    make_cyclic,
    make_dihedral,
    make_semidirect_cyclic,
    make_symmetric,
    split_product_index,
)
from tsslab.specs import parse_group_spec
from tsslab.tss import max_tss_size, realized_permutations

from helpers import (
    brute_centralizer,
    brute_conjugacy_partition,
    brute_conjugate_witness,
    conj,
    conjugating_witness,
    dense_corpus,
    is_subgroup,
    ref_check_assoc,
    ref_check_latin,
    ref_check_table,
    ref_conjugacy_partition,
    ref_derived_series,
    ref_eager_mul,
    ref_element_order,
    ref_generated_subgroup,
    ref_is_table_homomorphism,
    ref_symmetric,
)


class TestCyclic:
    def test_trivial(self):
        g = make_cyclic(1)
        assert g.order == 1 and g.identity == 0

    def test_abelian(self, z6):
        assert all(
            z6.mul[x][y] == z6.mul[y][x]
            for x in range(6) for y in range(6)
        )

    def test_z5_classes_are_singletons(self):
        g = make_cyclic(5)
        expected = brute_conjugacy_partition(g)
        assert expected == [(i,) for i in range(5)]
        assert list(conjugacy_classes(g).classes) == expected

    def test_rejects_zero(self):
        with pytest.raises(GroupError):
            make_cyclic(0)

    def test_labels_are_generator_powers(self, z6):
        assert z6.labels[:3] == ("e", "g", "g^2")


class TestDihedral:
    def test_d6_nonabelian(self):
        g = make_dihedral(3)
        assert g.order == 6 and not g.is_abelian

    def test_d8_classes(self, d8):
        # {e}, {r, r^3}, {r^2}, {s, sr^2}, {sr, sr^3}
        assert list(conjugacy_classes(d8).classes) == [
            (0,), (1, 3), (2,), (4, 6), (5, 7)
        ]
        assert brute_conjugacy_partition(d8) == [(0,), (1, 3), (2,), (4, 6), (5, 7)]

    def test_commuting_reflections(self, d8):
        # s and s r^2 commute when n = 4 (i and i + n/2)
        s, sr2 = 4, 6
        assert d8.mul[s][sr2] == d8.mul[sr2][s]
        sr = 5
        assert d8.mul[s][sr] != d8.mul[sr][s]

    def test_rejects_zero(self):
        with pytest.raises(GroupError):
            make_dihedral(0)

    def test_defining_relations(self, d8):
        r, s = 1, 4
        assert int(d8.element_orders[r]) == 4
        assert int(d8.element_orders[s]) == 2
        # s r s = r^-1
        srs = d8.mul[d8.mul[s][r]][s]
        assert srs == d8.inv[r]


class TestSymmetric:
    def test_s3(self, s3):
        assert s3.order == 6
        assert len(conjugacy_classes(s3).classes) == 3

    def test_trivial(self):
        assert make_symmetric(1).order == 1

    def test_s4_classes(self, s4):
        sizes = sorted(len(c) for c in conjugacy_classes(s4).classes)
        assert sizes == [1, 3, 6, 6, 8]

    def test_disjoint_transpositions_commute_and_conjugate(self, s4):
        i12 = s4.labels.index("(1 2)")
        i34 = s4.labels.index("(3 4)")
        assert s4.mul[i12][i34] == s4.mul[i34][i12]
        assert conjugating_witness(s4, i12, i34) is not None

    def test_cap(self):
        with pytest.raises(GroupError):
            make_symmetric(9)

    def test_composition_is_relabeling(self, s4):
        # conjugation by g maps the cycle structure through g's relabeling
        i1234 = s4.labels.index("(1 2 3 4)")
        i12 = s4.labels.index("(1 2)")
        image = conj(s4, i12, i1234)
        assert s4.labels[image] == "(1 3 4 2)"


class TestSemidirect:
    def test_order_18_nonabelian(self, sd18):
        assert sd18.order == 18 and not sd18.is_abelian

    def test_trivial_action_is_direct_product(self):
        triv = make_semidirect_cyclic(SemidirectParams(3, 6, 1))
        prod = direct_product(make_cyclic(3), make_cyclic(6))
        assert triv.is_abelian
        assert sorted(triv.element_orders) == sorted(prod.element_orders)

    def test_order_21(self):
        g = make_semidirect_cyclic(SemidirectParams(7, 3, 2))
        assert g.order == 21 and g.order % 2 == 1

    def test_rejects_nonprime(self):
        with pytest.raises(GroupError):
            SemidirectParams(4, 2, 1)

    def test_rejects_bad_action(self):
        with pytest.raises(GroupError):
            SemidirectParams(5, 3, 2)  # 2^3 = 8 = 3 mod 5

    def test_defining_relation(self, sd18):
        # s r s^-1 = r^2 with index layout a*m + b
        r, s = 6, 1
        lhs = sd18.mul[sd18.mul[s][r]][sd18.inv[s]]
        assert lhs == 2 * 6  # r^2


class TestDirectProduct:
    def test_klein(self):
        g = direct_product(make_cyclic(2), make_cyclic(2))
        assert g.order == 4 and g.is_abelian

    def test_order_multiplies(self):
        g = direct_product(make_dihedral(3), make_cyclic(5))
        assert g.order == 30

    def test_order_cap(self):
        with pytest.raises(GroupError):
            direct_product(make_cyclic(200), make_cyclic(200))

    def test_projections_are_homomorphisms(self, d8, s3):
        prod = direct_product(d8, s3)
        oh = s3.order
        for a in range(prod.order):
            for b in range(prod.order):
                ax, ay = split_product_index(a, oh)
                bx, by = split_product_index(b, oh)
                px, py = split_product_index(prod.mul[a][b], oh)
                assert px == d8.mul[ax][bx]
                assert py == s3.mul[ay][by]


class TestConjugacy:
    def test_partition_invariants(self, small_corpus):
        for g in small_corpus:
            part = conjugacy_classes(g)
            members = sorted(x for cls in part.classes for x in cls)
            assert members == list(range(g.order))
            for cid, cls in enumerate(part.classes):
                assert g.order % len(cls) == 0
                assert part.representatives[cid] == cls[0]
                for x in cls:
                    assert part.class_of[x] == cid

    def test_against_witness_oracle(self, small_corpus):
        for g in small_corpus:
            if g.order > 24:
                continue
            assert list(conjugacy_classes(g).classes) == brute_conjugacy_partition(g)

    def test_class_size_times_centralizer(self, d8, s4):
        for g in (d8, s4):
            part = conjugacy_classes(g)
            for cls in part.classes:
                assert len(cls) * len(centralizer(g, cls[0])) == g.order


class TestCentralizer:
    def test_abelian_whole_group(self, z6):
        for x in range(6):
            assert centralizer(z6, x) == tuple(range(6))

    def test_s3_three_cycle(self, s3):
        i123 = s3.labels.index("(1 2 3)")
        cent = centralizer(s3, i123)
        assert len(cent) == 3
        assert cent == brute_centralizer(s3, i123)

    def test_d8_rotation(self, d8):
        assert centralizer(d8, 1) == (0, 1, 2, 3)

    def test_is_subgroup(self, s4):
        for x in (1, 9, 16):
            assert is_subgroup(s4, centralizer(s4, x))

    def test_index_error(self, z6):
        with pytest.raises(GroupError):
            centralizer(z6, 6)


class TestGeneratedSubgroup:
    def test_identity_only(self, s4):
        assert generated_subgroup(s4, [s4.identity]) == (s4.identity,)

    def test_s4_generators(self, s4):
        i12 = s4.labels.index("(1 2)")
        i1234 = s4.labels.index("(1 2 3 4)")
        assert len(generated_subgroup(s4, [i12, i1234])) == 24

    def test_z6_even_part(self, z6):
        assert generated_subgroup(z6, [2]) == (0, 2, 4)

    def test_rejects_empty(self, z6):
        with pytest.raises(GroupError):
            generated_subgroup(z6, [])

    def test_closure_is_subgroup(self, s4):
        sub = generated_subgroup(s4, [3, 7])
        assert is_subgroup(s4, sub)


class TestDerivedSeries:
    def test_abelian(self, z6):
        series = derived_series(z6)
        assert [len(t) for t in series.terms] == [6, 1]
        assert series.solvable

    def test_s4(self, s4):
        series = derived_series(s4)
        assert [len(t) for t in series.terms] == [24, 12, 4, 1]
        assert series.solvable

    def test_s5_not_solvable(self):
        series = derived_series(make_symmetric(5))
        assert [len(t) for t in series.terms] == [120, 60]
        assert not series.solvable

    def test_strictly_decreasing_and_normal(self, small_corpus):
        for g in small_corpus:
            if g.order > 200:
                continue
            series = derived_series(g)
            for prev, term in zip(series.terms, series.terms[1:]):
                assert len(term) < len(prev)
                assert set(term) <= set(prev)
                for q in prev:
                    assert all(conj(g, q, x) in term for x in term)


class TestValidation:
    def test_latin_violation(self):
        with pytest.raises(GroupError, match="Latin"):
            groups.make_group([[0, 1], [0, 1]])

    def test_no_identity(self):
        # Latin square without a two-sided identity row/column pair
        with pytest.raises(GroupError, match="identity"):
            groups.make_group([[1, 2, 0], [0, 1, 2], [2, 0, 1]])

    def test_associativity_failure(self):
        # a loop: Latin, identity 0, two-sided inverses, not associative
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0],
        ]
        with pytest.raises(GroupError, match="associativity"):
            groups.make_group(table)

    def test_tables_from_outside_are_verified_at_every_order(self):
        # a non-associative Latin table of order 576 gets Light's test, and a
        # quotient of order 600 is verified like any table from outside
        loop = _intercalate_swap(parse_group_spec("product:sym:4,sym:4").table,
                                 random.Random(576))
        with pytest.raises(GroupError, match=r"^associativity fails at triple \("):
            groups.make_group(loop)
        quotient = homs.quotient_hom(parse_group_spec("product:dihedral:300,cyclic:2"),
                                     [0, 1]).target
        assert quotient.assoc_verified
        assert quotient.table.tobytes() == parse_group_spec("dihedral:300").table.tobytes()
        assert make_cyclic(6).assoc_verified

    @given(st.integers(min_value=1, max_value=12))
    def test_constructors_validate(self, n):
        for g in (make_cyclic(n), make_dihedral(n)):
            assert g.mul[g.identity] == tuple(range(g.order))
            for x in range(g.order):
                assert g.mul[x][g.inv[x]] == g.identity

    @given(st.integers(min_value=1, max_value=10), st.integers(min_value=1, max_value=10))
    def test_product_order(self, a, b):
        g = direct_product(make_cyclic(a), make_cyclic(b))
        assert g.order == a * b

    @pytest.mark.parametrize("table,message", [
        ([[0, 70000], [1, 0]], "entry out of range at row 0, column 1"),
        ([[0, 1], [1, -1]], "entry out of range at row 1, column 1"),
        ([[0, 1, 2], [1, 2, 0]], "multiplication table is not square"),
        ([], "multiplication table must be a nonempty square matrix"),
        ([[0, 1], [1]], "multiplication table rows differ in length"),
        ([[0.5]], "non-integer entry 0.5 at row 0, column 0"),
        ([[0, 1.7], [1, 0]], "non-integer entry 1.7 at row 0, column 1"),
        ([["0", "1"], ["1", "0"]], "non-integer entry '0' at row 0, column 0"),
        ([[0, 1], [True, 0]], "non-integer entry True at row 1, column 0"),
        ([[True]], "non-integer entry True at row 0, column 0"),
        ([[0, 1], [np.True_, 0]], "non-integer entry np.True_ at row 1, column 0"),
        (np.array([[True]]), "non-integer entry True at row 0, column 0"),
        ([[0, 2**70], [1, 0]], "entry out of range at row 0, column 1"),
        ([[0, 1], [2**63, 0]], "entry out of range at row 1, column 0"),
        ([[0, 1, 2], [1, 1, 0], [2, 0, 1]], "not a Latin square: row 1 repeats entry 1"),
        ([[0, 1, 2], [1, 2, 0], [1, 0, 2]], "not a Latin square: column 0 repeats entry 1"),
        # a loop in which 2 * 3 = e but 3 * 2 != e
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
          [4, 2, 0, 1, 3]], "element 2 has no two-sided inverse"),
        ([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1],
          [4, 3, 1, 2, 0]], r"associativity fails at triple \(1, 1, 2\)"),
    ])
    def test_error_messages(self, table, message):
        with pytest.raises(GroupError, match=f"^{message}$"):
            groups.make_group(table)

    @pytest.mark.parametrize("table,message", [
        # two-sided identity 0, x * x = 0 and x * y = 0 for every x, y != 0:
        # the inverses x^(2n-1) = x are two-sided, and only Light's test fails
        ([[0, 1, 2], [1, 0, 0], [2, 0, 0]], "not a Latin square: row 1 repeats entry 0"),
        ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 0], [3, 2, 1, 0]],
         "not a Latin square: row 2 repeats entry 0"),
        ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 1, 0]],
         "not a Latin square: column 2 repeats entry 1"),
        ([[1, 0, 2], [0, 1, 2], [2, 2, 2]], "not a Latin square: row 2 repeats entry 2"),
    ])
    def test_non_latin_tables_with_an_identity(self, table, message):
        groups._find_identity(np.array(table))  # has a two-sided identity
        with pytest.raises(GroupError, match=f"^{message}$"):
            groups.make_group(table)
        assert _assoc_outcome(ref_check_table, table) == message

    @pytest.mark.parametrize("seed", range(30))
    def test_damaged_group_tables_keep_their_messages(self, seed):
        # one entry changed (rows or columns stop being permutations; the
        # identity row and column kept), or two entries of a row swapped, or
        # an intercalate swap (a loop that is not a group): the message is
        # the one of the checks in their fixed order
        rng = random.Random(seed)
        g = parse_group_spec(rng.choice(["dihedral:6", "sym:4", "cyclic:10",
                                         "semidirect:5,4,2", "product:cyclic:2,sym:3"]))
        table = np.array(g.table)
        damage = seed % 3
        if damage == 0:
            r, c = rng.randrange(1, g.order), rng.randrange(1, g.order)
            table[r, c] = (table[r, c] + rng.randrange(1, g.order)) % g.order
        elif damage == 1:
            r, a, b = rng.randrange(g.order), *rng.sample(range(g.order), 2)
            table[r, [a, b]] = table[r, [b, a]]
        else:
            table = _intercalate_swap(table, rng)
        want = _assoc_outcome(ref_check_table, table)
        assert want is not None
        assert _assoc_outcome(groups.make_group, table) == want


def _reduced_latin_squares(n):
    """Every Latin square of order n whose row 0 and column 0 are 0..n-1."""
    rows = [tuple(range(n))]

    def extend():
        if len(rows) == n:
            yield [list(row) for row in rows]
            return
        for perm in itertools.permutations(range(n)):
            if perm[0] == len(rows) and all(
                    perm[c] != row[c] for row in rows for c in range(1, n)):
                rows.append(perm)
                yield from extend()
                rows.pop()

    yield from extend()


def _has_two_sided_inverses(table):
    n = len(table)
    return all(any(table[x][y] == 0 == table[y][x] for y in range(n)) for x in range(n))


def _intercalate_swap(table, rng):
    """Swap u and v in a 2x2 Latin subsquare of a group table with identity 0:
    rows a, a*t and columns t*d, d for an involution t, all away from row,
    column and entry 0, so the result is a loop with identity 0 and the same
    inverses."""
    m = np.array(table)
    n = m.shape[0]
    involutions = [t for t in range(1, n) if m[t, t] == 0]
    while True:
        t, a, d = rng.choice(involutions), rng.randrange(1, n), rng.randrange(1, n)
        b, c = m[a, t], m[t, d]
        u, v = m[a, c], m[a, d]
        if 0 not in (b, c, u, v):
            m[a, c] = m[b, d] = v
            m[a, d] = m[b, c] = u
            return m


def _loop_times_group(loop, group):
    """The direct product with index l * |group| + g: its middle nucleus holds
    {e} x group, so the first elements Light's test checks pass."""
    loop, group = np.asarray(loop), np.asarray(group)
    k = group.shape[0]
    return (loop[:, None, :, None] * k + group[None, :, None, :]).reshape(
        loop.shape[0] * k, -1)


def _assoc_outcome(check, table):
    """None if ``check`` accepts the table, else the GroupError text."""
    try:
        check(table)
    except GroupError as exc:
        return str(exc)
    return None


def _order_5_loops():
    return [np.array(t) for t in _reduced_latin_squares(5) if _has_two_sided_inverses(t)]


class TestLightAssociativity:
    """make_group's associativity verdict and message against the full scan."""

    @pytest.mark.parametrize("n,squares", [(1, 1), (2, 1), (3, 1), (4, 4), (5, 56)])
    def test_every_loop_up_to_order_5(self, n, squares):
        tables = list(_reduced_latin_squares(n))
        assert len(tables) == squares
        loops = [np.array(t) for t in tables if _has_two_sided_inverses(t)]
        outcomes = [_assoc_outcome(ref_check_assoc, t) for t in loops]
        assert outcomes == [_assoc_outcome(groups.make_group, t) for t in loops]
        if n == 5:
            assert len(loops) == 8 and outcomes.count(None) == 6

    @pytest.mark.parametrize("seed", range(40))
    def test_intercalate_loops(self, seed):
        rng = random.Random(seed)
        specs = ("dihedral:3", "dihedral:4", "dihedral:12", "dihedral:32", "sym:3", "sym:4",
                 "cyclic:6", "cyclic:10", "cyclic:64", "semidirect:7,6,3", "semidirect:5,4,2",
                 "product:cyclic:2,sym:4", "product:dihedral:4,cyclic:3",
                 "product:cyclic:4,cyclic:4")
        table = _intercalate_swap(parse_group_spec(rng.choice(specs)).table, rng)
        want = _assoc_outcome(ref_check_assoc, table)
        assert want is not None and want.startswith("associativity fails")
        assert _assoc_outcome(groups.make_group, table) == want

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:5", "dihedral:3", "sym:3",
                                      "cyclic:12"])
    def test_loop_products_with_associative_first_checks(self, spec):
        group = parse_group_spec(spec).table
        outcomes = []
        for loop in _order_5_loops():
            table = _loop_times_group(loop, group)
            want = _assoc_outcome(ref_check_assoc, table)
            assert _assoc_outcome(groups.make_group, table) == want
            outcomes.append(want)
        assert outcomes.count(None) == 6

    def test_decoded_order_480_loop(self):
        table = _intercalate_swap(parse_group_spec("product:sym:4,dihedral:10").table,
                                  random.Random(480))
        text = f"{len(table)}\n" + "".join(
            " ".join(map(str, row)) + "\n" for row in table.tolist())
        want = _assoc_outcome(ref_check_assoc, table)
        assert want is not None
        with pytest.raises(CayleyTableError) as exc:
            from_cayley_table(text)
        assert str(exc.value) == want


    @staticmethod
    def _document(table):
        return f"{len(table)}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table.tolist())

    def test_decoded_order_576_loop(self, monkeypatch):
        # above order 512 a decoded document is still checked; the triple named
        # is Light's failing y with its least failing (x, z), whatever the block
        table = _intercalate_swap(parse_group_spec("product:sym:4,sym:4").table,
                                  random.Random(576))
        messages = []
        for block in (groups._ASSOC_BLOCK, 1, 3 * 576, 100 * 576):
            monkeypatch.setattr(groups, "_ASSOC_BLOCK", block)
            with pytest.raises(CayleyTableError) as exc:
                from_cayley_table(self._document(table))
            messages.append(str(exc.value))
        assert len(set(messages)) == 1
        found = re.fullmatch(r"associativity fails at triple \((\d+), (\d+), (\d+)\)", messages[0])
        x, y, z = map(int, found.groups())
        fails = table[table[:, y]] != table[:, table[y]]  # [x, z]: (xy)z != x(yz)
        assert fails[x, z] and (x, z) == divmod(int(fails.argmax()), len(table))

    @pytest.mark.parametrize("block", [1, 40])
    def test_light_blocks_keep_verdicts(self, block, monkeypatch):
        monkeypatch.setattr(groups, "_ASSOC_BLOCK", block)
        for seed in range(8):
            rng = random.Random(seed)
            table = _intercalate_swap(parse_group_spec("product:cyclic:2,sym:4").table, rng)
            assert _assoc_outcome(groups.make_group, table) == _assoc_outcome(ref_check_assoc, table)
        for loop in _order_5_loops():
            table = _loop_times_group(loop, parse_group_spec("dihedral:3").table)
            assert _assoc_outcome(groups.make_group, table) == _assoc_outcome(ref_check_assoc, table)
        assert groups.make_group(parse_group_spec("sym:4").table).assoc_verified

    def test_decoded_order_576_loop_exits_2(self, capsys, tmp_path):
        from tsslab.cli import main

        table = _intercalate_swap(parse_group_spec("product:sym:4,sym:4").table,
                                  random.Random(576))
        path = tmp_path / "loop576.cayley"
        path.write_text(self._document(table))
        assert main(["group", "info", "--spec", f"file:{path}"]) == 2
        assert "associativity fails at triple (" in capsys.readouterr().err

    def test_decoded_groups_above_512_are_verified(self):
        for spec in ("product:sym:4,sym:4", "sym:6"):
            g = parse_group_spec(spec)
            assert g.order > groups.DEFAULT_ASSOC_CAP and not g.assoc_verified
            assert from_cayley_table(to_cayley_table(g)).assoc_verified


DENSE_CORPUS = dense_corpus()


def _relabelled(h):
    """h's table relabelled by x -> (x + 5) mod n, so the identity is element
    5 mod n, and the relabelling."""
    shift = (np.arange(h.order) + 5) % h.order
    table = np.empty_like(h.table)
    table[np.ix_(shift, shift)] = shift[h.table]
    return groups.make_group(table), shift


def _decoded(spec):
    """The Cayley document of ``spec`` relabelled by ``_relabelled``, decoded."""
    return from_cayley_table(to_cayley_table(_relabelled(parse_group_spec(spec))[0]))


def _quotient_by_center(spec):
    g = parse_group_spec(spec)
    return homs.quotient_hom(g, [x for x in range(g.order)
                                 if (g.table[x] == g.table[:, x]).all()]).target


# tables built without generators, so ``make_group`` records its own
TABLE_GROUPS = {
    "decoded": lambda: _decoded("product:sym:4,dihedral:3"),
    "quotient": lambda: _quotient_by_center("product:sym:4,dihedral:4"),
    "quotient-above-512": lambda: _quotient_by_center("dihedral:520"),
    "decoded-times-sym3": lambda: direct_product(_decoded("semidirect:7,6,3"), make_symmetric(3)),
}


class TestClosureMatchesScalarReferences:
    """``generated_subgroup``, ``derived_series`` and ``element_orders``
    against the scalar walks over ``mul`` that they replaced."""

    LARGE = ["dihedral:500", "semidirect:31,30,3", "product:sym:4,dihedral:10", "sym:5",
             "product:sym:3,sym:4"]

    @pytest.mark.parametrize("g", [g for g, _ in DENSE_CORPUS], ids=lambda g: g.name)
    def test_dense_corpus(self, g):
        assert ref_generated_subgroup(g, g.generators or [g.identity]) == tuple(range(g.order))
        assert derived_series(g) == ref_derived_series(g)
        assert g.element_orders.tolist() == [ref_element_order(g, x) for x in range(g.order)]
        rng = random.Random(g.order)
        for x in range(g.order):
            gens = [x, rng.randrange(g.order)]
            assert generated_subgroup(g, [x]) == ref_generated_subgroup(g, [x])
            assert generated_subgroup(g, gens) == ref_generated_subgroup(g, gens)

    @pytest.mark.parametrize("spec", LARGE)
    def test_large_orders(self, spec):
        g = parse_group_spec(spec)
        assert derived_series(g) == ref_derived_series(g)
        rng = random.Random(spec)
        for _ in range(20):
            gens = rng.sample(range(g.order), rng.randrange(1, 3))
            assert generated_subgroup(g, gens) == ref_generated_subgroup(g, gens)

    @pytest.mark.parametrize("build", TABLE_GROUPS.values(), ids=TABLE_GROUPS.keys())
    def test_recorded_generators(self, build):
        g = build()
        assert g.generators and g.identity not in g.generators
        assert ref_generated_subgroup(g, g.generators) == tuple(range(g.order))
        assert derived_series(g) == ref_derived_series(g)

    def test_product_generators_fix_the_other_coordinate(self):
        for g, h in [(make_symmetric(3), _decoded("semidirect:7,6,3")),
                     (_decoded("semidirect:7,6,3"), make_symmetric(3))]:
            pairs = [split_product_index(x, h.order) for x in direct_product(g, h).generators]
            assert pairs == ([(x, h.identity) for x in g.generators]
                             + [(g.identity, y) for y in h.generators])

    @pytest.mark.parametrize("spec", ["dihedral:200", "semidirect:11,10,2", "sym:5"])
    def test_cyclic_subgroups_have_the_element_orders(self, spec):
        g = parse_group_spec(spec)
        for x in range(g.order):
            assert len(generated_subgroup(g, [x])) == g.element_orders[x]

    @pytest.mark.parametrize("block", [1, 40])
    def test_blocks_keep_results(self, block, monkeypatch):
        # the homomorphism check gathers _ASSOC_BLOCK entries at a time
        monkeypatch.setattr(groups, "_ASSOC_BLOCK", block)
        g = parse_group_spec("product:sym:4,dihedral:3")
        hom = homs.quotient_hom(g, range(6))  # onto S4, the D6 factor is {e} x D6
        f = list(hom.mapping)
        f[-1] = (f[-1] + 1) % hom.target.order  # breaks a product in the last row
        bad = homs.TableHom(g, hom.target, tuple(f))
        assert homs.is_table_homomorphism(hom) and ref_is_table_homomorphism(hom)
        assert not homs.is_table_homomorphism(bad) and not ref_is_table_homomorphism(bad)
        assert derived_series(g) == ref_derived_series(g)
        assert generated_subgroup(g, [7, 30]) == ref_generated_subgroup(g, [7, 30])

    def test_element_orders_of_dihedral_2000(self):
        g = parse_group_spec("dihedral:2000")
        assert g.element_orders.tolist() == [ref_element_order(g, x) for x in range(g.order)]

    def test_element_orders_of_cyclic_4000(self):
        # every order in closed form (g^x has order n / gcd(x, n)); the scalar
        # walk, whose cost is the sum of the orders, on the divisors and a sample
        g = parse_group_spec("cyclic:4000")
        orders = g.element_orders.tolist()
        assert orders == [4000 // math.gcd(x, 4000) for x in range(4000)]
        xs = [x for x in range(4000) if x and 4000 % x == 0]
        xs += random.Random(4000).sample(range(4000), 150)
        assert [orders[x] for x in xs] == [ref_element_order(g, x) for x in xs]

    @pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6", "semidirect:7,6,3",
                                      "product:sym:3,cyclic:4"])
    def test_element_orders_with_identity_not_zero(self, spec):
        h = parse_group_spec(spec)
        g, shift = _relabelled(h)
        assert g.identity == 5 % h.order
        assert g.element_orders.tolist() == [ref_element_order(g, x) for x in range(g.order)]
        assert g.element_orders[shift].tolist() == h.element_orders.tolist()

    def test_inverses_and_orders_are_read_only_arrays(self, s4):
        for arr in (s4.inv, s4.element_orders):
            assert arr.dtype == s4.table.dtype and arr.shape == (24,)
            assert not arr.flags.writeable


class TestDenseCore:
    @pytest.mark.parametrize("g,want", DENSE_CORPUS, ids=lambda v: getattr(v, "name", ""))
    def test_constructor_matches_entry_formula(self, g, want):
        assert g.mul == tuple(tuple(row) for row in want)
        assert g.table.tolist() == want
        assert all(g.mul[x][g.inv[x]] == g.identity == g.mul[g.inv[x]][x]
                   for x in range(g.order))

    @pytest.mark.parametrize("g,want", DENSE_CORPUS, ids=lambda v: getattr(v, "name", ""))
    def test_conj_table_is_conjugation(self, g, want):
        c = groups._conjugates(g, np.arange(g.order))  # c[q, x] = q x q^-1
        m, inv = g.mul, g.inv
        assert all(c[q][x] == m[m[q][x]][inv[q]]
                   for q in range(g.order) for x in range(g.order))

    def test_classes_match_witness_oracle(self):
        for g, _ in DENSE_CORPUS:
            if g.order <= 48:
                assert sorted(conjugacy_classes(g).classes) == brute_conjugacy_partition(g)

    def test_dtype_and_read_only(self, s4):
        # conjugates are gathered on demand, in the table's dtype
        assert groups._conjugates(s4, np.arange(24)).dtype == np.int16
        assert s4.table.dtype == np.int16 and s4.table.shape == (24, 24)
        assert not s4.table.flags.writeable
        with pytest.raises(ValueError):
            s4.table[0, 0] = 1

    def test_wide_dtype_above_int16(self):
        assert groups.table_dtype(32767) == np.int16
        assert groups.table_dtype(32768) == np.int32

    def test_rows_share_int_objects(self):
        g = make_dihedral(300)  # entries above 256, which CPython does not intern
        x = g.mul[0][400]
        assert x == 400 and x is g.mul[400][0] and g.inv[x] == x  # 400 is a reflection

    def test_classes_cached_on_the_group(self, s4):
        assert conjugacy_classes(s4) is conjugacy_classes(s4)
        assert conjugacy_classes(s4) is s4.conjugacy_partition

    def test_witness_and_centralizer_match_scans(self, small_corpus):
        for g in small_corpus:
            for x in range(g.order):
                assert centralizer(g, x) == brute_centralizer(g, x)
                for y in range(0, g.order, 3):
                    assert conjugating_witness(g, x, y) == brute_conjugate_witness(g, x, y)


class TestSharedInts:
    """Element tuples the library returns hold the group's one int object per
    element, the objects of ``mul``'s rows, not fresh ints."""

    @staticmethod
    def _shared(g, values):
        values = list(values)
        return all(v is g.mul[0][v] for v in values)  # row 0 is the identity's

    def test_dihedral_500(self):
        g = parse_group_spec("dihedral:500")  # order 1000: ints above 256 are not interned
        assert g.identity == 0
        report = max_tss_size(g)
        cert = report.maximal_sets[-1]
        decs = [realized_permutations(g, c.elements) for c in report.maximal_sets[-2:]]
        tuples = [cert.elements, cert.witnesses.values(), centralizer(g, 999),
                  decs[0].stabilizer, decs[1].stabilizer, decs[1].kernel,
                  decs[0].realized.values()]
        assert all(max(t) > 256 for t in tuples[:1] + tuples[2:-1])
        for t in tuples:
            assert self._shared(g, t)
        part = conjugacy_classes(g)
        assert self._shared(g, part.class_of) and self._shared(g, part.representatives)
        assert all(self._shared(g, cls) for cls in part.classes)

    def test_certificates_and_closures(self):
        g = parse_group_spec("dihedral:500")
        elems = max_tss_size(g).maximal_sets[-1].elements
        cert = tss.certify_tss(g, [int(str(x)) for x in elems])  # fresh ints in
        assert cert.elements == elems and self._shared(g, cert.elements)
        assert self._shared(g, tss.certify_tss(g, [999]).elements)
        assert self._shared(g, generated_subgroup(g, [1, 999]))
        assert all(self._shared(g, term) for term in derived_series(g).terms)


class TestPartitionByColumnMinima:
    """``conjugacy_partition`` (least member of each orbit of conjugation by
    the generators, ranked by a cumsum) against the per-class ``np.unique``
    of each element's conjugates."""

    @pytest.mark.parametrize("g", [g for g, _ in DENSE_CORPUS], ids=lambda g: g.name)
    def test_dense_corpus(self, g):
        assert g.conjugacy_partition == ref_conjugacy_partition(g)

    @pytest.mark.parametrize("spec", ["dihedral:500", "semidirect:31,30,3",
                                      "product:sym:4,sym:4", "sym:6"])
    def test_large_orders(self, spec):
        g = parse_group_spec(spec)
        assert g.conjugacy_partition == ref_conjugacy_partition(g)

    @pytest.mark.parametrize("spec", ["cyclic:12", "dihedral:6", "sym:4", "semidirect:7,6,3",
                                      "product:sym:3,dihedral:4"])
    def test_identity_not_zero(self, spec):
        g, _ = _relabelled(parse_group_spec(spec))
        assert g.identity != 0
        part = g.conjugacy_partition
        assert part == ref_conjugacy_partition(g)
        assert part.classes[part.class_of[g.identity]] == (g.identity,)

    @pytest.mark.parametrize("build", TABLE_GROUPS.values(), ids=TABLE_GROUPS.keys())
    def test_recorded_generators(self, build):
        # quotients and decoded documents: orbits of the greedy generators
        g = build()
        assert g.conjugacy_partition == ref_conjugacy_partition(g)


class TestSymmetricByComposition:
    """``make_symmetric`` composes rows; the result is byte-identical to the
    row-by-row ``searchsorted`` build."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_row_by_row_build(self, n):
        g = make_symmetric(n)
        table, labels, gens = ref_symmetric(n)
        assert g.table.dtype == table.dtype and g.table.tobytes() == table.tobytes()
        assert g.labels == tuple(labels) and g.generators == gens
        assert g.name == f"S{n}" and g.identity == 0

    def test_sym_7_sampled_rows(self):
        g = make_symmetric(7)
        rows = list(range(0, 5040, 7)) + [5039]
        table, labels, gens = ref_symmetric(7, rows)
        assert g.table.dtype == table.dtype and g.table[rows].tobytes() == table.tobytes()
        assert g.labels == tuple(labels) and g.generators == gens


class TestLatinColumns:
    """The column check sorts copies of slabs of the transpose in place: the
    same verdicts and messages as sorting the transposed view, input
    untouched."""

    @pytest.mark.parametrize("spec", ["dihedral:10", "sym:4", "semidirect:7,6,3"])
    def test_row_swaps_name_the_same_column(self, spec):
        base = parse_group_spec(spec).table
        rng = random.Random(spec)
        for _ in range(10):
            bad = np.array(base)
            r, a, b = rng.randrange(len(bad)), *rng.sample(range(len(bad)), 2)
            bad[r, [a, b]] = bad[r, [b, a]]  # rows stay permutations
            for arr in (bad, np.asfortranarray(bad)):
                kept = arr.copy()
                want = _assoc_outcome(ref_check_latin, arr)
                assert want is not None and want.startswith("not a Latin square: column")
                assert _assoc_outcome(groups._check_latin, arr) == want
                assert np.array_equal(arr, kept)

    @pytest.mark.parametrize("slab,block", [(1, 1), (7, 7 * 600), (None, None)],
                             ids=["slab-1", "slab-7", "default"])
    def test_raw_tables_above_512_in_slabs(self, slab, block, monkeypatch):
        # a group's table passes the axioms; a bad table gets the checks in
        # their fixed order, the Latin check slab by slab and the inverse
        # search a row block at a time, with the messages of the whole-table
        # checks
        if slab is not None:
            monkeypatch.setattr(groups, "_LATIN_SLAB", slab)
            monkeypatch.setattr(groups, "_ASSOC_BLOCK", block)
        g = parse_group_spec("dihedral:300")
        h = groups.make_group(np.array(g.table))
        assert h.assoc_verified and np.array_equal(h.inv, g.inv)
        assert h.generators == g.generators
        rng = random.Random(slab)
        loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1], [3, 4, 1, 2, 0],
                [4, 2, 0, 1, 3]]  # 2 * 3 = e but 3 * 2 != e
        tables = [np.array(g.table)[np.r_[1:600, 0]],  # Latin, no identity
                  _loop_times_group(loop, make_cyclic(103).table)]
        for _ in range(6):
            bad = np.array(g.table)
            r, a, b = rng.randrange(600), *rng.sample(range(600), 2)
            bad[r, [a, b]] = bad[r, [b, a]]
            tables.append(bad)
            bad = np.array(g.table)
            bad[r, a] = (bad[r, a] + 1) % 600
            tables.append(bad)
        messages = []
        for table in tables:
            assert len(table) > groups.DEFAULT_ASSOC_CAP
            messages.append(_assoc_outcome(groups.make_group, table))
            assert messages[-1] == _assoc_outcome(ref_check_table, table)
        assert messages[0] == "table has no two-sided identity"
        assert messages[1] == "element 206 has no two-sided inverse"
        assert all(m.startswith("not a Latin square: column") for m in messages[2::2])
        assert all(m.startswith("not a Latin square: row") for m in messages[3::2])

    def test_valid_tables_pass_unchanged(self):
        for g, _ in DENSE_CORPUS:
            arr = np.asfortranarray(g.table)
            groups._check_latin(arr)
            assert np.array_equal(arr, g.table)


class TestLazyMul:
    """``mul`` is derived from ``table`` on the first scalar read, never by the
    array paths."""

    @pytest.mark.parametrize("spec", ["sym:4", "dihedral:6", "product:cyclic:2,dihedral:4",
                                      "semidirect:7,3,2"])
    def test_array_paths_do_not_build_mul(self, spec):
        g = parse_group_spec(spec)
        text = to_cayley_table(g)
        back = from_cayley_table(text)
        report = max_tss_size(g, up_to_conjugacy=True)
        for cert in report.maximal_sets:
            realized_permutations(g, cert.elements)
        assert to_cayley_table(back) == text
        assert "mul" not in g.__dict__ and "mul" not in back.__dict__

    @pytest.mark.parametrize("check", [
        lambda g, h: derived_series(g),
        lambda g, h: homs.is_table_homomorphism(homs.identity_hom(g)),
        lambda g, h: homs.quotient_hom(g, [x for x in range(g.order)
                                           if len(centralizer(g, x)) == g.order]).target,
        lambda g, h: list(homs.enumerate_table_homs(g, h)),
    ], ids=["derived_series", "is_table_homomorphism", "quotient_hom", "enumerate_table_homs"])
    @pytest.mark.parametrize("spec", ["sym:4", "product:cyclic:2,dihedral:4"])
    def test_group_and_hom_checks_do_not_build_mul(self, check, spec):
        g, h = parse_group_spec(spec), parse_group_spec("sym:3")
        out = check(g, h)
        assert out
        for group in (g, h, *([out] if isinstance(out, groups.FiniteGroup) else [])):
            assert "mul" not in group.__dict__

    def test_braid_check_does_not_build_mul(self):
        target = parse_group_spec("semidirect:11,10,2")  # a braid-homs target
        assert homs.braid_cyclic_corollary_check(9, target).all_cyclic
        assert "mul" not in target.__dict__

    @pytest.mark.parametrize("run", [
        lambda: main(["group", "info", "--spec", "sym:4"]) == 0,
        lambda: verify.verify_suite("inverse-pair").instances,
    ], ids=["group-info", "inverse-pair"])
    def test_cli_and_suite_groups_do_not_build_mul(self, run, monkeypatch, capsys):
        made = []

        def recording(spec):
            made.append(parse_group_spec(spec))
            return made[-1]

        monkeypatch.setattr("tsslab.cli.parse_group_spec", recording)
        monkeypatch.setattr(verify, "parse_group_spec", recording)
        assert run()
        capsys.readouterr()
        assert made and not any("mul" in g.__dict__ for g in made)

    def test_mul_matches_eager_rows(self, small_corpus):
        for g in [g for g, _ in DENSE_CORPUS] + small_corpus:
            assert g.mul == ref_eager_mul(g)
            assert g.mul is g.mul  # derived once, then kept


class TestOrderCap:
    """Orders just over the cap: each is rejected before any table exists."""

    @pytest.mark.parametrize("build", [
        lambda cap: make_cyclic(cap + 1),
        lambda cap: make_dihedral(cap // 2 + 1),
        lambda cap: make_semidirect_cyclic(SemidirectParams(2, cap // 2 + 1, 1)),
        lambda cap: make_symmetric(8),
    ], ids=["cyclic", "dihedral", "semidirect", "symmetric"])
    def test_rejected_before_allocating(self, build):
        cap = groups.DEFAULT_ORDER_CAP
        assert math.factorial(8) > cap
        tracemalloc.start()
        try:
            with pytest.raises(GroupError, match="cap"):
                build(cap)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_product_rejected_before_allocating(self):
        cap = groups.DEFAULT_ORDER_CAP
        side = math.isqrt(cap) + 1
        factor = make_cyclic(side)
        message = f"Z{side}xZ{side} has order {side * side}, above the global order cap {cap}"
        tracemalloc.start()
        try:
            with pytest.raises(GroupError, match=f"^{message}$"):
                direct_product(factor, factor)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_cli_exits_2(self, capsys):
        from tsslab.cli import main

        assert main(["group", "build", "--spec", "dihedral:100000"]) == 2
        assert "order 200000, above the global order cap" in capsys.readouterr().err

    def test_raw_tables_and_quotients_meet_the_cap(self, monkeypatch):
        table, z24 = make_cyclic(12).table, make_cyclic(24)
        monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
        message = "the table has order 12, above the global order cap 10"
        for build in (lambda: groups.make_group(table),
                      lambda: groups.make_group(table.tolist()),
                      lambda: homs.quotient_hom(z24, [0, 12])):  # Z24/Z2 has order 12
            with pytest.raises(GroupError, match=f"^{message}$"):
                build()

    @pytest.mark.parametrize("text", [to_cayley_table(make_cyclic(12)), "12\n"],
                             ids=["cyclic-12", "order-line"])
    def test_cayley_documents_meet_the_cap(self, text, monkeypatch, tmp_path, capsys):
        # the order line is held to the cap before the table is allocated
        monkeypatch.setattr(groups, "DEFAULT_ORDER_CAP", 10)
        message = "the table has order 12, above the global order cap 10 (line 1)"
        with pytest.raises(CayleyTableError, match=f"^{re.escape(message)}$"):
            from_cayley_table(text)
        path = tmp_path / "c12.cayley"
        path.write_text(text)
        assert main(["group", "info", "--spec", f"file:{path}"]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


def _semidirect_triples(max_order):
    """Every (p, m, k) with p prime, p*m <= max_order, 1 <= k < p and k^m = 1 mod p."""
    primes = [p for p in range(2, max_order + 1) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    return [(p, m, k) for p in primes for m in range(1, max_order // p + 1)
            for k in range(1, p) if pow(k, m, p) == 1]


_FACTOR_ORDERS = {spec: parse_group_spec(spec).order for spec in [
    "cyclic:1", "cyclic:2", "cyclic:4", "cyclic:10", "dihedral:3", "dihedral:4", "dihedral:25",
    "sym:3", "sym:4", "sym:5", "semidirect:7,3,2", "semidirect:5,4,2", "product:cyclic:2,sym:3"]}

# every constructor family on a dense corpus, products of small factors up to order 1200
CONSTRUCTED = {
    "cyclic": [f"cyclic:{n}" for n in [*range(1, 65), 500, 511, 512, 513, 1000, 1200]],
    "dihedral": [f"dihedral:{n}" for n in [*range(1, 33), 250, 256, 257, 500, 600]],
    "sym": [f"sym:{n}" for n in range(1, 7)],
    "semidirect": [f"semidirect:{p},{m},{k}" for p, m, k in _semidirect_triples(120)],
    "product": [f"product:{a},{b}" for a, b in itertools.product(_FACTOR_ORDERS, repeat=2)
                if _FACTOR_ORDERS[a] * _FACTOR_ORDERS[b] <= 1200],
}


class TestConstructedTables:
    """Constructors build their groups without the checks ``make_group`` runs
    on tables from outside; the checked path agrees with them on every table."""

    @pytest.mark.parametrize("family", CONSTRUCTED)
    def test_checked_path_agrees(self, family):
        for spec in CONSTRUCTED[family]:
            g = parse_group_spec(spec)
            h = groups.make_group(g.table, g.labels, name=g.name)
            assert h.identity == g.identity, spec
            assert h.inv.dtype == g.inv.dtype and np.array_equal(h.inv, g.inv), spec
            assert h.table.dtype == g.table.dtype, spec
            assert h.table.tobytes() == g.table.tobytes(), spec
            assert h.labels == g.labels and h.assoc_verified, spec
            assert g.assoc_verified == (g.order <= groups.DEFAULT_ASSOC_CAP), spec

    def test_corpus_reaches_the_edges(self):
        assert {p * m for p, m, _ in _semidirect_triples(120)} >= {2, 119, 120}
        orders = {_FACTOR_ORDERS[a] * _FACTOR_ORDERS[b]
                  for a, b in itertools.product(_FACTOR_ORDERS, repeat=2)}
        assert min(orders) == 1 and 1200 in orders

    @pytest.fixture
    def latin_check_raises(self, monkeypatch):
        class LatinCheckCalled(Exception):
            pass

        def refuse(table):
            raise LatinCheckCalled

        monkeypatch.setattr(groups, "_check_latin", refuse)
        return LatinCheckCalled

    @pytest.fixture
    def axiom_check_raises(self, monkeypatch):
        class AxiomCheckCalled(Exception):
            pass

        def refuse(table):
            raise AxiomCheckCalled

        monkeypatch.setattr(groups, "_group_axioms", refuse)
        return AxiomCheckCalled

    @pytest.mark.parametrize("spec", [
        "cyclic:1", "cyclic:12", "dihedral:1", "dihedral:7", "sym:1", "sym:4",
        "semidirect:2,1,1", "semidirect:7,3,2", "product:cyclic:1,sym:1",
        "product:sym:3,dihedral:4",
    ])
    def test_constructors_skip_the_latin_check(self, latin_check_raises, spec):
        g = parse_group_spec(spec)
        assert g.table[g.identity].tolist() == list(range(g.order))

    def test_recorded_generators_are_checked(self):
        # Light's test on the recorded generators, then one closure over them
        g = make_dihedral(6)
        table, labels = np.array(g.table), list(g.labels)
        assert groups._built(np.array(table), labels, (1, 6), "D12").assoc_verified
        for gens in [(1,), (2, 6), (6,), ()]:
            with pytest.raises(GroupError, match="^the recorded generators of D12 do not "
                                                 "generate it$"):
                groups._built(np.array(table), labels, gens, "D12")
        loop = _intercalate_swap(table, random.Random(12))
        want = _assoc_outcome(ref_check_assoc, loop)
        assert want is not None
        assert _assoc_outcome(lambda t: groups._built(t, labels, (1, 6), "D12"), loop) == want
        # above the cap nothing is checked, as for any constructor there
        big = make_dihedral(300)
        assert not groups._built(np.array(big.table), list(big.labels), (1,), "D600").assoc_verified

    def test_tables_from_outside_are_checked(self, axiom_check_raises, tmp_path):
        g = make_dihedral(4)
        path = tmp_path / "d8.txt"
        path.write_text(to_cayley_table(g))
        for build in (lambda: from_cayley_table(to_cayley_table(g)),
                      lambda: parse_group_spec(f"file:{path}"),
                      lambda: groups.make_group(g.table.tolist()),
                      lambda: homs.quotient_hom(g, [g.identity])):
            with pytest.raises(axiom_check_raises):
                build()
