import math
import random

import jsonschema
import numpy as np
import pytest

from tsslab import tss, verify
from tsslab.groups import (
    conjugacy_classes,
    direct_product,
    make_cyclic,
    make_dihedral,
    make_symmetric,
    split_product_index,
)
from tsslab.schemas import TSS_REPORT_SCHEMA, tss_report_to_json
from tsslab.specs import parse_group_spec
from tsslab.tss import (
    TssCertificate,
    TssError,
    brute_force_tss,
    certify_tss,
    dedup_up_to_conjugacy,
    enumerate_tss,
    max_tss_size,
    realized_permutations,
)

from helpers import (
    commutes,
    conj,
    dense_corpus,
    factorial_divisibility,
    ref_brute_force_tss,
    ref_dedup,
    ref_least_witnesses,
    ref_realized_permutations,
    ref_transposition_witnesses,
    ref_tss_by_size,
)


class TestRealizedPermutations:
    def test_singleton_stabilizer_is_centralizer(self, s4):
        from tsslab.groups import centralizer

        for x in (0, 1, 9):
            dec = realized_permutations(s4, [x])
            assert dec.stabilizer == centralizer(s4, x)
            assert len(dec.realized) == 1

    def test_d8_rotation_pair(self, d8):
        dec = realized_permutations(d8, (1, 3))
        assert len(dec.realized) == 2
        swap_witness = dec.realized[(1, 0)]
        assert conj(d8, swap_witness, 1) == 3

    def test_s4_disjoint_transpositions(self, s4):
        i12 = s4.labels.index("(1 2)")
        i34 = s4.labels.index("(3 4)")
        dec = realized_permutations(s4, (i12, i34))
        assert (len(dec.stabilizer), len(dec.kernel), len(dec.realized)) == (8, 4, 2)

    def test_correct_on_non_tss(self, s4):
        # arbitrary non-commuting set still decomposes consistently
        dec = realized_permutations(s4, (1, 2, 3))
        assert len(dec.stabilizer) == len(dec.kernel) * len(dec.realized)

    def test_index_error(self, d8):
        with pytest.raises(Exception):
            realized_permutations(d8, [99])


class TestIsTss:
    def test_disjoint_transpositions(self, s4):
        i12 = s4.labels.index("(1 2)")
        i34 = s4.labels.index("(3 4)")
        assert certify_tss(s4, [i12, i34]) is not None

    def test_overlapping_transpositions(self, s4):
        i12 = s4.labels.index("(1 2)")
        i13 = s4.labels.index("(1 3)")
        assert certify_tss(s4, [i12, i13]) is None

    def test_klein_triple(self, s4):
        triple = [i for i, lab in enumerate(s4.labels)
                  if lab in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)")]
        cert = certify_tss(s4, triple)
        assert cert is not None
        # each witness realizes exactly its transposition
        for (i, j), w in cert.witnesses.items():
            for pos, x in enumerate(cert.elements):
                expect = cert.elements[j if pos == i else i if pos == j else pos]
                assert conj(s4, w, x) == expect

    def test_singletons_always(self, small_corpus):
        for g in small_corpus:
            for x in range(0, g.order, max(1, g.order // 7)):
                assert certify_tss(g, [x]) is not None

    def test_empty_rejected(self, d8):
        with pytest.raises(TssError):
            certify_tss(d8, [])

    def test_duplicates_rejected(self, d8):
        with pytest.raises(TssError):
            certify_tss(d8, [1, 1])


class TestEnumerate:
    def test_abelian_no_pairs(self, z6):
        assert enumerate_tss(z6, 2) == []

    def test_dihedral_families(self):
        # {r^i, r^-i} always; {s r^i, s r^(i+n/2)} iff 4 | n
        for n in range(3, 13):
            g = make_dihedral(n)
            found = [c.elements for c in enumerate_tss(g, 2)]
            rotations = [(i, n - i) for i in range(1, (n - 1) // 2 + 1)]
            reflections = (
                [(n + i, n + i + n // 2) for i in range(n // 2)] if n % 4 == 0 else []
            )
            assert found == sorted(rotations + reflections)

    def test_d12_size3_empty(self):
        assert enumerate_tss(make_dihedral(6), 3) == []

    def test_size_one_lists_all(self, d8):
        assert [c.elements for c in enumerate_tss(d8, 1)] == [(x,) for x in range(8)]

    def test_deterministic_order(self, s4):
        first = [c.elements for c in enumerate_tss(s4, 2)]
        second = [c.elements for c in enumerate_tss(s4, 2)]
        assert first == second == sorted(first)


class TestMaxTss:
    def test_cyclic(self):
        for n in (1, 2, 7, 12):
            assert max_tss_size(make_cyclic(n)).s_of_g == 1

    def test_dihedral(self):
        for n in range(3, 13):
            assert max_tss_size(make_dihedral(n)).s_of_g == 2

    def test_s4(self, s4):
        report = max_tss_size(s4)
        assert report.s_of_g == 3
        assert report.counts == {1: 24, 2: 13, 3: 1}
        (only,) = report.maximal_sets
        assert sorted(s4.labels[x] for x in only.elements) == [
            "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"
        ]

    def test_report_schema(self, s4):
        doc = tss_report_to_json(max_tss_size(s4), order=s4.order)
        jsonschema.validate(doc, TSS_REPORT_SCHEMA)

    def test_dedup_flag(self, s4):
        verbatim = enumerate_tss(s4, 2)
        assert len(verbatim) == 13
        assert len(dedup_up_to_conjugacy(s4, verbatim)) == 4


class TestFactorialDivisibility:
    def test_singleton(self):
        assert factorial_divisibility(make_cyclic(7), [3])

    def test_d8_pair(self, d8):
        assert factorial_divisibility(d8, [1, 3])

    def test_s4_triple(self, s4):
        triple = [i for i, lab in enumerate(s4.labels)
                  if lab in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)")]
        assert factorial_divisibility(s4, triple)

    def test_rejects_non_tss(self, s4):
        with pytest.raises(TssError):
            factorial_divisibility(s4, [1, 2])


class TestInvariants:
    def test_conjugacy_and_order_property(self, small_corpus):
        # members of any certified TSS of size >= 2 share a class and order
        for g in small_corpus:
            report = max_tss_size(g)
            for size in range(2, report.s_of_g + 1):
                part = conjugacy_classes(g)
                for cert in enumerate_tss(g, size):
                    cids = {part.class_of[x] for x in cert.elements}
                    orders = {int(g.element_orders[x]) for x in cert.elements}
                    assert len(cids) == 1 and len(orders) == 1

    def test_inverse_pair_lemma(self, small_corpus):
        for g in small_corpus:
            report = max_tss_size(g)
            for size in range(2, report.s_of_g + 1):
                for cert in enumerate_tss(g, size):
                    elems = set(cert.elements)
                    if any(g.inv[x] in elems and g.inv[x] != x for x in elems):
                        assert len(elems) == 2

    def test_ses_identity_on_arbitrary_sets(self, small_corpus):
        import random

        rng = random.Random(7)
        for g in small_corpus:
            for _ in range(10):
                size = rng.randint(1, min(4, g.order))
                s = sorted(rng.sample(range(g.order), size))
                dec = realized_permutations(g, s)
                assert len(dec.stabilizer) == len(dec.kernel) * len(dec.realized)

    def test_product_coordinate_structure(self, d8):
        prod = direct_product(d8, d8)
        for size in (2, 3):
            for cert in enumerate_tss(prod, size):
                firsts = [split_product_index(x, 8)[0] for x in cert.elements]
                seconds = [split_product_index(x, 8)[1] for x in cert.elements]
                assert len(set(firsts)) in (1, len(firsts))
                assert len(set(seconds)) in (1, len(seconds))

    def test_product_max(self, d8, s3):
        prod = direct_product(d8, s3)
        assert max_tss_size(prod).s_of_g == max(
            max_tss_size(d8).s_of_g, max_tss_size(s3).s_of_g
        )


class TestOracle:
    def test_matches_pruned_enumerator(self, small_corpus):
        for g in small_corpus:
            if g.order > 24:
                continue
            s_val = max_tss_size(g).s_of_g
            for size in range(1, s_val + 2):
                assert [c.elements for c in enumerate_tss(g, size)] == brute_force_tss(g, size)

    def test_odd_order_corpus_has_no_pairs_by_search(self):
        # the odd-order theorem must not rest on the 2 | |G| prune alone
        specs = verify.odd_order_corpus(63)
        assert "product:cyclic:3,semidirect:7,3,2" in specs
        for spec in specs:
            assert brute_force_tss(parse_group_spec(spec), 2) == [], spec

    def test_oracle_uses_full_permutation_search(self, s4):
        # spot check: the oracle certifies the Klein triple via all 6 permutations
        triple = tuple(i for i, lab in enumerate(s4.labels)
                       if lab in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"))
        assert triple in brute_force_tss(s4, 3)


ORACLE_GROUPS = ([parse_group_spec(spec) for spec in verify._ORACLE_CORPUS.split(";")]
                 + [g for g, _ in dense_corpus() if g.order <= 24])


class TestBruteForceOnArrays:
    """``brute_force_tss`` on table arrays against the scalar triple loop it
    replaced, ``ref_brute_force_tss``."""

    @pytest.mark.parametrize("g", ORACLE_GROUPS, ids=lambda g: g.name)
    def test_matches_scalar_loop(self, g):
        for size in range(1, max_tss_size(g).s_of_g + 2):
            got = brute_force_tss(g, size)
            assert got == ref_brute_force_tss(g, size), size
            assert all(type(x) is int for s in got for x in s)

    @pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:3", "sym:3"])
    def test_size_above_order_is_empty(self, spec):
        g = parse_group_spec(spec)
        for size in (g.order + 1, g.order + 2):
            assert brute_force_tss(g, size) == ref_brute_force_tss(g, size) == []

    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one_raises(self, d8, size):
        with pytest.raises(TssError) as got:
            brute_force_tss(d8, size)
        with pytest.raises(TssError) as want:
            ref_brute_force_tss(d8, size)
        assert str(got.value) == str(want.value) == f"size must be >= 1, got {size}"

    def test_commuting_pair_that_is_not_conjugate_is_absent(self):
        # r and r^2 in D8 commute, but no conjugator swaps them
        g = parse_group_spec("dihedral:4")
        assert (g.labels[1], g.labels[2]) == ("r", "r^2") and commutes(g, 1, 2)
        assert (1, 2) not in brute_force_tss(g, 2)
        assert (1, 3) in brute_force_tss(g, 2)  # r and r^3 = r^-1 are swapped by s

    @pytest.mark.parametrize("block", [1, 7, 100])
    def test_blocks_keep_results(self, block, monkeypatch):
        g = parse_group_spec("product:cyclic:2,dihedral:4")
        want = [ref_brute_force_tss(g, size) for size in (1, 2, 3)]
        monkeypatch.setattr(tss, "_BLOCK", block)
        assert [brute_force_tss(g, size) for size in (1, 2, 3)] == want

    def test_independent_of_the_pruned_path(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the oracle must not call the pruned path")

        monkeypatch.setattr(tss, "_least_witnesses", forbidden)
        monkeypatch.setattr(tss, "conjugacy_classes", forbidden)
        g = parse_group_spec("sym:4")
        klein = tuple(g.labels.index(lab) for lab in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"))
        assert brute_force_tss(g, 3) == [tuple(sorted(klein))]
        assert not {"mul", "conjugacy_partition"} & set(g.__dict__)


# groups up to order 48, and S4 x S3 (order 144)
TABLE_SEARCH_SPECS = ["cyclic:12", "dihedral:4", "dihedral:6", "dihedral:24", "sym:3", "sym:4",
                      "semidirect:3,6,2", "semidirect:7,6,3", "semidirect:13,3,3",
                      "product:sym:3,cyclic:2", "product:sym:4,cyclic:2", "product:dihedral:4,sym:3",
                      "product:sym:4,sym:3"]


def _search_sets(g):
    """Every certified TSS of size >= 2, and seeded sets that are mostly not TSS."""
    sets = [c.elements for level in list(tss.tss_by_size(g))[1:] for c in level]
    rng = random.Random(g.order)
    for size in (1, 2, 3, 4):
        sets += [tuple(sorted(rng.sample(range(g.order), size))) for _ in range(8)]
    return sets


class TestConjugationTableSearches:
    """The row filters on gathered conjugates against scalar conjugation loops."""

    @pytest.mark.parametrize("spec", TABLE_SEARCH_SPECS)
    def test_realized_permutations(self, spec):
        g = parse_group_spec(spec)
        for s in _search_sets(g):
            dec = realized_permutations(g, s)
            stab, kernel, realized = ref_realized_permutations(g, s)
            assert dec.stabilizer == stab and dec.kernel == kernel
            assert list(dec.realized.items()) == list(realized.items())
            assert all(type(q) is int for q in dec.stabilizer + dec.kernel)

    @pytest.mark.parametrize("spec", TABLE_SEARCH_SPECS)
    def test_certify_witnesses(self, spec):
        g = parse_group_spec(spec)
        for s in _search_sets(g):
            cert = certify_tss(g, s)
            commuting = all(commutes(g, x, y) for x in s for y in s)
            want = ref_transposition_witnesses(g, s)
            if commuting and None not in want.values():
                assert cert is not None and cert.witnesses == want
            else:
                assert cert is None

    @pytest.mark.parametrize("spec", TABLE_SEARCH_SPECS)
    def test_dedup(self, spec):
        g = parse_group_spec(spec)
        for level in tss.tss_by_size(g):
            kept = [c.elements for c in dedup_up_to_conjugacy(g, level)]
            assert kept == ref_dedup(g, [c.elements for c in level])
        # the orbit minimum is decided for any set, not only for TSS
        sets = _search_sets(g)
        kept = dedup_up_to_conjugacy(g, [TssCertificate(g, s) for s in sets])
        assert [c.elements for c in kept] == ref_dedup(g, sets)


# the dense constructor corpus (orders 1 to 144) and three groups of order 576-1000
LEVEL_GROUPS = [g for g, _ in dense_corpus()] + [
    parse_group_spec(spec) for spec in ("product:sym:4,sym:4", "sym:6", "dihedral:500")]


def _levels(g):
    return [[(c.elements, c.witnesses) for c in level] for level in tss.tss_by_size(g)]


def _non_tss_sets(g):
    """Seeded sets of sizes 1-4, most of them not TSS."""
    rng = random.Random(g.order + 1)
    return [tuple(sorted(rng.sample(range(g.order), size)))
            for size in (1, 2, 3, 4) if size <= g.order for _ in range(12)]


class TestLevelSearch:
    """The level-at-once search and batched dedup against the per-candidate loop."""

    @pytest.mark.parametrize("g", LEVEL_GROUPS, ids=lambda g: g.name)
    def test_levels_match_per_candidate_search(self, g):
        levels = _levels(g)
        assert levels == list(ref_tss_by_size(g))
        for level in levels:
            for elems, witnesses in level:
                assert all(type(x) is int for x in elems)
                assert all(type(q) is int for q in witnesses.values())

    @pytest.mark.parametrize("g", LEVEL_GROUPS, ids=lambda g: g.name)
    def test_dedup_matches_reference(self, g):
        for level in tss.tss_by_size(g):
            kept = dedup_up_to_conjugacy(g, level)
            assert [c.elements for c in kept] == ref_dedup(g, [c.elements for c in level])
            assert all(c in level for c in kept)
        sets = _non_tss_sets(g)
        kept = dedup_up_to_conjugacy(g, [TssCertificate(g, s) for s in sets])
        assert [c.elements for c in kept] == ref_dedup(g, sets)

    @pytest.mark.parametrize("g", [g for g, _ in dense_corpus()], ids=lambda g: g.name)
    def test_orbit_minima_match_the_unfiltered_kernel(self, g):
        # the prefilter passes only sets that start with their least class member
        by_size = {}
        for s in [c.elements for level in tss.tss_by_size(g) for c in level] + _non_tss_sets(g):
            by_size.setdefault(len(s), []).append(s)
        for sets in by_size.values():
            sets = np.array(sets, dtype=np.intp)
            assert (tss._orbit_minima(g, sets).tolist()
                    == tss._orbit_minima_kernel(g, sets).tolist())

    @pytest.mark.parametrize("block", ["one entry", "below one row"])
    @pytest.mark.parametrize("spec", ["sym:4", "dihedral:24", "product:sym:4,sym:3",
                                      "product:dihedral:4,dihedral:4"])
    def test_block_seams(self, spec, block, monkeypatch):
        g = parse_group_spec(spec)
        levels = _levels(g)
        dedups = [dedup_up_to_conjugacy(g, level) for level in tss.tss_by_size(g)]
        sets = _non_tss_sets(g)
        certs = [certify_tss(g, s) for s in sets]
        # below one row: a block holds less than one set's gathered images
        monkeypatch.setattr(tss, "_BLOCK", 1 if block == "one entry" else g.order - 1)
        assert _levels(g) == levels
        assert [dedup_up_to_conjugacy(g, level) for level in tss.tss_by_size(g)] == dedups
        assert [certify_tss(g, s) for s in sets] == certs

    def test_block_seams_split_a_level(self, monkeypatch):
        # S4 x S3 level 2 spans many parent blocks and witness blocks at 64 entries
        g = parse_group_spec("product:sym:4,sym:3")
        monkeypatch.setattr(tss, "_BLOCK", 64)
        assert _levels(g) == list(ref_tss_by_size(g))

    def test_empty_level_and_prune(self):
        # Z7: every class has one member, so level 2 is empty
        assert [len(level) for level in tss.tss_by_size(make_cyclic(7))] == [7]
        # S3 x Z7: level 3 is searched and empty; D8: 3! does not divide 8
        assert [len(level) for level in tss.tss_by_size(
            parse_group_spec("product:sym:3,cyclic:7"))] == [42, 7]
        assert [len(level) for level in tss.tss_by_size(make_dihedral(4))] == [8, 3]


# every member of the bands of the benchmark's `tables` workload
# (perfbench/workloads.py), orders 480 to 1008
TABLES_BANDS = ["product:sym:4,sym:4", "product:sym:4,dihedral:12", "product:dihedral:12,sym:4",
                "product:sym:4,dihedral:10", "product:dihedral:10,sym:4", "sym:6",
                "dihedral:496", "dihedral:500", "dihedral:504"] + [
    f"semidirect:31,30,{k}" for k in (3, 11, 12, 13, 17, 21, 22, 24)]


class TestWitnessKernel:
    """``_least_witnesses`` (q x = y q, read on ``table``) against the
    full-row reference kernel on a conjugation table, witness for witness, on
    every batch of sets the level search hands it, certified or not."""

    @staticmethod
    def _check_levels(g, monkeypatch):
        batches = []
        kernel = tss._least_witnesses

        def recording(g, sets):
            batches.append((sets, kernel(g, sets)))
            return batches[-1][1]

        monkeypatch.setattr(tss, "_least_witnesses", recording)
        list(tss.tss_by_size(g))
        for sets, found in batches:
            assert found.tolist() == ref_least_witnesses(g, sets).tolist()
        return len(batches)

    @pytest.mark.parametrize("g", [g for g, _ in dense_corpus()], ids=lambda g: g.name)
    def test_dense_corpus(self, g, monkeypatch):
        self._check_levels(g, monkeypatch)

    @pytest.mark.parametrize("spec", TABLE_SEARCH_SPECS)
    def test_table_search_specs(self, spec, monkeypatch):
        g = parse_group_spec(spec)
        self._check_levels(g, monkeypatch)
        for s in _search_sets(g):
            if len(s) > 1:
                sets = np.array([s], dtype=np.intp)
                assert tss._least_witnesses(g, sets).tolist() == ref_least_witnesses(g, sets).tolist()

    @pytest.mark.parametrize("spec", TABLES_BANDS)
    def test_tables_bands(self, spec, monkeypatch):
        assert self._check_levels(parse_group_spec(spec), monkeypatch) > 0
