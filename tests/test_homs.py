import itertools

import jsonschema
import numpy as np
import pytest

from tsslab import groups, homs
from tsslab.groups import (
    GroupError,
    conjugacy_classes,
    make_cyclic,
    make_dihedral,
    make_group,
    make_symmetric,
)
from tsslab.specs import parse_group_spec
from tsslab.homs import (
    BudgetExceeded,
    GeneratorImageMap,
    HomError,
    Presentation,
    TableHom,
    braid_cyclic_corollary_check,
    braid_presentation,
    enumerate_homs,
    enumerate_table_homs,
    fundamental_lemma_check,
    identity_hom,
    image_subgroup,
    is_homomorphism,
    is_table_homomorphism,
    odd_artin_generators,
    quotient_hom,
)
from tsslab.schemas import HOM_REPORT_SCHEMA, braid_report_to_json
from tsslab.tss import TssError

from helpers import (
    commutes,
    dense_corpus,
    image_is_cyclic,
    ref_braid_image_census,
    ref_enumerate_homs,
    ref_evaluate_word,
    ref_is_table_homomorphism,
)


def _std_b3_s3(s3):
    pres = braid_presentation(3)
    return GeneratorImageMap(
        pres, s3, (s3.labels.index("(1 2)"), s3.labels.index("(2 3)"))
    )


class TestPresentation:
    def test_braid_counts(self):
        assert braid_presentation(2).generator_count == 1
        assert braid_presentation(2).relators == ()
        b3 = braid_presentation(3)
        assert (b3.generator_count, len(b3.relators)) == (2, 1)
        b5 = braid_presentation(5)
        adjacent = [r for r in b5.relators if len(r) == 6]
        distant = [r for r in b5.relators if len(r) == 4]
        assert (b5.generator_count, len(adjacent), len(distant)) == (4, 3, 3)

    def test_rejects_small_strands(self):
        with pytest.raises(HomError):
            braid_presentation(1)

    def test_relator_validation(self):
        with pytest.raises(HomError):
            Presentation(2, ((3,),))
        with pytest.raises(HomError):
            Presentation(2, ((),))
        with pytest.raises(HomError):
            Presentation(0, ())

    def test_odd_artin(self):
        assert odd_artin_generators(4) == (0, 2)
        assert odd_artin_generators(7) == (0, 2, 4)


class TestIsHomomorphism:
    def test_trivial_map(self, s3):
        pres = braid_presentation(3)
        assert is_homomorphism(GeneratorImageMap(pres, s3, (0, 0)))

    def test_standard_b3_map(self, s3):
        assert is_homomorphism(_std_b3_s3(s3))

    def test_braid_relator_fails(self, s3):
        # sigma_1 -> (1 2), sigma_2 -> (1 2 3) breaks the braid relation:
        # verified against a direct table computation of both sides.
        i12 = s3.labels.index("(1 2)")
        i123 = s3.labels.index("(1 2 3)")
        lhs = s3.mul[s3.mul[i12][i123]][i12]
        rhs = s3.mul[s3.mul[i123][i12]][i123]
        assert lhs != rhs
        pres = braid_presentation(3)
        assert not is_homomorphism(GeneratorImageMap(pres, s3, (i12, i123)))

    @pytest.mark.parametrize("spec", ["sym:4", "semidirect:7,3,2", "relabeled"])
    def test_evaluate_word_on_rows_matches_scalar_reference(self, spec, s3):
        if spec == "relabeled":  # S3 with element x renamed move[x], identity 0 to 2
            move = [2, 0, 1, 3, 4, 5]
            table = [[0] * 6 for _ in range(6)]
            for a, b in itertools.product(range(6), repeat=2):
                table[move[a]][move[b]] = move[s3.mul[a][b]]
            g = make_group(table)
            assert g.identity == 2
        else:
            g = parse_group_spec(spec)
        rows = np.array(list(itertools.product(range(g.order), repeat=3))[::7], dtype=np.intp)
        for word in [(1,), (-2,), (1, 2, -1, -2), (3, -1, 3, 3, -2), (1, 2, 1, -2, -1, -2)]:
            values = homs.evaluate_word(g, rows, word)
            assert values.dtype == g.table.dtype
            assert values.tolist() == [ref_evaluate_word(g, row, word) for row in rows.tolist()]


class TestEnumerate:
    def test_trivial_always_first(self, s3):
        homs_list = list(enumerate_homs(braid_presentation(3), s3))
        assert homs_list[0].images == (0, 0)

    @pytest.mark.parametrize("m", [2, 3, 5, 6])
    def test_braid_to_cyclic_forces_equal_images(self, m):
        target = make_cyclic(m)
        found = list(enumerate_homs(braid_presentation(3), target))
        assert len(found) == m
        assert all(len(set(h.images)) == 1 for h in found)

    def test_all_outputs_are_homomorphisms(self, s4):
        for h in enumerate_homs(braid_presentation(3), s4):
            assert is_homomorphism(h)

    def test_budget_exceeded(self, s4):
        with pytest.raises(BudgetExceeded) as info:
            list(enumerate_homs(braid_presentation(4), s4, budget=10))
        assert info.value.budget == 10
        assert info.value.nodes > 10

    def test_symmetry_reduction_subset(self, s3):
        full = {h.images for h in enumerate_homs(braid_presentation(3), s3)}
        reduced = list(
            enumerate_homs(braid_presentation(3), s3, first_image_up_to_conjugacy=True)
        )
        assert {h.images for h in reduced} <= full
        assert len(reduced) < len(full)

    def test_more_generators_than_the_recursion_limit(self):
        # the levels are walked with a stack of iterators, not recursion
        found = list(enumerate_homs(Presentation(1200, ((1,),)), make_cyclic(1)))
        assert [h.images for h in found] == [(0,) * 1200]

    def test_yielded_maps_equal_checked_maps(self, s4):
        # the enumerator skips the constructor's checks; the public one keeps them
        pres = braid_presentation(4)
        found = list(enumerate_homs(pres, s4))
        assert found == [GeneratorImageMap(pres, s4, h.images) for h in found]
        assert len(set(found)) == len(found)
        assert all(type(x) is int for h in found for x in h.images)
        with pytest.raises(HomError, match="one image per generator"):
            GeneratorImageMap(pres, s4, (0, 0))
        with pytest.raises(GroupError, match="out of range"):
            GeneratorImageMap(pres, s4, (0, 0, 24))


class TestCyclicImage:
    def test_trivial(self, s3):
        pres = braid_presentation(3)
        assert image_is_cyclic(GeneratorImageMap(pres, s3, (0, 0)))

    def test_standard_b4_not_cyclic(self, s4):
        pres = braid_presentation(4)
        images = (
            s4.labels.index("(1 2)"),
            s4.labels.index("(2 3)"),
            s4.labels.index("(3 4)"),
        )
        m = GeneratorImageMap(pres, s4, images)
        assert len(image_subgroup(m)) == 24
        assert not image_is_cyclic(m)

    def test_equal_images_cyclic(self, s4):
        pres = braid_presentation(4)
        x = s4.labels.index("(1 2 3 4)")
        assert image_is_cyclic(GeneratorImageMap(pres, s4, (x, x, x)))

    def test_rejects_non_hom(self, s3):
        pres = braid_presentation(3)
        i12 = s3.labels.index("(1 2)")
        i123 = s3.labels.index("(1 2 3)")
        with pytest.raises(HomError):
            image_is_cyclic(GeneratorImageMap(pres, s3, (i12, i123)))


class TestTableHoms:
    def test_identity_is_hom(self, d8):
        assert is_table_homomorphism(identity_hom(d8))

    def test_quotient_construction(self, d8):
        qh = quotient_hom(d8, [0, 2])
        assert qh.target.order == 4
        assert is_table_homomorphism(qh)

    def test_quotient_rejects_non_subgroup(self, d8):
        with pytest.raises(HomError):
            quotient_hom(d8, [0, 1])  # <r> needs r^2, r^3 too

    def test_quotient_rejects_non_normal(self, s3):
        i12 = s3.labels.index("(1 2)")
        with pytest.raises(HomError):
            quotient_hom(s3, [0, i12])

    def test_generating_set(self, s4, z6):
        from tsslab.groups import generated_subgroup

        gens = s4.generators
        assert generated_subgroup(s4, gens) == tuple(range(24))
        assert len(gens) <= 3
        assert z6.generators == (1,)

    def test_s4_to_s3_count(self, s4, s3):
        # 1 trivial + 3 through the sign map + 6 through S4/V ~ S3
        found = list(enumerate_table_homs(s4, s3))
        assert len(found) == 10
        assert all(is_table_homomorphism(h) for h in found)

    def test_hom_count_to_cyclic(self, s4):
        # homs S4 -> Z4 factor through the abelianization Z2
        assert len(list(enumerate_table_homs(s4, make_cyclic(4)))) == 2


class TestFundamentalLemma:
    def test_identity_map_keeps_size(self, d8):
        verdict = fundamental_lemma_check(identity_hom(d8), [1, 3])
        assert verdict.branch == "same_size"
        assert verdict.image == (1, 3)
        assert verdict.certificate is not None

    def test_quotient_collapses(self, d8):
        verdict = fundamental_lemma_check(quotient_hom(d8, [0, 2]), [1, 3])
        assert verdict.branch == "collapsed"
        assert len(verdict.image) == 1

    def test_s4_quotient_collapses(self, s4):
        klein = [0] + [i for i, lab in enumerate(s4.labels)
                       if lab in ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)")]
        i12 = s4.labels.index("(1 2)")
        i34 = s4.labels.index("(3 4)")
        verdict = fundamental_lemma_check(quotient_hom(s4, klein), [i12, i34])
        assert verdict.branch == "collapsed"

    def test_braid_fixture(self, s4):
        pres = braid_presentation(4)
        images = (
            s4.labels.index("(1 2)"),
            s4.labels.index("(2 3)"),
            s4.labels.index("(3 4)"),
        )
        verdict = fundamental_lemma_check(
            GeneratorImageMap(pres, s4, images), odd_artin_generators(4)
        )
        assert verdict.branch == "same_size"
        assert sorted(s4.labels[x] for x in verdict.image) == ["(1 2)", "(3 4)"]
        assert verdict.certificate is not None

    def test_rejects_non_tss_source(self, s4):
        with pytest.raises(TssError):
            fundamental_lemma_check(identity_hom(s4), [1, 2])

    @pytest.mark.parametrize("pres,images,message", [
        # a homomorphism of Z^2 * Z whose image of {0, 2} is not a TSS of S4
        (Presentation(3, ((1, 2, -1, -2),), name="braid:4"), ("(3 4)", "e", "(2 3 4)"),
         "braid groups only"),
        (Presentation(3, braid_presentation(4).relators, name="braid:x"),
         ("(1 2)", "(2 3)", "(3 4)"), "braid groups only"),
        (Presentation(1, ((1, -1),), name="braid:1"), ("e",), "at least 2 strands"),
    ], ids=["not-braid-relators", "strands-not-decimal", "one-strand"])
    def test_rejects_presentation_named_braid(self, s4, pres, images, message):
        images = tuple(s4.labels.index(x) for x in images)
        with pytest.raises(HomError, match=message):
            fundamental_lemma_check(GeneratorImageMap(pres, s4, images), [0, 2])

    def test_rejects_non_odd_artin_fixture(self, s4):
        pres = braid_presentation(4)
        m = GeneratorImageMap(pres, s4, (0, 0, 0))
        with pytest.raises(TssError):
            fundamental_lemma_check(m, [0, 1])

    def test_holds_across_all_homs(self, s4, s3):
        from tsslab.tss import enumerate_tss

        certs = [c for size in (2, 3) for c in enumerate_tss(s4, size)]
        for hom in enumerate_table_homs(s4, s3):
            for cert in certs:
                verdict = fundamental_lemma_check(hom, cert.elements)
                assert verdict.branch in ("collapsed", "same_size")


class TestNonInjectivity:
    def test_s4_to_d8(self, s4, d8):
        # S(S4) = 3 > 2 = S(D8): no homomorphism is injective
        for hom in enumerate_table_homs(s4, d8):
            assert len(set(hom.mapping)) < s4.order


class TestBraidCorollary:
    # every image is cyclic, so the maps are sigma_i -> x for all i, one per x
    def test_b5_to_z6(self, z6):
        report = braid_cyclic_corollary_check(5, z6)
        assert report.applicable and report.all_cyclic
        assert report.hom_count == z6.order == 6

    def test_b5_to_order21(self):
        from tsslab.groups import SemidirectParams, make_semidirect_cyclic

        target = make_semidirect_cyclic(SemidirectParams(7, 3, 2))
        report = braid_cyclic_corollary_check(5, target)
        assert report.applicable and report.all_cyclic
        assert report.hom_count == target.order == 21
        assert report.image_order_histogram == {1: 1, 3: 14, 7: 6}

    def test_budget_counts_the_search_up_to_conjugacy(self):
        # the full stream takes 2900 nodes; one first image per class, fewer
        target = parse_group_spec("semidirect:11,10,2")
        report = braid_cyclic_corollary_check(11, target, budget=1000)
        assert report.applicable and report.all_cyclic
        assert report.hom_count == target.order == 110

    def test_hypothesis_gate(self):
        report = braid_cyclic_corollary_check(5, make_symmetric(5))
        assert not report.applicable
        assert report.s_target >= 2

    def test_rejects_small_n(self, z6):
        with pytest.raises(HomError):
            braid_cyclic_corollary_check(4, z6)

    def test_report_schema(self, z6):
        report = braid_cyclic_corollary_check(5, z6)
        assert report.applicable and report.hom_count == z6.order
        jsonschema.validate(braid_report_to_json(report), HOM_REPORT_SCHEMA)

    def test_abelianization_invariant(self):
        # all Artin generators are conjugate, so abelian images coincide
        for m in (2, 5, 8):
            target = make_cyclic(m)
            for hom in enumerate_homs(braid_presentation(4), target):
                assert len(set(hom.images)) == 1


# --- oracles: the pruned enumerators against unpruned searches -----------------

_ORACLE_TARGETS = ["sym:3", "sym:4", "dihedral:4", "cyclic:6", "semidirect:7,3,2"]


def _brute_force_homs(pres, target):
    """Every assignment of generator images in lexicographic order, kept iff
    it satisfies all relators."""
    return [
        images
        for images in itertools.product(range(target.order), repeat=pres.generator_count)
        if all(ref_evaluate_word(target, images, rel) == target.identity
               for rel in pres.relators)
    ]


def _assert_matches_oracle(pres, target):
    expected = _brute_force_homs(pres, target)
    assert [h.images for h in enumerate_homs(pres, target)] == expected
    reps = set(conjugacy_classes(target).representatives)
    reduced = enumerate_homs(pres, target, first_image_up_to_conjugacy=True)
    assert [h.images for h in reduced] == [im for im in expected if im[0] in reps]


# <x, y | x^3, y^2, (xy)^2>, the dihedral group of order 6; the Coxeter
# presentation of S4, where no relator has the braid or commutator shape; and
# <x, y | x y x^-1 = y^-1>
_UNFILTERED = [
    Presentation(2, ((1, 1, 1), (2, 2), (1, 2, 1, 2))),
    Presentation(3, ((1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2)),
    Presentation(2, ((1, 2, -1, 2),)),
]

_SHAPES = [
    # relators written with the newer generator first
    Presentation(2, ((2, 1, -2, -1),)),
    Presentation(2, ((2, 1, 2, -1, -2, -1),)),
    # generators 1 and 3 tied only through generator 2
    Presentation(3, ((2, 3, 2, -3, -2, -3), (1, 2, 1, -2, -1, -2), (3, 1, -3, -1))),
    # a braid-shaped relator on generator 2 alone is an ordinary relator
    Presentation(2, ((2, 2, 2, -2, -2, -2), (1, 2, -1, -2))),
]


class TestEnumerateOracle:
    @pytest.mark.parametrize("strands", [3, 4, 5])
    @pytest.mark.parametrize("spec", _ORACLE_TARGETS)
    def test_braid_stream_matches_brute_force(self, strands, spec):
        _assert_matches_oracle(braid_presentation(strands), parse_group_spec(spec))

    @pytest.mark.parametrize("pres", _UNFILTERED)
    @pytest.mark.parametrize("spec", _ORACLE_TARGETS[:4])
    def test_unfiltered_relators_match_brute_force(self, pres, spec):
        _assert_matches_oracle(pres, parse_group_spec(spec))

    @pytest.mark.parametrize("pres", _SHAPES)
    @pytest.mark.parametrize("spec", ["sym:3", "sym:4", "dihedral:4"])
    def test_relator_shapes_match_brute_force(self, pres, spec):
        _assert_matches_oracle(pres, parse_group_spec(spec))

    def test_budget_counts_only_filtered_candidates(self, s4):
        # B4 -> S4 once tried 24 images at every level; the class and
        # centralizer filters leave few enough that a small budget suffices
        pres = braid_presentation(4)
        assert len(list(enumerate_homs(pres, s4, budget=24 * 24))) == len(
            _brute_force_homs(pres, s4)
        )


def _assert_matches_reference(pres, target, reduced):
    """The stream equals the depth-first reference's, and so does the node
    total: the run completes at a budget of that total and stops one below."""
    expected, total = ref_enumerate_homs(pres, target, reduced)
    found = enumerate_homs(pres, target, budget=total, first_image_up_to_conjugacy=reduced)
    assert [h.images for h in found] == expected
    with pytest.raises(BudgetExceeded) as info:
        list(enumerate_homs(pres, target, budget=total - 1,
                            first_image_up_to_conjugacy=reduced))
    assert info.value.budget == total - 1 and info.value.nodes >= total


@pytest.mark.parametrize("reduced", [False, True], ids=["all", "up-to-conjugacy"])
class TestEnumerateReference:
    @pytest.mark.parametrize("strands", [3, 4, 5, 6])
    @pytest.mark.parametrize("spec", _ORACLE_TARGETS)
    def test_braid_stream_and_nodes(self, strands, spec, reduced):
        _assert_matches_reference(braid_presentation(strands), parse_group_spec(spec), reduced)

    @pytest.mark.parametrize("pres", _UNFILTERED + _SHAPES)
    @pytest.mark.parametrize("spec", ["sym:3", "sym:4", "dihedral:4", "cyclic:6"])
    def test_presentation_stream_and_nodes(self, pres, spec, reduced):
        _assert_matches_reference(pres, parse_group_spec(spec), reduced)


def _brute_force_table_homs(source, target):
    """The generator-image search without relators: every assignment to
    ``source.generators`` extended along a spanning tree and kept iff it
    preserves all products."""
    gens = source.generators
    parent = {source.identity: None}
    order = [source.identity]
    for x in order:
        for gi, gen in enumerate(gens):
            y = source.mul[x][gen]
            if y not in parent:
                parent[y] = (x, gi)
                order.append(y)
    found = []
    for assignment in itertools.product(range(target.order), repeat=len(gens)):
        f = [target.identity] * source.order
        for y in order[1:]:
            x, gi = parent[y]
            f[y] = target.mul[f[x]][assignment[gi]]
        hom = TableHom(source, target, tuple(f))
        if is_table_homomorphism(hom):
            found.append(hom.mapping)
    return found


class TestTableHomOracle:
    @pytest.mark.parametrize("source,target", [
        ("sym:4", "sym:3"), ("sym:4", "dihedral:4"), ("dihedral:4", "sym:3"),
        ("sym:3", "cyclic:6"), ("semidirect:7,3,2", "sym:3"), ("cyclic:6", "sym:3"),
    ])
    def test_schreier_search_matches_brute_force(self, source, target):
        g, h = parse_group_spec(source), parse_group_spec(target)
        found = [hom.mapping for hom in enumerate_table_homs(g, h)]
        assert found == _brute_force_table_homs(g, h)

    def test_trivial_source_has_one_hom(self, s3):
        trivial = make_cyclic(1)
        assert [h.mapping for h in enumerate_table_homs(trivial, s3)] == [(s3.identity,)]

    def test_budget(self, s4, d8):
        with pytest.raises(BudgetExceeded):
            list(enumerate_table_homs(s4, d8, budget=10))

    @pytest.mark.parametrize("source,target", [("sym:4", "sym:3"), ("sym:4", "dihedral:4"),
                                               ("semidirect:7,3,2", "sym:3")])
    def test_budget_boundary(self, source, target, monkeypatch):
        # the node total is the depth-first reference's on the Schreier presentation
        g, h = parse_group_spec(source), parse_group_spec(target)
        presentations = []
        search = homs.enumerate_homs

        def recording(pres, *args, **kwargs):
            presentations.append(pres)
            return search(pres, *args, **kwargs)

        monkeypatch.setattr(homs, "enumerate_homs", recording)
        expected = [hom.mapping for hom in enumerate_table_homs(g, h)]
        _, total = ref_enumerate_homs(presentations[0], h)
        assert [hom.mapping for hom in enumerate_table_homs(g, h, budget=total)] == expected
        with pytest.raises(BudgetExceeded):
            list(enumerate_table_homs(g, h, budget=total - 1))


class TestBlockSeams:
    @pytest.mark.parametrize("block", [1, 30])
    @pytest.mark.parametrize("strands", [4, 5])
    def test_braid_stream(self, strands, block, s4, monkeypatch):
        # at 30 a level's blocks end inside the candidates of a parent, which
        # are a class of S4 (1, 3, 6 or 8 members)
        pres = braid_presentation(strands)
        streams = [[h.images for h in enumerate_homs(pres, s4, first_image_up_to_conjugacy=r)]
                   for r in (False, True)]
        monkeypatch.setattr(homs, "_BLOCK", block)
        assert [[h.images for h in enumerate_homs(pres, s4, first_image_up_to_conjugacy=r)]
                for r in (False, True)] == streams

    @pytest.mark.parametrize("block", [1, 30])
    def test_schreier_stream(self, block, s4, d8, monkeypatch):
        stream = [hom.mapping for hom in enumerate_table_homs(s4, d8)]
        monkeypatch.setattr(homs, "_BLOCK", block)
        assert [hom.mapping for hom in enumerate_table_homs(s4, d8)] == stream

    def test_budget_cut_counts_maps_yielded(self, s4, monkeypatch):
        # one-parent blocks: the cut comes after some maps were yielded
        pres = braid_presentation(4)
        _, total = ref_enumerate_homs(pres, s4)
        monkeypatch.setattr(homs, "_BLOCK", 1)
        yielded = []
        with pytest.raises(BudgetExceeded) as info:
            for hom in enumerate_homs(pres, s4, budget=total - 1):
                yielded.append(hom)
        assert yielded and info.value.found == len(yielded)
        assert info.value.nodes == total


# BudgetExceeded (nodes, found) at each budget of _BUDGETS with the default
# _BLOCK, or the number of maps where the search completes; without and with
# the symmetry reduction.  Nodes are counted a block at a time, so these pin
# where the blocks are cut.
_BUDGETS = (1, 10, 100, 1000, 5000, 10000, 20000)
_BUDGET_CUTS = {
    (6, "sym:4"): (
        [(24, 0), (24, 0), (170, 0), 24, 24, 24, 24],
        [(5, 0), (29, 0), 5, 5, 5, 5, 5]),
    (7, "dihedral:200"): (
        [(400, 0), (400, 0), (400, 0), (16698, 0), (16698, 0), (16698, 0), (23662, 359)],
        [(103, 0), (103, 0), (103, 0), (1115, 0), 103, 103, 103]),
    (8, "product:sym:5,cyclic:3"): (
        [(360, 0), (360, 0), (360, 0), (8166, 0), (8166, 0), (10369, 0), 360],
        [(21, 0), (21, 0), (381, 0), 21, 21, 21, 21]),
    (9, "product:sym:5,cyclic:2"): (
        [(240, 0), (240, 0), (240, 0), (5444, 0), (5444, 0), (11126, 149), 240],
        [(14, 0), (14, 0), (254, 0), 14, 14, 14, 14]),
}


@pytest.mark.parametrize("strands,spec", list(_BUDGET_CUTS))
def test_budget_cuts(strands, spec):
    pres, target = braid_presentation(strands), parse_group_spec(spec)
    for reduced, want in zip((False, True), _BUDGET_CUTS[strands, spec]):
        got = []
        for budget in _BUDGETS:
            try:
                got.append(sum(1 for _ in enumerate_homs(
                    pres, target, budget=budget, first_image_up_to_conjugacy=reduced)))
            except BudgetExceeded as cut:
                got.append((cut.nodes, cut.found))
        assert got == want


# --- the array checks against their scalar references -------------------------

def _assert_graph_matches_definition(g):
    # row x: the sorted members of x's class that commute with x, x among them
    graph, part = g._commuting_graph, conjugacy_classes(g)
    assert graph.rows.dtype == graph.members.dtype == g.table.dtype
    for x in range(g.order):
        cls = part.classes[part.class_of[x]]
        assert graph.members[graph.class_start[x]:graph.class_end[x]].tolist() == list(cls)
        row = graph.rows[graph.row_start[x]:graph.row_end[x]].tolist()
        assert row == sorted(y for y in cls if commutes(g, x, y))
        assert row[graph.row_self[x] - graph.row_start[x]] == x


class TestCommutingGraph:
    @pytest.mark.parametrize("block", [8, 56, groups._ASSOC_BLOCK])
    @pytest.mark.parametrize("spec", _ORACLE_TARGETS + ["sym:5"])
    def test_rows_match_scalar_reference(self, spec, block, monkeypatch):
        # the build compares class pairs in blocks of _ASSOC_BLOCK // 8 pairs
        monkeypatch.setattr(groups, "_ASSOC_BLOCK", block)
        _assert_graph_matches_definition(parse_group_spec(spec))

    @pytest.mark.parametrize("g", [g for g, _ in dense_corpus()], ids=lambda g: g.name)
    def test_dense_corpus(self, g):
        _assert_graph_matches_definition(g)

    @pytest.mark.parametrize("strands,spec,applicable", [
        (6, "dihedral:10", True),  # level 2 of S(G), then the pools of the homs
        (5, "semidirect:7,3,2", True),  # odd order: no level 2, the homs build it
        (5, "sym:3", False),  # S(G) = 2 is not below 2: no homs
    ])
    def test_braid_check_builds_it_once_per_target(self, strands, spec, applicable,
                                                   monkeypatch):
        built = []
        graph = groups._CommutingGraph
        monkeypatch.setattr(groups, "_CommutingGraph",
                            lambda **fields: built.append(spec) or graph(**fields))
        assert braid_cyclic_corollary_check(strands, parse_group_spec(spec)).applicable == applicable
        assert built == [spec]


def _center(g):
    return [x for x in range(g.order) if (g.table[x] == g.table[:, x]).all()]


class TestTableHomsMatchReference:
    @pytest.mark.parametrize("g", [g for g, _ in dense_corpus() if g.order >= 3],
                             ids=lambda g: g.name)
    def test_dense_corpus_and_planted_faults(self, g):
        q = quotient_hom(g, _center(g))
        assert q.mapping[g.identity] == 0
        for hom in (identity_hom(g), q):
            assert is_table_homomorphism(hom) and ref_is_table_homomorphism(hom)
            if hom.target.order == 1:
                continue
            # one changed entry breaks f(xa) = f(x) f(a) for some a outside {e, x}
            for x in (0, g.order // 2, g.order - 1):
                f = list(hom.mapping)
                f[x] = (f[x] + 1) % hom.target.order
                planted = TableHom(g, hom.target, tuple(f))
                assert not is_table_homomorphism(planted)
                assert not ref_is_table_homomorphism(planted)

    @pytest.mark.parametrize("source,target", [("sym:4", "sym:3"), ("sym:4", "dihedral:4"),
                                               ("semidirect:7,3,2", "sym:3")])
    def test_enumerated_maps(self, source, target):
        g, h = parse_group_spec(source), parse_group_spec(target)
        found = list(enumerate_table_homs(g, h))
        assert found and all(ref_is_table_homomorphism(hom) for hom in found)
        assert all(type(y) is int for hom in found for y in hom.mapping)


class TestBraidCensusMatchesReference:
    """The class census of the stream up to conjugacy (class-size weights,
    cyclic iff all generator images are equal, non-cyclic maps expanded to
    their conjugates) against closing every image of the full stream and
    scanning it for a generator."""

    @pytest.mark.parametrize("spec", _ORACLE_TARGETS + ["sym:5"])
    @pytest.mark.parametrize("strands", range(3, 8))
    def test_histogram_and_noncyclic_images(self, strands, spec):
        target = parse_group_spec(spec)
        got = homs._braid_class_census(
            enumerate_homs(braid_presentation(strands), target,
                           first_image_up_to_conjugacy=True), target)
        want = ref_braid_image_census(enumerate_homs(braid_presentation(strands), target))
        assert got == want
        assert all(type(k) is int for k in got[1])
        assert all(type(x) is int for images in got[2] for x in images)
