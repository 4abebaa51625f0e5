"""Acceptance suite: one test per criterion, each printing a pass/fail line
(visible with -s or -rA; pytest -v reports per-criterion PASSED/FAILED too).

Criteria are exact; stated runtime limits are asserted.
"""

import math
import time
from contextlib import contextmanager

import pytest

from tsslab import homs, tss, verify
from tsslab.groups import (
    conjugacy_classes,
    derived_series,
    make_cyclic,
    split_product_index,
)
from tsslab.specs import parse_group_spec
from tsslab.words import freegroup as f2


@contextmanager
def criterion(num, desc, limit_s, fixture_cost=0.0):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:2d}] FAIL  {desc}")
        raise
    elapsed = time.perf_counter() - start + fixture_cost
    print(f"[criterion {num:2d}] PASS  {elapsed:6.1f}s (limit {limit_s}s)  {desc}")
    assert elapsed < limit_s, f"criterion {num} exceeded its {limit_s}s budget"


@pytest.fixture(scope="module")
def product_survey():
    """Criterion 4 corpus, shared with criteria 5 and 6: every pair from
    {Z5, Z6, D6, D8, S3, S4} with product order <= 600, all TSS enumerated."""
    start = time.perf_counter()
    factor_specs = ["cyclic:5", "cyclic:6", "dihedral:3", "dihedral:4", "sym:3", "sym:4"]
    factors = {}
    for spec in factor_specs:
        g = parse_group_spec(spec)
        factors[spec] = (g, tss.max_tss_size(g).s_of_g)
    pairs = []
    for i, a in enumerate(factor_specs):
        for b in factor_specs[i:]:
            ga, sa = factors[a]
            gb, sb = factors[b]
            if ga.order * gb.order > 600:
                continue
            prod = parse_group_spec(f"product:{a},{b}")
            levels = list(tss.tss_by_size(prod))
            pairs.append({
                "left": a, "right": b,
                "left_group": ga, "right_group": gb,
                "s_left": sa, "s_right": sb,
                "product": prod, "s": len(levels),
                "certs": [c for level in levels for c in level],
            })
    return {"pairs": pairs, "build_s": time.perf_counter() - start}


@pytest.fixture(scope="module")
def dihedral_survey():
    start = time.perf_counter()
    out = []
    for n in range(3, 13):
        g = parse_group_spec(f"dihedral:{n}")
        levels = list(tss.tss_by_size(g))
        out.append({"n": n, "group": g, "levels": levels,
                    "certs": [c for level in levels for c in level]})
    return {"entries": out, "build_s": time.perf_counter() - start}


@pytest.fixture(scope="module")
def odd_survey():
    start = time.perf_counter()
    out = []
    for spec in verify.odd_order_corpus(500):
        g = parse_group_spec(spec)
        report = tss.max_tss_size(g)
        out.append({"spec": spec, "group": g, "report": report})
    return {"entries": out, "build_s": time.perf_counter() - start}


def test_criterion_01_dihedral_classification(dihedral_survey):
    with criterion(1, "dihedral classification n=3..12", 5,
                   fixture_cost=dihedral_survey["build_s"]):
        result = verify.verify_suite("dihedral")
        assert result.passed
        for entry in dihedral_survey["entries"]:
            n = entry["n"]
            assert len(entry["levels"]) == 2
            found = [c.elements for c in entry["levels"][1]]
            assert found == [tuple(p) for p in verify.predicted_dihedral_pairs(n)]
            reflection_sets = [s for s in found if s[0] >= n]
            assert bool(reflection_sets) == (n % 4 == 0)


def test_criterion_02_abelian_and_odd_order(odd_survey):
    with criterion(2, "S=1 for cyclics n<=50 and odd-order corpus <=500", 60,
                   fixture_cost=odd_survey["build_s"]):
        for n in range(1, 51):
            assert tss.max_tss_size(make_cyclic(n)).s_of_g == 1
        entries = odd_survey["entries"]
        assert len(entries) >= 55
        assert any(e["group"].order == 441 for e in entries)
        for entry in entries:
            assert entry["group"].order % 2 == 1
            assert entry["group"].order <= 500
            assert entry["report"].s_of_g == 1, entry["spec"]


def test_criterion_03_semidirect_proposition():
    with criterion(3, "semidirect S=2 grid incl (3,6,2), (5,20,2), (7,14,*)", 60):
        result = verify.verify_suite("semidirect")
        by_triple = {(i.params["p"], i.params["m"], i.params["k"]): i
                     for i in result.instances}
        assert by_triple[(3, 6, 2)].verdict == "pass"
        assert by_triple[(5, 20, 2)].verdict == "pass"
        # spec defect: (7,14,3) has no well-defined action (3^14 = 2 mod 7),
        # the constructor rejects it per its own contract; the valid
        # even-order instances for p=7 pass with S = 2.
        assert by_triple[(7, 14, 3)].verdict == "not-applicable"
        assert "no semidirect product exists" in by_triple[(7, 14, 3)].detail
        assert by_triple[(7, 14, 6)].verdict == "pass"
        assert by_triple[(7, 42, 3)].verdict == "pass"
        assert result.passed


def test_criterion_04_direct_product_theorem(product_survey):
    with criterion(4, "S(GxH)=max and coordinate structure, order<=600", 600,
                   fixture_cost=product_survey["build_s"]):
        assert len(product_survey["pairs"]) == 21
        for entry in product_survey["pairs"]:
            expected = max(entry["s_left"], entry["s_right"])
            assert entry["s"] == expected, (entry["left"], entry["right"])
            h_order = entry["right_group"].order
            for cert in entry["certs"]:
                if len(cert.elements) < 2:
                    continue
                firsts = [split_product_index(x, h_order)[0] for x in cert.elements]
                seconds = [split_product_index(x, h_order)[1] for x in cert.elements]
                assert len(set(firsts)) in (1, len(firsts))
                assert len(set(seconds)) in (1, len(seconds))
                if len(set(firsts)) == len(firsts) and len(set(seconds)) == len(seconds):
                    assert len(cert.elements) <= min(entry["s_left"], entry["s_right"])


def test_criterion_05_stabilizer_ses(product_survey, dihedral_survey):
    with criterion(5, "|Stab|=|kernel|*|realized| and |S|! | |Stab| on all TSS", 600):
        checked = 0
        for entry in dihedral_survey["entries"] + product_survey["pairs"]:
            g = entry.get("group") or entry["product"]
            for cert in entry["certs"]:
                dec = tss.realized_permutations(g, cert.elements)
                assert len(dec.stabilizer) == len(dec.kernel) * len(dec.realized)
                assert len(dec.stabilizer) % math.factorial(len(cert.elements)) == 0
                assert g.order % len(dec.stabilizer) == 0
                checked += 1
        assert checked > 2000


def test_criterion_06_solvable_bound(product_survey, odd_survey):
    with criterion(6, "solvable corpus has S<=4; S4 witnesses S=3", 600):
        s4 = parse_group_spec("sym:4")
        assert derived_series(s4).solvable
        assert tss.max_tss_size(s4).s_of_g == 3
        for entry in product_survey["pairs"]:
            g = entry["product"]
            if derived_series(g).solvable:
                assert entry["s"] <= 4
        for entry in odd_survey["entries"]:
            series = derived_series(entry["group"])
            assert series.solvable  # odd order implies solvable at these sizes
            assert entry["report"].s_of_g <= 4


def test_criterion_07_fundamental_lemma():
    with criterion(7, "fundamental lemma on identity/quotient/braid fixtures", 60):
        result = verify.verify_suite("fundamental-lemma")
        assert result.passed
        verdicts = {i.params["fixture"]: i.verdict for i in result.instances}
        assert verdicts == {
            "identity-d8": "pass",
            "identity-s4": "pass",
            "quotient-d8-r2": "pass",
            "quotient-s4-v": "pass",
            "braid-b4-s4": "pass",
            "sweep-s4-s3": "pass",
        }


def test_criterion_08_braid_corollary():
    with criterion(8, "B5 -> G21 and Z6: every homomorphism cyclic", 120):
        g21 = parse_group_spec("semidirect:7,3,2")
        report = homs.braid_cyclic_corollary_check(5, g21)
        assert report.applicable and report.all_cyclic
        assert report.hom_count == 21
        z6 = parse_group_spec("cyclic:6")
        report = homs.braid_cyclic_corollary_check(5, z6)
        assert report.applicable and report.all_cyclic
        assert report.hom_count == 6


def test_criterion_09_free_group():
    with criterion(9, "length<=8 exhaustive: no word ~ inverse, chains certified", 120):
        total = 0
        for length in range(1, 9):
            result = verify.verify_suite("free-group", grid=[{"length": length}])
            assert result.passed
            total += 4 * 3 ** (length - 1)
        assert total == 13120


def test_criterion_10_baumslag_solitar():
    with criterion(10, "BS(1,n) classification, n in {-3,-2,-1,2,3}, radius 4", 120):
        result = verify.verify_suite("baumslag-solitar", radius=4, bound=6)
        assert result.passed
        verdicts = {i.params["n"]: i.verdict for i in result.instances}
        assert verdicts[-1] == "pass"
        for n in (-3, -2, 2, 3):
            assert verdicts[n] == "exhausted(6)"


def test_criterion_11_oracle_equivalence():
    with criterion(11, "pruned enumerator == brute-force oracle, order<=24", 300):
        result = verify.verify_suite("oracle")
        assert result.passed
        assert all(i.verdict == "pass" for i in result.instances)
        assert len(result.instances) >= 25


def test_criterion_12_free_product():
    with criterion(12, "Z3*Z3 and D8*S3 commuting sets, syllable length<=4", 300):
        result = verify.verify_suite(
            "free-product",
            grid=[
                {"left": "cyclic:3", "right": "cyclic:3", "max_syllables": 4},
                {"left": "dihedral:4", "right": "sym:3", "max_syllables": 4},
            ],
        )
        assert result.passed
        for inst in result.instances:
            assert inst.verdict == "pass"
