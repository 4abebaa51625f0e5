"""Every failure branch of the S-claim, certificate and free-product suites,
reached by a planted fault and pinned as (verdict, detail, counterexample,
repro).

A fault is planted where ``verify`` sees it: its ``tss`` (or ``fp``) name is
replaced by a copy of the module with one function overridden, so the
library's own searches stay correct.
"""

from dataclasses import replace
from types import SimpleNamespace

import pytest

from tsslab import tss, verify
from tsslab.specs import parse_group_spec
from tsslab.tss import StabilizerDecomposition, TssCertificate


def plant(monkeypatch, name, **overrides):
    real = getattr(verify, name)
    monkeypatch.setattr(verify, name, SimpleNamespace(**{**vars(real), **overrides}))


def report_of(spec, **changes):
    """``max_tss_size`` that reports the group ``spec`` for every group."""
    report = replace(tss.max_tss_size(parse_group_spec(spec)), **changes)
    return lambda g, *args, **kwargs: report


def plant_level(size, elements):
    """``tss_by_size`` with a non-certified set prepended to level ``size``."""
    def by_size(g):
        levels = list(tss.tss_by_size(g))
        levels += [[] for _ in range(size - len(levels))]
        levels[size - 1] = [TssCertificate(g, elements), *levels[size - 1]]
        return iter(levels)
    return by_size


def run(theorem, params):
    inst = verify.verify_suite(theorem, grid=[params]).instances[0]
    return inst.verdict, inst.detail, inst.counterexample, inst.repro


D6_SET = {"elements": [1, 2], "labels": ["r", "r^2"], "witnesses": {"0-1": 3}}
S4_SET = {"elements": [7, 16, 23],
          "labels": ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"],
          "witnesses": {"0-1": 2, "1-2": 1}}


def test_abelian(monkeypatch):
    plant(monkeypatch, "tss", max_tss_size=report_of("dihedral:3"))
    assert run("abelian", {"n": 4}) == (
        "fail", "S(Z4) = 2", D6_SET, "tsslab tss max --group cyclic:4")


def test_odd_order(monkeypatch):
    plant(monkeypatch, "tss", max_tss_size=report_of("dihedral:3"))
    assert run("odd-order", {"group": "cyclic:5"}) == (
        "fail", "S(Z5) = 2", D6_SET, "tsslab tss max --group cyclic:5")


def test_odd_order_grid_with_even_order_is_not_applicable():
    assert run("odd-order", {"group": "cyclic:4"}) == (
        "not-applicable", "Z4 has even order", None, None)


def test_solvable(monkeypatch):
    plant(monkeypatch, "tss", max_tss_size=report_of("sym:4", s_of_g=5))
    assert run("solvable", {"group": "dihedral:4"}) == (
        "fail", "S(D8) = 5 > 4", S4_SET, "tsslab tss max --group dihedral:4")


def test_semidirect(monkeypatch):
    plant(monkeypatch, "tss", max_tss_size=report_of("sym:4"))
    assert run("semidirect", {"p": 3, "m": 6, "k": 2}) == (
        "fail", "S(SD(3,6,2)) = 3", {"counts": {"1": 24, "2": 13, "3": 1}},
        "tsslab tss max --group semidirect:3,6,2")


class TestDirectProduct:
    def test_wrong_product_size(self, monkeypatch):
        plant(monkeypatch, "tss", max_tss_size=report_of("sym:4"))
        assert run("direct-product", {"left": "cyclic:2", "right": "cyclic:3"}) == (
            "fail", "S(Z2xZ3) = 1, expected max(3,3) = 3",
            {"s_product": 1, "s_left": 3, "s_right": 3},
            "tsslab tss max --group product:cyclic:2,cyclic:3")

    def test_coordinate_structure(self, monkeypatch):
        # first coordinates 0, 0, 1: neither all equal nor all distinct
        plant(monkeypatch, "tss", tss_by_size=plant_level(3, (0, 1, 2)))
        assert run("direct-product", {"left": "sym:4", "right": "cyclic:2"}) == (
            "fail", "coordinate-structure corollary violated",
            {"elements": [0, 1, 2], "labels": ["(e,e)", "(e,g)", "((3 4),e)"],
             "witnesses": {}},
            "tsslab tss list --group product:sym:4,cyclic:2 --size 3")

    def test_doubly_distinct_above_min(self, monkeypatch):
        # (0, 0) and (1, 1) differ in both coordinates; min(S(Z2), S(S4)) = 1
        plant(monkeypatch, "tss", tss_by_size=plant_level(2, (0, 25)))
        assert run("direct-product", {"left": "cyclic:2", "right": "sym:4"}) == (
            "fail", "doubly-distinct TSS of size 2 > min(1,3)",
            {"elements": [0, 25], "labels": ["(e,e)", "(g,(3 4))"], "witnesses": {}},
            "tsslab tss list --group product:cyclic:2,sym:4 --size 2")


def test_inverse_pair(monkeypatch):
    plant(monkeypatch, "tss", tss_by_size=plant_level(3, (1, 2, 5)))
    assert run("inverse-pair", {"group": "cyclic:6"}) == (
        "fail", "TSS with an inverse pair has size 3",
        {"elements": [1, 2, 5], "labels": ["g", "g^2", "g^5"], "witnesses": {}},
        "tsslab tss list --group cyclic:6 --size 3")


class TestStabilizerSes:
    PARAMS = {"group": "dihedral:4", "samples": 5, "seed": 0}

    def test_identity_on_a_tss(self, monkeypatch):
        plant(monkeypatch, "tss", realized_permutations=lambda g, s: StabilizerDecomposition(
            tuple(range(g.order)), (), {}))
        assert run("stabilizer-ses", self.PARAMS) == (
            "fail", "|Stab| != |kernel| * |realized| on a TSS",
            {"elements": [0], "labels": ["e"], "witnesses": {}},
            "tsslab stab decompose --group dihedral:4 --elements 0")

    def test_factorial_on_a_tss(self, monkeypatch):
        real = tss.realized_permutations

        def realized(g, s):
            if len(s) < 2:
                return real(g, s)
            return StabilizerDecomposition((0,), (0,), {tuple(range(len(s))): 0})

        plant(monkeypatch, "tss", realized_permutations=realized)
        assert run("stabilizer-ses", self.PARAMS) == (
            "fail", "2! does not divide |Stab|",
            {"elements": [1, 3], "labels": ["r", "r^3"], "witnesses": {"0-1": 4}},
            "tsslab stab decompose --group dihedral:4 --elements 1,3")

    def test_identity_on_a_sample(self, monkeypatch):
        plant(monkeypatch, "tss", tss_by_size=lambda g: iter([]),
              realized_permutations=lambda g, s: StabilizerDecomposition(
                  tuple(range(g.order)), (), {}))
        assert run("stabilizer-ses", self.PARAMS) == (
            "fail", "|Stab| != |kernel| * |realized| on a sampled set",
            {"elements": [0, 2, 4, 6]},
            "tsslab stab decompose --group dihedral:4 --elements 0,2,4,6")


class TestFreeProduct:
    PARAMS = {"left": "dihedral:4", "right": "cyclic:2", "max_syllables": 1}

    def test_above_factor_bound(self, monkeypatch):
        plant(monkeypatch, "tss", max_tss_size=report_of("cyclic:2"))
        assert run("free-product", self.PARAMS) == (
            "fail", "TSS of size 2 > max factor bound 1",
            {"words": ["[G:1]", "[G:3]"]},
            "tsslab word fp --factors 'dihedral:4,cyclic:2' analyze '[G:1]' '[G:3]'")

    def test_not_a_factor_set(self, monkeypatch):
        real = verify.fp.fp_tss_analyze
        plant(monkeypatch, "fp", fp_tss_analyze=lambda clique: replace(
            real(clique), classification="powers"))
        assert run("free-product", self.PARAMS) == (
            "fail", "certified TSS does not reduce to a factor: powers",
            {"words": ["[G:1]", "[G:3]"]},
            "tsslab word fp --factors 'dihedral:4,cyclic:2' analyze '[G:1]' '[G:3]'")

    def test_root_family_that_fails_its_check(self, monkeypatch):
        # two root families merged into one: the suite raises, it does not pass
        real = verify.fp.fp_families

        def merged(*args):
            families = real(*args)
            i = next(i for i, f in enumerate(families) if f.roots is not None)
            a, b = families[i:i + 2]
            both = a._replace(members=a.members + b.members, roots=a.roots + b.roots)
            return families[:i] + [both] + families[i + 2:]

        plant(monkeypatch, "fp", fp_families=merged)
        with pytest.raises(ValueError, match="^elements do not commute: "):
            run("free-product", {**self.PARAMS, "max_syllables": 2})
