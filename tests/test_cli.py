import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import jsonschema
import pytest

import tsslab
from tsslab import cli, homs, verify
from tsslab.cli import main
from tsslab.groups import GroupError
from tsslab.specs import parse_group_spec
from tsslab.verify import GRID_RANGE_CAP, _parse_ints, verify_suite
from tsslab.schemas import SUITE_RESULT_SCHEMA, TSS_REPORT_SCHEMA, HOM_REPORT_SCHEMA
from tsslab.words import baumslag as bs


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTss:
    def test_dihedral_max(self, capsys):
        code, out, _ = run(capsys, "tss", "max", "--group", "dihedral:7")
        assert code == 0
        assert "s_of_g: 2" in out

    def test_json_validates_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "tss", "max", "--group", "sym:4")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, TSS_REPORT_SCHEMA)
        assert doc["s_of_g"] == 3

    def test_list_and_check(self, capsys):
        code, out, _ = run(capsys, "tss", "list", "--group", "dihedral:4", "--size", "2")
        assert code == 0 and "3 TSS" in out
        code, out, _ = run(capsys, "tss", "check", "--group", "dihedral:4",
                           "--elements", "1,3")
        assert code == 0 and "TSS" in out
        code, out, _ = run(capsys, "tss", "check", "--group", "sym:4",
                           "--elements", "1,2")
        assert code == 0 and "not a TSS" in out

    def test_up_to_conjugacy(self, capsys):
        _, verbatim, _ = run(capsys, "tss", "list", "--group", "sym:4", "--size", "2")
        _, dedup, _ = run(capsys, "tss", "list", "--group", "sym:4", "--size", "2",
                          "--up-to-conjugacy")
        assert "13 TSS" in verbatim and "4 TSS" in dedup


class TestGroup:
    def test_build_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "d8.cayley"
        code, _, _ = run(capsys, "group", "build", "--spec", "dihedral:4",
                         "--to", str(path))
        assert code == 0
        code, out, _ = run(capsys, "tss", "max", "--group", f"file:{path}")
        assert code == 0 and "s_of_g: 2" in out

    def test_info(self, capsys):
        code, out, _ = run(capsys, "group", "info", "--spec", "sym:4")
        assert code == 0
        assert "solvable: True" in out
        assert "order: 24" in out

    def test_product_spec_nesting(self, capsys):
        code, out, _ = run(capsys, "group", "info", "--spec",
                           "product:semidirect:3,6,2,cyclic:5")
        assert code == 0 and "order: 90" in out

    def test_bad_spec_exits_2(self, capsys):
        code, _, err = run(capsys, "tss", "max", "--group", "nosuch:1")
        assert code == 2 and "unknown group spec" in err


class TestStab:
    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "stab", "decompose", "--group", "sym:4",
                           "--elements", "1,6")
        assert code == 0
        assert "|stabilizer| = 8" in out and "4 * 2 = 8" in out


class TestHom:
    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "hom", "enumerate", "--presentation", "braid:3",
                           "--target", "cyclic:6")
        assert code == 0 and "6 homomorphisms" in out

    def test_budget_exit_3(self, capsys):
        code, _, err = run(capsys, "--budget", "5", "hom", "enumerate",
                           "--presentation", "braid:4", "--target", "sym:4")
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("presentation", ["braid:x", "braid:", "braid", "free:2"])
    def test_bad_presentation(self, capsys, presentation):
        code, _, err = run(capsys, "hom", "enumerate", "--presentation", presentation,
                           "--target", "sym:3")
        assert code == 2 and "braid:N" in err and "invalid literal" not in err

    def test_negative_limit(self, capsys):
        code, out, err = run(capsys, "hom", "enumerate", "--presentation", "braid:3",
                             "--target", "sym:3", "--limit", "-1")
        assert code == 2 and "--limit" in err and "more" not in out

    def test_braid_check_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "hom", "braid-check",
                           "--strands", "5", "--target", "cyclic:6")
        assert code == 0
        doc = json.loads(out)
        jsonschema.validate(doc, HOM_REPORT_SCHEMA)
        assert doc["all_cyclic"] is True

    @pytest.fixture
    def planted_noncyclic(self, monkeypatch):
        """A search that yields one non-cyclic map, (1, 2, 1, 2), and one
        cyclic map, (2, 2, 2, 2), whatever it is asked."""
        def planted(pres, target, **kwargs):
            for images in [(1, 2, 1, 2), (2, 2, 2, 2)]:
                yield homs.GeneratorImageMap(pres, target, images)

        monkeypatch.setattr(homs, "enumerate_homs", planted)

    def test_braid_check_reports_a_planted_noncyclic_image(self, planted_noncyclic, capsys):
        argv = ["hom", "braid-check", "--strands", "5", "--target", "cyclic:6"]
        code, out, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "non-cyclic image: generator images (1, 2, 1, 2)",
            "2 homomorphisms B_5 -> Z6",
            "image order histogram: {3: 1, 6: 1}",
            "all cyclic: False",
        ]
        code, out, _ = run(capsys, "--format", "json", *argv)
        doc = json.loads(out)
        jsonschema.validate(doc, HOM_REPORT_SCHEMA)
        assert code == 1 and doc["noncyclic_images"] == [[1, 2, 1, 2]]
        assert (doc["hom_count"], doc["all_cyclic"]) == (2, False)


class TestWord:
    def test_f2(self, capsys):
        code, out, _ = run(capsys, "word", "f2", "reduce", "abBA")
        assert code == 0 and out.strip() == "e"
        code, out, _ = run(capsys, "word", "f2", "conjugate", "ab", "ba")
        assert "yes" in out
        code, out, _ = run(capsys, "word", "f2", "obstruction", "abab")
        assert "no size-2 TSS: True" in out

    def test_bs(self, capsys):
        code, out, _ = run(capsys, "word", "bs", "--n", "-1", "swap",
                           "a^3/-1^0 b^0", "a^-3/-1^0 b^0")
        assert code == 0 and "witness" in out
        code, out, _ = run(capsys, "word", "bs", "--n", "2", "mul",
                           "a^1/2^0 b^1", "a^1/2^0 b^0")
        assert out.strip() == "a^3/2^0 b^1"

    @pytest.mark.parametrize("argv,expected", [
        (["bs", "--n", "2", "mul"], "word bs mul expects one or more words, got 0"),
        (["bs", "--n", "2", "swap", "a^1/2^0 b^0"], "word bs swap expects 2 words, got 1"),
        (["bs", "--n", "2", "commutes", "a^1/2^0 b^0"],
         "word bs commutes expects 2 words, got 1"),
        (["bs", "--n", "2", "commutes", "a^1/2^0 b^0", "a^1/2^0 b^0", "a^1/2^0 b^0"],
         "word bs commutes expects 2 words, got 3"),
        (["bs", "--n", "2", "inverse"], "word bs inverse expects 1 word, got 0"),
        (["bs", "--n", "2", "classify", "a^1/2^0 b^0"], "word bs classify expects no words, got 1"),
        (["f2", "commutes", "ab"], "word f2 commutes expects 2 words, got 1"),
        (["f2", "conjugate", "ab"], "word f2 conjugate expects 2 words, got 1"),
        (["f2", "conjugate", "ab", "ba", "ab"], "word f2 conjugate expects 2 words, got 3"),
        (["f2", "reduce", "ab", "ba"], "word f2 reduce expects 1 word, got 2"),
        (["f2", "mul"], "word f2 mul expects one or more words, got 0"),
        (["fp", "--factors", "cyclic:3,cyclic:3", "inverse", "[G:1]", "[G:2]"],
         "word fp inverse expects 1 word, got 2"),
        (["fp", "--factors", "cyclic:3,cyclic:3", "analyze"],
         "word fp analyze expects one or more words, got 0"),
    ])
    def test_word_count(self, capsys, argv, expected):
        code, out, err = run(capsys, "word", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {expected}\n"

    def test_bs_classify_bad_bound_every_n(self, capsys):
        for n in ("1", "-1", "2"):
            code, _, err = run(capsys, "word", "bs", "--n", n, "classify", "--bound", "0")
            assert code == 2 and "bound must be >= 1, got 0" in err

    def test_fp(self, capsys):
        code, out, _ = run(capsys, "word", "fp", "--factors", "dihedral:4,sym:3",
                           "analyze", "[G:1]", "[G:3]")
        assert code == 0 and "TSS: True" in out
        code, out, _ = run(capsys, "word", "fp", "--factors", "cyclic:3,cyclic:3",
                           "reduce", "[G:1][G:2]")
        assert out.strip() == "e"


class TestVerify:
    def test_dihedral_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "dihedral", "--grid", "3-6")
        assert code == 0 and "PASS" in out

    def test_fail_exit_1(self, capsys, monkeypatch):
        # a planted wrong prediction: the classification found no longer matches
        monkeypatch.setattr(verify, "predicted_dihedral_pairs", lambda n: [(0, 1)])
        code, out, _ = run(capsys, "verify", "dihedral", "--grid", "3")
        assert code == 1 and "FAIL" in out

    def test_json_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "abelian",
                           "--grid", "3,5")
        assert code == 0
        jsonschema.validate(json.loads(out), SUITE_RESULT_SCHEMA)

    def test_artifacts_written(self, capsys, tmp_path):
        code, _, _ = run(capsys, "--out", str(tmp_path), "verify", "abelian",
                         "--grid", "4")
        assert code == 0
        doc = json.loads((tmp_path / "abelian.json").read_text())
        jsonschema.validate(doc, SUITE_RESULT_SCHEMA)

    def test_jobs_deterministic(self, capsys):
        _, seq, _ = run(capsys, "verify", "abelian", "--grid", "2,3,4")
        _, par, _ = run(capsys, "--jobs", "2", "verify", "abelian", "--grid", "2,3,4")
        strip = lambda s: [l.split(" - ")[0] for l in s.splitlines() if l.startswith("  ")]
        assert strip(seq) == strip(par)

    @pytest.mark.parametrize("theorem", sorted(verify.THEOREMS))
    def test_default_suite_json_same_under_two_jobs(self, capsys, theorem):
        outs = []
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "--jobs", jobs, "--format", "json", "verify", theorem)
            outs.append((code, re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', out), err))
        assert outs[0] == outs[1] and outs[0][0] == 0

    def test_semidirect_defect_flagged(self, capsys):
        code, out, _ = run(capsys, "verify", "semidirect")
        assert code == 0
        assert "not-applicable" in out and "no semidirect product exists" in out

    @pytest.mark.parametrize("argv", [
        ["baumslag-solitar", "--bound", "0"],
        ["baumslag-solitar", "--grid", "1", "--bound", "0"],
        ["baumslag-solitar", "--grid", "-1", "--radius", "0"],
    ])
    def test_baumslag_bad_bound_or_radius(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert code == 2 and "PASS" not in out and "must be >= 1, got 0" in err

    @pytest.mark.parametrize("grid,ns", [
        ("-3--1", [-3, -2, -1]),
        ("-1;2", [-1, 2]),
        ("-2,3", [-2, 3]),
    ])
    def test_grid_starting_with_a_dash(self, capsys, grid, ns):
        # a separate value that starts with "-" reads the same as the "=" form
        outs = []
        for argv in (["--grid", grid], [f"--grid={grid}"]):
            code, out, err = run(capsys, "--format", "json", "verify", "baumslag-solitar",
                                 *argv)
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert [inst["params"]["n"] for inst in doc["instances"]] == ns
            for d in [doc, *doc["instances"]]:
                d.pop("elapsed_s")
            outs.append(doc)
        assert outs[0] == outs[1]

    def test_grid_value_that_is_an_option_is_not_joined(self, capsys):
        code, out, err = run(capsys, "verify", "baumslag-solitar", "--grid", "--radius", "2")
        assert (code, out) == (2, "") and "argument --grid: expected one argument" in err

    @pytest.mark.parametrize("argv", [
        ["odd-order", "--max-order", "-5"],
        ["dihedral", "--grid", ","],
        ["free-group", "--max-len", "0"],
        ["oracle", "--grid", " ; "],
    ])
    def test_empty_grid_exits_2(self, capsys, argv):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: verify {argv[0]}: the grid has no instances\n"

    def test_grid_defaults_match_default_grid(self, capsys):
        # a --grid instance carries the same defaults as the default grid
        _, default, _ = run(capsys, "--format", "json", "verify", "stabilizer-ses")
        _, grid, _ = run(capsys, "--format", "json", "verify", "stabilizer-ses",
                         "--grid", "cyclic:6")
        assert json.loads(grid)["instances"][0]["params"] == \
            json.loads(default)["instances"][0]["params"]

    @pytest.mark.parametrize("theorem,given,options,params", [
        ("baumslag-solitar", {"n": 2}, {}, {"n": 2, "radius": 4, "bound": 6}),
        ("baumslag-solitar", {"n": -1, "bound": 3}, {"radius": 2, "bound": 5},
         {"n": -1, "bound": 3, "radius": 2}),
        ("free-product", {"left": "cyclic:2", "right": "cyclic:2"}, {},
         {"left": "cyclic:2", "right": "cyclic:2", "max_syllables": 4}),
        ("stabilizer-ses", {"group": "cyclic:6"}, {"seed": 3},
         {"group": "cyclic:6", "samples": 20, "seed": 3}),
        ("fundamental-lemma", {"fixture": "identity-d8"}, {},
         {"fixture": "identity-d8", "expect": "same_size"}),
        ("fundamental-lemma", {"fixture": "sweep-s4-s3", "budget": 10**6}, {},
         {"fixture": "sweep-s4-s3", "expect": "sweep", "budget": 10**6}),
    ])
    def test_library_grid_takes_defaults(self, theorem, given, options, params):
        # grid params a caller leaves out come from the options or the defaults
        result = verify_suite(theorem, grid=[given], **options)
        assert result.passed
        assert [i.params for i in result.instances] == [params]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "--format", "csv", "verify", "abelian", "--grid", "5")
        assert code == 0
        assert out.splitlines()[0] == "params,verdict,detail"

    @pytest.mark.parametrize("grid", [[], ["--grid", "5+cyclic:6"]])
    def test_budget_reaches_braid_corollary(self, capsys, grid):
        code, _, err = run(capsys, "--budget", "10", "verify", "braid-corollary", *grid)
        assert code == 3 and "budget" in err

    @pytest.mark.parametrize("argv", [
        ["verify", "no-injection"],
        ["verify", "no-injection", "--grid", "sym:4+dihedral:4"],
        ["verify", "fundamental-lemma"],
    ])
    def test_budget_reaches_table_homs(self, capsys, argv):
        code, _, err = run(capsys, "--budget", "10", *argv)
        assert code == 3 and "budget" in err

    def test_budget_exceeded_in_worker(self, capsys):
        code, _, err = run(capsys, "--jobs", "2", "--budget", "10", "verify",
                           "braid-corollary")
        assert code == 3 and "budget" in err and "Traceback" not in err


class TestTable:
    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "table")
        _, second, _ = run(capsys, "table")
        assert first == second
        assert "Dihedral" in first

    def test_json(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "table")
        doc = json.loads(out)
        assert {"s", "family"} <= set(doc["rows"][0])

    @pytest.mark.parametrize("verdict", ["fail", "not-applicable"])
    def test_a_row_whose_instance_does_not_pass_prints_a_question_mark(
            self, capsys, monkeypatch, verdict):
        planted = replace(verify.THEOREMS["dihedral"],
                          runner=lambda params: verify.SuiteInstance(params, verdict, "planted"))
        monkeypatch.setitem(verify.THEOREMS, "dihedral", planted)
        code, out, err = run(capsys, "--format", "json", "table")
        assert code == 1 and err == ""
        cells = {row["family"]: row["s"] for row in json.loads(out)["rows"]}
        assert cells["Dihedral (D10)"] == "?" and cells["Abelian (Z12)"] == "1"

    def test_every_cell_comes_from_a_suite_run(self, monkeypatch):
        results = []
        suite = verify.verify_suite

        def spy(theorem, grid=None, **kwargs):
            results.append(suite(theorem, grid, **kwargs))
            return results[-1]

        monkeypatch.setattr(verify, "verify_suite", spy)
        rows = verify.table_rows()
        assert [r.theorem for r in results] == [t for t, *_ in verify.TABLE_ROSTER]
        assert [s for s, _ in rows] == [cell.format(max(i.value for i in r.instances))
                                        for r, (*_, cell) in zip(results, verify.TABLE_ROSTER)]
        # the F2 row covers every length up to 4, not only length 4
        f2 = results[1]
        assert [i.params["length"] for i in f2.instances] == [1, 2, 3, 4]
        assert [i.verdict for i in f2.instances] == ["pass"] * 4


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["bogus"]) == 2

    def test_bad_elements(self, capsys):
        code, _, err = run(capsys, "tss", "check", "--group", "cyclic:4",
                           "--elements", "1,x")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-3", "x"])
    def test_bad_jobs(self, capsys, jobs):
        code, _, err = run(capsys, "--jobs", jobs, "table")
        assert code == 2 and "positive integer" in err

    def test_bad_jobs_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TSSLAB_JOBS", "abc")
        code, _, err = run(capsys, "table")
        assert code == 2 and "TSSLAB_JOBS" in err and "Traceback" not in err

    @pytest.mark.parametrize("theorem,grid,syntax", [
        ("semidirect", "3,6", "'p,m,k'"),
        ("abelian", "x-3", "'3-12'"),
        ("direct-product", "cyclic:2", "<spec>+<spec>"),
        ("braid-corollary", "x+sym:5", "<strands>+<spec>"),
    ])
    def test_bad_grid(self, capsys, theorem, grid, syntax):
        code, _, err = run(capsys, "verify", theorem, "--grid", grid)
        assert code == 2 and syntax in err
        assert "unpack" not in err and "invalid literal" not in err

    @pytest.mark.parametrize("budget", ["0", "-5", "x"])
    def test_bad_budget(self, capsys, budget):
        code, _, err = run(capsys, "--budget", budget, "hom", "enumerate",
                           "--presentation", "braid:3", "--target", "sym:3")
        assert code == 2 and "--budget" in err and "positive integer" in err

    def test_fundamental_lemma_grid(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "verify", "fundamental-lemma",
                           "--grid", "braid-b4-s4; identity-d8")
        doc = json.loads(out)
        assert code == 0 and doc["passed"]
        assert [i["params"]["fixture"] for i in doc["instances"]] == ["braid-b4-s4", "identity-d8"]

    def test_fundamental_lemma_grid_budget(self, capsys):
        code, _, err = run(capsys, "--budget", "10", "verify", "fundamental-lemma",
                           "--grid", "sweep-s4-s3")
        assert code == 3 and "budget" in err

    def test_unknown_fundamental_lemma_fixture(self, capsys):
        code, _, err = run(capsys, "verify", "fundamental-lemma", "--grid", "identity-d8;x")
        assert code == 2 and "unknown fundamental-lemma fixture 'x'" in err
        assert "identity-d8, identity-s4, quotient-d8-r2" in err and "sweep-s4-s3" in err

    def test_grid_negative_range(self):
        assert _parse_ints("-3--1,2-3") == [-3, -2, -1, 2, 3]

    def test_grid_range_cap(self, capsys):
        too_long = f"1-{GRID_RANGE_CAP + 1}"
        code, _, err = run(capsys, "verify", "abelian", "--grid", too_long)
        assert code == 2 and repr(too_long) in err and str(GRID_RANGE_CAP) in err

    def test_bad_factor_pair(self, capsys):
        code, _, err = run(capsys, "word", "fp", "--factors", "cyclic:3",
                           "reduce", "[G:1]")
        assert code == 2 and "'<spec>,<spec>'" in err


class TestNoVacuousPass:
    """A size option below its least meaningful value exits 2 instead of
    passing over an empty ball or sample."""

    @pytest.mark.parametrize("argv,message", [
        (["free-product", "--max-syllables", "-1"], "max_syllables must be >= 1, got -1"),
        (["free-product", "--max-syllables", "0"], "max_syllables must be >= 1, got 0"),
        (["free-product", "--grid", "cyclic:2+cyclic:3", "--max-syllables", "0"],
         "max_syllables must be >= 1, got 0"),
        (["stabilizer-ses", "--samples", "-3"], "samples must be >= 0, got -3"),
        (["stabilizer-ses", "--grid", "cyclic:4", "--samples", "-1"],
         "samples must be >= 0, got -1"),
        (["free-group", "--grid", "-1"], "length must be >= 1, got -1"),
        (["free-group", "--grid", "0"], "length must be >= 1, got 0"),
        (["semidirect", "--grid", "0,2,1"], "p=0 is not prime"),
        (["semidirect", "--grid", "1,2,1"], "p=1 is not prime"),
        (["semidirect", "--grid", "-3,2,1"], "p=-3 is not prime"),
        (["dihedral", "--grid", "1,2,3"], "n must be >= 3, got 1"),
        (["dihedral", "--grid", "3,2"], "n must be >= 3, got 2"),
    ])
    def test_cli_exits_2(self, capsys, argv, message):
        code, out, err = run(capsys, "verify", *argv)
        assert (code, out) == (2, "") and err == f"error: {message}\n"

    def test_zero_samples_still_checks_every_tss(self, capsys):
        code, out, _ = run(capsys, "verify", "stabilizer-ses", "--grid", "cyclic:6",
                           "--samples", "0")
        assert code == 0 and "SES identity held on 6 sets" in out

    @pytest.mark.parametrize("theorem,params,message", [
        ("free-product", {"left": "cyclic:2", "right": "cyclic:3", "max_syllables": -1},
         "max_syllables must be >= 1, got -1"),
        ("stabilizer-ses", {"group": "cyclic:6", "samples": -3, "seed": 0},
         "samples must be >= 0, got -3"),
        ("free-group", {"length": -1}, "length must be >= 1, got -1"),
        ("free-group", {"length": 0}, "length must be >= 1, got 0"),
        ("fundamental-lemma", {"fixture": "sweep-s4-s3", "expect": "collapsed"},
         "expect 'collapsed' does not match fixture 'sweep-s4-s3', whose branch is 'sweep'"),
        ("fundamental-lemma", {"fixture": "identity-d8", "expect": "collapsed"},
         "expect 'collapsed' does not match fixture 'identity-d8', whose branch is "
         "'same_size'"),
        ("semidirect", {"p": 0, "m": 2, "k": 1}, "p=0 is not prime"),
        ("semidirect", {"p": 1, "m": 2, "k": 1}, "p=1 is not prime"),
        ("semidirect", {"p": -3, "m": 2, "k": 1}, "p=-3 is not prime"),
        ("semidirect", {"p": 7, "m": 0, "k": 3}, "m=0 must be positive"),
        ("semidirect", {"p": 7, "m": 14, "k": 7}, "k=7 must satisfy 1 <= k < p=7"),
    ])
    def test_library_raises(self, theorem, params, message):
        with pytest.raises(ValueError) as info:
            verify_suite(theorem, grid=[params])
        assert str(info.value) == message


# "\u0663" is an Arabic-Indic digit that int() reads as 3; "\u00b3" is a
# superscript digit that str.isdigit() accepts and int() rejects.
_BOUNDARY = ["0", "-1", str(2**63), "", "\u0663", "\u00b3", "1+x,"]


def _sweep_cases():
    """(argv, names) for each boundary value in --grid and in each declared
    option of each suite; an exit-2 message must name one of ``names``."""
    for theorem, spec in sorted(verify.THEOREMS.items()):
        fields = ["--grid", "grid", *(f.key for f in spec.fields)]
        cases = [(["verify", theorem, "--grid", value], fields) for value in _BOUNDARY]
        for option in spec.options:
            flag = "--" + option.key.replace("_", "-")
            # an option that sizes the default grid may leave it empty
            names = [flag, option.key, *(["grid"] if option.grid_only else [])]
            cases += [([flag, value, "verify", theorem] if flag in ("--budget", "--seed")
                       else ["verify", theorem, flag, value], names) for value in _BOUNDARY]
        yield from (pytest.param(argv, names, id=" ".join(argv)) for argv, names in cases)


class TestBoundarySweep:
    """Every suite, crossed with boundary values in --grid and in each option
    it declares, ends in exit 0, 2 or 3 with no traceback, and an exit-2
    message names the grid, the field or the option.  In-process with
    --jobs 1, so no worker pool starts."""

    @pytest.mark.parametrize("argv,names", list(_sweep_cases()))
    def test_exit_code_and_message(self, capsys, argv, names):
        code, _, err = run(capsys, "--jobs", "1", *argv)
        assert code in (0, 2, 3) and "Traceback" not in err
        if code == 2:
            assert any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", err) for n in names), err


_MISSING_FILE = "file:no-such-dir/group.cayley"
_V = None  # where a command takes the boundary value
# (argv, the option it sets): the value takes the place of _V, or of the "{}"
# inside an argument
_COMMANDS = [
    (["tss", "max", "--group", _V], "--group"),
    (["tss", "list", "--group", _V, "--size", "2"], "--group"),
    (["tss", "list", "--group", "sym:3", "--size", _V], "--size"),
    (["tss", "check", "--group", _V, "--elements", "1,2"], "--group"),
    (["tss", "check", "--group", "sym:3", "--elements", _V], "--elements"),
    (["stab", "decompose", "--group", _V, "--elements", "1"], "--group"),
    (["stab", "decompose", "--group", "sym:3", "--elements", _V], "--elements"),
    (["group", "info", "--group", _V], "--group"),
    (["hom", "enumerate", "--presentation", "braid:{}", "--target", "sym:3"], "--presentation"),
    (["hom", "enumerate", "--presentation", "braid:3", "--target", _V], "--target"),
    (["hom", "enumerate", "--presentation", "braid:3", "--target", "sym:3", "--limit", _V],
     "--limit"),
    (["hom", "braid-check", "--strands", _V, "--target", "cyclic:2"], "--strands"),
    (["hom", "braid-check", "--strands", "5", "--target", _V], "--target"),
    (["word", "f2", "obstruction", _V], "word"),  # F2 takes words only
    (["word", "bs", "--n", _V, "classify"], "--n"),
    (["word", "bs", "--n", "2", "classify", "--radius", _V], "--radius"),
    (["word", "bs", "--n", "2", "classify", "--bound", _V], "--bound"),
    (["word", "bs", "--n", "2", "swap", "a^1/2^0 b^0", "a^2/2^0 b^0", "--bound", _V], "--bound"),
    (["word", "fp", "--factors", "{},cyclic:2", "analyze", "[G:1]"], "--factors"),
]


def _command_sweep_cases():
    """(argv, names) for each boundary value, and a missing file, in each
    option of the commands outside ``verify``.  A message names the value
    when it quotes it; a word's message may name only its first bad letter."""
    for template, option in _COMMANDS:
        for value in [*_BOUNDARY, _MISSING_FILE]:
            argv = [value if arg is _V else arg.replace("{}", value) for arg in template]
            names = [option, option.lstrip("-"), repr(value), *([value] if value else []),
                     *(["letter"] if option == "word" else [])]
            yield pytest.param(argv, names, id=" ".join(argv))


class TestCommandBoundarySweep:
    """The sweep of TestBoundarySweep over ``tss``, ``stab``, ``group``,
    ``hom`` and ``word``: exit 0, 2 or 3, no traceback, and an exit-2 message
    that names the option or the value.  Sizes that would allocate without
    bound are capped in the library, so every case ends at once."""

    @pytest.mark.parametrize("argv,names", list(_command_sweep_cases()))
    def test_exit_code_and_message(self, capsys, argv, names):
        code, _, err = run(capsys, "--jobs", "1", *argv)
        assert code in (0, 2, 3) and "Traceback" not in err
        if code == 2:
            assert any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", err) for n in names), err


# The order cap + 1 for each spec family (sym:9 is past the degree cap too).
_OVER_THE_CAP = ["cyclic:20001", "dihedral:10001", "semidirect:2,10001,1", "sym:8", "sym:9",
                 "product:cyclic:142,cyclic:142"]


class TestOrderCapSweep:
    """Each option that takes a group spec, given a group just past the cap,
    exits 2 with the library's message and no traceback."""

    @pytest.mark.parametrize("spec", _OVER_THE_CAP)
    @pytest.mark.parametrize("template", [t for t, option in _COMMANDS
                                          if option in ("--group", "--target")],
                             ids=lambda t: " ".join(a for a in t if a is not _V))
    def test_exits_2_with_the_cap_message(self, capsys, template, spec):
        with pytest.raises(GroupError, match="cap") as info:
            parse_group_spec(spec)
        argv = [spec if arg is _V else arg for arg in template]
        assert run(capsys, "--jobs", "1", *argv) == (2, "", f"error: {info.value}\n")


class TestInputChecks:
    """Caps checked in the library before anything is built, integers read
    as ``int`` reads them, ``--budget`` refused where nothing counts it, and
    ``--out`` where nothing is written."""

    @pytest.mark.parametrize("argv,message", [
        (["hom", "braid-check", "--strands", "100000", "--target", "cyclic:2"],
         f"braid group strands must be <= {homs.BRAID_STRAND_CAP}, got 100000"),
        (["hom", "enumerate", "--presentation", "braid:100000", "--target", "cyclic:2"],
         f"braid group strands must be <= {homs.BRAID_STRAND_CAP}, got 100000"),
        (["word", "bs", "--n", "2", "classify", "--radius", "100000"],
         "radius must be <= 20, got 100000"),
        (["tss", "max", "--group", "cyclic:\u00b3"], "expected an integer at '\u00b3'"),
        (["--budget", "10", "tss", "max", "--group", "sym:5"], "tss takes no --budget"),
        (["--budget", "10", "group", "info", "--spec", "sym:3"], "group takes no --budget"),
        (["--budget", "10", "stab", "decompose", "--group", "sym:3", "--elements", "1"],
         "stab takes no --budget"),
        (["--budget", "10", "word", "f2", "reduce", "ab"], "word takes no --budget"),
        (["--budget", "10", "table"], "table takes no --budget"),
        (["--out", "out", "tss", "max", "--group", "sym:3"], "tss takes no --out"),
        (["--out", "out", "group", "info", "--spec", "sym:3"], "group takes no --out"),
        (["--out", "out", "stab", "decompose", "--group", "sym:3", "--elements", "1"],
         "stab takes no --out"),
        (["--out", "out", "word", "f2", "reduce", "ab"], "word takes no --out"),
        (["--out", "out", "table"], "table takes no --out"),
        (["--out", "out", "hom", "enumerate", "--presentation", "braid:3",
          "--target", "cyclic:2"], "hom enumerate takes no --out"),
    ])
    def test_exit_2_before_any_work(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_caps_live_in_the_library(self):
        with pytest.raises(homs.HomError, match="strands must be <= 1000, got 1001"):
            homs.braid_presentation(homs.BRAID_STRAND_CAP + 1)
        with pytest.raises(ValueError, match="radius must be <= 20, got 21"):
            bs.bs_classification_check(2, bs.RADIUS_CAP + 1)
        radius, bound = verify.THEOREMS["baumslag-solitar"].options
        assert (radius.high, radius.default, bound.default) == (
            bs.RADIUS_CAP, bs.DEFAULT_RADIUS, bs.DEFAULT_BOUND)

    def test_word_bs_takes_the_library_defaults(self, capsys):
        _, implicit, _ = run(capsys, "word", "bs", "--n", "-1", "classify")
        _, explicit, _ = run(capsys, "word", "bs", "--n", "-1", "classify",
                             "--radius", "4", "--bound", "6")
        assert implicit == explicit and "36 instances" in implicit

    def test_missing_file_names_the_spec(self, capsys):
        code, _, err = run(capsys, "group", "info", "--spec", _MISSING_FILE)
        assert code == 2
        assert err == f"error: cannot read {_MISSING_FILE}: No such file or directory\n"


class TestParameterDeclaration:
    """Each suite's parameters are declared once, on its ``TheoremSpec``."""

    @pytest.mark.parametrize("argv,message", [
        (["verify", "free-group", "--grid", "22"], "length must be <= 12, got 22"),
        (["verify", "free-group", "--max-len", "13"], "max_len must be <= 12, got 13"),
        (["verify", "baumslag-solitar", "--grid", "2", "--radius", "100000"],
         "radius must be <= 20, got 100000"),
        (["verify", "free-product", "--max-syllables", "7"], "max_syllables must be <= 6, got 7"),
        (["verify", "stabilizer-ses", "--samples", "10001"], "samples must be <= 10000, got 10001"),
        (["verify", "braid-corollary", "--grid", "101+cyclic:2"],
         "strands must be <= 100, got 101"),
        (["verify", "braid-corollary", "--grid", "4+cyclic:2"], "strands must be >= 5, got 4"),
        (["verify", "abelian", "--grid", "3", "--radius", "3"], "verify abelian takes no --radius"),
        (["--budget", "10", "verify", "abelian", "--grid", "3"],
         "verify abelian takes no --budget"),
        (["verify", "oracle", "--grid", "cyclic:2", "--max-len", "2"],
         "verify oracle takes no --max-len"),
    ])
    def test_caps_and_undeclared_options_exit_2(self, capsys, argv, message):
        # the caps are checked before anything is enumerated
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("theorem", sorted(verify.THEOREMS))
    def test_seed_and_defaults_are_accepted_by_every_suite(self, theorem):
        spec = verify.THEOREMS[theorem]
        settings = spec.settings(theorem, {"seed": 3})
        assert settings == {o.key: 3 if o.key == "seed" else o.default for o in spec.options}
        assert all(spec.complete(p, settings) for p in spec.parse(spec.default_grid(settings)))

    def test_library_takes_no_grid_keywords(self):
        for theorem, keyword in [("dihedral", "ns"), ("semidirect", "triples"),
                                 ("oracle", "groups")]:
            with pytest.raises(ValueError, match=f"verify {theorem} takes no --{keyword}$"):
                verify_suite(theorem, **{keyword: []})

    @pytest.mark.parametrize("argv", [
        ["tss", "max", "--group", "semidirect:2305843009213693951,2,1"],
        ["verify", "semidirect", "--grid", "2305843009213693951,2,1"],
    ])
    def test_huge_semidirect_p_meets_the_order_cap_first(self, argv):
        # p = 2^61 - 1 is prime: its trial division would run for minutes
        src = str(Path(tsslab.__file__).resolve().parent.parent)
        done = subprocess.run([sys.executable, "-m", "tsslab.cli", *argv], capture_output=True,
                              text=True, timeout=30, env={**os.environ, "PYTHONPATH": src})
        assert done.returncode == 2 and done.stdout == ""
        assert done.stderr == ("error: SD(2305843009213693951,2,1) has order "
                               "4611686018427387902, above the global order cap 20000\n")


class TestParserReuse:
    """The parser is built once per process; every call through the cached
    parser gives what a freshly built one gives, and ``TSSLAB_JOBS`` is read
    on every call."""

    ORACLE = ["verify", "oracle", "--grid", "cyclic:3;sym:3"]
    CALLS = [
        (None, ["tss", "max"]),
        (None, ["--help"]),
        ("abc", ORACLE),
        ("2", ORACLE),
        (None, ORACLE),
        (None, ["verify", "baumslag-solitar", "--grid", "-3--1"]),
        (None, ["tss", "max", "--group", "dihedral:7"]),
        (None, ["verify", "--help"]),
        (None, ["verify", "bogus"]),
    ]

    def _call(self, capsys, monkeypatch, env, argv):
        if env is None:
            monkeypatch.delenv("TSSLAB_JOBS", raising=False)
        else:
            monkeypatch.setenv("TSSLAB_JOBS", env)
        code, out, err = run(capsys, *argv)
        return code, re.sub(r", [0-9.]+s\)$", ")", out, flags=re.M), err

    def test_cached_parser_matches_a_fresh_one(self, capsys, monkeypatch):
        jobs = []
        suite = verify.verify_suite

        def spy(theorem, grid=None, **kwargs):
            jobs.append(kwargs["jobs"])
            return suite(theorem, grid, **kwargs)

        monkeypatch.setattr(verify, "verify_suite", spy)
        cli._build_parser.cache_clear()
        reused = [self._call(capsys, monkeypatch, env, argv) for env, argv in self.CALLS]
        assert cli._build_parser.cache_info().misses == 1
        fresh = []
        for env, argv in self.CALLS:
            cli._build_parser.cache_clear()
            fresh.append(self._call(capsys, monkeypatch, env, argv))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 2, 0, 0, 0, 0, 0, 2]
        assert reused[1][1].startswith("usage: tsslab") and "--jobs JOBS" in reused[1][1]
        assert reused[2][2].endswith("tsslab: error: argument --jobs: expected a positive "
                                     "integer (from --jobs or TSSLAB_JOBS), got 'abc'\n")
        names = sorted(verify.THEOREMS)
        assert reused[7][1].startswith("usage: tsslab verify [-h]")
        assert "{" + ",".join(names) + "}" in reused[7][1]
        assert reused[8][2].endswith(
            "tsslab verify: error: argument theorem: invalid choice: 'bogus' (choose from "
            + ", ".join(map(repr, names)) + ")\n")
        assert jobs == [2, 1, 1, 2, 1, 1]

    def test_flag_overrides_a_bad_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("TSSLAB_JOBS", "abc")
        code, out, _ = run(capsys, "--jobs", "1", "table")
        assert code == 0 and "Dihedral" in out


# Run commands through cli.main in a fresh process and print, after the
# import and after each command, its exit code and which of LAZY are loaded.
_IMPORT_PROBE = """
import contextlib, io, json, sys
LAZY = ("tsslab.verify", "tsslab.words", "concurrent.futures", "numpy.ma")
import tsslab.cli
seen = [["import", None, [m for m in LAZY if m in sys.modules]]]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = tsslab.cli.main(argv)
    seen.append([" ".join(argv), code, [m for m in LAZY if m in sys.modules]])
print(json.dumps(seen))
"""


class TestStartupImports:
    """A process loads the suites, the word arithmetic, the worker pool and
    ``numpy.ma`` only for the commands that use them."""

    def _probe(self, tmp_path, *commands):
        env = {k: v for k, v in os.environ.items() if k != "TSSLAB_JOBS"}
        src = str(Path(tsslab.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join([src] + [p for p in [env.get("PYTHONPATH")] if p])
        done = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, json.dumps([c.split() for c in commands])],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True)
        return [tuple(entry) for entry in json.loads(done.stdout)]

    def test_table_commands_load_none_of_them(self, tmp_path):
        seen = self._probe(
            tmp_path,
            "tss max --group dihedral:7",
            "group info --spec sym:4",
            "hom braid-check --strands 5 --target semidirect:7,3,2",
            "tss list --group sym:4 --size 2 --up-to-conjugacy",
            "stab decompose --group sym:4 --elements 1,6",
            "group build --spec product:dihedral:4,sym:3 --to d8xs3.cayley",
            "hom enumerate --presentation braid:3 --target cyclic:6",
            "tss max",
            "word f2 obstruction abab",
        )
        assert seen == [
            ("import", None, []),
            ("tss max --group dihedral:7", 0, []),
            ("group info --spec sym:4", 0, []),
            ("hom braid-check --strands 5 --target semidirect:7,3,2", 0, []),
            ("tss list --group sym:4 --size 2 --up-to-conjugacy", 0, []),
            ("stab decompose --group sym:4 --elements 1,6", 0, []),
            ("group build --spec product:dihedral:4,sym:3 --to d8xs3.cayley", 0, []),
            ("hom enumerate --presentation braid:3 --target cyclic:6", 0, []),
            ("tss max", 2, []),
            ("word f2 obstruction abab", 0, ["tsslab.words"]),
        ]

    def test_verify_loads_the_suites_and_the_pool_only_for_jobs(self, tmp_path):
        seen = self._probe(tmp_path, "verify abelian", "--jobs 2 verify abelian --grid 2,3")
        assert seen == [
            ("import", None, []),
            ("verify abelian", 0, ["tsslab.verify", "tsslab.words"]),
            ("--jobs 2 verify abelian --grid 2,3", 0,
             ["tsslab.verify", "tsslab.words", "concurrent.futures"]),
        ]
