"""The benchmark's own tests, kept out of the repository's tier-1 suite.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import tsslab  # noqa: E402
import workloads  # noqa: E402
from workloads import Job  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
HELD_OUT = 7
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def small_jobs() -> list[Job]:
    """Cheap jobs that still reach every kind of check and most layers."""
    return [
        workloads.table_job("dihedral:6"),
        workloads.table_job("product:sym:3,sym:4"),
        workloads.braid_job(6, "dihedral:5"),
        workloads.cli_job(["--format", "json", "--jobs", "1", "verify", "free-group",
                           "--max-len", "4"], checks.suite_passed, "<work>"),
        workloads.cli_job(["--format", "json", "--jobs", "1", "verify", "abelian"],
                          checks.suite_passed, "<work>"),
        workloads.cli_job(["--format", "json", "--jobs", "1", "verify", "oracle"],
                          checks.suite_passed, "<work>"),
    ]


def traced(jobs: list[Job]) -> tuple[tracer.Tracer, list]:
    tr = tracer.Tracer()
    tr.install()
    records = []
    try:
        for i, job in enumerate(jobs):
            run.clear_caches()
            with tr.job_span(i):
                raw = job.run()
            records.append(job.verify(raw))
    finally:
        tr.uninstall()
    return tr, records


def test_same_seed_gives_identical_inputs():
    for workload in workloads.WORKLOADS:
        for seed in (0, HELD_OUT, 12345):
            assert workloads.inputs(workload, seed) == workloads.inputs(workload, seed)


def test_seed_zero_is_the_reference_roster():
    assert workloads.inputs("tables", 0)["specs"] == [
        "product:sym:4,sym:4", "sym:6", "dihedral:500", "semidirect:31,30,3"]
    assert workloads.inputs("braid-homs", 0)["pairs"] == [
        (8, "product:sym:5,cyclic:3"), (9, "product:sym:5,cyclic:2"),
        (7, "dihedral:200"), (11, "semidirect:11,10,2")]
    assert workloads.inputs("suites", 0)["readme"] == {
        "n": 7, "elems": "1,6", "word": "abab", "x": 3, "cyc": 6}


def test_held_out_seed_draws_other_members_of_the_same_bands():
    tables = workloads.inputs("tables", HELD_OUT)["specs"]
    assert tables != workloads.inputs("tables", 0)["specs"]
    for spec, band in zip(tables, workloads.TABLE_BANDS.values()):
        assert spec in band
    pairs = workloads.inputs("braid-homs", HELD_OUT)["pairs"]
    assert pairs != workloads.inputs("braid-homs", 0)["pairs"]
    for pair, band in zip(pairs, workloads.BRAID_BANDS.values()):
        assert pair in band
    assert workloads.inputs("suites", HELD_OUT) != workloads.inputs("suites", 0)


def test_traced_and_untraced_runs_give_identical_outputs():
    jobs = small_jobs()
    plain = []
    for job in jobs:
        run.clear_caches()
        plain.append(job.verify(job.run()))
    _, with_trace = traced(jobs)
    assert with_trace == plain
    assert all(problems == [] for _, problems in plain)


def test_uninstall_restores_every_binding():
    before = (tsslab.tss.certify_tss, tsslab.homs.certify_tss, tsslab.conjugacy_classes,
              tsslab.homs.evaluate_word, tsslab.cli.main)
    tr = tracer.Tracer()
    tr.install()
    assert tsslab.homs.certify_tss is not before[1]
    tr.uninstall()
    after = (tsslab.tss.certify_tss, tsslab.homs.certify_tss, tsslab.conjugacy_classes,
             tsslab.homs.evaluate_word, tsslab.cli.main)
    assert after == before


def test_self_times_add_up_to_traced_wall_and_counts_repeat():
    first, _ = traced(small_jobs())
    second, _ = traced(small_jobs())
    assert abs(sum(first.self_times().values()) - first.wall()) < 1e-6
    assert first.counts == second.counts
    metrics = first.metrics()
    assert list(metrics) + tracer.RUN_METRICS == tracer.METRICS
    assert metrics["tss.candidates"] > 0 and metrics["homs.relator_evals"] > 0
    assert metrics["verify.instances"] > 0 and metrics["tss.oracle_s"] > 0
    assert metrics["words.freegroup.words"] > 0


def test_wrong_expected_value_counts_a_failure_and_the_run_goes_on():
    job = workloads.table_job("dihedral:6")
    budget = Job("budget", lambda: tsslab.braid_cyclic_corollary_check(
        6, tsslab.parse_group_spec("dihedral:5"), budget=10), lambda raw: (None, []))
    tally = run.Tally()
    times = run.measure([job, budget, workloads.table_job("dihedral:7")], 0, tally,
                        {job.key: "0" * 16})
    assert tally.attempted == 3 and tally.failed == 2
    assert all(len(t) == 1 for t in times)


def test_declared_metrics_match_what_the_run_emits():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert list(declared) == tracer.METRICS
    assert declared == {name: tracer.unit(name) for name in tracer.METRICS}
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(workloads.WORKLOADS)


def test_end_to_end_result_line():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "suites", "--seed", str(HELD_OUT),
         "--seconds", "0", "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0 and out.stdout == ""
