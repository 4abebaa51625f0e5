"""Seeded inputs and job lists for the three benchmark workloads.

Every workload is a fixed list of jobs drawn from the seed.  A job calls the
public functions of ``tsslab`` (``run``) and then checks what they returned
(``verify``), outside the timed region.  ``verify`` returns a canonical record
of the outputs, compared against ``expected.json`` where that file has one,
and the problems found by the independent checks in ``checks``.

Size bands are narrow on purpose: the benchmark is run on many seeds and the
spread of its wall time across seeds has to stay small, so each band holds
members of about the same cost.  Seed 0 is the reference roster.
"""

from __future__ import annotations

import io
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import tsslab
import tsslab.cli

import checks

WORKLOADS = ("tables", "suites", "braid-homs")

Verdict = tuple[Any, list[str]]  # (canonical record, problems)


@dataclass
class Job:
    key: str
    run: Callable[[], Any]
    verify: Callable[[Any], Verdict]


def _draw(seed: int, slot: str, members: list, reference: Any = None):
    """One member of a band.  Seed 0 gives ``reference`` (default: the first
    member); other seeds draw uniformly, shifted so that seed 0 keeps it."""
    def raw(s: int) -> int:
        return random.Random(f"{slot}:{s}").randrange(len(members))

    ref = 0 if reference is None else members.index(reference)
    return members[(raw(seed) - raw(0) + ref) % len(members)]


# --- tables ------------------------------------------------------------------

# S values the theorems and the paper's table fix for the stock factors.
KNOWN_S = {"sym:4": 3, "sym:6": 3, "dihedral": 2}

TABLE_BANDS = {
    # S4 times an order-20 or -24 stock factor, either order: |G| in {480, 576}.
    # (D22 factors are left out: their S(G) search costs half as much.)
    "product": [f"product:{a},{b}" for a, b in (
        ("sym:4", "sym:4"), ("sym:4", "dihedral:12"), ("dihedral:12", "sym:4"),
        ("sym:4", "dihedral:10"), ("dihedral:10", "sym:4"))],
    "sym": ["sym:6"],
    # n = 0 mod 4 keeps the reflection family, which doubles the size-2 count.
    "dihedral": [f"dihedral:{n}" for n in (496, 500, 504)],
    # Z31 x| Z30 with k a primitive root mod 31: |G| = 930, S = 2.
    "semidirect": [f"semidirect:31,30,{k}" for k in (3, 11, 12, 13, 17, 21, 22, 24)],
}


def table_specs(seed: int) -> list[str]:
    reference = {"dihedral": "dihedral:500"}
    return [_draw(seed, f"tables:{slot}", members, reference.get(slot))
            for slot, members in TABLE_BANDS.items()]


def expected_s(spec: str) -> int | None:
    """S(G) where a theorem fixes it: dihedral, sym:6 and products of those."""
    if spec.startswith("product:"):
        left, right = spec[len("product:"):].split(",", 1)
        parts = [expected_s(left), expected_s(right)]
        return None if None in parts else max(parts)
    if spec.startswith("dihedral:"):
        return KNOWN_S["dihedral"]
    return KNOWN_S.get(spec)


def table_job(spec: str) -> Job:
    def run():
        g = tsslab.parse_group_spec(spec)
        report = tsslab.max_tss_size(g, up_to_conjugacy=True)
        decs = [tsslab.realized_permutations(g, c.elements) for c in report.maximal_sets]
        text = tsslab.to_cayley_table(g)
        back = tsslab.from_cayley_table(text)
        return g, report, decs, text, back

    def verify(raw) -> Verdict:
        g, report, decs, text, back = raw
        problems = checks.certificates(g, report.maximal_sets)
        problems += checks.stabilizers(report.maximal_sets, decs)
        want = expected_s(spec)
        if want is not None and report.s_of_g != want:
            problems.append(f"S({spec}) = {report.s_of_g}, theorem gives {want}")
        if report.counts.get(1) != g.order:
            problems.append(f"{report.counts.get(1)} singletons, order {g.order}")
        problems += checks.cayley_round_trip(g, text, back, tsslab.to_cayley_table(back))
        record = {
            "order": g.order,
            "s": report.s_of_g,
            "counts": report.counts,
            "orbits": [list(c.elements) for c in report.maximal_sets],
            "stabilizers": [[len(d.stabilizer), len(d.kernel), len(d.realized)] for d in decs],
            "table": checks.digest(text),
        }
        return record, problems

    return Job(f"tables|{spec}", run, verify)


# --- suites ------------------------------------------------------------------

# Every default verify suite except baumslag-solitar, which alone takes 10 s
# of BS(1,n) swap search; `table` and `word bs` keep that layer in the run.
SUITES = ("abelian", "dihedral", "semidirect", "direct-product", "free-product",
          "inverse-pair", "odd-order", "solvable", "stabilizer-ses",
          "fundamental-lemma", "no-injection", "braid-corollary", "free-group",
          "oracle")

TABLE_S = ["1", "1", "1", "1", "2", "2", "2", "3 (<= 4)", "max = 3", "max = 1"]


def _reduced_words(length: int) -> list[tuple[int, ...]]:
    out = [()]
    for _ in range(length):
        out = [w + (x,) for w in out for x in (1, -1, 2, -2) if not w or w[-1] != -x]
    return out


def _f2_text(letters: tuple[int, ...]) -> str:
    return "".join({1: "a", -1: "A", 2: "b", -2: "B"}[x] for x in letters)


def readme_args(seed: int) -> dict[str, Any]:
    """Seed-drawn arguments, of fixed size, for the README commands."""
    pairs = [(a, b) for a in range(24) for b in range(a + 1, 24)]
    return {
        "n": _draw(seed, "suites:dihedral", list(range(5, 10)), 7),
        "elems": "{},{}".format(*_draw(seed, "suites:pair", pairs, (1, 6))),
        "word": _f2_text(_draw(seed, "suites:f2", _reduced_words(4), (1, 2, 1, 2))),
        "x": _draw(seed, "suites:bs", [1, 2, 3, 4], 3),
        "cyc": _draw(seed, "suites:cyclic", [4, 5, 6, 7, 8], 6),
    }


def readme_commands(a: dict[str, Any], work: str) -> list[tuple[list[str], Callable]]:
    """The README commands that the suites and `table` do not run."""
    n, elems, word, x, cyc = a["n"], a["elems"], a["word"], a["x"], a["cyc"]
    cayley = f"{work}/d8xs3.cayley"
    return [
        (["tss", "max", "--group", f"dihedral:{n}"], checks.json_field("s_of_g", 2)),
        (["tss", "list", "--group", "sym:4", "--size", "2"], checks.json_len("sets", 13)),
        (["tss", "list", "--group", "sym:4", "--size", "2", "--up-to-conjugacy"], checks.json_ok),
        (["tss", "check", "--group", "sym:4", "--elements", elems], checks.json_ok),
        (["stab", "decompose", "--group", "sym:4", "--elements", elems], checks.stab_json),
        (["group", "build", "--spec", "product:dihedral:4,sym:3", "--to", cayley], checks.text_has("order 48")),
        (["group", "info", "--spec", f"file:{cayley}"], checks.json_field("order", 48)),
        (["hom", "enumerate", "--presentation", "braid:3", "--target", f"cyclic:{cyc}"],
         checks.json_field("hom_count", cyc)),
        (["hom", "braid-check", "--strands", "5", "--target", "semidirect:7,3,2"],
         checks.json_field("all_cyclic", True)),
        (["word", "f2", "obstruction", word], checks.text_has("no size-2 TSS: True")),
        (["word", "bs", "--n", "-1", "swap", f"a^{x}/-1^0 b^0", f"a^{-x}/-1^0 b^0"],
         checks.text_has("witness")),
        (["word", "fp", "--factors", "dihedral:4,sym:3", "analyze", "[G:1]", "[G:3]"],
         checks.text_has("TSS: True")),
    ]


def cli_job(argv: list[str], check: Callable, work: str) -> Job:
    def run():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = tsslab.cli.main(argv)
        return code, out.getvalue().replace(work, "<work>"), err.getvalue()

    def verify(raw) -> Verdict:
        code, out, err = raw
        if code != 0:
            return out, [f"exit {code}: {err.strip()}"]
        return checks.strip_elapsed(out), check(out)

    return Job("suites|" + " ".join(argv).replace(work, "<work>"), run, verify)


def suite_jobs(data: dict[str, Any], work: str) -> list[Job]:
    # --jobs 1 is explicit, so TSSLAB_JOBS cannot start a worker pool.
    base = ["--format", "json", "--jobs", "1", "--seed", str(data["seed"])]
    jobs = [cli_job(base + ["verify", s], checks.suite_passed, work) for s in SUITES]
    jobs.append(cli_job(base + ["table"], checks.table_s(TABLE_S), work))
    jobs += [cli_job(base + cmd, check, work)
             for cmd, check in readme_commands(data["readme"], work)]
    return jobs


# --- braid-homs --------------------------------------------------------------

BRAID_BANDS = {
    # (strands, target): S(target) < floor(n/2) in every member.  Strands are
    # fixed where more of them cost more; the targets vary instead.
    "s5c3": [(n, t) for t in ("product:sym:5,cyclic:3", "product:cyclic:3,sym:5")
             for n in (8, 9)],
    "s5c2": [(n, t) for t in ("product:sym:5,cyclic:2", "product:cyclic:2,sym:5")
             for n in (9, 10)],
    "dihedral": [(7, f"dihedral:{m}") for m in range(196, 205)],
    "semidirect": [(n, f"semidirect:11,10,{k}") for k in (2, 6, 7, 8) for n in (9, 10, 11, 12)],
}
BRAID_REFERENCE = {"s5c3": (8, "product:sym:5,cyclic:3"), "s5c2": (9, "product:sym:5,cyclic:2"),
                   "dihedral": (7, "dihedral:200"), "semidirect": (11, "semidirect:11,10,2")}


def braid_pairs(seed: int) -> list[tuple[int, str]]:
    return [_draw(seed, f"braid:{slot}", members, BRAID_REFERENCE[slot])
            for slot, members in BRAID_BANDS.items()]


def braid_job(n: int, spec: str) -> Job:
    def run():
        return tsslab.braid_cyclic_corollary_check(n, tsslab.parse_group_spec(spec))

    def verify(report) -> Verdict:
        record = {"s_target": report.s_target, "homs": report.hom_count,
                  "histogram": report.image_order_histogram}
        return record, checks.braid_report(report)

    return Job(f"braid-homs|B{n}|{spec}", run, verify)


# --- entry -------------------------------------------------------------------

def inputs(workload: str, seed: int) -> dict[str, Any]:
    """Everything a workload's jobs are made from: strings and numbers drawn
    from the seed."""
    if workload == "tables":
        return {"specs": table_specs(seed)}
    if workload == "suites":
        return {"seed": seed, "readme": readme_args(seed)}
    if workload == "braid-homs":
        return {"pairs": braid_pairs(seed)}
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def jobs(workload: str, data: dict[str, Any], work: Path) -> list[Job]:
    if workload == "tables":
        return [table_job(s) for s in data["specs"]]
    if workload == "suites":
        return suite_jobs(data, str(work))
    return [braid_job(n, t) for n, t in data["pairs"]]
