"""Output checks that do not trust the code they check.

Witnesses and stabilizers are re-checked with raw ``mul``/``inv`` lookups,
never with ``tsslab``'s own conjugation or TSS helpers.  Each check returns a
list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Callable


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def record_digest(record: Any) -> str:
    return digest(json.dumps(record, sort_keys=True, separators=(",", ":")))


def _conj(mul, inv, q: int, x: int) -> int:
    return mul[mul[q][x]][inv[q]]


def certificates(g, certs) -> list[str]:
    """Every pair commutes; witness (i, i+1) swaps those members and fixes the rest."""
    mul, inv = g.mul, g.inv
    problems = []
    for cert in certs:
        elems = cert.elements
        if any(mul[x][y] != mul[y][x] for i, x in enumerate(elems) for y in elems[i + 1:]):
            problems.append(f"{elems}: members do not commute")
        if len(cert.witnesses) != len(elems) - 1:
            problems.append(f"{elems}: {len(cert.witnesses)} witnesses for {len(elems)} members")
        for (i, j), q in cert.witnesses.items():
            want = list(elems)
            want[i], want[j] = want[j], want[i]
            if [_conj(mul, inv, q, x) for x in elems] != want:
                problems.append(f"{elems}: witness {q} does not realize ({i} {j})")
    return problems


def stabilizers(certs, decs) -> list[str]:
    """|Stab| = |kernel| * |realized| and |S|! divides |Stab|."""
    problems = []
    for cert, dec in zip(certs, decs):
        stab, kernel, realized = len(dec.stabilizer), len(dec.kernel), len(dec.realized)
        if stab != kernel * realized:
            problems.append(f"{cert.elements}: |Stab| {stab} != {kernel} * {realized}")
        if stab % math.factorial(len(cert.elements)):
            problems.append(f"{cert.elements}: {len(cert.elements)}! does not divide |Stab| {stab}")
    return problems


def cayley_round_trip(g, text: str, back, text_again: str) -> list[str]:
    problems = []
    if back.mul != g.mul:
        problems.append(f"{g.name}: decoded table differs from mul")
    if text_again != text:
        problems.append(f"{g.name}: re-encoded table differs")
    return problems


def braid_report(report) -> list[str]:
    problems = []
    if not report.applicable:
        problems.append(f"B{report.strands} -> {report.target_name}: not applicable")
    if not report.all_cyclic or report.noncyclic_images:
        problems.append(f"B{report.strands} -> {report.target_name}: non-cyclic image")
    if sum(report.image_order_histogram.values()) != report.hom_count or report.hom_count < 1:
        problems.append(f"B{report.strands} -> {report.target_name}: histogram does not sum to count")
    return problems


# --- CLI outputs -------------------------------------------------------------

def strip_elapsed(out: str) -> Any:
    """A JSON document without its wall-clock fields, or the text itself."""
    try:
        doc = json.loads(out)
    except ValueError:
        return out

    def strip(node):
        if isinstance(node, dict):
            return {k: strip(v) for k, v in node.items() if k != "elapsed_s"}
        if isinstance(node, list):
            return [strip(v) for v in node]
        return node

    return strip(doc)


def json_ok(out: str) -> list[str]:
    try:
        json.loads(out)
    except ValueError:
        return ["output is not JSON"]
    return []


def json_field(name: str, want: Any) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        got = json.loads(out).get(name)
        return [] if got == want else [f"{name} = {got!r}, expected {want!r}"]
    return check


def json_len(name: str, want: int) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        got = len(json.loads(out)[name])
        return [] if got == want else [f"{got} {name}, expected {want}"]
    return check


def text_has(fragment: str) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        return [] if fragment in out else [f"output lacks {fragment!r}: {out.strip()[:200]}"]
    return check


def stab_json(out: str) -> list[str]:
    doc = json.loads(out)
    if doc["stabilizer_order"] != doc["kernel_order"] * doc["realized_order"]:
        return [f"|Stab| {doc['stabilizer_order']} != |kernel| * |realized|"]
    return []


def suite_passed(out: str) -> list[str]:
    doc = json.loads(out)
    problems = [f"{doc['theorem']} {i['params']}: fail - {i['detail']}"
                for i in doc["instances"] if i["verdict"] == "fail"]
    if not doc["passed"] or not doc["instances"]:
        problems.append(f"{doc['theorem']}: passed {doc['passed']}, {len(doc['instances'])} instances")
    return problems


def table_s(column: list[str]) -> Callable[[str], list[str]]:
    def check(out: str) -> list[str]:
        got = [row["s"] for row in json.loads(out)["rows"]]
        return [] if got == column else [f"table S column {got}, expected {column}"]
    return check
