"""Theorem verification suites and the summary-table runner.

Each suite reproduces one classification or corollary over a parameter grid
and reports per-instance verdicts: pass, fail, not-applicable, or
exhausted(bound) for bounded searches in infinite groups.  Failures carry a
minimal counterexample and a re-runnable command line.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from . import homs, tss
from .groups import (
    FiniteGroup,
    GroupError,
    SemidirectParams,
    derived_series,
    split_product_index,
)
from .schemas import FORMAT_VERSION, certificate_to_json
from .specs import parse_group_spec
from .words import baumslag as bs
from .words import freegroup as f2
from .words import freeproduct as fp


@dataclass(frozen=True)
class SuiteInstance:
    params: dict[str, Any]
    verdict: str  # pass | fail | not-applicable | exhausted(N)
    detail: str
    counterexample: Optional[dict[str, Any]] = None
    repro: Optional[str] = None
    elapsed_s: float = 0.0

    @property
    def failed(self) -> bool:
        return self.verdict == "fail"


@dataclass(frozen=True)
class SuiteResult:
    theorem: str
    instances: tuple[SuiteInstance, ...]
    passed: bool
    elapsed_s: float
    artifacts: tuple[str, ...] = ()


def _s_claim(params: dict, spec: str, g: FiniteGroup, holds: Callable[[int], bool],
             note: Callable[[int], str] = lambda s: "", fail_note: str = "",
             counterexample: Callable[[tss.TssReport], dict] = (
                 lambda report: certificate_to_json(report.maximal_sets[0]))) -> SuiteInstance:
    """The instance for a claim ``holds`` on S(g): pass with ``S(g) = s`` and
    ``note(s)``, or fail with ``fail_note``, ``counterexample(report)`` (a
    maximal set) and the ``tss max`` command for ``spec``."""
    report = tss.max_tss_size(g)
    s = report.s_of_g
    if holds(s):
        return SuiteInstance(params, "pass", f"S({g.name}) = {s}{note(s)}")
    return _tss_max_failure(params, f"S({g.name}) = {s}{fail_note}", counterexample(report), spec)


def _tss_max_failure(params: dict, detail: str, counterexample: dict, spec: str) -> SuiteInstance:
    """A failing instance re-run by ``tsslab tss max`` on ``spec``."""
    return SuiteInstance(params, "fail", detail, counterexample, f"tsslab tss max --group {spec}")


def _cert_failure(params: dict, detail: str, cert: tss.TssCertificate, repro: str) -> SuiteInstance:
    """A failing instance whose counterexample is a certified TSS."""
    return SuiteInstance(params, "fail", detail, certificate_to_json(cert), repro)


# --- abelian -----------------------------------------------------------------

def _run_abelian(params: dict) -> SuiteInstance:
    spec = f"cyclic:{params['n']}"
    return _s_claim(params, spec, parse_group_spec(spec), lambda s: s == 1)


# --- dihedral ----------------------------------------------------------------

def predicted_dihedral_pairs(n: int) -> list[tuple[int, int]]:
    """The full size-2 classification for D_2n as index sets.

    Rotations r^i are indices i, reflections s r^i are indices n+i.  The
    families are {r^i, r^-i} and, when 4 | n, {s r^i, s r^(i+n/2)}.
    """
    sets = [(i, n - i) for i in range(1, (n - 1) // 2 + 1)]
    if n % 4 == 0:
        sets += [(n + i, n + i + n // 2) for i in range(n // 2)]
    return sorted(tuple(sorted(p)) for p in sets)


def _run_dihedral(params: dict) -> SuiteInstance:
    n = params["n"]
    if n < 3:  # D2 and D4 are abelian, with S = 1
        raise ValueError(f"n={n} must be >= 3")
    g = parse_group_spec(f"dihedral:{n}")
    levels = list(tss.tss_by_size(g))
    found = [c.elements for c in levels[1]] if len(levels) > 1 else []
    expected = [tuple(p) for p in predicted_dihedral_pairs(n)]
    if len(levels) == 2 and found == expected:
        note = " (reflection family present)" if n % 4 == 0 else ""
        return SuiteInstance(params, "pass", f"S(D{2*n}) = 2, {len(found)} literal sets{note}")
    return SuiteInstance(
        params, "fail", f"S = {len(levels)}; found {found}, expected {expected}",
        counterexample={"found": [list(t) for t in found],
                        "expected": [list(t) for t in expected]},
        repro=f"tsslab tss list --group dihedral:{n} --size 2",
    )


# --- semidirect --------------------------------------------------------------

def _run_semidirect(params: dict) -> SuiteInstance:
    p, m, k = params["p"], params["m"], params["k"]
    spec = f"semidirect:{p},{m},{k}"
    SemidirectParams.check_ranges(p, m, k)
    if pow(k, m, p) != 1:
        # ord_p(k) does not divide m: the action is ill-defined, no group of
        # order p*m exists with this presentation data.
        return SuiteInstance(
            params, "not-applicable",
            f"k^m = {k}^{m} is {pow(k, m, p)} mod {p}, not 1: "
            f"no semidirect product exists for these parameters",
        )
    g = parse_group_spec(spec)
    # The proof constructs the swap only when -1 is a power of k mod p
    # (even multiplicative order); outside that regime S = 2 is not asserted.
    minus_one_reachable = any(pow(k, f, p) == p - 1 for f in range(p))
    if m % p != 0 or not minus_one_reachable:
        return SuiteInstance(
            params, "not-applicable",
            f"proof construction unavailable (p|m: {m % p == 0}, "
            f"-1 in <k>: {minus_one_reachable}); observed S = {tss.max_tss_size(g).s_of_g}",
        )
    return _s_claim(params, spec, g, lambda s: s == 2, counterexample=lambda report: {
        "counts": {str(a): b for a, b in report.counts.items()}})


# --- direct product ----------------------------------------------------------

def _run_direct_product(params: dict) -> SuiteInstance:
    left_spec, right_spec = params["left"], params["right"]
    g = parse_group_spec(left_spec)
    h = parse_group_spec(right_spec)
    product_spec = f"product:{left_spec},{right_spec}"
    prod = parse_group_spec(product_spec)
    s_g = tss.max_tss_size(g).s_of_g
    s_h = tss.max_tss_size(h).s_of_g
    levels = list(tss.tss_by_size(prod))
    expected = max(s_g, s_h)
    if len(levels) != expected:
        return _tss_max_failure(
            params, f"S({prod.name}) = {len(levels)}, expected max({s_g},{s_h}) = {expected}",
            {"s_product": len(levels), "s_left": s_g, "s_right": s_h}, product_spec,
        )
    min_attained = False
    for size, level in enumerate(levels[1:], start=2):
        for cert in level:
            # the number of distinct first and of distinct second coordinates
            distinct = [len(set(coords)) for coords in
                        zip(*(split_product_index(x, h.order) for x in cert.elements))]
            if any(d not in (1, size) for d in distinct):
                bad = "coordinate-structure corollary violated"
            elif distinct == [size, size] and size > min(s_g, s_h):
                # distinct in both coordinates: the projection argument gives
                # size <= min; equality is reported, never asserted.
                bad = f"doubly-distinct TSS of size {size} > min({s_g},{s_h})"
            else:
                min_attained |= distinct == [size, size] and size == min(s_g, s_h)
                continue
            return _cert_failure(params, bad, cert,
                                 f"tsslab tss list --group {product_spec} --size {size}")
    detail = f"S({prod.name}) = {expected} = max(S)"
    detail += f"; doubly-distinct sets attain min({s_g},{s_h}): {'yes' if min_attained else 'no'}"
    return SuiteInstance(params, "pass", detail)


# --- free product ------------------------------------------------------------

def _run_free_product(params: dict) -> SuiteInstance:
    left_spec, right_spec = params["left"], params["right"]
    max_syllables = params["max_syllables"]
    g = parse_group_spec(left_spec)
    h = parse_group_spec(right_spec)
    bound = max(tss.max_tss_size(g).s_of_g, tss.max_tss_size(h).s_of_g)
    certified = 0
    biggest = 1
    for clique in fp.fp_commuting_cliques(g, h, max_syllables):
        verdict = fp.fp_tss_analyze(clique)
        if not verdict.is_tss:
            continue
        certified += 1
        biggest = max(biggest, verdict.size)
        if verdict.size > bound:
            bad = f"TSS of size {verdict.size} > max factor bound {bound}"
        elif verdict.classification != "factor_conjugate":
            bad = f"certified TSS does not reduce to a factor: {verdict.classification}"
        else:
            continue
        words = [fp.format_fp(w) for w in clique]
        return SuiteInstance(
            params, "fail", bad, counterexample={"words": words},
            repro=f"tsslab word fp --factors '{left_spec},{right_spec}' analyze "
                  + " ".join(f"'{w}'" for w in words),
        )
    return SuiteInstance(
        params, "pass",
        f"ball {max_syllables}: {certified} multi-element TSS, "
        f"largest {biggest} <= max factor bound {bound}",
    )


# --- inverse pair lemma ------------------------------------------------------

def _run_inverse_pair(params: dict) -> SuiteInstance:
    spec = params["group"]
    g = parse_group_spec(spec)
    checked = 0
    for size, level in enumerate(tss.tss_by_size(g), start=1):
        for cert in level:
            elems = set(cert.elements)
            if any(g.inv[x] in elems and g.inv[x] != x for x in elems):
                checked += 1
                if len(elems) != 2:
                    return _cert_failure(params, f"TSS with an inverse pair has size {len(elems)}",
                                         cert, f"tsslab tss list --group {spec} --size {size}")
    return SuiteInstance(params, "pass", f"{checked} inverse-pair TSS, all of size 2")


# --- odd order ---------------------------------------------------------------

def odd_order_corpus(max_order: int) -> list[str]:
    specs = [f"cyclic:{n}" for n in range(1, min(99, max_order) + 1, 2)]
    specs += [f"cyclic:{n}" for n in (125, 243, 343, 499) if n <= max_order]
    semis = [(7, 3, 2), (13, 3, 3), (19, 3, 7)]
    specs += [f"semidirect:{p},{m},{k}" for (p, m, k) in semis if p * m <= max_order]
    products = [
        ("cyclic:3", "cyclic:7"),
        ("cyclic:5", "cyclic:5"),
        ("cyclic:3", "semidirect:7,3,2"),
        ("cyclic:9", "cyclic:49"),
        ("semidirect:7,3,2", "semidirect:7,3,2"),
        ("semidirect:13,3,3", "cyclic:11"),
    ]
    orders = {s: parse_group_spec(s).order for pair in products for s in pair}
    specs += [
        f"product:{a},{b}" for a, b in products if orders[a] * orders[b] <= max_order
    ]
    return specs


def _run_odd_order(params: dict) -> SuiteInstance:
    spec = params["group"]
    g = parse_group_spec(spec)
    if g.order % 2 == 0:
        return SuiteInstance(params, "not-applicable", f"{g.name} has even order")
    return _s_claim(params, spec, g, lambda s: s == 1, lambda s: f" (order {g.order})")


# --- solvable ----------------------------------------------------------------

def _run_solvable(params: dict) -> SuiteInstance:
    spec = params["group"]
    g = parse_group_spec(spec)
    series = derived_series(g)
    if not series.solvable:
        return SuiteInstance(
            params, "not-applicable",
            f"{g.name} is not solvable (terminal term {len(series.terms[-1])})",
        )

    def note(s: int) -> str:
        size_note = f"; size-{s} TSS exists in a solvable group" if s >= 3 else ""
        return f" <= 4 (derived length {len(series.terms) - 1}){size_note}"

    return _s_claim(params, spec, g, lambda s: s <= 4, note, " > 4")


# --- stabilizer SES ----------------------------------------------------------

def _run_stabilizer_ses(params: dict) -> SuiteInstance:
    spec = params["group"]
    samples = params["samples"]
    seed = params["seed"]
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
    g = parse_group_spec(spec)

    def repro(elements: Iterable[int]) -> str:
        return f"tsslab stab decompose --group {spec} --elements {','.join(map(str, elements))}"

    checked = 0
    for size, level in enumerate(tss.tss_by_size(g), start=1):
        for cert in level:
            dec = tss.realized_permutations(g, cert.elements)
            if len(dec.stabilizer) != len(dec.kernel) * len(dec.realized):
                bad = "|Stab| != |kernel| * |realized| on a TSS"
            elif len(dec.stabilizer) % math.factorial(size) != 0:
                bad = f"{size}! does not divide |Stab|"
            else:
                checked += 1
                continue
            return _cert_failure(params, bad, cert, repro(cert.elements))
    rng = random.Random(seed)
    for _ in range(samples):
        size = rng.randint(1, min(4, g.order))
        s = tuple(sorted(rng.sample(range(g.order), size)))
        dec = tss.realized_permutations(g, s)
        if len(dec.stabilizer) != len(dec.kernel) * len(dec.realized):
            return SuiteInstance(
                params, "fail", "|Stab| != |kernel| * |realized| on a sampled set",
                counterexample={"elements": list(s)}, repro=repro(s),
            )
        checked += 1
    return SuiteInstance(params, "pass", f"SES identity held on {checked} sets")


# --- fundamental lemma -------------------------------------------------------

def _budget_param(opts: dict) -> dict:
    # the budget enters params only when set, so default runs keep their JSON
    return {"budget": opts["budget"]} if "budget" in opts else {}


_KLEIN = ("(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)")  # the nonidentity elements of V4 < S4


def _indices(g: FiniteGroup, *labels: str) -> list[int]:
    return [g.labels.index(lab) for lab in labels]


# fixture name -> the branch the lemma should take on it, the group, and the
# hom and set checked on that group (none for the sweep over all of them)
_LEMMA_FIXTURES: dict[str, tuple[str, str, Optional[Callable[[FiniteGroup], tuple]]]] = {
    "identity-d8": ("same_size", "dihedral:4", lambda d8: (homs.identity_hom(d8), [1, 3])),
    "identity-s4": ("same_size", "sym:4",
                    lambda s4: (homs.identity_hom(s4), _indices(s4, *_KLEIN))),
    "quotient-d8-r2": ("collapsed", "dihedral:4",
                       lambda d8: (homs.quotient_hom(d8, [0, 2]), [1, 3])),
    "quotient-s4-v": ("collapsed", "sym:4", lambda s4: (
        homs.quotient_hom(s4, [s4.identity, *_indices(s4, *_KLEIN)]),
        _indices(s4, "(1 2)", "(3 4)"))),
    "braid-b4-s4": ("same_size", "sym:4", lambda s4: (
        homs.GeneratorImageMap(homs.braid_presentation(4), s4,
                               tuple(_indices(s4, "(1 2)", "(2 3)", "(3 4)"))),
        homs.odd_artin_generators(4))),
    "sweep-s4-s3": ("sweep", "sym:4", None),
}


def _lemma_instance(name: str, opts: dict) -> dict:
    if name not in _LEMMA_FIXTURES:
        raise GroupError(f"unknown fundamental-lemma fixture {name!r}; "
                         f"known fixtures: {', '.join(_LEMMA_FIXTURES)}")
    expect = _LEMMA_FIXTURES[name][0]
    return {"fixture": name, "expect": expect,
            **(_budget_param(opts) if expect == "sweep" else {})}


def _run_fundamental_lemma(params: dict) -> SuiteInstance:
    fixture = params["fixture"]
    if fixture not in _LEMMA_FIXTURES:
        raise ValueError(f"unknown fixture {fixture!r}")
    expect, spec, build = _LEMMA_FIXTURES[fixture]
    if params.get("expect", expect) != expect:
        raise ValueError(f"expect {params['expect']!r} does not match fixture {fixture!r}, "
                         f"whose branch is {expect!r}")
    params = {"fixture": fixture, "expect": expect, **params}  # the CLI's params, in its order
    g = parse_group_spec(spec)
    if build is None:
        s3 = parse_group_spec("sym:3")
        all_tss = [c for level in list(tss.tss_by_size(g))[1:] for c in level]
        pairs = 0
        budget = params.get("budget", homs.DEFAULT_HOM_BUDGET)
        for hom in homs.enumerate_table_homs(g, s3, budget=budget):
            for cert in all_tss:
                homs.fundamental_lemma_check(hom, cert.elements)  # raises on violation
                pairs += 1
        return SuiteInstance(params, "pass", f"lemma held on {pairs} (hom, TSS) pairs S4 -> S3")
    verdict = homs.fundamental_lemma_check(*build(g))
    if verdict.branch == expect:
        return SuiteInstance(params, "pass",
                             f"{fixture}: image {verdict.image} branch {verdict.branch}")
    return SuiteInstance(
        params, "fail", f"{fixture}: branch {verdict.branch}, expected {expect}",
        counterexample={"image": list(verdict.image)},
        repro="tsslab verify fundamental-lemma",
    )


# --- no injection ------------------------------------------------------------

def _run_no_injection(params: dict) -> SuiteInstance:
    source_spec, target_spec = params["source"], params["target"]
    source = parse_group_spec(source_spec)
    target = parse_group_spec(target_spec)
    s_source = tss.max_tss_size(source).s_of_g
    s_target = tss.max_tss_size(target).s_of_g
    if s_source <= s_target:
        return SuiteInstance(
            params, "not-applicable",
            f"S({source.name}) = {s_source} <= S({target.name}) = {s_target}",
        )
    budget = params.get("budget", homs.DEFAULT_HOM_BUDGET)
    count = 0
    for hom in homs.enumerate_table_homs(source, target, budget=budget):
        count += 1
        if len(set(hom.mapping)) == source.order:
            return _tss_max_failure(params, "found an injective homomorphism",
                                    {"mapping": list(hom.mapping)}, source_spec)
    return SuiteInstance(
        params, "pass",
        f"none of {count} homomorphisms {source.name} -> {target.name} injective "
        f"(S: {s_source} > {s_target})",
    )


# --- braid corollary ---------------------------------------------------------

def _run_braid_corollary(params: dict) -> SuiteInstance:
    n = params["strands"]
    target_spec = params["target"]
    budget = params.get("budget", homs.DEFAULT_HOM_BUDGET)
    target = parse_group_spec(target_spec)
    report = homs.braid_cyclic_corollary_check(n, target, budget=budget)
    if not report.applicable:
        return SuiteInstance(
            params, "not-applicable",
            f"S({target.name}) = {report.s_target} >= floor({n}/2) = {report.threshold}",
        )
    if report.all_cyclic:
        return SuiteInstance(
            params, "pass",
            f"{report.hom_count} homomorphisms B_{n} -> {target.name}, all cyclic; "
            f"image orders {report.image_order_histogram}",
        )
    return SuiteInstance(
        params, "fail", "non-cyclic image found",
        counterexample={"images": list(report.noncyclic_images[0])},
        repro=f"tsslab hom braid-check --strands {n} --target {target_spec}",
    )


# --- free group --------------------------------------------------------------

def _all_reduced_words(length: int) -> list[f2.FreeWord]:
    out: list[f2.FreeWord] = []

    def extend(letters: list[int]) -> None:
        if len(letters) == length:
            out.append(f2.FreeWord(tuple(letters)))
            return
        for x in (1, -1, 2, -2):
            if letters and letters[-1] == -x:
                continue
            letters.append(x)
            extend(letters)
            letters.pop()

    extend([])
    return out


def _run_free_group(params: dict) -> SuiteInstance:
    length = params["length"]
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    words = _all_reduced_words(length)
    for w in words:
        # the evidence tests w against root^-n, which is w^-1: one conjugacy
        # test per word decides both failures
        evidence = f2.f2_tss_obstruction(w)
        if evidence.conjugate_to_inverse:
            return SuiteInstance(
                params, "fail", f"{f2.format_f2(w)} is conjugate to its inverse",
                counterexample={"word": f2.format_f2(w)},
                repro=f"tsslab word f2 conjugate {f2.format_f2(w)} "
                      f"{f2.format_f2(f2.f2_inverse(w))}",
            )
        if not evidence.certified:
            return SuiteInstance(
                params, "fail", f"obstruction chain failed for {f2.format_f2(w)}",
                counterexample={"word": f2.format_f2(w)},
                repro=f"tsslab word f2 obstruction {f2.format_f2(w)}",
            )
    return SuiteInstance(
        params, "pass",
        f"all {len(words)} reduced words of length {length}: "
        f"never conjugate to the inverse, obstruction certified",
    )


# --- Baumslag-Solitar ---------------------------------------------------------

def _run_baumslag(params: dict) -> SuiteInstance:
    n = params["n"]
    radius = params["radius"]
    bound = params["bound"]
    report = bs.bs_classification_check(n, radius, bound=bound)
    if not report.all_ok:
        bad = next(i for i in report.instances if i.verdict == "fail")
        return SuiteInstance(
            params, "fail", f"BS(1,{n}): {bad.detail}",
            counterexample={"u": str(bad.u), "v": str(bad.v)},
            repro=f"tsslab word bs --n {n} classify --radius {radius} --bound {bound}",
        )
    if report.branch == "rigid":
        return SuiteInstance(
            params, f"exhausted({bound})",
            f"BS(1,{n}): {len(report.instances)} commuting pairs, no swap witness; "
            f"exact unique-solution conditions verified",
        )
    detail = (
        f"BS(1,{n}) abelian: only singletons"
        if report.branch == "abelian"
        else f"BS(1,{n}): {len(report.instances)} certified size-2 TSS, no size-3 extension"
    )
    return SuiteInstance(params, "pass", detail)


# --- oracle equivalence ------------------------------------------------------

def _run_oracle(params: dict) -> SuiteInstance:
    spec = params["group"]
    g = parse_group_spec(spec)
    if g.order > 24:
        return SuiteInstance(params, "not-applicable", f"order {g.order} > 24")
    levels = [*tss.tss_by_size(g), []]  # one size past S(G), which must be empty
    s_val = len(levels) - 1
    for size, level in enumerate(levels, start=1):
        pruned = [c.elements for c in level]
        brute = tss.brute_force_tss(g, size)
        if pruned != brute:
            diff = sorted(set(pruned) ^ set(brute))[0]
            return SuiteInstance(
                params, "fail", f"size {size}: pruned and brute-force lists differ",
                counterexample={"size": size, "first_difference": list(diff)},
                repro=f"tsslab tss list --group {spec} --size {size}",
            )
    return SuiteInstance(params, "pass", f"identical TSS lists for sizes 1..{s_val + 1}")


# --- registry ----------------------------------------------------------------

_SOLVABLE_CORPUS = [
    "cyclic:8", "cyclic:12", "dihedral:3", "dihedral:4", "dihedral:5",
    "dihedral:6", "sym:3", "sym:4", "semidirect:3,6,2", "semidirect:7,3,2",
    "product:dihedral:4,sym:3", "product:sym:3,sym:4", "sym:5",
]

_SMALL_CORPUS = [
    "cyclic:6", "cyclic:8", "dihedral:3", "dihedral:4", "dihedral:5",
    "dihedral:6", "sym:3", "sym:4", "semidirect:3,6,2", "semidirect:7,3,2",
    "product:cyclic:2,dihedral:4", "product:cyclic:3,sym:3",
]

_ORACLE_CORPUS = [
    *(f"cyclic:{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 24)),
    *(f"dihedral:{n}" for n in range(3, 13)),
    "sym:3", "sym:4", "semidirect:3,6,2", "semidirect:7,3,2",
    "product:cyclic:2,cyclic:2", "product:cyclic:2,dihedral:4",
    "product:cyclic:3,sym:3", "product:cyclic:2,cyclic:12",
]

_PRODUCT_FACTORS = ["cyclic:5", "cyclic:6", "dihedral:3", "dihedral:4", "sym:3", "sym:4"]


def _default_product_pairs() -> list[tuple[str, str]]:
    orders = {s: parse_group_spec(s).order for s in _PRODUCT_FACTORS}
    return [(a, b) for i, a in enumerate(_PRODUCT_FACTORS) for b in _PRODUCT_FACTORS[i:]
            if orders[a] * orders[b] <= 600]


# --- grids -------------------------------------------------------------------

# longest integer range a --grid may spell, e.g. 3-12; checked before expanding
GRID_RANGE_CAP = 1000


def _grid_items(text: str) -> list[str]:
    return [t for t in text.split(";") if t.strip()]


def _parse_ints(text: str) -> list[int]:
    """Integers and ranges such as '3-12' joined by ',' or ';'."""
    out: list[int] = []
    for tok in text.replace(";", ",").split(","):
        tok = tok.strip()
        if not tok:
            continue
        bounds = re.fullmatch(r"([+-]?\d+)\s*-\s*([+-]?\d+)", tok)  # either end may be negative
        try:
            values = range(int(bounds[1]), int(bounds[2]) + 1) if bounds else [int(tok)]
        except ValueError:
            raise GroupError(f"bad --grid value {tok!r}; expected integers or ranges like "
                             f"'3-12' joined by ','") from None
        if len(values) > GRID_RANGE_CAP:
            raise GroupError(f"--grid range {tok!r} spans {len(values)} values, above the "
                             f"cap of {GRID_RANGE_CAP}")
        out.extend(values)
    return out


def _parse_triples(text: str) -> list[tuple[int, ...]]:
    out = []
    for item in _grid_items(text):
        try:
            p, m, k = (int(v) for v in item.split(","))
        except ValueError:
            raise GroupError(f"bad --grid item {item!r}; expected 'p,m,k' integer triples "
                             f"joined by ';', e.g. '3,6,2;5,20,2'") from None
        out.append((p, m, k))
    return out


def _split_grid_pair(item: str, syntax: str) -> tuple[str, str]:
    if "+" not in item:
        raise GroupError(f"bad --grid item {item!r}; expected {syntax} pairs joined by ';'")
    left, right = item.split("+", 1)
    return left.strip(), right.strip()


def _spec_pairs(text: str) -> list[tuple[str, str]]:
    return [_split_grid_pair(item, "<spec>+<spec>") for item in _grid_items(text)]


def _braid_pairs(text: str) -> list[tuple[int, str]]:
    out = []
    for item in _grid_items(text):
        strands, target = _split_grid_pair(item, "<strands>+<spec>")
        if not strands.isdigit():
            raise GroupError(f"bad --grid item {item!r}; expected <strands>+<spec> "
                             f"with an integer strand count, e.g. '5+sym:5'")
        out.append((int(strands), target))
    return out


def _names(text: str) -> list[str]:
    return [item.strip() for item in _grid_items(text)]


def _pair_instance(first: str, second: str,
                   extra: Callable[[dict], dict] = lambda opts: {}) -> Callable[[Any, dict], dict]:
    return lambda pair, opts: {first: pair[0], second: pair[1], **extra(opts)}


# --- registry ----------------------------------------------------------------

@dataclass(frozen=True)
class TheoremSpec:
    """A suite: its runner, and its grid, built by ``grid`` from the default
    items or from --grid text.  Corpus suites take group specs joined by ';'."""
    runner: Callable[[dict], SuiteInstance]
    description: str
    default_items: Callable[[dict], Iterable[Any]]  # grid items from the options
    parse_items: Callable[[str], list[Any]] = _names  # --grid text -> grid items
    instance: Callable[[Any, dict], dict] = lambda spec, opts: {"group": spec}  # item -> params
    # params every instance carries, with the values used when the options omit them
    defaults: dict = field(default_factory=dict)

    def grid(self, opts: dict, text: Optional[str] = None) -> list[dict]:
        """Instance params for the --grid ``text``, or for the default grid."""
        items = self.default_items(opts) if text is None else self.parse_items(text)
        return [self.complete(self.instance(item, opts), opts) for item in items]

    def complete(self, params: dict, opts: dict) -> dict:
        """``params`` followed by each of ``defaults`` they lack, from ``opts``
        when given there."""
        return {**params, **{k: opts.get(k, v) for k, v in self.defaults.items()
                             if k not in params}}


THEOREMS: dict[str, TheoremSpec] = {
    "abelian": TheoremSpec(
        _run_abelian, "abelian groups have only singleton TSS",
        lambda opts: opts.get("ns", range(1, 31)), _parse_ints, lambda n, opts: {"n": n}),
    "dihedral": TheoremSpec(
        _run_dihedral, "S(D_2n) = 2 with the literal two-family classification",
        lambda opts: opts.get("ns", range(3, 13)), _parse_ints, lambda n, opts: {"n": n}),
    # (7,14,3) has an ill-defined action (ord_7(3) = 6 does not divide 14) and
    # is flagged not-applicable; (7,14,6) and (7,42,3) are the valid even-order
    # instances for those p, m choices.
    "semidirect": TheoremSpec(
        _run_semidirect, "S(Z_p x| Z_m) = 2 when -1 is a power of the action multiplier",
        lambda opts: opts.get("triples", [(3, 6, 2), (5, 20, 2), (7, 14, 3), (7, 14, 6), (7, 42, 3)]),
        _parse_triples, lambda pmk, opts: {"p": pmk[0], "m": pmk[1], "k": pmk[2]}),
    "direct-product": TheoremSpec(
        _run_direct_product, "S(G x H) = max(S(G), S(H)) plus the coordinate-structure corollary",
        lambda opts: _default_product_pairs(),
        _spec_pairs, _pair_instance("left", "right")),
    "free-product": TheoremSpec(
        _run_free_product, "S(G * H) = max(S(G), S(H)); every TSS is a conjugated factor TSS",
        lambda opts: [("cyclic:3", "cyclic:3"), ("dihedral:4", "sym:3")],
        _spec_pairs, _pair_instance("left", "right"), {"max_syllables": 4}),
    "inverse-pair": TheoremSpec(
        _run_inverse_pair, "a TSS containing g and g^-1 is exactly {g, g^-1}",
        lambda opts: opts.get("groups", _SMALL_CORPUS)),
    "odd-order": TheoremSpec(
        _run_odd_order, "odd-order groups have only singleton TSS",
        lambda opts: odd_order_corpus(opts.get("max_order", 200))),
    "solvable": TheoremSpec(
        _run_solvable, "solvable groups satisfy S(G) <= 4 (size 3 occurs: S_4)",
        lambda opts: opts.get("groups", _SOLVABLE_CORPUS)),
    "stabilizer-ses": TheoremSpec(
        _run_stabilizer_ses, "1 -> kernel -> Stab(S) -> Sym(S) -> 1 cardinality identity",
        lambda opts: opts.get("groups", _SMALL_CORPUS), defaults={"samples": 20, "seed": 0}),
    "fundamental-lemma": TheoremSpec(
        _run_fundamental_lemma, "TSS images have full size (and are TSS) or collapse to a point",
        lambda opts: list(_LEMMA_FIXTURES), _names, _lemma_instance),
    "no-injection": TheoremSpec(
        _run_no_injection, "no injective homomorphism when S(source) > S(target)",
        lambda opts: [("sym:4", "dihedral:4"), ("sym:4", "cyclic:12"), ("dihedral:4", "cyclic:8")],
        _spec_pairs, _pair_instance("source", "target", _budget_param)),
    "braid-corollary": TheoremSpec(
        _run_braid_corollary, "homomorphisms B_n -> G are cyclic when S(G) < floor(n/2)",
        lambda opts: [(5, t) for t in ("cyclic:6", "semidirect:7,3,2", "sym:5")],
        _braid_pairs, _pair_instance("strands", "target", _budget_param)),
    "free-group": TheoremSpec(
        _run_free_group, "F_2 words are never conjugate to their inverses; S(F_2) = 1 evidence",
        lambda opts: range(1, opts.get("max_len", 6) + 1), _parse_ints,
        lambda n, opts: {"length": n}),
    "baumslag-solitar": TheoremSpec(
        _run_baumslag, "S(BS(1,n)) is 2 for n = -1 and 1 otherwise (exact swap decisions)",
        lambda opts: opts.get("ns", [-3, -2, -1, 2, 3]), _parse_ints, lambda n, opts: {"n": n},
        {"radius": 4, "bound": 6}),
    "oracle": TheoremSpec(
        _run_oracle, "pruned enumerator matches the no-pruning brute-force oracle",
        lambda opts: opts.get("groups", _ORACLE_CORPUS)),
}


def _run_instance(arg: tuple[str, dict]) -> SuiteInstance:
    theorem, params = arg
    start = time.perf_counter()
    instance = THEOREMS[theorem].runner(params)
    return replace(instance, elapsed_s=time.perf_counter() - start)


def verify_suite(
    theorem: str,
    grid: Optional[list[dict]] = None,
    *,
    jobs: int = 1,
    out_dir: Optional[str] = None,
    **options: Any,
) -> SuiteResult:
    """Run one theorem suite over its grid, optionally across worker processes.

    Without ``grid`` the suite's default grid is built from ``options``.  A
    given grid's params that lack one of the suite's defaulted params (the
    BS radius and bound, say) take it from ``options`` or its default.
    Worker outputs are collected in grid order, so runs are deterministic for
    any job count.
    """
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {', '.join(sorted(THEOREMS))}")
    start = time.perf_counter()
    spec = THEOREMS[theorem]
    instances_params = (spec.grid(options) if grid is None
                        else [spec.complete(params, options) for params in grid])
    if not instances_params:
        raise GroupError(f"verify {theorem}: the grid has no instances")
    args = [(theorem, p) for p in instances_params]
    if jobs > 1 and len(args) > 1:
        # the pool (with multiprocessing and subprocess) loads only when used
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            instances = tuple(pool.map(_run_instance, args))
    else:
        instances = tuple(_run_instance(a) for a in args)
    result = SuiteResult(
        theorem=theorem,
        instances=instances,
        passed=all(not i.failed for i in instances),
        elapsed_s=time.perf_counter() - start,
    )
    if out_dir is not None:
        path = Path(out_dir)
        path.mkdir(parents=True, exist_ok=True)
        artifact = path / f"{theorem}.json"
        artifact.write_text(json.dumps(suite_result_to_json(result), indent=2, sort_keys=True) + "\n")
        result = replace(result, artifacts=(str(artifact),))
    return result


def suite_result_to_json(result: SuiteResult) -> dict[str, Any]:
    return {
        "format": FORMAT_VERSION,
        "theorem": result.theorem,
        "passed": result.passed,
        "elapsed_s": result.elapsed_s,
        "artifacts": list(result.artifacts),
        "instances": [
            {
                "params": i.params,
                "verdict": i.verdict,
                "detail": i.detail,
                "counterexample": i.counterexample,
                "repro": i.repro,
                "elapsed_s": i.elapsed_s,
            }
            for i in result.instances
        ],
    }


# --- summary table -----------------------------------------------------------

def table_rows() -> list[tuple[str, str]]:
    """The classification summary: computed S values per family, deterministic."""
    def s_of(spec: str) -> int:
        return tss.max_tss_size(parse_group_spec(spec)).s_of_g

    ev_ok = all(f2.f2_tss_obstruction(w).certified for w in _all_reduced_words(4))
    bs_rigid = bs.bs_classification_check(2, 3, bound=4)
    bs_minus = bs.bs_classification_check(-1, 3, bound=4)
    biggest = 1
    for clique in fp.fp_commuting_cliques(parse_group_spec("cyclic:3"),
                                          parse_group_spec("cyclic:3"), 3):
        verdict = fp.fp_tss_analyze(clique)
        if verdict.is_tss:
            biggest = max(biggest, verdict.size)
    return [
        (str(s_of("cyclic:12")), "Abelian (Z12)"),
        ("1" if ev_ok else "?", "Free group F2 (words <= 4, bounded)"),
        (str(s_of("semidirect:7,3,2")), "Odd order (Z7 x| Z3)"),
        ("1" if bs_rigid.all_ok else "?", "BS(1,2) (radius 3, bounded)"),
        (str(s_of("dihedral:5")), "Dihedral (D10)"),
        (str(s_of("semidirect:3,6,2")), "Z3 x| Z6 (k=2)"),
        ("2" if bs_minus.all_ok else "?", "BS(1,-1) (radius 3)"),
        (f"{s_of('sym:4')} (<= 4)", "Solvable (S4; bound from the SES)"),
        (f"max = {s_of('product:dihedral:3,sym:4')}", "Direct product (D6 x S4)"),
        (f"max = {biggest}", "Free product (Z3 * Z3, ball 3)"),
    ]
