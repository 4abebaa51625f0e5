"""Theorem verification suites and the summary-table runner.

Each suite reproduces one classification or corollary over a parameter grid
and reports per-instance verdicts: pass, fail, not-applicable, or
exhausted(bound) for bounded searches in infinite groups.  Failures carry a
minimal counterexample and a re-runnable command line.  A suite declares its
parameters once, on its ``TheoremSpec``: its grid fields and options with their
kinds, default values and ranges.  The --grid parser, the default grid, every
range check and the options the CLI passes are read from that declaration.
"""

from __future__ import annotations

import json
import math
import random
import re
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from . import homs, tss
from .groups import (
    DEFAULT_ORDER_CAP,
    FiniteGroup,
    GroupError,
    SemidirectParams,
    derived_series,
    direct_product,
    split_product_index,
)
from .schemas import FORMAT_VERSION, certificate_to_json
from .specs import group_spec_builder, parse_group_spec
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
    value: Optional[int] = None  # the number a passing runner established, for the table

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
        return SuiteInstance(params, "pass", f"S({g.name}) = {s}{note(s)}", value=s)
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
    g = parse_group_spec(f"dihedral:{n}")
    levels = list(tss.tss_by_size(g))
    found = [c.elements for c in levels[1]] if len(levels) > 1 else []
    expected = [tuple(p) for p in predicted_dihedral_pairs(n)]
    if len(levels) == 2 and found == expected:
        note = " (reflection family present)" if n % 4 == 0 else ""
        return SuiteInstance(params, "pass", f"S(D{2*n}) = 2, {len(found)} literal sets{note}",
                             value=len(levels))
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
    prod = direct_product(g, h)
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
    return SuiteInstance(params, "pass", detail, value=expected)


# --- free product ------------------------------------------------------------

def _run_free_product(params: dict) -> SuiteInstance:
    left_spec, right_spec = params["left"], params["right"]
    max_syllables = params["max_syllables"]
    g = parse_group_spec(left_spec)
    h = parse_group_spec(right_spec)
    bound = max(tss.max_tss_size(g).s_of_g, tss.max_tss_size(h).s_of_g)
    certified = 0
    biggest = 1
    for family in fp.fp_families(g, h, max_syllables):
        if family.roots is not None:
            # distinct powers of one element, checked once: no clique is a TSS
            fp.fp_check_power_family(family)
            continue
        for clique in fp.fp_family_cliques(family):
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
        f"largest {biggest} <= max factor bound {bound}", value=biggest,
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
    products = [("cyclic:3", "cyclic:7"), ("cyclic:5", "cyclic:5"), ("cyclic:3", "semidirect:7,3,2"),
                ("cyclic:9", "cyclic:49"), ("semidirect:7,3,2", "semidirect:7,3,2"),
                ("semidirect:13,3,3", "cyclic:11")]
    orders = {s: parse_group_spec(s).order for pair in products for s in pair}
    specs += [f"product:{a},{b}" for a, b in products if orders[a] * orders[b] <= max_order]
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
    rng = random.Random(params["seed"])
    for _ in range(params["samples"]):
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


def _lemma_branch(params: dict) -> dict:
    """The fixture's branch as ``expect``, which a given ``expect`` must match."""
    expect = _LEMMA_FIXTURES[params["fixture"]][0]
    if params.get("expect", expect) != expect:
        raise ValueError(f"expect {params['expect']!r} does not match fixture "
                         f"{params['fixture']!r}, whose branch is {expect!r}")
    return {"expect": expect}


def _run_fundamental_lemma(params: dict) -> SuiteInstance:
    fixture = params["fixture"]
    expect, spec, build = _LEMMA_FIXTURES[fixture]
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

def _reduced_words(length: int, prefix: tuple[int, ...] = ()) -> Iterator[f2.FreeWord]:
    """The reduced words of ``length``, one at a time, in order of the letters 1, -1, 2, -2."""
    if len(prefix) == length:
        yield f2.FreeWord(prefix)
        return
    for x in (1, -1, 2, -2):
        if not prefix or prefix[-1] != -x:
            yield from _reduced_words(length, prefix + (x,))


def _run_free_group(params: dict) -> SuiteInstance:
    length = params["length"]
    for w in _reduced_words(length):
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
        f"all {4 * 3 ** (length - 1)} reduced words of length {length}: "
        f"never conjugate to the inverse, obstruction certified", value=1,
    )


# --- Baumslag-Solitar ---------------------------------------------------------

def _run_baumslag(params: dict) -> SuiteInstance:
    n, radius, bound = params["n"], params["radius"], params["bound"]
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
            f"exact unique-solution conditions verified", value=1,
        )
    if report.branch == "abelian":
        return SuiteInstance(params, "pass", f"BS(1,{n}) abelian: only singletons", value=1)
    return SuiteInstance(params, "pass", f"BS(1,{n}): {len(report.instances)} certified size-2 "
                         f"TSS, no size-3 extension", value=2)


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


# --- parameters --------------------------------------------------------------

# longest integer range a --grid may spell, e.g. 3-12; checked before expanding
GRID_RANGE_CAP = 1000


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


@dataclass(frozen=True)
class Param:
    """A suite parameter: a field of its grid items, or an option.  An option
    enters each instance's params with its ``default``, only when given if
    that is None, or never if it only sizes the default grid (``grid_only``)."""
    key: str
    kind: str = "int"  # int, spec (a group spec) or fixture (a fundamental-lemma fixture)
    low: Optional[int] = None  # the inclusive range of an int
    high: Optional[int] = None
    default: Any = None
    grid_only: bool = False

    def check(self, value: Any) -> Any:
        """``value``, or a ValueError that names the key."""
        if self.kind == "spec":
            try:
                group_spec_builder(value)  # the syntax only: no group is built here
            except GroupError as exc:
                raise ValueError(f"{self.key}: {exc}") from None
        if self.kind == "fixture" and value not in _LEMMA_FIXTURES:
            raise ValueError(f"unknown fundamental-lemma fixture {value!r}; "
                             f"known fixtures: {', '.join(_LEMMA_FIXTURES)}")
        if self.low is not None and value < self.low:
            raise ValueError(f"{self.key} must be >= {self.low}, got {value}")
        if self.high is not None and value > self.high:
            raise ValueError(f"{self.key} must be <= {self.high}, got {value}")
        return value


@dataclass(frozen=True)
class TheoremSpec:
    """A suite: its runner and the one declaration of its parameters.  A --grid
    item is the ``fields`` joined by ``sep``, items are joined by ';', and a
    lone int field also takes ranges such as '3-12'.  ``check`` checks fields
    against each other and may return params derived from them."""
    runner: Callable[[dict], SuiteInstance]
    description: str
    default_grid: Callable[[dict], str]  # the --grid text run without one, from the options
    fields: tuple[Param, ...] = (Param("group", "spec"),)
    options: tuple[Param, ...] = ()
    sep: str = "+"
    syntax: str = "<spec>+<spec> pairs joined by ';'"  # the item form, in errors
    check: Callable[[dict], Optional[dict]] = lambda params: None

    def parse(self, text: str) -> list[dict]:
        """The fields of each item of the --grid ``text``."""
        if len(self.fields) == 1 and self.fields[0].kind == "int":
            return [{self.fields[0].key: n} for n in _parse_ints(text)]
        out = []
        for item in filter(str.strip, text.split(";")):
            parts = [part.strip() for part in item.split(self.sep, len(self.fields) - 1)]
            try:
                if len(parts) < len(self.fields) or not all(parts):
                    raise ValueError
                out.append({f.key: int(part) if f.kind == "int" else part
                            for f, part in zip(self.fields, parts)})
            except ValueError:
                raise GroupError(f"bad --grid item {item!r}; expected {self.syntax}") from None
        return out

    def settings(self, theorem: str, given: dict) -> dict:
        """Each option, ``given`` or its default; only ``seed`` may be undeclared."""
        for key in sorted(given.keys() - {o.key for o in self.options} - {"seed"}):
            raise ValueError(f"verify {theorem} takes no --{key.replace('_', '-')}")
        return {o.key: o.check(given[o.key]) if o.key in given else o.default
                for o in self.options}

    def complete(self, params: dict, settings: dict) -> dict:
        """``params``, checked, with what ``check`` derives and each option they lack."""
        for f in self.fields:
            f.check(params[f.key])
        out = {**params, **(self.check(params) or {})}
        for o in self.options:
            value = out.get(o.key, settings[o.key])
            if not o.grid_only and value is not None:
                out[o.key] = o.check(value)
        return out


# --- registry ----------------------------------------------------------------

_SOLVABLE_CORPUS = ("cyclic:8;cyclic:12;dihedral:3;dihedral:4;dihedral:5;dihedral:6;sym:3;sym:4;"
                    "semidirect:3,6,2;semidirect:7,3,2;product:dihedral:4,sym:3;"
                    "product:sym:3,sym:4;sym:5")
_SMALL_CORPUS = ("cyclic:6;cyclic:8;dihedral:3;dihedral:4;dihedral:5;dihedral:6;sym:3;sym:4;"
                 "semidirect:3,6,2;semidirect:7,3,2;product:cyclic:2,dihedral:4;"
                 "product:cyclic:3,sym:3")
_ORACLE_CORPUS = ";".join([
    *(f"cyclic:{n}" for n in (1, 2, 3, 4, 5, 6, 7, 8, 12, 24)),
    *(f"dihedral:{n}" for n in range(3, 13)),
    "sym:3;sym:4;semidirect:3,6,2;semidirect:7,3,2;product:cyclic:2,cyclic:2",
    "product:cyclic:2,dihedral:4;product:cyclic:3,sym:3;product:cyclic:2,cyclic:12"])

_PRODUCT_FACTORS = ["cyclic:5", "cyclic:6", "dihedral:3", "dihedral:4", "sym:3", "sym:4"]
_PRODUCT_PAIRS = ";".join(f"{a}+{b}" for i, a in enumerate(_PRODUCT_FACTORS)
                          for b in _PRODUCT_FACTORS[i:])

_SPEC_PAIR = (Param("left", "spec"), Param("right", "spec"))
_BUDGET = Param("budget", low=1)  # enters params only when given, so default runs keep their JSON

# The caps bound what one instance builds or runs: B_n has (n-1)(n-2)/2 relators, the
# free-product ball grows about 5x a syllable, and BS(1,n) pairs a (2 radius + 1)^2 ball.
THEOREMS: dict[str, TheoremSpec] = {
    "abelian": TheoremSpec(
        _run_abelian, "abelian groups have only singleton TSS",
        lambda opts: "1-30", (Param("n", low=1, high=DEFAULT_ORDER_CAP),)),
    "dihedral": TheoremSpec(  # D2 and D4 are abelian, with S = 1
        _run_dihedral, "S(D_2n) = 2 with the literal two-family classification",
        lambda opts: "3-12", (Param("n", low=3, high=DEFAULT_ORDER_CAP // 2),)),
    # (7,14,3) has an ill-defined action (ord_7(3) = 6 does not divide 14) and
    # is flagged not-applicable; (7,14,6) and (7,42,3) are the valid even-order
    # instances for those p, m choices.
    "semidirect": TheoremSpec(
        _run_semidirect, "S(Z_p x| Z_m) = 2 when -1 is a power of the action multiplier",
        lambda opts: "3,6,2;5,20,2;7,14,3;7,14,6;7,42,3", (Param("p"), Param("m"), Param("k")),
        sep=",", syntax="'p,m,k' integer triples joined by ';', e.g. '3,6,2;5,20,2'",
        check=lambda params: SemidirectParams.check_ranges(params["p"], params["m"], params["k"])),
    "direct-product": TheoremSpec(
        _run_direct_product, "S(G x H) = max(S(G), S(H)) plus the coordinate-structure corollary",
        lambda opts: _PRODUCT_PAIRS, _SPEC_PAIR),
    "free-product": TheoremSpec(
        _run_free_product, "S(G * H) = max(S(G), S(H)); every TSS is a conjugated factor TSS",
        lambda opts: "cyclic:3+cyclic:3;dihedral:4+sym:3", _SPEC_PAIR,
        (Param("max_syllables", low=1, high=6, default=4),)),
    "inverse-pair": TheoremSpec(
        _run_inverse_pair, "a TSS containing g and g^-1 is exactly {g, g^-1}",
        lambda opts: _SMALL_CORPUS),
    "odd-order": TheoremSpec(
        _run_odd_order, "odd-order groups have only singleton TSS",
        lambda opts: ";".join(odd_order_corpus(opts["max_order"])),
        options=(Param("max_order", default=200, grid_only=True),)),
    "solvable": TheoremSpec(
        _run_solvable, "solvable groups satisfy S(G) <= 4 (size 3 occurs: S_4)",
        lambda opts: _SOLVABLE_CORPUS),
    "stabilizer-ses": TheoremSpec(
        _run_stabilizer_ses, "1 -> kernel -> Stab(S) -> Sym(S) -> 1 cardinality identity",
        lambda opts: _SMALL_CORPUS,
        options=(Param("samples", low=0, high=10000, default=20), Param("seed", default=0))),
    "fundamental-lemma": TheoremSpec(
        _run_fundamental_lemma, "TSS images have full size (and are TSS) or collapse to a point",
        lambda opts: ";".join(_LEMMA_FIXTURES), (Param("fixture", "fixture"),), (_BUDGET,),
        check=_lemma_branch),
    "no-injection": TheoremSpec(
        _run_no_injection, "no injective homomorphism when S(source) > S(target)",
        lambda opts: "sym:4+dihedral:4;sym:4+cyclic:12;dihedral:4+cyclic:8",
        (Param("source", "spec"), Param("target", "spec")), (_BUDGET,)),
    "braid-corollary": TheoremSpec(
        _run_braid_corollary, "homomorphisms B_n -> G are cyclic when S(G) < floor(n/2)",
        lambda opts: "5+cyclic:6;5+semidirect:7,3,2;5+sym:5",
        (Param("strands", low=5, high=100), Param("target", "spec")), (_BUDGET,),
        syntax="<strands>+<spec> pairs joined by ';', e.g. '5+sym:5'"),
    "free-group": TheoremSpec(
        _run_free_group, "F_2 words are never conjugate to their inverses; S(F_2) = 1 evidence",
        lambda opts: f"1-{opts['max_len']}", (Param("length", low=1, high=12),),
        (Param("max_len", high=12, default=6, grid_only=True),)),
    "baumslag-solitar": TheoremSpec(
        _run_baumslag, "S(BS(1,n)) is 2 for n = -1 and 1 otherwise (exact swap decisions)",
        lambda opts: "-3,-2,-1,2,3", (Param("n"),),
        (Param("radius", low=1, high=bs.RADIUS_CAP, default=bs.DEFAULT_RADIUS),
         Param("bound", low=1, default=bs.DEFAULT_BOUND))),
    "oracle": TheoremSpec(
        _run_oracle, "pruned enumerator matches the no-pruning brute-force oracle",
        lambda opts: _ORACLE_CORPUS),
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

    ``options`` are those the suite declares, and ``seed``; without ``grid``
    they build the default grid.  Each instance's params are checked and take
    the options they lack (the BS radius and bound, say).  Worker outputs are
    collected in grid order, so runs are deterministic for any job count.
    """
    if theorem not in THEOREMS:
        raise KeyError(f"unknown theorem id {theorem!r}; known: {', '.join(sorted(THEOREMS))}")
    start = time.perf_counter()
    spec = THEOREMS[theorem]
    settings = spec.settings(theorem, options)
    grid = spec.parse(spec.default_grid(settings)) if grid is None else grid
    instances_params = [spec.complete(params, settings) for params in grid]
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

# (suite, --grid item, options, family, cell format): each row is one suite run,
# and its cell formats the value its instances record
TABLE_ROSTER = (
    ("abelian", "12", {}, "Abelian (Z12)", "{}"),
    ("free-group", "1-4", {}, "Free group F2 (words <= 4, bounded)", "{}"),
    ("odd-order", "semidirect:7,3,2", {}, "Odd order (Z7 x| Z3)", "{}"),
    ("baumslag-solitar", "2", {"radius": 3, "bound": 4}, "BS(1,2) (radius 3, bounded)", "{}"),
    ("dihedral", "5", {}, "Dihedral (D10)", "{}"),
    ("semidirect", "3,6,2", {}, "Z3 x| Z6 (k=2)", "{}"),
    ("baumslag-solitar", "-1", {"radius": 3, "bound": 4}, "BS(1,-1) (radius 3)", "{}"),
    ("solvable", "sym:4", {}, "Solvable (S4; bound from the SES)", "{} (<= 4)"),
    ("direct-product", "dihedral:3+sym:4", {}, "Direct product (D6 x S4)", "max = {}"),
    ("free-product", "cyclic:3+cyclic:3", {"max_syllables": 3},
     "Free product (Z3 * Z3, ball 3)", "max = {}"),
)


def table_rows() -> list[tuple[str, str]]:
    """The classification summary, one row per ``TABLE_ROSTER`` entry: its
    cell is the largest value its instances record, or '?' when one of them
    records none (it failed, or does not apply)."""
    rows = []
    for theorem, item, options, family, cell in TABLE_ROSTER:
        result = verify_suite(theorem, THEOREMS[theorem].parse(item), jobs=1, **options)
        values = [i.value for i in result.instances]
        rows.append(("?" if None in values else cell.format(max(values)), family))
    return rows
