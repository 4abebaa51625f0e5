"""Command-line surface.

Each command imports only what it runs: the theorem suites (``verify``) and
the word arithmetic (``words``) load inside the commands that use them, so
``tss``, ``group``, ``stab`` and ``hom`` start without them.

Exit codes: 0 pass, 1 theorem-check failure, 2 usage or input error,
3 enumeration budget exhausted.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

from . import homs, tss
from .cayley import from_cayley_table, to_cayley_table
from .groups import GroupError, conjugacy_classes, derived_series
from .schemas import (
    FORMAT_VERSION,
    braid_report_to_json,
    certificate_to_json,
    stabilizer_to_json,
    tss_report_to_json,
)
from .specs import GroupSpecError, parse_group_spec, split_spec_pair

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

# how many words each `word` op takes; None means one or more
F2_ARITY = {"reduce": 1, "mul": None, "inverse": 1, "commutes": 2, "conjugate": 2,
            "obstruction": 1}
BS_ARITY = {"mul": None, "inverse": 1, "commutes": 2, "swap": 2, "classify": 0}
FP_ARITY = {"mul": None, "inverse": 1, "reduce": 1, "cyclic": 1, "analyze": None}


def _positive_int(source: str) -> Callable[[str], int]:
    """An argparse type that accepts only positive integers, naming ``source``
    in its error."""
    def parse(text: str) -> int:
        try:
            value = int(text)
            if value >= 1:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"expected a positive integer (from {source}), got {text!r}"
        )
    return parse


_JOBS = _positive_int("--jobs or TSSLAB_JOBS")


class _SuiteNames:
    """The choices of ``verify``'s positional: the sorted suite names, read
    from ``verify.THEOREMS`` only when argparse checks or lists them.  So
    only a ``verify`` command, its help or its usage error imports the
    suites."""

    def _sorted(self) -> list[str]:
        from . import verify

        return sorted(verify.THEOREMS)

    def __contains__(self, name: object) -> bool:
        return name in self._sorted()

    def __iter__(self) -> Iterator[str]:
        return iter(self._sorted())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsslab",
        description="Exact computation engine for totally symmetric sets in groups.",
    )
    parser.add_argument("--format", choices=("text", "json", "csv"), default="text")
    # without --jobs, main reads TSSLAB_JOBS on each call, not once here
    parser.add_argument("--jobs", type=_JOBS, default=None,
                        help="worker processes for verify grids (env TSSLAB_JOBS)")
    parser.add_argument("--seed", type=int, default=0, help="seed for sampled checks")
    parser.add_argument("--budget", type=_positive_int("--budget"),
                        default=homs.DEFAULT_HOM_BUDGET,
                        help="node budget for homomorphism enumeration")
    parser.add_argument("--out", type=str, default=None,
                        help="directory for JSON evidence artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p_group = sub.add_parser("group", help="build or inspect table groups")
    group_sub = p_group.add_subparsers(dest="group_command", required=True)
    p_build = group_sub.add_parser("build", help="emit a Cayley-table document")
    p_build.add_argument("--spec", required=True)
    p_build.add_argument("--to", type=str, default=None, help="output file (default stdout)")
    p_info = group_sub.add_parser("info", help="order, abelianness, classes, solvability")
    p_info.add_argument("--spec", "--group", dest="spec", required=True)

    p_tss = sub.add_parser("tss", help="totally symmetric set search")
    tss_sub = p_tss.add_subparsers(dest="tss_command", required=True)
    p_max = tss_sub.add_parser("max", help="S(G) with maximal certified sets")
    p_max.add_argument("--group", required=True)
    p_max.add_argument("--up-to-conjugacy", action="store_true")
    p_list = tss_sub.add_parser("list", help="all TSS of one size")
    p_list.add_argument("--group", required=True)
    p_list.add_argument("--size", type=int, required=True)
    p_list.add_argument("--up-to-conjugacy", action="store_true")
    p_check = tss_sub.add_parser("check", help="decide one candidate set")
    p_check.add_argument("--group", required=True)
    p_check.add_argument("--elements", required=True, help="comma-separated indices")

    p_stab = sub.add_parser("stab", help="stabilizer decompositions")
    stab_sub = p_stab.add_subparsers(dest="stab_command", required=True)
    p_dec = stab_sub.add_parser("decompose")
    p_dec.add_argument("--group", required=True)
    p_dec.add_argument("--elements", required=True)

    p_hom = sub.add_parser("hom", help="homomorphism enumeration and checks")
    hom_sub = p_hom.add_subparsers(dest="hom_command", required=True)
    p_enum = hom_sub.add_parser("enumerate")
    p_enum.add_argument("--presentation", required=True, help="braid:N")
    p_enum.add_argument("--target", required=True)
    p_enum.add_argument("--limit", type=int, default=20,
                        help="image tuples shown in text mode")
    p_braid = hom_sub.add_parser("braid-check")
    p_braid.add_argument("--strands", type=int, required=True)
    p_braid.add_argument("--target", required=True)

    p_word = sub.add_parser("word", help="exact infinite-group word operations")
    word_sub = p_word.add_subparsers(dest="word_command", required=True)
    p_f2 = word_sub.add_parser("f2", help="free group on a, b")
    p_f2.add_argument("op", choices=tuple(F2_ARITY))
    p_f2.add_argument("words", nargs="*")
    p_bs = word_sub.add_parser("bs", help="Baumslag-Solitar BS(1,n)")
    p_bs.add_argument("--n", type=int, required=True)
    p_bs.add_argument("op", choices=tuple(BS_ARITY))
    p_bs.add_argument("words", nargs="*")
    # without them, _cmd_word_bs takes the library's defaults
    p_bs.add_argument("--bound", type=int, default=None)
    p_bs.add_argument("--radius", type=int, default=None)
    p_fp = word_sub.add_parser("fp", help="free product of two table groups")
    p_fp.add_argument("--factors", required=True, help="<spec>,<spec>")
    p_fp.add_argument("op", choices=tuple(FP_ARITY))
    p_fp.add_argument("words", nargs="*")

    p_verify = sub.add_parser("verify", help="run a theorem suite")
    # set after add_argument, whose metavar check iterates the choices
    p_verify.add_argument("theorem").choices = _SuiteNames()
    p_verify.add_argument("--grid", type=str, default=None,
                          help="theorem-specific grid override")
    p_verify.add_argument("--max-order", type=int, default=None)
    p_verify.add_argument("--max-len", type=int, default=None)
    p_verify.add_argument("--max-syllables", type=int, default=None)
    p_verify.add_argument("--radius", type=int, default=None)
    p_verify.add_argument("--bound", type=int, default=None)
    p_verify.add_argument("--samples", type=int, default=None)

    sub.add_parser("table", help="the summary table of S values per family")
    return parser


def _emit(doc: dict[str, Any], args: argparse.Namespace, text_lines: list[str],
          csv_rows: Optional[list[list[Any]]] = None) -> None:
    if args.format == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    elif args.format == "csv" and csv_rows is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(csv_rows)
        sys.stdout.write(buf.getvalue())
    else:
        for line in text_lines:
            print(line)


def _parse_elements(text: str) -> list[int]:
    try:
        elems = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        elems = []
    if not elems:
        raise GroupError(f"bad --elements {text!r}; expected comma-separated integers")
    return elems


def _cmd_group(args: argparse.Namespace) -> int:
    if args.group_command == "build":
        g = parse_group_spec(args.spec)
        text = to_cayley_table(g)
        if args.to:
            Path(args.to).write_text(text)
            print(f"wrote {g.name} (order {g.order}) to {args.to}")
        else:
            sys.stdout.write(text)
        return EXIT_PASS
    g = parse_group_spec(args.spec)
    part = conjugacy_classes(g)
    series = derived_series(g)
    doc = {
        "name": g.name,
        "order": g.order,
        "abelian": g.is_abelian,
        "conjugacy_classes": len(part.classes),
        "class_sizes": [len(c) for c in part.classes],
        "solvable": series.solvable,
        "derived_series_orders": [len(t) for t in series.terms],
        "assoc_verified": g.assoc_verified,
    }
    lines = [f"{k}: {v}" for k, v in doc.items()]
    _emit(doc, args, lines, [[k, v] for k, v in doc.items()])
    return EXIT_PASS


def _cmd_tss(args: argparse.Namespace) -> int:
    g = parse_group_spec(args.group)
    if args.tss_command == "max":
        report = tss.max_tss_size(g, up_to_conjugacy=args.up_to_conjugacy)
        doc = tss_report_to_json(report, order=g.order)
        lines = [f"group: {g.name} (order {g.order})", f"s_of_g: {report.s_of_g}"]
        lines += [f"tss of size {k}: {v}" for k, v in sorted(report.counts.items())]
        for cert in report.maximal_sets:
            labels = ", ".join(g.label(x) for x in cert.elements)
            lines.append(f"maximal {cert.elements}: {{{labels}}}")
        rows = [["group", "s_of_g"], [g.name, report.s_of_g]]
        _emit(doc, args, lines, rows)
        return EXIT_PASS
    if args.tss_command == "list":
        certs = tss.enumerate_tss(g, args.size)
        if args.up_to_conjugacy:
            certs = tss.dedup_up_to_conjugacy(g, certs)
        doc = {
            "format": FORMAT_VERSION,
            "group": g.name,
            "size": args.size,
            "sets": [certificate_to_json(c) for c in certs],
        }
        lines = [f"{len(certs)} TSS of size {args.size} in {g.name}"]
        for cert in certs:
            labels = ", ".join(g.label(x) for x in cert.elements)
            lines.append(f"{cert.elements}: {{{labels}}} witnesses {cert.witnesses}")
        rows = [["elements", "labels"]] + [
            [" ".join(map(str, c.elements)), " | ".join(g.label(x) for x in c.elements)]
            for c in certs
        ]
        _emit(doc, args, lines, rows)
        return EXIT_PASS
    elems = _parse_elements(args.elements)
    cert = tss.certify_tss(g, elems)
    doc = {
        "group": g.name,
        "elements": sorted(elems),
        "is_tss": cert is not None,
        "certificate": certificate_to_json(cert) if cert else None,
    }
    lines = [f"{tuple(sorted(elems))} in {g.name}: "
             + ("TSS" if cert else "not a TSS")]
    if cert:
        lines.append(f"witnesses: {cert.witnesses}")
    _emit(doc, args, lines, [["is_tss", cert is not None]])
    return EXIT_PASS


def _cmd_stab(args: argparse.Namespace) -> int:
    g = parse_group_spec(args.group)
    elems = _parse_elements(args.elements)
    dec = tss.realized_permutations(g, elems)
    doc = stabilizer_to_json(dec)
    doc["group"] = g.name
    doc["elements"] = sorted(elems)
    lines = [
        f"set {tuple(sorted(elems))} in {g.name}",
        f"|stabilizer| = {len(dec.stabilizer)}, |kernel| = {len(dec.kernel)}, "
        f"|realized| = {len(dec.realized)} "
        f"({len(dec.kernel)} * {len(dec.realized)} = {len(dec.kernel) * len(dec.realized)})",
    ]
    for perm, witness in sorted(dec.realized.items()):
        lines.append(f"permutation {perm}: witness {witness} ({g.label(witness)})")
    _emit(doc, args, lines,
          [["stabilizer", "kernel", "realized"],
           [len(dec.stabilizer), len(dec.kernel), len(dec.realized)]])
    return EXIT_PASS


def _cmd_hom(args: argparse.Namespace) -> int:
    target = parse_group_spec(args.target)
    if args.hom_command == "enumerate":
        if args.limit < 0:
            raise GroupError(f"--limit must be a non-negative integer, got {args.limit}")
        pres = _parse_presentation(args.presentation)
        found = list(homs.enumerate_homs(pres, target, budget=args.budget))
        doc = {
            "format": FORMAT_VERSION,
            "presentation": args.presentation,
            "target": target.name,
            "hom_count": len(found),
            "images": [list(h.images) for h in found],
        }
        lines = [f"{len(found)} homomorphisms {args.presentation} -> {target.name}"]
        for h in found[: args.limit]:
            lines.append(f"images {h.images}")
        if len(found) > args.limit:
            lines.append(f"... {len(found) - args.limit} more (use --format json for all)")
        _emit(doc, args, lines,
              [["images"]] + [[" ".join(map(str, h.images))] for h in found])
        return EXIT_PASS

    report = homs.braid_cyclic_corollary_check(args.strands, target, budget=args.budget)
    if args.format == "text":
        for images in report.noncyclic_images:
            print(f"non-cyclic image: generator images {images}")
    doc = braid_report_to_json(report)
    if not report.applicable:
        lines = [
            f"corollary not applicable: S({target.name}) = {report.s_target} "
            f">= floor({args.strands}/2) = {report.threshold}"
        ]
    else:
        lines = [
            f"{report.hom_count} homomorphisms B_{args.strands} -> {target.name}",
            f"image order histogram: {report.image_order_histogram}",
            f"all cyclic: {report.all_cyclic}",
        ]
    _emit(doc, args, lines,
          [["hom_count", "all_cyclic", "applicable"],
           [report.hom_count, report.all_cyclic, report.applicable]])
    if args.out:
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / f"braid-{args.strands}-{target.name}.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        )
    return EXIT_PASS if report.all_cyclic else EXIT_FAIL


def _parse_presentation(text: str) -> homs.Presentation:
    kind, _, strands = text.partition(":")
    if kind == "braid" and strands.strip().isdecimal():
        return homs.braid_presentation(int(strands))
    raise GroupError(
        f"bad presentation {text!r}; expected braid:N with an integer strand count N >= 2, "
        f"e.g. braid:4"
    )


def _check_word_count(args: argparse.Namespace, arity: dict[str, Optional[int]]) -> None:
    want, got = arity[args.op], len(args.words)
    if got != want and not (want is None and got > 0):
        expected = ("one or more words" if want is None else "no words" if want == 0
                    else f"{want} word{'s' * (want > 1)}")
        raise GroupError(f"word {args.word_command} {args.op} expects {expected}, got {got}")


def _cmd_word_f2(args: argparse.Namespace) -> int:
    from .words import freegroup as f2

    _check_word_count(args, F2_ARITY)
    op = args.op
    if op == "reduce":
        w = f2.f2_reduce(f2.parse_f2_letters(args.words[0]))
        print(f2.format_f2(w))
        return EXIT_PASS
    words = [f2.parse_f2(t) for t in args.words]
    if op == "mul":
        print(f2.format_f2(functools.reduce(f2.f2_multiply, words)))
    elif op == "inverse":
        print(f2.format_f2(f2.f2_inverse(words[0])))
    elif op == "commutes":
        res = f2.f2_commutes(words[0], words[1])
        if res is None:
            print("no")
            return EXIT_PASS
        print(f"yes: root {f2.format_f2(res.root)}, exponents ({res.exp_u}, {res.exp_v})")
    elif op == "conjugate":
        witness = f2.f2_conjugate_test(words[0], words[1])
        print("no" if witness is None else f"yes: witness {f2.format_f2(witness)}")
    else:
        ev = f2.f2_tss_obstruction(words[0])
        print(
            f"word {f2.format_f2(ev.word)}: root {f2.format_f2(ev.root)}^{ev.exponent}; "
            f"swap partner forced to {f2.format_f2(ev.inverse_power)}; "
            f"conjugate to it: {ev.conjugate_to_inverse}; "
            f"no size-2 TSS: {ev.certified}"
        )
    return EXIT_PASS


def _cmd_word_bs(args: argparse.Namespace) -> int:
    from .words import baumslag as bs

    _check_word_count(args, BS_ARITY)
    n = args.n
    bound = bs.DEFAULT_BOUND if args.bound is None else args.bound
    if args.op == "classify":
        radius = bs.DEFAULT_RADIUS if args.radius is None else args.radius
        report = bs.bs_classification_check(n, radius, bound=bound)
        print(f"BS(1,{n}) branch {report.branch}: {len(report.instances)} instances, "
              f"all_ok {report.all_ok}")
        for inst in report.instances[:10]:
            print(f"  {bs.format_bs(inst.u, n)} / {bs.format_bs(inst.v, n)}: "
                  f"{inst.verdict} ({inst.detail})")
        if len(report.instances) > 10:
            print(f"  ... {len(report.instances) - 10} more")
        return EXIT_PASS if report.all_ok else EXIT_FAIL
    words = [bs.parse_bs(t, n) for t in args.words]
    if args.op == "mul":
        print(bs.format_bs(functools.reduce(lambda u, v: bs.bs_multiply(u, v, n), words), n))
    elif args.op == "inverse":
        print(bs.format_bs(bs.bs_inverse(words[0], n), n))
    elif args.op == "commutes":
        print("yes" if bs.bs_commutes(words[0], words[1], n) else "no")
    else:
        res = bs.bs_swap_decide(words[0], words[1], n, bound)
        print(res.describe() if res.witness is None
              else f"witness {bs.format_bs(res.witness, n)}")
    return EXIT_PASS


def _cmd_word_fp(args: argparse.Namespace) -> int:
    from .words import freeproduct as fp

    _check_word_count(args, FP_ARITY)
    try:
        left_spec, right_spec = split_spec_pair(args.factors)
    except GroupSpecError as exc:
        raise GroupError(f"bad --factors {args.factors!r}: {exc}") from exc
    left = parse_group_spec(left_spec)
    right = parse_group_spec(right_spec)
    if args.op == "reduce":
        w = fp.parse_fp_raw(args.words[0], left, right)
        print(fp.format_fp(w))
        return EXIT_PASS
    words = [fp.parse_fp(t, left, right) for t in args.words]
    if args.op == "mul":
        print(fp.format_fp(functools.reduce(fp.fp_multiply, words)))
    elif args.op == "inverse":
        print(fp.format_fp(fp.fp_inverse(words[0])))
    elif args.op == "cyclic":
        core, conj = fp.fp_cyclic_reduce(words[0])
        print(f"core {fp.format_fp(core)}, conjugator {fp.format_fp(conj)}")
    else:
        verdict = fp.fp_tss_analyze(words)
        print(f"classification {verdict.classification}; TSS: {verdict.is_tss}; "
              f"{verdict.reason}")
        if verdict.factor_certificate is not None:
            tag = "G" if verdict.factor_tag == 0 else "H"
            print(f"factor {tag} elements {verdict.factor_elements}, "
                  f"conjugator {fp.format_fp(verdict.conjugator)}")
    return EXIT_PASS


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    # every option some suite declares; verify_suite refuses one this suite does not
    keys = {o.key for spec in verify.THEOREMS.values() for o in spec.options}
    options = {key: value for key in keys if (value := getattr(args, key)) is not None}
    if args.budget == homs.DEFAULT_HOM_BUDGET:
        del options["budget"]  # the default budget is no --budget
    grid = verify.THEOREMS[args.theorem].parse(args.grid) if args.grid is not None else None
    result = verify.verify_suite(
        args.theorem, grid, jobs=args.jobs, out_dir=args.out, **options
    )
    doc = verify.suite_result_to_json(result)
    lines = [f"theorem {result.theorem}: {'PASS' if result.passed else 'FAIL'} "
             f"({len(result.instances)} instances, {result.elapsed_s:.2f}s)"]
    for inst in result.instances:
        lines.append(f"  {inst.params}: {inst.verdict} - {inst.detail}")
        if inst.failed and inst.repro:
            lines.append(f"    reproduce: {inst.repro}")
    rows = [["params", "verdict", "detail"]] + [
        [json.dumps(i.params, sort_keys=True), i.verdict, i.detail] for i in result.instances
    ]
    _emit(doc, args, lines, rows)
    return EXIT_PASS if result.passed else EXIT_FAIL


def _cmd_table(args: argparse.Namespace) -> int:
    from . import verify

    rows = verify.table_rows()
    doc = {"format": FORMAT_VERSION, "rows": [{"s": s, "family": fam} for s, fam in rows]}
    width = max(len(s) for s, _ in rows)
    lines = [f"{'S(G)':<{width + 2}} Group"]
    lines += [f"{s:<{width + 2}} {fam}" for s, fam in rows]
    csv_rows = [["s", "family"]] + [[s, fam] for s, fam in rows]
    _emit(doc, args, lines, csv_rows)
    return EXIT_FAIL if any(s == "?" for s, _ in rows) else EXIT_PASS


def _attach_grid(argv: list[str]) -> list[str]:
    """Join ``--grid -3--1`` into ``--grid=-3--1``.

    argparse takes a separate value that starts with ``-`` for an option,
    unless it is a plain negative number.  No option starts with ``-`` and a
    digit, so such a value after ``--grid`` is always the grid.
    """
    out: list[str] = []
    for arg in argv:
        if out and out[-1] == "--grid" and re.match(r"-[0-9]", arg):
            out[-1] = f"--grid={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    """Run one command and return its exit code.

    The parser is built once per process and shared by every call.
    ``TSSLAB_JOBS`` is read on every call that does not pass ``--jobs``, and
    a bad value is the same usage error as a bad ``--jobs``.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(_attach_grid(sys.argv[1:] if argv is None else argv))
        if args.jobs is None:
            try:
                args.jobs = _JOBS(os.environ.get("TSSLAB_JOBS", "1"))
            except argparse.ArgumentTypeError as exc:
                parser.error(f"argument --jobs: {exc}")
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        if args.budget != homs.DEFAULT_HOM_BUDGET and args.command not in ("hom", "verify"):
            # only homomorphism enumeration counts nodes; verify suites refuse it one by one
            raise GroupError(f"{args.command} takes no --budget")
        if args.out is not None and args.command != "verify" and (
                getattr(args, "hom_command", None) != "braid-check"):
            # only verify suites and hom braid-check write artifacts
            command = "hom enumerate" if args.command == "hom" else args.command
            raise GroupError(f"{command} takes no --out")
        if args.command == "group":
            return _cmd_group(args)
        if args.command == "tss":
            return _cmd_tss(args)
        if args.command == "stab":
            return _cmd_stab(args)
        if args.command == "hom":
            return _cmd_hom(args)
        if args.command == "word":
            if args.word_command == "f2":
                return _cmd_word_f2(args)
            if args.word_command == "bs":
                return _cmd_word_bs(args)
            return _cmd_word_fp(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_table(args)
    except homs.BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GroupError, tss.TssError, homs.HomError, ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
