"""Traced mode, built only from benchmark files.

``Tracer.install`` wraps the public functions listed in ``PROBES`` and
rebinds every ``tsslab.*`` module attribute that points at one of them, so
calls made through re-exports and ``from .x import y`` bindings are caught
too.  Hot functions get counter-only wrappers.  Spans (name, start, end,
parent, job) stay in memory; ``metrics`` turns them into per-layer self times,
where a span's self time is its duration minus the time its child spans
cover.  Each job runs inside a root span named ``trace.outside_s``, whose self
time is the benchmark's own code, so the self times add up to the traced wall
time.
"""

from __future__ import annotations

import importlib
import math
import resource
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

OUTSIDE = "trace.outside_s"


def _rss_mb() -> float:
    """Current resident set size.  ru_maxrss would read 0 growth once the
    untraced passes have set the process's peak."""
    try:
        with open("/proc/self/statm") as f:
            pages = int(f.read().split()[1])
    except OSError:  # no procfs: fall back to the peak
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return pages * resource.getpagesize() / 2**20


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


# --- hooks: pre(tracer, args, kwargs) -> state; post(tracer, span, args, kwargs, result, state)

def _build_pre(tr, args, kwargs):
    return _rss_mb()


def _build_post(tr, span, args, kwargs, group, rss_before):
    tr.counts["groups.build_entries"] += group.order ** 2
    tr.build_rss_mb += _rss_mb() - rss_before


def _enumerate_post(tr, span, args, kwargs, result, state):
    g, size = _arg(args, kwargs, 0, "g"), _arg(args, kwargs, 1, "size")
    key = (g.name, g.order, size)
    tr.counts["tss.enumerate_calls"] += 1
    tr.counts["tss.enumerate_repeats"] += key in tr.enumerated
    tr.enumerated.add(key)
    parent = tr.spans[span][3]
    if size >= 2 and parent is not None and tr.spans[parent][0] == "tss.max_s":
        tr.searched.add(parent)


def _max_post(tr, span, args, kwargs, result, state):
    tr.counts["tss.prune_only"] += span not in tr.searched


def _prefilter_post(tr, span, args, kwargs, dec, state):
    parent = tr.spans[span][3]
    if parent is not None and tr.spans[parent][0] == "tss.search_s":
        size = len(set(_arg(args, kwargs, 1, "s")))
        tr.counts["tss.candidates"] += 1
        tr.counts["tss.prefilter_passed"] += len(dec.stabilizer) % math.factorial(size) == 0


def _certify_post(tr, span, args, kwargs, cert, state):
    tr.counts["tss.certify_calls"] += 1
    tr.counts["tss.certified"] += cert is not None


def _classify_post(tr, span, args, kwargs, report, state):
    tr.counts["words.baumslag.pairs"] += len(report.instances)


def _verify_post(tr, span, args, kwargs, result, state):
    for inst in result.instances:
        tr.counts["verify.instances"] += 1
        kind = inst.verdict.split("(")[0].replace("-", "_")
        if kind in ("pass", "not_applicable", "exhausted"):
            tr.counts[f"verify.{kind}"] += 1


def _counter(name: str) -> Callable:
    def post(tr, span, args, kwargs, result, state):
        tr.counts[name] += 1
    return post


@dataclass(frozen=True)
class Probe:
    module: str
    func: str
    metric: str  # span name (a ``*_s`` metric) or, for counter-only probes, a counter
    kind: str = "call"  # call | gen (time spent inside next()) | count
    pre: Optional[Callable] = None
    post: Optional[Callable] = None  # for gen probes: called per item yielded


_CONSTRUCTORS = ("make_cyclic", "make_dihedral", "make_symmetric",
                 "make_semidirect_cyclic", "direct_product")
_SERIALIZERS = ("certificate_to_json", "tss_report_to_json", "stabilizer_to_json",
                "braid_report_to_json")

PROBES = [
    Probe("tsslab.specs", "parse_group_spec", "specs.parse_s"),
    *(Probe("tsslab.groups", f, "groups.build_s", pre=_build_pre, post=_build_post)
      for f in _CONSTRUCTORS),
    Probe("tsslab.groups", "make_group", "groups.validate_s"),
    Probe("tsslab.groups", "conjugacy_classes", "groups.classes_s",
          post=_counter("groups.classes_calls")),
    *(Probe("tsslab.groups", f, "groups.closure_s")
      for f in ("generated_subgroup", "derived_series", "centralizer")),
    Probe("tsslab.cayley", "to_cayley_table", "cayley.encode_s"),
    Probe("tsslab.cayley", "from_cayley_table", "cayley.decode_s"),
    Probe("tsslab.tss", "max_tss_size", "tss.max_s", post=_max_post),
    Probe("tsslab.tss", "enumerate_tss", "tss.search_s", post=_enumerate_post),
    Probe("tsslab.tss", "realized_permutations", "tss.prefilter_s", post=_prefilter_post),
    Probe("tsslab.tss", "certify_tss", "tss.witness_s", post=_certify_post),
    Probe("tsslab.tss", "dedup_up_to_conjugacy", "tss.dedup_s"),
    Probe("tsslab.tss", "brute_force_tss", "tss.oracle_s"),
    Probe("tsslab.homs", "enumerate_homs", "homs.enum_s", "gen", post=_counter("homs.found")),
    Probe("tsslab.homs", "evaluate_word", "homs.relator_evals", "count"),
    Probe("tsslab.homs", "image_subgroup", "homs.image_s"),
    Probe("tsslab.homs", "braid_cyclic_corollary_check", "homs.braid_check_s"),
    Probe("tsslab.homs", "enumerate_table_homs", "homs.table_enum_s", "gen"),
    Probe("tsslab.words.baumslag", "bs_classification_check", "words.baumslag.classify_s",
          post=_classify_post),
    Probe("tsslab.words.baumslag", "bs_swap_search", "words.baumslag.swap_s",
          post=_counter("words.baumslag.swap_searches")),
    Probe("tsslab.words.baumslag", "bs_conjugate", "words.baumslag.conjugations", "count"),
    Probe("tsslab.words.freegroup", "f2_tss_obstruction", "words.freegroup.obstruction_s",
          post=_counter("words.freegroup.words")),
    Probe("tsslab.words.freeproduct", "fp_commuting_cliques", "words.freeproduct.cliques_s", "gen"),
    Probe("tsslab.words.freeproduct", "fp_tss_analyze", "words.freeproduct.analyze_s",
          post=_counter("words.freeproduct.analyze_calls")),
    Probe("tsslab.verify", "verify_suite", "verify.self_s", post=_verify_post),
    Probe("tsslab.verify", "suite_result_to_json", "schemas.json_s"),
    *(Probe("tsslab.schemas", f, "schemas.json_s") for f in _SERIALIZERS),
    Probe("tsslab.cli", "main", "cli.self_s"),
]

SPAN_METRICS = sorted({p.metric for p in PROBES if p.kind != "count"} | {OUTSIDE})
COUNT_METRICS = [
    "groups.build_entries", "groups.build_rss_mb", "groups.classes_calls",
    "tss.candidates", "tss.prefilter_pass", "tss.certified", "tss.witness_yield",
    "tss.enumerate_calls", "tss.enumerate_repeats", "tss.prune_only",
    "homs.relator_evals", "homs.found", "homs.evals_per_hom",
    "words.baumslag.swap_searches", "words.baumslag.conjugations", "words.baumslag.pairs",
    "words.freegroup.words", "words.freeproduct.analyze_calls",
    "verify.instances", "verify.pass", "verify.not_applicable", "verify.exhausted",
]
# Reported by the runner, not by the spans of one pass.
RUN_METRICS = ["trace.wall_s", "trace.overhead_s", "fail_rate"]
METRICS = SPAN_METRICS + COUNT_METRICS + RUN_METRICS
_UNITS = {"groups.build_rss_mb": "MB", "tss.prefilter_pass": "share",
          "tss.witness_yield": "share", "fail_rate": "share"}


def unit(metric: str) -> str:
    return _UNITS.get(metric, "s" if metric.endswith("_s") else "count")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self._saved: list[tuple[Any, str, Any]] = []
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.stack: list[int] = []
        self.counts: Counter = Counter()  # exact integer counts
        self.build_rss_mb = 0.0
        self.enumerated: set = set()  # (group name, order, size) seen this pass
        self.searched: set = set()  # max_tss_size spans that enumerated size >= 2
        self.job = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else None, self.job])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    @contextmanager
    def job_span(self, job: int):
        self.job = job
        self.active = True
        idx = self.open(OUTSIDE)
        try:
            yield
        finally:
            self.close(idx)
            self.active = False

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "tsslab" or name.startswith("tsslab.")]
        for probe in PROBES:
            original = getattr(importlib.import_module(probe.module), probe.func)
            wrapper = self._wrap(original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._saved.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn: Callable, probe: Probe) -> Callable:
        tr, name, pre, post = self, probe.metric, probe.pre, probe.post

        if probe.kind == "count":
            def counted(*args, **kwargs):
                if tr.active:
                    tr.counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        if probe.kind == "gen":
            def generator(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = tr.open(name) if tr.active else None
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            if idx is not None:
                                tr.close(idx)
                        if post is not None and tr.active:
                            post(tr, idx, args, kwargs, item, None)
                        yield item
                finally:
                    it.close()
            return generator

        def call(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            state = pre(tr, args, kwargs) if pre is not None else None
            idx = tr.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.close(idx)
            if post is not None:
                post(tr, idx, args, kwargs, result, state)
            return result
        return call

    # --- results --------------------------------------------------------------

    def wall(self) -> float:
        return sum(end - start for name, start, end, _, _ in self.spans if name == OUTSIDE)

    def self_times(self) -> dict[str, float]:
        out = dict.fromkeys(SPAN_METRICS, 0.0)
        for times in self_times_by_job(self.spans).values():
            for name, t in times.items():
                out[name] += t
        return out

    def metrics(self) -> dict[str, float]:
        c = self.counts
        out: dict[str, float] = self.self_times()
        out.update({name: c[name] for name in COUNT_METRICS})
        out["groups.build_rss_mb"] = self.build_rss_mb
        out["tss.prefilter_pass"] = _ratio(c["tss.prefilter_passed"], c["tss.candidates"])
        out["tss.witness_yield"] = _ratio(c["tss.certified"], c["tss.certify_calls"])
        out["homs.evals_per_hom"] = _ratio(c["homs.relator_evals"], c["homs.found"])
        return out

    def dump(self, keys: list[str]) -> dict[str, Any]:
        """The spans as ``[name, start, end, parent, job]`` rows, with job keys."""
        return {"jobs": keys, "spans": self.spans}


def self_times_by_job(spans: list[list]) -> dict[int, dict[str, float]]:
    """Self time per job and span name: duration minus child durations."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[int, dict[str, float]] = {}
    for (name, start, end, _, job), child in zip(spans, covered):
        times = out.setdefault(job, {})
        times[name] = times.get(name, 0.0) + end - start - child
    return out
