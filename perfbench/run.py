"""tsslab benchmark: one seeded workload, timed from outside the program.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Each workload is a closed loop of jobs in this one process: the
job list runs once in full, then again from the top while the next job is
expected to end within ``--seconds``.  Between jobs the benchmark collects garbage and clears the
``conjugacy_classes`` cache, so every job pays for its own groups, as a CLI
call does.

The last line of standard output is one JSON object.  With ``--trace 0`` it
holds the end-to-end metrics: ``wall_s`` (sum over jobs of each job's median
time), ``setup_s`` (median over fresh processes of the time from
``import tsslab`` until the inputs exist), ``peak_rss_mb``.  With ``--trace
1`` one traced pass follows the untraced ones and the line holds the
per-layer metrics of ``tracer.py``; the spans go to
``.perfbench-traces/<workload>-<seed>.json``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
from tracer import Tracer, unit

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work" / str(os.getpid())  # files CLI jobs write
TRACES = ROOT / ".perfbench-traces"
EXPECTED = HERE / "expected.json"
SETUP_PROBES = 3  # fresh processes timed for setup_s, besides this one


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0


def clear_caches() -> None:
    from tsslab import groups

    # conjugacy_classes is an lru_cache today; a later version may not be.
    getattr(groups.conjugacy_classes, "cache_clear", lambda: None)()
    gc.collect()


def remove_work() -> None:
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        WORK.parent.rmdir()
    except OSError:  # another run still uses it
        pass


def run_job(job, index: int, tally: Tally, expected: dict, tracer=None) -> float:
    """Run one job, check it outside the timed region, and return its time."""
    clear_caches()
    tally.attempted += 1
    problems: list[str] = []
    start = time.perf_counter()
    try:
        if tracer is None:
            raw = job.run()
        else:
            with tracer.job_span(index):
                raw = job.run()
    except Exception:  # a failed job is counted and the run goes on
        elapsed = time.perf_counter() - start
        problems.append(traceback.format_exc())
    else:
        elapsed = time.perf_counter() - start
        try:
            record, problems = job.verify(raw)
            want = expected.get(job.key)
            if want is not None and checks.record_digest(record) != want:
                problems.append(f"output differs from the recorded one: {json.dumps(record)[:300]}")
        except Exception:
            problems.append(traceback.format_exc())
        del raw
    if problems:
        tally.failed += 1
        print(f"FAILED {job.key}:\n  " + "\n  ".join(problems), file=sys.stderr)
    return elapsed


def measure(jobs, seconds: float, tally: Tally, expected: dict) -> list[list[float]]:
    """The closed loop: one full pass, then more jobs while the next one is
    expected to end before the deadline, so a run lasts about ``seconds``."""
    times: list[list[float]] = [[] for _ in jobs]
    deadline = time.perf_counter() + seconds
    for n in itertools.count():
        i = n % len(jobs)
        if n >= len(jobs) and time.perf_counter() + statistics.median(times[i]) >= deadline:
            return times
        times[i].append(run_job(jobs[i], i, tally, expected))


def traced_pass(jobs, tally: Tally, expected: dict):
    tracer = Tracer()
    tracer.install()
    try:
        for i, job in enumerate(jobs):
            run_job(job, i, tally, expected, tracer)
    finally:
        tracer.uninstall()
    return tracer


def setup_times(workload: str, seed: int, own: float) -> list[float]:
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    out = [own]
    for _ in range(SETUP_PROBES):
        done = subprocess.run(probe, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(done.stdout.split()[-1]))
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tsslab" / "__init__.py").is_file():
        print(f"error: no tsslab sources under {SRC}; run from a tsslab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    data = workloads.inputs(args.workload, args.seed)
    own_setup = time.perf_counter() - start

    WORK.mkdir(parents=True, exist_ok=True)
    try:
        jobs = workloads.jobs(args.workload, data, WORK)
        expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        tally = Tally()
        times = measure(jobs, args.seconds, tally, expected)
        wall = sum(statistics.median(t) for t in times)
        if args.trace:
            tracer = traced_pass(jobs, tally, expected)
            values = tracer.metrics()
            values["trace.wall_s"] = tracer.wall()
            values["trace.overhead_s"] = tracer.wall() - wall
            values["fail_rate"] = tally.failed / tally.attempted
            TRACES.mkdir(exist_ok=True)
            trace_file = TRACES / f"{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps(tracer.dump([j.key for j in jobs])))
            units = {name: unit(name) for name in values}
        else:
            values = {
                "wall_s": wall,
                "setup_s": statistics.median(setup_times(args.workload, args.seed, own_setup)),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    finally:
        remove_work()

    for job, t in zip(jobs, times):
        print(f"{statistics.median(t):9.4f} s median of {len(t)}  {job.key}")
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {sum(map(len, times))} timed; "
          f"fail_rate {tally.failed / tally.attempted} ({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
