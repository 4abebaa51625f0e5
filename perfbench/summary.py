"""Per-job self times from a span file written by a traced run.

    python3 perfbench/summary.py .perfbench-traces/tables-0.json [--json]

Prints, for each job of the traced pass, its wall time and the self time of
every layer that ran in it, largest first, with each layer's share of the
job; ``--json`` prints the self times as one JSON object keyed by job.
"""

from __future__ import annotations

import json
import sys

from tracer import self_times_by_job


def main(argv: list[str]) -> int:
    trace = json.loads(open(argv[0]).read())
    per_job = {trace["jobs"][j]: t for j, t in self_times_by_job(trace["spans"]).items()}
    if "--json" in argv:
        print(json.dumps(per_job, indent=1, sort_keys=True))
        return 0
    for key, times in per_job.items():
        wall = sum(times.values())
        print(f"{key}: {wall:.3f} s")
        for name, t in sorted(times.items(), key=lambda kv: -kv[1]):
            print(f"  {name:34s} {t:8.3f} s {100 * t / wall:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
