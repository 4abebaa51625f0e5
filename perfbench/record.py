"""Record the outputs the benchmark compares against, in ``expected.json``.

    python3 perfbench/record.py 0 31

Runs every job of every workload for the seeds in the inclusive range once,
untimed, and stores a digest of each job's canonical record under the job's
key.  A job whose checks fail is not recorded and makes the exit code 1.
Re-recording after a change to the program's outputs is a deliberate act:
the script reports every digest it changes.
"""

from __future__ import annotations

import json
import sys

import run

sys.path.insert(0, str(run.SRC))
import checks  # noqa: E402
import workloads  # noqa: E402


def main(first: int, last: int) -> int:
    expected = json.loads(run.EXPECTED.read_text()) if run.EXPECTED.is_file() else {}
    done: set[str] = set()
    status = 0
    run.WORK.mkdir(parents=True, exist_ok=True)
    try:
        for workload in workloads.WORKLOADS:
            for seed in range(first, last + 1):
                data = workloads.inputs(workload, seed)
                for job in workloads.jobs(workload, data, run.WORK):
                    if job.key in done:
                        continue
                    run.clear_caches()
                    record, problems = job.verify(job.run())
                    if problems:
                        print(f"not recorded, checks failed: {job.key}: {problems}")
                        status = 1
                        continue
                    new = checks.record_digest(record)
                    if expected.get(job.key, new) != new:
                        print(f"changed: {job.key}")
                    expected[job.key] = new
                    done.add(job.key)
    finally:
        run.remove_work()
    run.EXPECTED.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    print(f"{len(done)} jobs recorded, {len(expected)} entries in {run.EXPECTED.name}")
    return status


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]), int(sys.argv[2])))
