"""Compare the reports kept by two benchmark runs.

    python3 perfbench/compare.py RUN_A RUN_B

RUN_A and RUN_B are result directories under perfbench/out/runs/, for
instance one made at a parent commit and one at a change.  Prints the
largest difference of any residual (a float stored under a key of a report
object) between the two runs' reports of the same job, and lists every job
whose report bytes differ although its inputs and seed are the same.
Exits 1 if some such report differs or a residual moves by more than 1e-12.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

RESIDUAL_LIMIT = 1e-12


def load(run_dir) -> dict[str, dict]:
    with gzip.open(Path(run_dir) / "reports.jsonl.gz", "rt", encoding="utf-8") as fh:
        return {item["id"]: item for item in map(json.loads, fh)}


def residual_diff(a, b, path=""):
    """(largest |a - b| over float leaves held in objects, its path)."""
    worst = (0.0, None)
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) & set(b)):
            va, vb = a[key], b[key]
            if isinstance(va, float) and isinstance(vb, (int, float)) \
                    and not isinstance(vb, bool):
                cand = (abs(va - vb), f"{path}/{key}")
            else:
                cand = residual_diff(va, vb, f"{path}/{key}")
            if cand[0] > worst[0]:
                worst = cand
    elif isinstance(a, list) and isinstance(b, list):
        for i, (va, vb) in enumerate(zip(a, b)):
            cand = residual_diff(va, vb, f"{path}[{i}]")
            if cand[0] > worst[0]:
                worst = cand
    return worst


def compare(run_a, run_b) -> tuple[tuple[float, str | None], list[str], list[str]]:
    """(largest residual difference and where, jobs with differing bytes,
    jobs compared only by residuals because inputs or seed differ)."""
    a, b = load(run_a), load(run_b)
    worst = (0.0, None)
    differ, not_comparable = [], []
    for job in sorted(set(a) & set(b)):
        ra, rb = a[job], b[job]
        if ra["report"] is None or rb["report"] is None:
            if ra["report"] != rb["report"]:
                differ.append(job)
            continue
        d, where = residual_diff(json.loads(ra["report"]), json.loads(rb["report"]))
        if d > worst[0]:
            worst = (d, f"{job}{where}")
        if ra["seed"] != rb["seed"] or ra["inputs"] != rb["inputs"]:
            not_comparable.append(job)
        elif ra["report"] != rb["report"]:
            differ.append(job)
    return worst, differ, not_comparable


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    (diff, where), differ, not_comparable = compare(*argv)
    print(f"largest residual difference {diff:.3e}" + (f" at {where}" if where else ""))
    if not_comparable:
        print(f"{len(not_comparable)} jobs have other inputs or another seed; "
              f"their bytes are not compared")
    for job in differ:
        print(f"report bytes differ: {job}")
    print(f"{len(differ)} jobs with same inputs and seed differ")
    return 1 if differ or diff > RESIDUAL_LIMIT else 0


if __name__ == "__main__":
    sys.exit(main())
