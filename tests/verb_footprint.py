"""The own memory peak and wall time of every benchmark job, for one or two
source trees.

    python tests/verb_footprint.py TREE [TREE_B] [--seed N] [--repeats R]

For each tree and workload a child process generates the workload's
inputs with that tree's `perfbench/workloads.py` and its `src/` (in a
temporary directory) and reports its own peak, which is the floor that
`perfbench/run.py` leaves under every job it spawns.  This process then
runs every job R times as `python -m qact <verb> ... --seed N`, in the
environment of `perfbench/harness.child_env`, reaps each child with
`wait4` and prints the median of its `ru_maxrss` (KiB) and of its wall
time (ms).  With two trees it alternates them job by job, the first tree
going first on even jobs.

This process never imports numpy.  A child forked from a parent inherits
the parent's resident size as the floor of its `ru_maxrss`, so the
benchmark's `peak_rss_mb`, whose jobs are spawned from `perfbench/run.py`
after it has generated the inputs, reads the larger of a job's own peak
and that floor; the peaks here are the jobs' own, over a floor of this
process's size (about 10 MiB).

The last line of standard output is one JSON object: per tree, each
workload's generation peak and each job's median `maxrss_kb` and
`wall_ms`.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import harness  # noqa: E402

WORKLOADS = ("block-ladder", "translation-ladder")

GENERATE = """
import json, resource, sys
from pathlib import Path
tree, workload, seed, out = sys.argv[1:]
sys.path.insert(0, str(Path(tree) / "perfbench"))
from workloads import build_jobs
jobs = [[f"{workload}/{job.id}", list(job.argv)]
        for job in build_jobs(workload, int(seed), Path(out))]
print(json.dumps({"jobs": jobs,
                  "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}))
"""


def generate(tree: pathlib.Path, workload: str, seed: int, out: pathlib.Path) -> dict:
    """One workload's job list, with its inputs written under out, and the
    generating child's own peak."""
    env = harness.child_env(str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", GENERATE, str(tree), workload, str(seed), str(out)],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("trees", nargs="+", type=pathlib.Path)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=1)
    args = parser.parse_args(argv)
    if not 1 <= len(args.trees) <= 2:
        parser.error("give one or two source trees")
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    trees = [t.resolve() for t in args.trees]
    for tree in trees:
        if not (tree / "src" / "qact" / "__init__.py").is_file():
            parser.error(f"no qact sources under {tree / 'src'}")

    tmp = pathlib.Path(tempfile.mkdtemp(prefix="verb_footprint-"))
    try:
        generated = [{w: generate(tree, w, args.seed, tmp / f"inputs{k}" / w)
                      for w in WORKLOADS} for k, tree in enumerate(trees)]
        jobs = [dict(job for w in WORKLOADS for job in g[w]["jobs"]) for g in generated]
        ids = list(jobs[0])
        if any(list(j) != ids for j in jobs):
            raise SystemExit("the trees generate different job lists")
        samples = [{job_id: ([], []) for job_id in ids} for _ in trees]
        report = str(tmp / "report.json")
        for _ in range(args.repeats):
            for j, job_id in enumerate(ids):
                order = range(len(trees)) if j % 2 == 0 else reversed(range(len(trees)))
                for k in order:
                    argv = [sys.executable, "-m", "qact", *jobs[k][job_id],
                            "--seed", str(args.seed), "--report", report]
                    out = harness.spawn(argv, harness.child_env(str(trees[k] / "src")), report)
                    if out.failed:
                        raise SystemExit(f"{trees[k]}: {job_id} failed: {out.failure}\n"
                                         f"{out.stderr_tail}")
                    samples[k][job_id][0].append(out.maxrss_kb)
                    samples[k][job_id][1].append(out.wall_s * 1e3)
    finally:
        shutil.rmtree(tmp)
    if "numpy" in sys.modules:
        raise SystemExit("numpy was imported by the parent; its peaks would be floors")

    result = {}
    for tree, gen, got in zip(trees, generated, samples):
        result[str(tree)] = {
            "generation_maxrss_kb": {w: gen[w]["maxrss_kb"] for w in WORKLOADS},
            "jobs": {job_id: {"maxrss_kb": statistics.median(rss),
                              "wall_ms": round(statistics.median(wall), 1)}
                     for job_id, (rss, wall) in got.items()},
        }
    columns = list(result.values())
    print(f"seed {args.seed}, median of {args.repeats} run(s) per job; "
          "maxrss in KiB, wall in ms")
    for k, tree in enumerate(trees):
        peaks = ", ".join(f"{w} {generated[k][w]['maxrss_kb']:,} KiB" for w in WORKLOADS)
        print(f"tree {'AB'[k]}: {tree}  (input generation peak: {peaks})")
    head = "".join(f"  {'AB'[k]} maxrss  {'AB'[k]} wall" for k in range(len(trees)))
    print(f"{'job':56s}{head}" + ("  B-A maxrss" if len(trees) == 2 else ""))
    for job_id in ids:
        rows = [c["jobs"][job_id] for c in columns]
        cells = "".join(f"  {r['maxrss_kb']:8,.0f}  {r['wall_ms']:6.0f}" for r in rows)
        if len(rows) == 2:
            cells += f"  {rows[1]['maxrss_kb'] - rows[0]['maxrss_kb']:+10,.0f}"
        print(f"{job_id:56s}{cells}")
    for k, c in enumerate(columns):
        for workload in WORKLOADS:
            top = max((j for j in ids if j.startswith(workload + "/")),
                      key=lambda j: c["jobs"][j]["maxrss_kb"])
            print(f"tree {'AB'[k]} {workload}: largest own peak "
                  f"{c['jobs'][top]['maxrss_kb']:,.0f} KiB on {top}")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
