"""Rewrite expected.json, the verdict every job must reproduce.

    python3 perfbench/record_expected.py

Run from the root of a checkout.  Each job of each workload runs once, with
seed 0; a completed job records its exit code and every `passed` flag of
its report.  Verdicts must not depend on the seed, so run.py checks every
seed against this one table.  No job of a workload may fail (crash,
traceback, no report); if one does, expected.json is left as it was.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402


SEED = 0


def main() -> int:
    src = run.load_qact(Path.cwd())
    if src is None:
        return run.fail("run from a checkout root")
    env = harness.child_env(str(src))
    scratch = Path("perfbench") / "out" / "record"
    table, failed = {}, []
    for workload in WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        scratch.mkdir(parents=True)
        for job in build_jobs(workload, SEED, scratch / "inputs"):
            report = scratch / "report.json"
            out = harness.spawn([sys.executable, "-m", "qact", *job.argv,
                                 "--seed", str(SEED), "--report", str(report)],
                                env, str(report))
            key = f"{workload}/{job.id}"
            print(f"{key}: exit {out.exit}" + (f" FAILED ({out.failure})" if out.failed else ""))
            if out.failed:
                failed.append(key)
            else:
                table[key] = harness.verdict(out)
    shutil.rmtree(scratch, ignore_errors=True)
    if failed:
        return run.fail(f"not recorded, jobs failed: {failed}")
    (HERE / "expected.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
