"""The qact benchmark: run one workload's verbs as child processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Set-up generates the workload's inputs
from the seed and makes one warm-up invocation; it runs SETUPS times and
setup_s is the median.  Then a single client runs the job list in a closed
loop, each job a `python -m qact <verb>` child, for a fixed number of
passes chosen from --seconds.  Every report is checked against
expected.json.  With --trace 1 the passes alternate untraced and traced
(perfbench/tracer.py) and the per-layer metrics are printed instead.

Every time in the metrics is taken to reference speed with the speed probe
of harness.py, timed between jobs and around each set-up; the raw wall
times are printed and kept next to them.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Every job's report is kept under
perfbench/out/runs/ for compare.py.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import perlayer  # noqa: E402

SETUPS = 7
END_TO_END = {"wall_s": "s", "job_s.p50": "s", "job_s.tail": "s", "top_job_s": "s",
              "peak_rss_mb": "MB", "setup_s": "s"}


def fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def load_qact(root: Path):
    """Import qact from the checkout's own src/, and nowhere else."""
    src = root / "src"
    if not (src / "qact" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import qact

    if Path(qact.__file__).resolve().parent != (src / "qact").resolve():
        return None
    return src


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Runner:
    """Runs jobs of one workload and keeps every outcome."""

    def __init__(self, workload, seed, env, tmp: Path, expected: dict):
        self.workload = workload
        self.seed = seed
        self.env = env
        self.tmp = tmp
        self.expected = expected
        self.records: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatch = 0
        self.drift = 0
        # probes[k] and probes[k + 1] are the probes before and after timeline[k]
        self.probes: list[float] = []
        self.timeline: list[tuple[str, bool, float]] = []

    def argv(self, job, traced: bool, spans: Path) -> list[str]:
        head = [sys.executable, str(HERE / "tracer.py"), str(spans)] if traced \
            else [sys.executable, "-m", "qact"]
        return head + list(job.argv) + ["--seed", str(self.seed),
                                        "--report", str(self.tmp / "report.json")]

    def run(self, job, traced=False):
        """Run one job and probe the speed after it; returns (outcome, span
        summary or None)."""
        spans = self.tmp / "spans.json"
        if spans.exists():
            spans.unlink()
        if not self.probes:
            self.probes.append(harness.probe())
        out = harness.spawn(self.argv(job, traced, spans), self.env,
                            str(self.tmp / "report.json"))
        self.probes.append(harness.probe())
        self.timeline.append((job.id, traced, out.wall_s))
        self.attempted += 1
        rec = self.records.setdefault(job.id, {
            "id": job.id, "argv": list(job.argv),
            "inputs": {p: sha256(p) for p in job.inputs},
            "walls": [], "raw_walls": [], "traced_walls": [], "failures": [],
            "maxrss_kb": 0,
        })
        if not traced:
            rec["raw_walls"].append(out.wall_s)
            rec["maxrss_kb"] = max(rec["maxrss_kb"], out.maxrss_kb)
        rec["exit"] = out.exit
        if out.failed:
            self.failed += 1
            self.mismatch += 1
            rec["failures"].append(out.failure)
            rec.setdefault("stderr_tail", out.stderr_tail)
            rec.setdefault("mismatch", {"expected": self.expected.get(
                f"{self.workload}/{job.id}"), "got": out.failure})
        else:
            self._check(out, rec)
        summary = None
        if traced and spans.exists():
            summary = json.loads(spans.read_text())
        return out, summary

    def scale_walls(self) -> list[float]:
        """Take every job time of the timeline to reference speed, store it
        under "walls" or "traced_walls" of its record, and return them in
        timeline order."""
        scaled = []
        for (job_id, traced, wall), scale in zip(self.timeline,
                                                 harness.speed_scales(self.probes)):
            scaled.append(wall * scale)
            self.records[job_id]["traced_walls" if traced else "walls"].append(wall * scale)
        return scaled

    def _check(self, out, rec):
        got = harness.verdict(out)
        rec["verdict"] = got
        want = self.expected.get(f"{self.workload}/{rec['id']}")
        if want != got:
            self.mismatch += 1
            rec.setdefault("mismatch", {"expected": want, "got": got})
        digest = hashlib.sha256(out.report).hexdigest()
        if "report_sha256" not in rec:
            rec["report_sha256"] = digest
            rec["report"] = out.report.decode("utf-8")
        elif rec["report_sha256"] != digest:
            # identical inputs and seed must give byte-identical reports
            self.drift += 1
            rec["drift"] = rec.get("drift", 0) + 1


def set_up(workload, seed, inputs: Path, runner: Runner):
    """Generate inputs, then one warm-up invocation of the first job (bytecode
    and file cache).  Returns (seconds, jobs, input digests)."""
    from workloads import build_jobs

    t0 = time.perf_counter()
    if inputs.exists():
        shutil.rmtree(inputs)
    jobs = build_jobs(workload, seed, inputs)
    digests = {p: sha256(p) for job in jobs for p in job.inputs}
    harness.spawn(runner.argv(jobs[0], False, None), runner.env,
                  str(runner.tmp / "report.json"))
    return time.perf_counter() - t0, jobs, digests


def end_to_end(runner: Runner, jobs, top_id, pass_walls, setups,
               key="walls") -> tuple[dict, dict]:
    """The end-to-end metrics from the job times under `key` of each record
    and the matching pass times and set-up times."""
    samples = [w for job in jobs for w in runner.records[job.id][key]]
    tail, pct, n = harness.tail(samples)
    values = {
        "wall_s": statistics.median(pass_walls),
        "job_s.p50": statistics.median(samples),
        "job_s.tail": tail,
        "top_job_s": statistics.median(runner.records[top_id][key]),
        "peak_rss_mb": max(r["maxrss_kb"] for r in runner.records.values()) * 1024 / 1e6,
        "setup_s": statistics.median(setups),
    }
    notes = {
        "wall_s": f"median of {len(pass_walls)} passes",
        "job_s.p50": f"{len(samples)} samples",
        "job_s.tail": f"p{pct:.1f} of {n} samples, Harrell-Davis",
        "top_job_s": top_id,
        "peak_rss_mb": "largest child max-RSS (wait4)",
        "setup_s": f"median of {len(setups)} set-ups",
    }
    return values, notes


def per_layer(traced_passes, untraced_walls, traced_walls) -> tuple[dict, dict]:
    merged = [perlayer.merge(p) for p in traced_passes]
    values, notes = {}, {}
    for name in perlayer.PER_LAYER:
        if name == "trace.overhead_ratio":
            values[name] = statistics.median(traced_walls) / statistics.median(untraced_walls)
            continue
        per_pass = [perlayer.metric(name, m) for m in merged]
        if perlayer.unit_of(name) == "count":
            values[name] = per_pass[0]
            if len(set(per_pass)) > 1:
                notes[name] = f"differs across traced passes: {per_pass}"
        else:
            values[name] = statistics.median(per_pass)
    return values, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    from workloads import TOP_JOB, WORKLOADS, passes_for

    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    # the probe must time the vCPU the jobs run on (unpinned, it did not
    # follow them), so pin this process, and with it every child
    env_record = harness.environment(args.seed)
    env_record["cpu_pinned"] = harness.pin_to_one_cpu()
    root = Path.cwd()
    src = load_qact(root)
    if src is None:
        return fail(f"no qact sources under {root / 'src'}; run from a checkout root")
    expected = json.loads((HERE / "expected.json").read_text())
    env = harness.child_env(str(src))
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    out_dir = Path("perfbench") / "out"
    run_dir = out_dir / "runs" / f"{args.workload}-s{args.seed}-t{args.trace}-{stamp}-{os.getpid()}"
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    inputs = out_dir / "inputs" / args.workload / f"s{args.seed}"

    runner = Runner(args.workload, args.seed, env, tmp, expected)
    harness.probe()  # untimed: the first probe after pinning runs cold
    raw_setups, setup_probes, digests, setup_problem = [], [harness.probe()], None, None
    for _ in range(SETUPS):
        took, jobs, got = set_up(args.workload, args.seed, inputs, runner)
        raw_setups.append(took)
        setup_probes.append(harness.probe())
        if digests is not None and got != digests:
            setup_problem = "set-up wrote different inputs for the same seed"
        digests = got
    # each set-up at reference speed, by the probes just before and after it
    setups = [took * scale for took, scale in
              zip(raw_setups, harness.speed_scales(setup_probes, window=2))]

    passes = passes_for(args.workload, args.seconds)
    pairs = max(1, passes // 2)
    schedule = [False] * passes if not args.trace else [False, True] * pairs
    traced_passes = []
    for traced in schedule:
        spans = []
        for job in jobs:
            out, summary = runner.run(job, traced)
            if traced:
                spans.append((out.wall_s, summary or {}))
        if traced:
            traced_passes.append(spans)
    # a pass takes the sum of its jobs' times
    scaled = runner.scale_walls()
    pass_walls, raw_pass_walls = {False: [], True: []}, []
    for i, traced in enumerate(schedule):
        span = slice(i * len(jobs), (i + 1) * len(jobs))
        pass_walls[traced].append(sum(scaled[span]))
        if not traced:
            raw_pass_walls.append(sum(wall for _, _, wall in runner.timeline[span]))

    raw = None
    if args.trace:
        values, notes = per_layer(traced_passes, pass_walls[False], pass_walls[True])
    else:
        values, notes = end_to_end(runner, jobs, TOP_JOB[args.workload],
                                   pass_walls[False], setups)
        raw, _ = end_to_end(runner, jobs, TOP_JOB[args.workload], raw_pass_walls,
                            raw_setups, key="raw_walls")
    correct = runner.mismatch == 0 and runner.drift == 0 and setup_problem is None
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "passes": len(pass_walls[False]) + len(pass_walls[True]),
        "jobs_per_pass": len(jobs), "environment": env_record,
        "setup_s": setups, "raw_setup_s": raw_setups, "pass_walls": pass_walls[False],
        "raw_pass_walls": raw_pass_walls, "traced_pass_walls": pass_walls[True],
        "probe_s": runner.probes, "setup_probe_s": setup_probes,
        "probe_nominal_s": harness.PROBE_NOMINAL_S,
        "metrics": values, "raw_metrics": raw, "notes": notes, "correct": correct,
        "attempted": runner.attempted, "failed": runner.failed,
        "failed_ratio": runner.failed / runner.attempted,
        "verdict_mismatch": runner.mismatch, "report_drift": runner.drift,
        "setup_problem": setup_problem,
    }
    reports = []
    for rec in runner.records.values():
        reports.append({"id": rec["id"], "inputs": rec["inputs"], "seed": args.seed,
                        "exit": rec["exit"], "report": rec.pop("report", None)})
    result["jobs"] = list(runner.records.values())
    shutil.rmtree(tmp)
    (run_dir / "result.json").write_text(json.dumps(result, indent=1, sort_keys=True))
    with gzip.open(run_dir / "reports.jsonl.gz", "wt", encoding="utf-8") as fh:
        for item in reports:
            fh.write(json.dumps(item, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {result['passes']} x {len(jobs)} jobs  (closed loop, 1 client)")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env_record.items()))
    units = {name: perlayer.unit_of(name) if args.trace else END_TO_END[name]
             for name in values}
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        if raw and units[name] == "s":
            note += f"  raw {raw[name]:.6g} s"
        print(f"  {name:52s} {value:14.6g} {units[name]}{note}")
    probe_med = statistics.median(runner.probes)
    print(f"  {'probe_s (median)':52s} {probe_med:14.6g} s  (reference "
          f"{harness.PROBE_NOMINAL_S} s: the host ran at {harness.PROBE_NOMINAL_S / probe_med:.2f}"
          " of reference speed)")
    if not args.trace:
        print(f"  {'failed_ratio':52s} {result['failed_ratio']:14.6g} ratio"
              f"  ({runner.failed} of {runner.attempted} jobs)")
        print(f"  {'verdict_mismatch':52s} {runner.mismatch:14d} count")
    for rec in result["jobs"]:
        if rec["failures"] or "mismatch" in rec or "drift" in rec:
            print(f"  job {rec['id']}: failures={rec['failures']} "
                  f"mismatch={rec.get('mismatch')} drift={rec.get('drift', 0)}")
    if setup_problem:
        print(f"  {setup_problem}")
    print(f"results {run_dir.as_posix()}")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    print(json.dumps({"correct": correct, "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
