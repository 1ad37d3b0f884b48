"""Compare the CLI reports of two source trees run by run.

    python tests/report_diff.py run TREE INPUTS OUT [ARG ...]
    python tests/report_diff.py compare OUT_A OUT_B

`run` makes every run of the comparison set with the `qact` of the source
tree TREE (a checkout: its `src` goes first on sys.path), in this process
and with one BLAS thread, and writes each run's exit code and report text
to the file OUT.  Each ARG, such as `--tolerance 1e-6`, is appended to
every run.  The first `run` on a directory INPUTS fills it: a copy of
`fixtures/`, the inputs of both benchmark workloads at seed 1 (made with
`perfbench/workloads.py`), and `runs.json`, the list of runs.  Later runs
read the same files, so the reports of two trees name the same paths.

The comparison set:
- the fixture runs of `tests/record_golden.py`;
- spectral, roundtrip, module-functor and fullness on every pair of a
  corpus backend and a corpus action;
- cocycle-check on every backend and cocycle, and deform --cross-test on
  every backend, action and cocycle;
- every job of both benchmark workloads, with --seed 1.

`compare` prints how many reports are byte-identical and the largest
float difference, how many runs on each side exit 0, 1, 2 and 3 (so a
count of identical reports shows how many of them are input errors),
names every run whose report differs with its own largest float
difference, and lists the violations of the rule of
`record_golden.check`: a run missing on one side, a changed exit code,
key or non-float value, a float that moved by more than 1e-12, or a
residual recorded as exactly 0.0 that moved.  Entries of encoded matrices
and lists are held to the 1e-12 bound, not to the zero rule, as
`record_golden.summarize` leaves them out.  It exits 1 on any violation.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLOAT_TOL = 1e-12
LADDER_SEED = 1
ACTION_VERBS = ("spectral", "roundtrip", "module-functor", "fullness")


def comparison_set(inputs: pathlib.Path) -> list[list[str]]:
    """The argv of every run, over the files under inputs, filling inputs
    on first use."""
    listing = inputs / "runs.json"
    if listing.exists():
        return json.loads(listing.read_text())
    import record_golden

    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS, build_jobs

    fixtures = inputs / "fixtures"
    shutil.copytree(ROOT / "fixtures", fixtures)
    runs = [[str(fixtures / a) if a.endswith(".json") else a for a in args]
            for args in [*record_golden.FIXTURE_RUNS, record_golden.DEFORM_GROUP_RUN,
                         record_golden.NEGATIVE_FIBER_RUN]]
    backends = sorted((fixtures / "backends").glob("*.json"))
    actions = sorted((fixtures / "actions").glob("*.json"))
    cocycles = sorted((fixtures / "cocycles").glob("*.json"))
    for backend in backends:
        for act in actions:
            for verb in ACTION_VERBS:
                runs.append([verb, "--backend", str(backend), "--input", str(act)])
        for cocycle in cocycles:
            runs.append(["cocycle-check", "--backend", str(backend), "--input", str(cocycle)])
            for act in actions:
                runs.append(["deform", "--backend", str(backend), "--input", str(act),
                             "--input", str(cocycle), "--cross-test"])
    for workload in WORKLOADS:
        for job in build_jobs(workload, LADDER_SEED, inputs / workload):
            runs.append([*job.argv, "--seed", str(LADDER_SEED)])
    listing.write_text(json.dumps(runs, indent=0) + "\n")
    return runs


def run_key(argv: list[str], inputs: pathlib.Path) -> str:
    prefix = f"{inputs}/"
    return " ".join(a[len(prefix):] if a.startswith(prefix) else a for a in argv)


def run_all(runs: list[list[str]], inputs: pathlib.Path) -> dict[str, dict]:
    """Exit code and report text of each run, by run_key, with the qact
    found first on sys.path."""
    from qact import cli

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        report = pathlib.Path(tmp) / "report.json"
        for argv in runs:
            report.unlink(missing_ok=True)
            code = cli.main([*argv, "--report", str(report)])
            out[run_key(argv, inputs)] = {"exit": code, "report": report.read_text()}
    return out


class Diff:
    """The violations and the largest float difference of two reports, and
    of two run files the runs whose reports differ, each with its largest
    float difference."""

    def __init__(self):
        self.violations: list[str] = []
        self.largest = 0.0
        self.differing: list[tuple[str, float]] = []

    def walk(self, old, new, path: str, in_array: bool = False) -> None:
        if isinstance(old, dict):
            if not isinstance(new, dict) or sorted(old) != sorted(new):
                self.violations.append(f"{path}: keys changed")
                return
            for key in old:
                self.walk(old[key], new[key], f"{path}/{key}", in_array)
        elif isinstance(old, list):
            if not isinstance(new, list) or len(old) != len(new):
                self.violations.append(f"{path}: list changed")
                return
            array = in_array or not (old and all(isinstance(v, dict) for v in old))
            for i, (a, b) in enumerate(zip(old, new)):
                self.walk(a, b, f"{path}/{i}", array)
        elif isinstance(old, float) and type(new) is float:
            if new == old:
                return
            moved = abs(new - old)
            if moved == moved:  # not NaN (an infinite value that changed)
                self.largest = max(self.largest, moved)
            if not moved <= FLOAT_TOL:
                self.violations.append(f"{path}: {old!r} -> {new!r}")
            elif old == 0.0 and not in_array:
                self.violations.append(f"{path}: zero residual moved to {new!r}")
        elif type(old) is not type(new) or old != new:
            self.violations.append(f"{path}: {old!r} -> {new!r}")


def compare(a: dict[str, dict], b: dict[str, dict]) -> tuple[int, Diff]:
    """The number of byte-identical reports of two run files, and their
    Diff: the violations (each prefixed by its run), the largest float
    difference and the runs whose reports differ."""
    same = 0
    diff = Diff()
    for key in sorted(set(a) | set(b)):
        if key not in a or key not in b:
            diff.violations.append(f"{key}: run missing on one side")
            continue
        old, new = a[key], b[key]
        if old["exit"] != new["exit"]:
            diff.violations.append(f"{key}: exit {old['exit']} -> {new['exit']}")
        if old["report"] == new["report"]:
            same += 1
            continue
        run = Diff()
        run.walk(json.loads(old["report"]), json.loads(new["report"]), "")
        diff.violations += [f"{key}: {v}" for v in run.violations]
        diff.largest = max(diff.largest, run.largest)
        diff.differing.append((key, run.largest))
    return same, diff


def exit_counts(runs: dict[str, dict]) -> str:
    """How many runs exit 0, 1, 2 and 3, as "n0/n1/n2/n3"."""
    return "/".join(str(sum(run["exit"] == code for run in runs.values()))
                    for code in (0, 1, 2, 3))


def main(argv: list[str]) -> int:
    if len(argv) >= 4 and argv[0] == "run":
        tree, inputs, out = (pathlib.Path(a).resolve() for a in argv[1:4])
        sys.path.insert(0, str(tree / "src"))
        inputs.mkdir(parents=True, exist_ok=True)
        runs = [[*args, *argv[4:]] for args in comparison_set(inputs)]
        results = run_all(runs, inputs)
        out.write_text(json.dumps(results, sort_keys=True) + "\n")
        # a fixture run that is also a corpus run is written once
        print(f"ran {len(runs)} runs of {tree}; wrote {len(results)} distinct ones to {out}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv[1:])
        same, diff = compare(a, b)
        print(f"{same} of {len(set(a) | set(b))} reports byte-identical; "
              f"largest float difference {diff.largest:.3g}; "
              f"{len(diff.violations)} violations")
        print(f"runs exiting 0/1/2/3: {exit_counts(a)} -> {exit_counts(b)}")
        for key, largest in diff.differing[:50]:
            print(f"  differs: {key} (largest float difference {largest:.3g})")
        for line in diff.violations[:50]:
            print("  " + line)
        return 1 if diff.violations else 0
    print(__doc__.split("\n\n")[0], file=sys.stderr)
    return 2


if __name__ == "__main__":
    # before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "tests"))
    sys.exit(main(sys.argv[1:]))
