"""Compare the CLI reports of two source trees run by run.

    python tests/report_diff.py run TREE INPUTS OUT [ARG ...]
    python tests/report_diff.py compare OUT_A OUT_B
    python tests/report_diff.py unreached TREE INPUTS
    python tests/report_diff.py inputs TREE OUT

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
- the same four verbs on each corpus action conjugated by a random unitary
  of its algebra (`perfbench/workloads.py` `conjugated`) at each seed of
  CONJUGATION_SEEDS, with the action's own corpus backend;
- cocycle-check on every backend and cocycle, and deform --cross-test on
  every backend, action and cocycle;
- every job of both benchmark workloads, with --seed 1.

`compare` prints how many reports are byte-identical and the largest
float difference, how many runs on each side exit 0, 1, 2 and 3 (so a
count of identical reports shows how many of them are input errors) and
how many reach the library (exit 0 or 1),
names every run whose report differs with its own largest float
difference, and lists the violations of the rule of
`record_golden.check`: a run missing on one side, a changed exit code,
key or non-float value, a float that moved by more than 1e-12, or a
residual recorded as exactly 0.0 that moved.  A key present in the
reports of one side only is listed once, first, with its side, its path
and the number of runs that have it, so a key that a change adds or
removes reads as one violation, not one per run.  Entries of encoded matrices
and lists are held to the 1e-12 bound, not to the zero rule, as
`record_golden.summarize` leaves them out.  It exits 1 on any violation.

`unreached` makes every run of the comparison set with the `qact` of
TREE, in this process under `sys.setprofile`, and prints, sorted, every
function and method defined in TREE's `src/qact` (nested functions too,
but no lambda or comprehension) that no run calls, as module.qualname.
Functions are matched by their code object's qualified name, not by line.
Code that runs before the first run, such as what the CLI runs at import,
is listed.

`inputs` writes, with the `qact` of TREE and in this process, the fixture
corpus (`qact.fixtures.write_corpus`) under OUT/fixtures, the conjugated
corpus actions under OUT/conjugated and the inputs of both benchmark
workloads at seed 1 under OUT/<workload> (made with
`perfbench/workloads.py`).  The writer must not change a byte, so after

    python tests/report_diff.py inputs PARENT /tmp/a
    python tests/report_diff.py inputs CHANGE /tmp/b
    diff -r /tmp/a /tmp/b

prints nothing.
"""

from __future__ import annotations

import inspect
import json
import os
import pathlib
import shutil
import sys
import tempfile
from collections import Counter

ROOT = pathlib.Path(__file__).resolve().parents[1]
FLOAT_TOL = 1e-12
LADDER_SEED = 1
CONJUGATION_SEEDS = (3, 4, 5)
ACTION_VERBS = ("spectral", "roundtrip", "module-functor", "fullness")


def comparison_set(inputs: pathlib.Path) -> list[list[str]]:
    """The argv of every run, over the files under inputs, filling inputs
    on first use."""
    listing = inputs / "runs.json"
    if listing.exists():
        return json.loads(listing.read_text())
    import record_golden

    workloads = _workloads()
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
    for backend, act in write_conjugated(inputs / "conjugated"):
        for verb in ACTION_VERBS:
            runs.append([verb, "--backend", str(fixtures / "backends" / f"{backend}.json"),
                         "--input", str(act)])
    for workload in workloads.WORKLOADS:
        for job in workloads.build_jobs(workload, LADDER_SEED, inputs / workload):
            runs.append([*job.argv, "--seed", str(LADDER_SEED)])
    listing.write_text(json.dumps(runs, indent=0) + "\n")
    return runs


def _workloads():
    """perfbench/workloads.py, imported from this checkout."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    return workloads


def write_conjugated(out: pathlib.Path) -> list[tuple[str, pathlib.Path]]:
    """Write each corpus action conjugated at each seed of CONJUGATION_SEEDS
    under out, as <action>_s<seed>.json, with the qact found first on
    sys.path; returns (corpus backend name, action file) pairs."""
    from qact import serialize
    from qact.fixtures import action_corpus

    conjugated = _workloads().conjugated
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name, (backend, act) in sorted(action_corpus().items()):
        for seed in CONJUGATION_SEEDS:
            path = out / f"{name}_s{seed}.json"
            serialize.dump_json(serialize.action_to_json(conjugated(act, seed)), path)
            written.append((backend, path))
    return written


def write_inputs(out: pathlib.Path) -> list[pathlib.Path]:
    """Write the fixture corpus, the conjugated corpus actions and both
    workloads' inputs under out with the qact found first on sys.path;
    returns the files, sorted."""
    from qact.fixtures import write_corpus

    workloads = _workloads()
    write_corpus(out / "fixtures")
    write_conjugated(out / "conjugated")
    for workload in workloads.WORKLOADS:
        workloads.build_jobs(workload, LADDER_SEED, out / workload)
    return sorted(out.rglob("*.json"))


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


def _functions(code):
    """The code objects of the functions and methods defined in a compiled
    module, nested ones included, without lambdas, comprehensions and
    class bodies."""
    for const in code.co_consts:
        if hasattr(const, "co_qualname"):
            if const.co_flags & inspect.CO_NEWLOCALS and not const.co_name.startswith("<"):
                yield const
            yield from _functions(const)


def unreached(runs: list[list[str]], inputs: pathlib.Path) -> list[str]:
    """module.qualname of every function and method of the qact found first
    on sys.path that none of the runs calls, sorted."""
    from qact import cli

    package = pathlib.Path(cli.__file__).parent
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add((frame.f_code.co_filename, frame.f_code.co_qualname))

    sys.setprofile(profile)
    try:
        run_all(runs, inputs)
    finally:
        sys.setprofile(None)
    return sorted(f"{path.stem}.{code.co_qualname}"
                  for path in package.glob("*.py")
                  for code in _functions(compile(path.read_text(), str(path), "exec"))
                  if (str(path), code.co_qualname) not in called)


class Diff:
    """The violations and the largest float difference of two reports, and
    of two run files the runs whose reports differ, each with its largest
    float difference.  A key present on one side only is kept apart, in
    `one_sided`: by side ("A" or "B") and key path, the number of runs it
    is found in.  compare adds one violation per such key, not per run."""

    def __init__(self):
        self.violations: list[str] = []
        self.largest = 0.0
        self.differing: list[tuple[str, float]] = []
        self.one_sided: Counter[tuple[str, str]] = Counter()

    def walk(self, old, new, path: str, in_array: bool = False) -> None:
        if isinstance(old, dict):
            if not isinstance(new, dict):
                self.violations.append(f"{path}: keys changed")
                return
            for side, keys in (("A", old.keys() - new.keys()), ("B", new.keys() - old.keys())):
                for key in sorted(keys):
                    self.one_sided[side, f"{path}/{key}"] += 1
            for key in old:
                if key in new:
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
    Diff: the violations, the largest float difference and the runs whose
    reports differ.  The violations start with one line per key found on
    one side only, with its path and its number of runs; each other
    violation is prefixed by its run."""
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
        diff.one_sided.update(run.one_sided)
        diff.largest = max(diff.largest, run.largest)
        diff.differing.append((key, run.largest))
    diff.violations[:0] = [f"key only in {side}: {path} ({count} runs)"
                           for (side, path), count in sorted(diff.one_sided.items())]
    return same, diff


def exit_counts(runs: dict[str, dict]) -> str:
    """How many runs exit 0, 1, 2 and 3, as "n0/n1/n2/n3"."""
    return "/".join(str(sum(run["exit"] == code for run in runs.values()))
                    for code in (0, 1, 2, 3))


def reaching(runs: dict[str, dict]) -> int:
    """How many runs reach the library: exit 0 or 1."""
    return sum(run["exit"] in (0, 1) for run in runs.values())


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
    if len(argv) == 3 and argv[0] == "unreached":
        tree, inputs = (pathlib.Path(a).resolve() for a in argv[1:3])
        sys.path.insert(0, str(tree / "src"))
        inputs.mkdir(parents=True, exist_ok=True)
        print("\n".join(unreached(comparison_set(inputs), inputs)))
        return 0
    if len(argv) == 3 and argv[0] == "inputs":
        tree, out = (pathlib.Path(a).resolve() for a in argv[1:3])
        sys.path.insert(0, str(tree / "src"))
        print(f"wrote {len(write_inputs(out))} input files of {tree} under {out}")
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        a, b = (json.loads(pathlib.Path(p).read_text()) for p in argv[1:])
        same, diff = compare(a, b)
        lines = [f"{same} of {len(set(a) | set(b))} reports byte-identical; "
                 f"largest float difference {diff.largest:.3g}; "
                 f"{len(diff.violations)} violations",
                 f"runs exiting 0/1/2/3: {exit_counts(a)} -> {exit_counts(b)}",
                 f"runs reaching the library (exit 0 or 1): {reaching(a)} -> {reaching(b)}"]
        lines += [f"  differs: {key} (largest float difference {largest:.3g})"
                  for key, largest in diff.differing[:50]]
        lines += ["  " + line for line in diff.violations[:50]]
        try:
            print("\n".join(lines), flush=True)
        except BrokenPipeError:
            # the reader closed stdout, as `| head` does: drop the rest of
            # the text, and the flush at exit with it, and keep the verdict
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1 if diff.violations else 0
    print(__doc__.split("\n\n")[0], file=sys.stderr)
    return 2


if __name__ == "__main__":
    # before numpy is first imported
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.path.insert(0, str(ROOT / "tests"))
    sys.exit(main(sys.argv[1:]))
