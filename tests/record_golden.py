"""Corpus residual guard: the verdicts and residuals of the CLI runs that
tests/test_cli.py makes, recorded in tests/golden/residuals.json.

For each run the file holds the exit code, every boolean of the report
(the `passed` flags and the like) and every float of it outside the encoded
matrices, keyed by its path in the report.  `check` compares a fresh run
with the record: equal exit code and flags, every float within 1e-12, and
every float recorded as exactly 0.0 still exactly 0.0.

Rewrite the record (only when a change of results is intended, and say so
in the change log):

    PYTHONPATH=src python tests/record_golden.py

Record only the runs the file does not hold yet, leaving every existing
line as it is, byte for byte (for a new run of the list below):

    PYTHONPATH=src python tests/record_golden.py --add
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden" / "residuals.json"
FLOAT_TOL = 1e-12

# runs of tests/test_cli.py::test_verbs_pass_on_fixtures, paths relative to
# fixtures/
FIXTURE_RUNS = [
    ("validate", "--backend", "backends/s3.json",
     "--input", "functors/spectral_s3_translation.json"),
    ("validate-graded", "--input", "bundles/clock_shift_z3.json"),
    ("validate-graded", "--input", "bundles/zero_odd.json"),
    ("build", "--backend", "backends/z2.json",
     "--input", "functors/spectral_swap_c2.json"),
    ("spectral", "--backend", "backends/s3.json",
     "--input", "actions/s3_translation.json"),
    ("spectral", "--backend", "backends/dual_s3.json",
     "--input", "actions/s3_group_algebra.json"),
    ("roundtrip", "--backend", "backends/z2.json", "--input", "actions/swap_c2.json"),
    ("roundtrip", "--backend", "backends/dual_z3.json",
     "--input", "actions/m3_clock_shift.json"),
    ("module-functor", "--backend", "backends/z2.json",
     "--input", "actions/inner_m2.json"),
    ("fullness", "--backend", "backends/z2.json", "--input", "actions/swap_c2.json"),
    ("cocycle-check", "--backend", "backends/dual_z2z2.json",
     "--input", "cocycles/bicharacter_z2z2.json"),
    ("cocycle-check", "--backend", "backends/z2z2.json",
     "--input", "cocycles/group_bicharacter_z2z2.json"),
    ("deform", "--backend", "backends/dual_z2z2.json",
     "--input", "actions/z2z2_group_algebra.json",
     "--input", "cocycles/bicharacter_z2z2.json", "--cross-test"),
    ("validate-graded", "--input", "bundles/m2_plus_c.json"),
]
# the run of tests/test_cli.py::test_deform_group_backend_cli
DEFORM_GROUP_RUN = (
    "deform", "--backend", "backends/z2z2.json",
    "--input", "actions/z2z2_translation.json",
    "--input", "cocycles/group_bicharacter_z2z2.json", "--cross-test",
)
# a bundle whose odd fiber is no correspondence: validate-graded exits 1
NEGATIVE_FIBER_RUN = ("validate-graded", "--input", "bundles/negative_odd_fiber.json")
ACTION_VERBS = ("spectral", "roundtrip", "module-functor", "fullness")
FUNCTOR_VERBS = ("validate", "build")


def fixture_argv(args) -> list[str]:
    return [str(FIXTURES / a) if a.endswith(".json") else a for a in args]


def fixture_key(args) -> str:
    return " ".join(args)


def action_key(verb: str, name: str) -> str:
    return f"{verb} actions/{name}.json"


def functor_key(verb: str, name: str) -> str:
    return f"{verb} spectral functor of {name}"


def summarize(code: int, report: dict) -> dict:
    """Exit code, booleans and floats of a report; lists of numbers (the
    encoded matrices and the dimension lists) are left out."""
    flags: dict[str, bool] = {}
    floats: dict[str, float] = {}

    def walk(node, path):
        if isinstance(node, dict):
            for key in sorted(node):
                walk(node[key], f"{path}/{key}")
        elif isinstance(node, list):
            if node and all(isinstance(v, dict) for v in node):
                for i, v in enumerate(node):
                    walk(v, f"{path}/{i}")
        elif isinstance(node, bool):
            flags[path] = node
        elif isinstance(node, float):
            floats[path] = node

    walk(report, "")
    return {"exit": code, "flags": flags, "floats": floats}


@functools.cache
def _golden() -> dict:
    return json.loads(GOLDEN.read_text())


def check(key: str, code: int, report: dict) -> None:
    """Assert that a run matches its record in tests/golden/residuals.json."""
    want = _golden()[key]
    got = summarize(code, report)
    assert got["exit"] == want["exit"], (key, got["exit"], want["exit"])
    assert got["flags"] == want["flags"], key
    assert sorted(got["floats"]) == sorted(want["floats"]), key
    for path, old in want["floats"].items():
        new = got["floats"][path]
        # an infinite residual (a degenerate module) must stay infinite
        assert new == old or abs(new - old) <= FLOAT_TOL, (key, path, old, new)
        assert old != 0.0 or new == 0.0, (key, path, "zero residual moved", new)


def _run(argv, tmp: pathlib.Path) -> dict:
    from qact import cli

    out = tmp / "report.json"
    code = cli.main([*argv, "--report", str(out)])
    return summarize(code, json.loads(out.read_text()))


def record(skip=frozenset()) -> dict:
    """Summaries of every recorded run whose key is not in skip."""
    from qact import serialize
    from qact.actions import spectral_functor
    from qact.fixtures import action_corpus, standard_backends

    golden = {}
    corpus = action_corpus()
    backends = standard_backends()
    with tempfile.TemporaryDirectory() as tmpdir:
        tmp = pathlib.Path(tmpdir)
        for args in [*FIXTURE_RUNS, DEFORM_GROUP_RUN, NEGATIVE_FIBER_RUN]:
            if fixture_key(args) not in skip:
                golden[fixture_key(args)] = _run(fixture_argv(args), tmp)
        for name in sorted(corpus):
            path = FIXTURES / "actions" / f"{name}.json"
            backend = json.loads(path.read_text())["backend_ref"]
            for verb in ACTION_VERBS:
                if action_key(verb, name) not in skip:
                    golden[action_key(verb, name)] = _run(
                        [verb, "--backend", str(FIXTURES / backend), "--input", str(path)], tmp)
            verbs = [verb for verb in FUNCTOR_VERBS if functor_key(verb, name) not in skip]
            if not verbs:
                continue
            bk, act = corpus[name]
            functor_path = tmp / "functor.json"
            serialize.dump_json(serialize.functor_to_json(
                spectral_functor(backends[bk], act).functor), functor_path)
            for verb in verbs:
                golden[functor_key(verb, name)] = _run(
                    [verb, "--backend", str(FIXTURES / "backends" / f"{bk}.json"),
                     "--input", str(functor_path)], tmp)
    return golden


def entry_line(key: str, summary: dict) -> str:
    return f"{json.dumps(key)}: {json.dumps(summary, sort_keys=True)}"


def file_lines(path: pathlib.Path) -> dict[str, str]:
    """The entry lines of a record file by key, as the file holds them."""
    lines = path.read_text().split("\n")[1:-2]  # between "{" and "}\n"
    return {next(iter(json.loads("{" + line.rstrip(",") + "}"))): line.rstrip(",")
            for line in lines}


def write(path: pathlib.Path, lines: dict[str, str]) -> None:
    path.write_text("{\n" + ",\n".join(lines[key] for key in sorted(lines)) + "\n}\n")


def add_missing(path: pathlib.Path = GOLDEN) -> list[str]:
    """Record the runs the file at path does not hold; its existing lines
    stay as they are.  Returns the keys added."""
    lines = file_lines(path)
    data = record(skip=frozenset(lines))
    lines.update((key, entry_line(key, summary)) for key, summary in data.items())
    write(path, lines)
    return sorted(data)


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    if sys.argv[1:] == ["--add"]:
        added = add_missing()
        print(f"added {len(added)} runs to {GOLDEN.relative_to(ROOT)}")
        sys.exit(0)
    data = record()
    GOLDEN.parent.mkdir(exist_ok=True)
    write(GOLDEN, {key: entry_line(key, summary) for key, summary in data.items()})
    print(f"wrote {len(data)} runs to {GOLDEN.relative_to(ROOT)}")
