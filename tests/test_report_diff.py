import json

import record_golden
import report_diff

RUNS = [
    ("roundtrip", "--backend", "backends/dual_z3.json", "--input", "actions/m3_clock_shift.json"),
    ("spectral", "--backend", "backends/s3.json", "--input", "actions/s3_translation.json"),
    ("fullness", "--backend", "backends/z2.json", "--input", "actions/swap_c2.json"),
]


def edited(runs, key, edit):
    """A copy of a run file with one report edited as JSON."""
    out = {k: dict(v) for k, v in runs.items()}
    data = json.loads(out[key]["report"])
    edit(data)
    out[key]["report"] = json.dumps(data, indent=2, sort_keys=True) + "\n"
    return out


def test_a_tree_matches_itself_and_a_moved_float_is_flagged(tmp_path, capsys):
    argvs = [record_golden.fixture_argv(args) for args in RUNS]
    first = report_diff.run_all(argvs, record_golden.FIXTURES)
    second = report_diff.run_all(argvs, record_golden.FIXTURES)
    assert sorted(first) == sorted(record_golden.fixture_key(args) for args in RUNS)
    same, diff = report_diff.compare(first, second)
    assert (same, diff.violations, diff.largest, diff.differing) == (len(RUNS), [], 0.0, [])

    key = record_golden.fixture_key(RUNS[0])

    def residuals(data):
        return data["certificate"]["residuals"]

    def bump(name, by):
        return lambda data: residuals(data).__setitem__(name, residuals(data)[name] + by)

    # drift within 1e-12 of a nonzero residual is allowed and measured, and
    # the run that drifted is named
    bumped = edited(first, key, bump("invertibility", 1e-15))
    same, diff = report_diff.compare(first, bumped)
    assert same == len(RUNS) - 1 and diff.violations == [] and diff.largest > 0.0
    assert diff.differing == [(key, diff.largest)]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, runs in zip(paths, (first, bumped)):
        path.write_text(json.dumps(runs))
    assert report_diff.main(["compare", *map(str, paths)]) == 0
    out = capsys.readouterr().out
    assert f"differs: {key} (largest float difference" in out
    assert "runs exiting 0/1/2/3: 3/0/0/0 -> 3/0/0/0\n" in out
    # a residual that moved by more, or a zero residual that moved at all
    for name, by in (("invertibility", 1e-9), ("unit", 1e-17)):
        _, diff = report_diff.compare(first, edited(first, key, bump(name, by)))
        assert len(diff.violations) == 1 and name in diff.violations[0]
    # a changed exit code or flag, a lost key, a lost run
    changed = {k: dict(v) for k, v in first.items()}
    changed[key]["exit"] = 1
    flipped = edited(first, key, lambda data: data["certificate"].__setitem__("passed", False))
    lost = edited(first, key, lambda data: residuals(data).pop("unit"))
    for other in (changed, flipped, lost, {k: first[k] for k in list(first)[1:]}):
        assert report_diff.compare(first, other)[1].violations
    # the exit codes are counted on each side
    changed[key]["exit"] = 2
    paths[1].write_text(json.dumps(changed))
    assert report_diff.main(["compare", *map(str, paths)]) == 1
    assert "runs exiting 0/1/2/3: 3/0/0/0 -> 2/0/1/0\n" in capsys.readouterr().out


def test_run_appends_extra_arguments_to_every_run(tmp_path):
    # a tol replaced by the default constant shows only at another tolerance
    inputs = tmp_path / "inputs"
    inputs.mkdir()
    (inputs / "runs.json").write_text(json.dumps([record_golden.fixture_argv(args)
                                                  for args in RUNS]))
    out = tmp_path / "out.json"
    argv = ["run", str(record_golden.ROOT), str(inputs), str(out), "--tolerance", "1e-6"]
    assert report_diff.main(argv) == 0
    runs = json.loads(out.read_text())
    assert len(runs) == len(RUNS)
    assert all(key.endswith(" --tolerance 1e-6") for key in runs)
    assert all(json.loads(run["report"])["tolerance"] == 1e-6 for run in runs.values())
