import json
import subprocess
import sys

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


def test_a_key_on_one_side_only_is_one_violation_for_all_its_runs(tmp_path, capsys):
    # a key that a change removes from every report of a verb, and one it
    # adds to one report, read as one violation each, with their run counts
    runs = {f"run {k}": {"exit": 0, "report": json.dumps({"s": {"old": 0.0, "r": 1.0}})}
            for k in range(3)}
    changed = {key: {"exit": 0, "report": json.dumps({"s": {"r": 1.0}})} for key in runs}
    changed["run 0"]["report"] = json.dumps({"s": {"r": 1.0, "new": {"x": 0.0}}})
    same, diff = report_diff.compare(runs, changed)
    assert same == 0 and diff.largest == 0.0
    assert diff.violations == ["key only in A: /s/old (3 runs)",
                               "key only in B: /s/new (1 runs)"]
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, data in zip(paths, (runs, changed)):
        path.write_text(json.dumps(data))
    assert report_diff.main(["compare", *map(str, paths)]) == 1
    out = capsys.readouterr().out
    assert "; 2 violations\n" in out and "  key only in A: /s/old (3 runs)\n" in out


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


def test_compare_stops_quietly_when_stdout_closes(tmp_path):
    # the reader's end of the pipe closes before compare writes a line
    runs = {f"run {k}": {"exit": 0, "report": f"{{\"r\": {k}.0}}\n"} for k in range(200)}
    moved = {key: {"exit": 1, "report": run["report"]} for key, run in runs.items()}
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path, data in zip(paths, (runs, moved)):
        path.write_text(json.dumps(data))
    with subprocess.Popen([sys.executable, report_diff.__file__, "compare", *map(str, paths)],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 1 and stderr == "", stderr


def test_inputs_writes_the_corpus_and_both_workloads_the_same_twice(tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        assert report_diff.main(["inputs", str(record_golden.ROOT), str(out)]) == 0
    files = sorted(p.relative_to(outs[0]) for p in outs[0].rglob("*.json"))
    assert {p.parts[0] for p in files} == {"fixtures", "conjugated", "block-ladder",
                                           "translation-ladder"}
    assert files == sorted(p.relative_to(outs[1]) for p in outs[1].rglob("*.json"))
    for rel in files:
        data = (outs[0] / rel).read_bytes()
        assert data == (outs[1] / rel).read_bytes(), rel
        if rel.parts[0] == "fixtures":
            assert data == (record_golden.FIXTURES / rel.relative_to("fixtures")).read_bytes()


def test_unreached_lists_the_functions_no_run_calls():
    argvs = [record_golden.fixture_argv(args) for args in RUNS]
    names = report_diff.unreached(argvs, record_golden.FIXTURES)
    assert names == sorted(names)
    assert "cli.main" not in names and "actions.roundtrip_check" not in names
    # a helper that runs only on an error path
    assert "repcat._word_name" in names


def test_a_conjugated_action_gives_its_originals_outcome(tmp_path):
    # a change of basis of the acted-on algebra moves no exit code, block
    # or module dimension of the four action verbs
    from qact import cli

    report = tmp_path / "report.json"

    def outcome(verb, backend, action):
        code = cli.main([verb, "--backend", str(backend), "--input", str(action),
                         "--report", str(report)])
        data = json.loads(report.read_text())
        return (code, sorted(data.get("fixed_algebra_blocks", [])), data.get("module_dims"),
                sorted(data.get("endomorphism_blocks", [])))

    written = report_diff.write_conjugated(tmp_path / "conjugated")
    assert len(written) * len(report_diff.ACTION_VERBS) == 144
    originals = {}
    for bk, path in written:
        backend = record_golden.FIXTURES / "backends" / f"{bk}.json"
        original = record_golden.FIXTURES / "actions" / f"{path.stem.rsplit('_s', 1)[0]}.json"
        for verb in report_diff.ACTION_VERBS:
            if (verb, original) not in originals:
                originals[verb, original] = outcome(verb, backend, original)
            assert outcome(verb, backend, path) == originals[verb, original], (verb, path.name)
