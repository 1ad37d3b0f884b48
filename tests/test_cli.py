import gc
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from qact import cli
from qact.fixtures import action_corpus, write_corpus

import record_golden

FIXTURES = pathlib.Path(__file__).resolve().parents[1] / "fixtures"


def run_cli(*args, env=None):
    return subprocess.run(
        [sys.executable, "-m", "qact", *args],
        capture_output=True, text=True, timeout=300, env=env,
    )


def test_fixture_corpus_exists():
    assert (FIXTURES / "backends" / "s3.json").exists(), (
        "regenerate with: python -m qact.fixtures fixtures"
    )


@pytest.mark.parametrize("args", record_golden.FIXTURE_RUNS)
def test_verbs_pass_on_fixtures(args, tmp_path):
    # under one and two BLAS threads: the golden rule holds for both, though
    # the bits of a report may differ between them
    report = tmp_path / "report.json"
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads}
        proc = run_cli(*record_golden.fixture_argv(args), "--report", str(report), env=env)
        assert proc.returncode == 0, (threads, proc.stdout + proc.stderr)
        data = json.loads(report.read_text())
        assert data["schema"] == "report.v1"
        record_golden.check(record_golden.fixture_key(args), proc.returncode, data)


TWO_THREAD_CORPUS_RUNS = f"""
import json, sys
sys.path.insert(0, {str(pathlib.Path(__file__).resolve().parent)!r})
import record_golden
print(json.dumps(record_golden.record(skip=record_golden.FIXTURE_KEYS)))
"""


@pytest.fixture(scope="module")
def two_thread_corpus_runs():
    """The summaries of every corpus run of record_golden.record, made in a
    child process under two BLAS threads: the report bits may depend on the
    thread count, and the golden rule must hold for both."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2"}
    proc = subprocess.run([sys.executable, "-c", TWO_THREAD_CORPUS_RUNS], capture_output=True,
                          text=True, timeout=600, env=env)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def corpus_argv(verb: str, name: str) -> list[str]:
    """An action verb on a corpus action file, over the backend it names."""
    path = FIXTURES / "actions" / f"{name}.json"
    backend = json.loads(path.read_text())["backend_ref"]
    return [verb, "--backend", str(FIXTURES / backend), "--input", str(path)]


@pytest.mark.parametrize("verb", record_golden.ACTION_VERBS)
@pytest.mark.parametrize("name", sorted(action_corpus()))
def test_action_verbs_on_whole_corpus(name, verb, tmp_path, two_thread_corpus_runs):
    report = tmp_path / "report.json"
    code = cli.main([*corpus_argv(verb, name), "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["verb"] == verb and "error" not in data
    key = record_golden.action_key(verb, name)
    record_golden.check(key, code, data)
    record_golden.check_summary(key, two_thread_corpus_runs[key])


@pytest.mark.parametrize("verb", ["validate", "build"])
@pytest.mark.parametrize("name", sorted(action_corpus()))
def test_functor_verbs_on_whole_corpus(name, verb, tmp_path, two_thread_corpus_runs):
    from qact import serialize
    from qact.actions import spectral_functor
    from qact.fixtures import standard_backends

    bk, act = action_corpus()[name]
    functor = spectral_functor(standard_backends()[bk], act).functor
    path = tmp_path / "functor.json"
    serialize.dump_json(serialize.functor_to_json(functor), path)
    report = tmp_path / "report.json"
    code = cli.main([verb, "--backend", str(FIXTURES / "backends" / f"{bk}.json"),
                     "--input", str(path), "--report", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert data["validation"]["passed"]
    assert verb == "validate" or data["build"]["passed"]
    key = record_golden.functor_key(verb, name)
    record_golden.check(key, code, data)
    record_golden.check_summary(key, two_thread_corpus_runs[key])
    # axiom (v) reports one adjoint check per basis vector and pair, and one
    # exchange check per basis vector and triple, of nonzero modules
    labels = [l for l in functor.backend.labels if functor.module(l).dim]
    expected = set()
    for a in labels:
        for b in labels:
            for p in range(functor.module(a).dim):
                expected.add(f"adjoint:{a},{b}:{p}")
                expected.update(f"exchange:{a},{b},{c}:{p}" for c in labels)
    assert set(data["validation"]["axioms"]["v_adjointability"]["checks"]) == expected


def test_committed_fixtures_are_fresh(tmp_path):
    fresh = sorted(pathlib.Path(p).relative_to(tmp_path) for p in write_corpus(tmp_path))
    assert fresh == sorted(p.relative_to(FIXTURES) for p in FIXTURES.rglob("*.json"))
    for rel in fresh:
        assert (tmp_path / rel).read_bytes() == (FIXTURES / rel).read_bytes(), rel


def test_a_backend_whose_rho_is_not_the_identity_is_an_input_error(tmp_path):
    # every finite backend is of Kac type, so a rho other than the identity
    # is malformed input: exit 2 with a report naming the irreducible
    data = json.loads((FIXTURES / "backends/s3.json").read_text())
    entry = next(e for e in data["irreps"] if e["label"] == "std")
    entry["rho"] = [[[1.7, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1 / 1.7, 0.0]]]
    backend = tmp_path / "non_kac_s3.json"
    backend.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    for verb, inp in (("spectral", "actions/s3_translation.json"),
                      ("validate", "functors/spectral_s3_translation.json"),
                      ("cocycle-check", "cocycles/bicharacter_z2z2.json")):
        proc = run_cli(verb, "--backend", str(backend), "--input", str(FIXTURES / inp),
                       "--report", str(report))
        assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
        out = json.loads(report.read_text())
        assert sorted(out) == ["error", "schema", "verb"] and out["verb"] == verb
        assert "rho of irrep 'std' is not the identity" in out["error"]


def test_a_looser_tolerance_passes_every_run_the_default_passes(tmp_path):
    # --tolerance only loosens: no fixture run, no run of
    # test_action_verbs_on_whole_corpus and no job of either benchmark
    # workload (inputs written at seed 1) that exits 0 at the default fails
    # at a larger tolerance
    import report_diff

    report = tmp_path / "r.json"

    def code(argv, *extra):
        return cli.main([*argv, *extra, "--report", str(report)])

    runs = [record_golden.fixture_argv(args)
            for args in [*record_golden.FIXTURE_RUNS, record_golden.DEFORM_GROUP_RUN]]
    runs += [corpus_argv(verb, name)
             for name in sorted(action_corpus()) for verb in record_golden.ACTION_VERBS]
    workloads = report_diff._workloads()
    jobs = [[*job.argv, "--seed", "1"] for workload in workloads.WORKLOADS
            for job in workloads.build_jobs(workload, 1, tmp_path / workload)]
    assert len(jobs) == 31
    runs += jobs
    passing = [argv for argv in runs if code(argv) == 0]
    assert passing == runs
    for argv in passing:
        for tol in ("1e-6", "1e-3", "1e-1"):
            assert code(argv, "--tolerance", tol) == 0, (argv, tol)


def test_every_golden_run_exits_by_the_one_rule():
    # exit 1 exactly when some top-level section of the report has "passed"
    # false: checked on the recorded flags, with no run
    golden = json.loads(record_golden.GOLDEN.read_text())
    codes = []
    for key, run in golden.items():
        if run["exit"] not in (0, 1):
            continue
        sections = [flag for path, flag in run["flags"].items()
                    if path.count("/") == 2 and path.endswith("/passed")]
        assert sections, key
        assert run["exit"] == (0 if all(sections) else 1), key
        codes.append(run["exit"])
    assert 0 in codes and 1 in codes


def test_validate_graded_rejects_a_fiber_that_is_no_correspondence(tmp_path):
    args = record_golden.NEGATIVE_FIBER_RUN
    report = tmp_path / "report.json"
    code = cli.main([*record_golden.fixture_argv(args), "--report", str(report)])
    assert code == 1
    data = json.loads(report.read_text())
    assert not data["validation"]["axioms"]["modules_wellformed"]["passed"]
    record_golden.check(record_golden.fixture_key(args), code, data)


def test_record_golden_add_records_only_missing_runs(tmp_path):
    # --add runs only the runs the file lacks (a fixture run and the two
    # functor verbs of one corpus action here) and leaves every other line
    # byte for byte in its place
    golden = tmp_path / "residuals.json"
    golden.write_text(record_golden.GOLDEN.read_text())
    full = record_golden.file_lines(golden)
    dropped = [record_golden.fixture_key(record_golden.FIXTURE_RUNS[2]),
               *(record_golden.functor_key(verb, "swap_c2") for verb in ("validate", "build"))]
    kept = {k: v for k, v in full.items() if k not in dropped}
    record_golden.write(golden, kept)

    assert record_golden.add_missing(golden) == sorted(dropped)
    added = record_golden.file_lines(golden)
    assert list(added) == sorted(full)
    assert {k: v for k, v in added.items() if k in kept} == kept
    for key in dropped:
        got = json.loads("{" + added[key] + "}")[key]
        want = json.loads("{" + full[key] + "}")[key]
        assert (got["exit"], got["flags"], sorted(got["floats"])) \
            == (want["exit"], want["flags"], sorted(want["floats"])), key
        for path, old in want["floats"].items():
            assert abs(got["floats"][path] - old) <= record_golden.FLOAT_TOL, (key, path)
            assert old != 0.0 or got["floats"][path] == 0.0, (key, path)


def recursive_encode_complex(arr) -> list:
    """The report encoder as it was, one entry at a time."""
    arr = np.asarray(arr, dtype=complex)
    if arr.ndim == 0:
        return [float(arr.real), float(arr.imag)]
    return [recursive_encode_complex(sub) for sub in arr]


def encode_complex(arr) -> list:
    """The array encoder of the data files as it was, before serialize.dumps
    wrote them: nested lists of [re, im] pairs for json.dump."""
    arr = np.asarray(arr, dtype=complex)
    return np.stack([arr.real, arr.imag], -1).tolist()


def test_dumps_gives_the_recursive_encoders_bytes():
    from qact import serialize

    rng = np.random.default_rng(5)
    special = np.array([0.0, -0.0, 1.0, -1e-300, np.inf, -np.inf, np.nan, 2.5e-17])
    grid = np.zeros((8, 8), dtype=complex)
    grid.real, grid.imag = special[:, None], special[None, :]
    arrays = [
        np.complex128(1 - 2j), np.float64(-0.0), 3, True, [1, 2],
        special, grid, special.astype(np.float32),
        rng.standard_normal((4, 3, 2)) + 1j * rng.standard_normal((4, 3, 2)),
        rng.standard_normal((25, 25, 25)),
        np.zeros((0,)), np.zeros((0, 3)), np.zeros((3, 0), dtype=complex), np.zeros((2, 0, 4)),
    ]
    for arr in arrays:
        want = json.dumps(recursive_encode_complex(arr), indent=2)
        assert json.dumps(encode_complex(arr), indent=2) == want
        assert serialize.dumps(np.asarray(arr)) == want
        assert serialize.dumps({"a": np.asarray(arr)}) \
            == json.dumps({"a": recursive_encode_complex(arr)}, indent=2)


def reference_jsonable(obj):
    """The report with numpy values as JSON values, for json.dumps: what
    cli.main encoded before serialize.dumps wrote arrays whole."""
    if isinstance(obj, dict):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.ndarray):
        return encode_complex(obj)
    return obj


def test_dumps_edge_cases_match_json_module():
    from qact import serialize

    special = np.array([0.0, -0.0, 1.0, -1e-300, np.inf, -np.inf, np.nan, 2.5e-17])
    report = {"a": special, 3: {1: np.zeros((3, 0)), "x": [1, 2.5, (3, np.float64(-0.0))],
                                "c": np.complex128(1 - 2j), "e": [], "f": {}, "g": [[]]},
              "z": np.zeros((2, 0, 4)), "w": np.asarray(3), "n": None, "t": np.bool_(True),
              "s": "h\u00e9 \"q\"", "i": np.int64(-7), "m": np.arange(6.0).reshape(2, 3)}
    assert serialize.dumps(report) \
        == json.dumps(reference_jsonable(report), indent=2, sort_keys=True)


def test_every_comparison_set_report_is_the_json_module_text(tmp_path, monkeypatch):
    # the runs of tests/report_diff.py: every verb on every corpus input, the
    # conjugated corpus actions and both benchmark workloads' jobs, and
    # every input file of the conjugated actions and the workloads, which
    # the set writes first
    import report_diff
    from qact import serialize

    render, checked = serialize.dumps, []

    def compared(obj):
        text = render(obj)
        checked.append(text == json.dumps(reference_jsonable(obj), indent=2, sort_keys=True))
        return text

    monkeypatch.setattr(serialize, "dumps", compared)
    runs = report_diff.comparison_set(tmp_path / "inputs")
    written = len(checked)
    assert written and written == len(list(tmp_path.glob("inputs/*-ladder/*.json"))) \
        + len(list(tmp_path.glob("inputs/conjugated/*.json")))
    for argv in runs:
        cli.main([*argv, "--report", str(tmp_path / "report.json")])
    assert len(checked) == written + len(runs) and all(checked)


def write_backend(tmp_path, source, name, edit):
    """A copy of a corpus backend file, changed by edit(data)."""
    data = json.loads((FIXTURES / "backends" / source).read_text())
    edit(data)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def assert_input_error(proc, report, verb, message):
    assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
    out = json.loads(report.read_text())
    assert sorted(out) == ["error", "schema", "verb"] and out["verb"] == verb
    assert message in out["error"], out["error"]


def keep_irreps(*labels):
    def edit(data):
        data["irreps"] = [e for e in data["irreps"] if e["label"] in labels]
    return edit


@pytest.mark.parametrize("source, labels, action, total, order", [
    ("s3.json", ("triv", "sign"), "s3_translation", 2, 6),
    ("dual_z2z2.json", ("0|0", "0|1"), "z2z2_group_algebra", 2, 4),
], ids=["s3_without_std", "dual_z2z2_half"])
def test_an_incomplete_table_is_an_input_error(source, labels, action, total, order, tmp_path):
    # a table that misses irreducibles would give a functor that misses them
    backend = write_backend(tmp_path, source, "partial.json", keep_irreps(*labels))
    report = tmp_path / "r.json"
    for verb in ("spectral", "roundtrip", "module-functor", "fullness"):
        proc = run_cli(verb, "--backend", str(backend),
                       "--input", str(FIXTURES / "actions" / f"{action}.json"),
                       "--report", str(report))
        assert_input_error(proc, report, verb, f"the sum of squared irrep dimensions "
                                               f"is {total}, not |G| = {order}")


def declare_dim_two(data):
    entry = next(e for e in data["irreps"] if e["label"] == "1")
    entry["dim"] = 2
    entry["rho"] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]


def self_conjugate(data):
    next(e for e in data["irreps"] if e["label"] == "1")["conj"] = "1"


@pytest.mark.parametrize("edit, message", [
    (declare_dim_two, "dual-backend irreps must be one-dimensional"),
    (self_conjugate, "conjugate of '1' must be its inverse"),
], ids=["dim_two", "conj_not_inverse"])
def test_dual_table_rules_are_input_errors(edit, message, tmp_path):
    backend = write_backend(tmp_path, "dual_z3.json", "bad_dual_z3.json", edit)
    report = tmp_path / "r.json"
    proc = run_cli("spectral", "--backend", str(backend),
                   "--input", str(FIXTURES / "actions" / "m3_clock_shift.json"),
                   "--report", str(report))
    assert_input_error(proc, report, "spectral", message)


def test_missing_file_is_input_error(tmp_path):
    proc = run_cli("roundtrip", "--backend", str(FIXTURES / "backends/z2.json"),
                   "--input", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)


@pytest.mark.parametrize("what", ["backend", "action"])
@pytest.mark.parametrize("kind, message", [
    ("directory", "cannot be read: Is a directory"),
    ("not_utf8", "is not UTF-8 text: invalid continuation byte"),
], ids=["directory", "not_utf8"])
def test_an_unreadable_input_is_an_input_error(what, kind, message, tmp_path):
    # reading the file fails before any JSON is parsed; a file that cannot
    # be opened for lack of permission takes the same path
    bad = tmp_path / "bad"
    if kind == "directory":
        bad.mkdir()
    else:
        bad.write_bytes(b'{"schema": "caf\xe9 au lait"}')
    backend = bad if what == "backend" else FIXTURES / "backends/z2.json"
    action = bad if what == "action" else FIXTURES / "actions/swap_c2.json"
    report = tmp_path / "r.json"
    code = cli.main(["spectral", "--backend", str(backend), "--input", str(action),
                     "--report", str(report)])
    out = json.loads(report.read_text())
    assert code == 2 and sorted(out) == ["error", "schema", "verb"]
    assert out["error"] == f"{what} file {bad} {message}", out["error"]


def test_an_unwritable_report_path_is_an_input_error(tmp_path, capsys):
    # a report path in a missing directory: exit 2, nothing on stdout and
    # one line on stderr naming the path
    path = tmp_path / "missing" / "r.json"
    code = cli.main(["spectral", "--backend", str(FIXTURES / "backends/z2.json"),
                     "--input", str(FIXTURES / "actions/swap_c2.json"), "--report", str(path)])
    out, err = capsys.readouterr()
    assert code == 2 and out == "" and not path.exists()
    assert err == f"qact: cannot write the report to {path}: No such file or directory\n"


ROUNDTRIP_S3 = ["roundtrip", "--backend", str(FIXTURES / "backends/s3.json"),
                "--input", str(FIXTURES / "actions/s3_translation.json")]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_a_full_stdout_is_an_input_error(unbuffered):
    # every write to /dev/full fails with ENOSPC: exit 2 and one stderr line.
    # Buffered, the failure comes at the flush, and the flush at exit must
    # then find no text left to fail on (it would exit 120)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered}
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "qact", *ROUNDTRIP_S3], stdout=full,
                              stderr=subprocess.PIPE, text=True, timeout=300, env=env)
    assert proc.returncode == 2
    assert proc.stderr == "qact: cannot write the report to stdout: No space left on device\n"


def test_a_closed_stdout_is_an_input_error():
    # the process starts with file descriptor 1 closed, so sys.stdout is None
    proc = subprocess.run([sys.executable, "-m", "qact", *ROUNDTRIP_S3],
                          preexec_fn=lambda: os.close(1), stderr=subprocess.PIPE,
                          text=True, timeout=300)
    assert proc.returncode == 2
    assert proc.stderr == "qact: cannot write the report to stdout: Bad file descriptor\n"


def test_bad_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("validate-graded", "--input", str(bad))
    assert proc.returncode == 2


def broken_s3_functor() -> dict:
    """The S3 translation functor file with one stored tensor perturbed, so
    that it fails validation."""
    src = json.loads((FIXTURES / "functors/spectral_s3_translation.json").read_text())
    entry = next(e for e in src["phi"]
                 if (e["alpha"], e["beta"], e["gamma"]) == ("std", "std", "std"))
    entry["tensor"][0][0][0][0] += 1e-3
    return src


def test_validation_failure_is_exit_one(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(broken_s3_functor()))
    proc = run_cli("validate", "--backend", str(FIXTURES / "backends/s3.json"),
                   "--input", str(bad))
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert not data["validation"]["passed"]


def test_roundtrip_whose_functor_fails_validation_writes_that_section(tmp_path, monkeypatch):
    # the round trip rebuilds nothing from a functor that fails validation:
    # the failed validation section stands in place of the certificate
    from qact import reconstruction

    validate = reconstruction.validate_functor
    monkeypatch.setattr(reconstruction, "validate_functor",
                        lambda *args, **kwargs: {**validate(*args, **kwargs), "passed": False})
    report = tmp_path / "r.json"
    code = cli.main(["roundtrip", "--backend", str(FIXTURES / "backends/s3.json"),
                     "--input", str(FIXTURES / "actions/s3_translation.json"),
                     "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 1
    assert data["validation"]["passed"] is False and "certificate" not in data


def test_wrong_inputs_count(tmp_path):
    proc = run_cli("deform", "--backend", str(FIXTURES / "backends/dual_z2z2.json"),
                   "--input", str(FIXTURES / "actions/z2z2_group_algebra.json"))
    assert proc.returncode == 2


def test_reports_are_byte_identical(tmp_path):
    # fresh interpreter per run: any hash-order dependence would show up here
    args = ("roundtrip", "--backend", str(FIXTURES / "backends/s3.json"),
            "--input", str(FIXTURES / "actions/s3_translation.json"),
            "--seed", "0")
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    assert run_cli(*args, "--report", str(r1)).returncode == 0
    assert run_cli(*args, "--report", str(r2)).returncode == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_backend_files_roundtrip_exactly():
    # serialization is exact at double precision
    from qact import serialize
    from qact.fixtures import standard_backends

    for name, backend in standard_backends().items():
        text = serialize.dumps(serialize.backend_to_json(backend))
        again = serialize.backend_to_json(serialize.backend_from_json(json.loads(text)))
        assert serialize.dumps(again) == text, name


def test_functor_file_roundtrip(tmp_path):
    from qact import serialize
    from qact.fixtures import standard_backends, action_corpus
    from qact.actions import spectral_functor

    backends = standard_backends()
    bk, act = action_corpus()["swap_c2"]
    functor = spectral_functor(backends[bk], act).functor
    data = json.loads(serialize.dumps(serialize.functor_to_json(functor)))
    loaded = serialize.functor_from_json(data, backends[bk])
    for label in backends[bk].labels:
        np.testing.assert_array_equal(
            loaded.module(label).inner_tensor, functor.module(label).inner_tensor
        )
    for key in functor.phi:
        for t1, t2 in zip(functor.phi[key], loaded.phi[key]):
            np.testing.assert_array_equal(t1, t2)


def test_deform_group_backend_cli(tmp_path):
    report = tmp_path / "r.json"
    args = record_golden.DEFORM_GROUP_RUN
    proc = run_cli(*record_golden.fixture_argv(args), "--report", str(report))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    data = json.loads(report.read_text())
    assert data["cross_test"]["passed"]
    assert data["center_dimension"] == 1
    record_golden.check(record_golden.fixture_key(args), proc.returncode, data)


def test_failing_cocycle_exits_one(tmp_path):
    import numpy as np

    from qact import serialize
    from qact.cocycles import Cocycle
    from qact.groups import cyclic_group, direct_product

    group = direct_product(cyclic_group(2), cyclic_group(2))
    rng = np.random.default_rng(1)
    vals = np.exp(2j * np.pi * rng.random((4, 4)))
    vals = vals / vals[group.identity, group.identity]
    bad = Cocycle("dual", group, vals, vals)
    path = tmp_path / "bad_cocycle.json"
    serialize.dump_json(serialize.cocycle_to_json(bad), path)
    proc = run_cli("cocycle-check",
                   "--backend", str(FIXTURES / "backends/dual_z2z2.json"),
                   "--input", str(path))
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert not data["cocycle"]["passed"]
    assert data["cocycle"]["worst_triple"] is not None


def flatten_tensor(data):
    data["tensor"] = [pair for row in data["tensor"] for pair in row]


def nest_a_value(data):
    data["values"]["(0|0,0|0)"] = [[1.0, 0.0], [1.0, 0.0]]


def four_axis_tensor(data):
    data["tensor"] = [[[[pair, pair], [pair, pair]] for pair in row] for row in data["tensor"]]


@pytest.mark.parametrize("source, backend, edit, message", [
    ("group_bicharacter_z2z2.json", "z2z2.json", flatten_tensor,
     "cocycle table has shape (16,), not (4, 4)"),
    ("bicharacter_z2z2.json", "dual_z2z2.json", nest_a_value,
     "cocycle value (0|0,0|0) must be one [re, im] pair, got shape (2,)"),
    ("group_bicharacter_z2z2.json", "z2z2.json", four_axis_tensor,
     "cocycle table has shape (4, 4, 2, 2), not (4, 4)"),
], ids=["group_pairs_list", "dual_nested_value", "group_four_axes"])
def test_a_misshapen_cocycle_is_an_input_error(source, backend, edit, message, tmp_path):
    data = json.loads((FIXTURES / "cocycles" / source).read_text())
    edit(data)
    path = tmp_path / "cocycle.json"
    path.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    proc = run_cli("cocycle-check", "--backend", str(FIXTURES / "backends" / backend),
                   "--input", str(path), "--report", str(report))
    assert_input_error(proc, report, "cocycle-check", message)


def test_a_misshapen_automorphism_map_is_an_input_error(tmp_path):
    data = json.loads((FIXTURES / "actions" / "z2z2_translation.json").read_text())
    data["data"]["maps"]["0|1"] = data["data"]["maps"]["0|1"][:3]
    path = tmp_path / "action.json"
    path.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    proc = run_cli("spectral", "--backend", str(FIXTURES / "backends" / "z2z2.json"),
                   "--input", str(path), "--report", str(report))
    assert_input_error(proc, report, "spectral", "the map of '0|1' has shape (3, 4), not (4, 4)")


def non_actions():
    """Three action files that are no action, each with its backend: the
    transpose of M_2 under Z2 (not multiplicative), a shift of C^3 that
    every nontrivial element of Z3 acts by (no homomorphism), and a split
    of M_2 into two components that do not multiply into each other."""
    from qact.actions import Action
    from qact.algebras import BlockAlgebra
    from qact.groups import cyclic_group

    m2, c3 = BlockAlgebra((2,)), BlockAlgebra((1, 1, 1))
    transpose = np.eye(4, dtype=complex)[[0, 2, 1, 3]]
    shift = np.eye(3, dtype=complex)[[1, 2, 0]]
    rows = np.eye(4, dtype=complex)
    return {
        "transpose_m2": ("z2", Action("automorphism", m2, cyclic_group(2), maps={
            "0": np.eye(4, dtype=complex), "1": transpose})),
        "shift_c3": ("z3", Action("automorphism", c3, cyclic_group(3), maps={
            "0": np.eye(3, dtype=complex), "1": shift, "2": shift})),
        "split_m2": ("dual_z2", Action("grading", m2, cyclic_group(2), components={
            "0": rows[[0, 1]], "1": rows[[2, 3]]})),
    }


@pytest.mark.parametrize("name", ["transpose_m2", "shift_c3", "split_m2"])
def test_every_action_verb_rejects_a_non_action(name, tmp_path):
    from qact import serialize
    from qact.fixtures import trivial_cocycle

    bk, act = non_actions()[name]
    path = tmp_path / "action.json"
    serialize.dump_json(serialize.action_to_json(act), path)
    cocycle = tmp_path / "cocycle.json"
    kind = "group" if act.kind == "automorphism" else "dual"
    serialize.dump_json(serialize.cocycle_to_json(trivial_cocycle(kind, act.group)), cocycle)
    backend = str(FIXTURES / "backends" / f"{bk}.json")
    report = tmp_path / "r.json"
    for verb in ("spectral", "roundtrip", "module-functor", "fullness", "deform"):
        extra = ["--input", str(cocycle), "--cross-test"] if verb == "deform" else []
        code = cli.main([verb, "--backend", backend, "--input", str(path), *extra,
                         "--report", str(report)])
        data = json.loads(report.read_text())
        assert code == 1, (verb, data)
        assert data["action"]["passed"] is False, verb


def empty_component_gradings():
    """Two gradings with empty spectral subspaces, each with its backend:
    M_2 graded by Z3 with every element in degree 0, and C^2 graded by
    Z2 x Z2 with its unit in degree 0|0, (1, -1) in degree 0|1 and the
    components of 1|0 and 1|1 empty."""
    from qact.actions import Action
    from qact.algebras import BlockAlgebra
    from qact.fixtures import trivial_action
    from qact.groups import cyclic_group, direct_product
    from qact.repcat import dual_backend

    z3 = dual_backend(cyclic_group(3))
    z2z2 = dual_backend(direct_product(cyclic_group(2), cyclic_group(2)))
    comps = {x: np.zeros((0, 2)) for x in z2z2.group.elements}
    comps["0|0"], comps["0|1"] = np.array([[1.0, 1.0]]), np.array([[1.0, -1.0]])
    return {
        "m2_degree_zero": (z3, trivial_action(z3, BlockAlgebra((2,)), name="m2-degree-zero"),
                           {"0": 4, "1": 0, "2": 0}),
        "c2_two_empty": (z2z2, Action("grading", BlockAlgebra((1, 1)), z2z2.group,
                                      components=comps, name="c2-two-empty"),
                         {"0|0": 1, "0|1": 1, "1|0": 0, "1|1": 0}),
    }


@pytest.mark.parametrize("name", ["m2_degree_zero", "c2_two_empty"])
def test_every_action_verb_passes_with_empty_spectral_subspaces(name, tmp_path):
    from qact import serialize

    backend, act, dims = empty_component_gradings()[name]
    bpath, apath = tmp_path / "backend.json", tmp_path / "action.json"
    serialize.dump_json(serialize.backend_to_json(backend), bpath)
    serialize.dump_json(serialize.action_to_json(act), apath)
    report = tmp_path / "r.json"
    for verb in ("spectral", "roundtrip", "module-functor", "fullness"):
        code = cli.main([verb, "--backend", str(bpath), "--input", str(apath),
                         "--report", str(report)])
        data = json.loads(report.read_text())
        assert code == 0, (verb, data)
        assert "error" not in data and "internal_error" not in data, verb
        if verb in ("spectral", "module-functor"):
            assert data["module_dims"] == dims, verb
    assert data["certificate"]["passed"] is True


@pytest.mark.parametrize("verb", ["validate", "build", "spectral", "roundtrip",
                                  "module-functor", "fullness", "cocycle-check", "deform"])
def test_a_verb_without_its_backend_is_an_input_error(verb, tmp_path):
    report = tmp_path / "r.json"
    code = cli.main([verb, "--input", str(FIXTURES / "actions/swap_c2.json"),
                     "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 2 and data == {"error": f"verb {verb!r} needs --backend",
                                  "schema": "report.v1", "verb": verb}


def test_deform_with_a_failing_cocycle_exits_one(tmp_path):
    from qact import serialize
    from qact.cocycles import Cocycle
    from qact.groups import cyclic_group, direct_product

    group = direct_product(cyclic_group(2), cyclic_group(2))
    vals = np.exp(2j * np.pi * np.random.default_rng(1).random((4, 4)))
    vals = vals / vals[group.identity, group.identity]
    path = tmp_path / "bad_cocycle.json"
    serialize.dump_json(serialize.cocycle_to_json(Cocycle("dual", group, vals, vals)), path)
    report = tmp_path / "r.json"
    code = cli.main(["deform", "--backend", str(FIXTURES / "backends/dual_z2z2.json"),
                     "--input", str(FIXTURES / "actions/z2z2_group_algebra.json"),
                     "--input", str(path), "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 1
    assert data["cocycle"]["passed"] is False and "deformed" not in data


def test_deform_with_a_failing_companion_element_exits_one(tmp_path, monkeypatch):
    # a companion element that fails u S(u*) = 1 fails the deformed section,
    # though the deformed algebra's own audit passes
    from qact import cocycles

    twist = cocycles.twist_element

    def failing(*args, **kwargs):
        u, rep = twist(*args, **kwargs)
        return u, {**rep, "inverse_identity": 1.0, "passed": False}

    monkeypatch.setattr(cocycles, "twist_element", failing)
    report = tmp_path / "r.json"
    code = cli.main(["deform", "--backend", str(FIXTURES / "backends/dual_z2z2.json"),
                     "--input", str(FIXTURES / "actions/z2z2_group_algebra.json"),
                     "--input", str(FIXTURES / "cocycles/bicharacter_z2z2.json"),
                     "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 1
    assert data["cocycle"]["passed"] is True
    assert data["deformed"]["inverse_identity"] == 1.0
    assert data["deformed"]["passed"] is False


def test_deform_cross_test_with_a_failing_twisted_validation_exits_one(tmp_path, monkeypatch):
    # the cross test builds the twisted algebra before it validates the
    # twisted functor, so a validation that fails still leaves the rebuilt
    # algebra to compare: a finite residual, and the section fails
    from qact import functors

    validate, calls = functors.validate_functor, []

    def failing(*args, **kwargs):
        calls.append(1)
        return {**validate(*args, **kwargs), "passed": False}

    monkeypatch.setattr(functors, "validate_functor", failing)
    report = tmp_path / "r.json"
    code = cli.main(["deform", "--backend", str(FIXTURES / "backends/dual_z2z2.json"),
                     "--input", str(FIXTURES / "actions/z2z2_group_algebra.json"),
                     "--input", str(FIXTURES / "cocycles/bicharacter_z2z2.json"),
                     "--cross-test", "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 1 and calls == [1]
    assert data["deformed"]["passed"] is True
    cross = data["cross_test"]
    assert cross["twisted_functor_valid"] is False and cross["passed"] is False
    assert np.isfinite(cross["comparison_residual"])
    assert cross["comparison_residual"] < 1e-9


def grading_of_c2(rows):
    """The Z3 "grading" of C^2 whose component of element k holds the rows
    rows[k], which need not be an action of the dual Z3 backend."""
    from qact.actions import Action
    from qact.algebras import BlockAlgebra
    from qact.groups import cyclic_group

    return Action("grading", BlockAlgebra((1, 1)), cyclic_group(3), components={
        str(k): np.reshape(np.asarray(r, dtype=float), (-1, 2)) for k, r in enumerate(rows)})


@pytest.mark.parametrize("rows, check", [
    # e_2 e_2 = e_2 must lie in the empty component of 1 + 1 = 2
    ([[[1.0, 0.0]], [[0.0, 1.0]], []], {"component_products": 1.0, "spanning": True}),
    # one component row for an algebra of dimension 2
    ([[[1.0, 0.0]], [], []], {"spanning": False}),
], ids=["empty_product_component", "too_few_rows"])
def test_every_action_verb_rejects_a_bad_grading(rows, check, tmp_path):
    from qact import serialize

    path = tmp_path / "action.json"
    serialize.dump_json(serialize.action_to_json(grading_of_c2(rows)), path)
    report = tmp_path / "r.json"
    for verb in ("spectral", "roundtrip", "module-functor", "fullness"):
        code = cli.main([verb, "--backend", str(FIXTURES / "backends/dual_z3.json"),
                         "--input", str(path), "--report", str(report)])
        data = json.loads(report.read_text())
        assert code == 1, (verb, data)
        assert data["action"]["passed"] is False, verb
        assert {key: data["action"][key] for key in check} == check, verb


def drop_fiber(data):
    del data["fibers"]["2"]


def drop_tensor(data):
    data["mult"] = [e for e in data["mult"] if (e["a"], e["b"]) != ("1", "1")]


def cut_tensor(data):
    entry = next(e for e in data["mult"] if (e["a"], e["b"]) == ("1", "1"))
    entry["tensor"] = entry["tensor"][1:]


@pytest.mark.parametrize("edit, message", [
    (drop_fiber, "bundle file has no fiber for '2'"),
    (drop_tensor, "missing multiplication tensor for (1, 1)"),
    (cut_tensor, "tensor for (1, 1) has shape (2, 3, 3)"),
], ids=["missing_fiber", "missing_tensor", "misshapen_tensor"])
def test_a_malformed_bundle_is_an_input_error(edit, message, tmp_path):
    data = json.loads((FIXTURES / "bundles/clock_shift_z3.json").read_text())
    edit(data)
    path = tmp_path / "bundle.json"
    path.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    code = cli.main(["validate-graded", "--input", str(path), "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 2 and sorted(data) == ["error", "schema", "verb"]
    assert message in data["error"], data["error"]


# the file each kind of input is cut from, and the run that loads it
MISSING_KEY_RUNS = {
    "backend": ("backends/z2.json",
                lambda path: ["spectral", "--backend", path,
                              "--input", str(FIXTURES / "actions/swap_c2.json")]),
    "action": ("actions/swap_c2.json",
               lambda path: ["spectral", "--backend", str(FIXTURES / "backends/z2.json"),
                             "--input", path]),
    "functor": ("functors/spectral_swap_c2.json",
                lambda path: ["validate", "--backend", str(FIXTURES / "backends/z2.json"),
                              "--input", path]),
    "cocycle": ("cocycles/bicharacter_z2z2.json",
                lambda path: ["cocycle-check", "--backend",
                              str(FIXTURES / "backends/dual_z2z2.json"), "--input", path]),
    "bundle": ("bundles/clock_shift_z3.json",
               lambda path: ["validate-graded", "--input", path]),
}


@pytest.mark.parametrize("what, key", [
    ("backend", "group"), ("backend", "irreps"), ("backend", "kind"),
    ("action", "algebra"), ("action", "data"), ("action", "group"), ("action", "kind"),
    ("functor", "base_algebra"), ("functor", "modules"), ("functor", "phi"),
    ("cocycle", "group"), ("cocycle", "kind"), ("cocycle", "values"),
    ("bundle", "algebra"), ("bundle", "fibers"), ("bundle", "group"), ("bundle", "mult"),
    ("bundle", "tensor"),
], ids=lambda v: v)
def test_a_missing_key_is_named(what, key, tmp_path):
    source, argv = MISSING_KEY_RUNS[what]
    data = json.loads((FIXTURES / source).read_text())
    del (data["mult"][0] if key == "tensor" else data)[key]
    path = tmp_path / f"{what}.json"
    path.write_text(json.dumps(data))
    report = tmp_path / "r.json"
    code = cli.main([*argv(str(path)), "--report", str(report)])
    out = json.loads(report.read_text())
    assert code == 2 and sorted(out) == ["error", "schema", "verb"]
    assert out["error"] == f"{what} file {path}: missing key {key!r}"


def test_process_entry_gives_mains_exit_codes_and_bytes(tmp_path, capsys):
    # python -m qact and the installed qact script (which calls
    # qact.__main__.run and exits with its code) turn the collector off
    # while importing and freeze it around cli.main; that must change no
    # exit code and no byte of a report, written to --report or stdout
    import tomllib

    pyproject = tomllib.loads((record_golden.ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["scripts"] == {"qact": "qact.__main__:run"}
    script = ["-c", "import sys; from qact.__main__ import run; sys.exit(run())"]
    broken = json.loads((FIXTURES / "functors/spectral_s3_translation.json").read_text())
    broken["phi"][0]["tensor"][0][0][0][0] += 1e-3
    (tmp_path / "broken.json").write_text(json.dumps(broken))
    s3 = ["--backend", str(FIXTURES / "backends/s3.json")]
    runs = {
        0: ["spectral", *s3, "--input", str(FIXTURES / "actions/s3_translation.json")],
        1: ["validate", *s3, "--input", str(tmp_path / "broken.json")],
        2: ["spectral", *s3, "--input", str(tmp_path / "nope.json")],
    }
    for expected, argv in runs.items():
        for to_file in (True, False) if expected == 0 else (True,):
            report = ["--report", str(tmp_path / "r.json")] if to_file else []
            children = []
            for entry in (["-m", "qact"], script):
                (tmp_path / "r.json").unlink(missing_ok=True)
                proc = subprocess.run([sys.executable, *entry, *argv, *report],
                                      capture_output=True, timeout=300)
                children.append((tmp_path / "r.json").read_bytes() if to_file
                                else proc.stdout)
                assert proc.returncode == expected and not proc.stderr, proc.stderr
            capsys.readouterr()
            assert cli.main(argv + report) == expected
            own = (tmp_path / "r.json").read_bytes() if to_file \
                else capsys.readouterr().out.encode()
            assert children == [own, own], (expected, to_file)


def test_main_leaves_the_collector_as_it_was(tmp_path):
    argv = ["spectral", "--backend", str(FIXTURES / "backends/z2.json"),
            "--input", str(FIXTURES / "actions/swap_c2.json"),
            "--report", str(tmp_path / "r.json")]
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            gc.enable() if state else gc.disable()
            frozen = gc.get_freeze_count()
            assert cli.main(argv) == 0
            assert gc.isenabled() == state and gc.get_freeze_count() == frozen
    finally:
        gc.enable() if enabled else gc.disable()


@pytest.mark.parametrize("args", [
    ("deform", "backends/dual_z2z2.json", "actions/z2z2_group_algebra.json",
     "cocycles/group_bicharacter_z2z2.json"),
    ("fullness", "backends/dual_s3.json", "actions/inner_m2.json"),
    ("cocycle-check", "backends/z2.json", "cocycles/bicharacter_z2z2.json"),
    ("deform", "backends/z2z2.json", "actions/z2z2_group_algebra.json",
     "cocycles/bicharacter_z2z2.json"),
    ("deform", "backends/dual_z2z2.json", "actions/swap_c2.json",
     "cocycles/group_bicharacter_z2z2.json"),
])
def test_kind_mismatch_is_input_error(args):
    verb, backend, *inputs = args
    argv = [verb, "--backend", str(FIXTURES / backend)]
    for path in inputs:
        argv += ["--input", str(FIXTURES / path)]
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)


def test_tolerance_override_changes_verdict(tmp_path):
    src = json.loads((FIXTURES / "functors/spectral_s3_translation.json").read_text())
    entry = next(e for e in src["phi"]
                 if (e["alpha"], e["beta"], e["gamma"]) == ("std", "std", "std"))
    entry["tensor"][0][0][0][0] += 1e-3
    path = tmp_path / "near.json"
    path.write_text(json.dumps(src))
    tight = run_cli("validate", "--backend", str(FIXTURES / "backends/s3.json"),
                    "--input", str(path), "--tolerance", "1e-9")
    loose = run_cli("validate", "--backend", str(FIXTURES / "backends/s3.json"),
                    "--input", str(path), "--tolerance", "1.0")
    assert tight.returncode == 1
    assert loose.returncode == 0


def test_faithfulness_does_not_move_with_the_tolerance(tmp_path):
    # the smallest eigenvalue of the expectation's Gram matrix is 1/12 here;
    # whether it is invertible is a rank decision, so a loose tolerance,
    # which lets every residual pass, cannot fail it
    report = tmp_path / "r.json"
    code = cli.main(["build", "--backend", str(FIXTURES / "backends/s3.json"),
                     "--input", str(FIXTURES / "functors/spectral_s3_translation.json"),
                     "--tolerance", "0.1", "--report", str(report)])
    build = json.loads(report.read_text())["build"]
    assert code == 0
    assert build["expectation_faithful"] is True
    assert abs(build["expectation_gram_min_eig"] - 1 / 12) < 1e-12


@pytest.mark.parametrize("backend,action", [
    ("z2", "swap_c2"), ("s3", "s3_translation"), ("z2", "trivial_m2"),
    ("z2z2", "z2z2_translation"),
])
def test_roundtrip_of_a_functor_that_fails_validation_exits_one(backend, action, tmp_path):
    # below rounding the spectral functor fails its axioms, so the algebra
    # cannot be rebuilt; roundtrip reports that as spectral and build do
    report = tmp_path / "r.json"
    code = cli.main(["roundtrip", "--backend", str(FIXTURES / f"backends/{backend}.json"),
                     "--input", str(FIXTURES / f"actions/{action}.json"),
                     "--tolerance", "1e-18", "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 1 and "internal_error" not in data and "certificate" not in data
    assert data["validation"]["passed"] is False


@pytest.mark.parametrize("option", [("--seed", "-1"), ("--tolerance", "inf"),
                                    ("--tolerance", "nan"), ("--tolerance", "0")],
                         ids=["seed-1", "tol-inf", "tol-nan", "tol-0"])
def test_bad_tolerance_or_seed_is_input_error(option, tmp_path):
    report = tmp_path / "r.json"
    code = cli.main(["roundtrip", "--backend", str(FIXTURES / "backends/dual_z3.json"),
                     "--input", str(FIXTURES / "actions/m3_clock_shift.json"),
                     *option, "--report", str(report)])
    data = json.loads(report.read_text())
    assert code == 2
    assert sorted(data) == ["error", "schema", "verb"] and option[0] in data["error"]


LAYERS_RUN = """
import json, sys, types
from qact.cli import main
main(sys.argv[1:])
print(json.dumps(sorted(name for name, mod in sys.modules.items()
                        if name.startswith("qact.") and type(mod) is types.ModuleType)))
"""


@pytest.mark.parametrize("argv,used,unused", [
    (("validate", "--backend", "backends/s3.json",
      "--input", "functors/spectral_s3_translation.json"), {"functors"}, {"actions", "cocycles"}),
    (("validate-graded", "--input", "bundles/clock_shift_z3.json"), {"functors"},
     {"actions", "cocycles"}),
    (("build", "--backend", "backends/z2.json", "--input", "functors/spectral_swap_c2.json"),
     {"functors"}, {"actions", "cocycles"}),
    (("module-functor", "--backend", "backends/z2.json", "--input", "actions/inner_m2.json"),
     {"functors", "actions"}, {"cocycles", "reconstruction"}),
    (("cocycle-check", "--backend", "backends/z2z2.json",
      "--input", "cocycles/group_bicharacter_z2z2.json"), {"cocycles", "repcat", "serialize"},
     {"actions", "algebras", "blockdecomp", "functors", "reconstruction", "staralg"}),
    (("fullness", "--backend", "backends/z2.json", "--input", "actions/swap_c2.json"),
     {"actions", "algebras", "blockdecomp"}, {"functors", "staralg", "reconstruction", "cocycles"}),
], ids=["validate", "validate-graded", "build", "module-functor", "cocycle-check", "fullness"])
def test_verbs_run_only_their_layers(argv, used, unused, tmp_path):
    # every layer is bound in sys.modules, but a layer the verb does not use
    # stays a lazy module whose code never ran
    args = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-c", LAYERS_RUN, *args,
                           "--report", str(tmp_path / "r.json")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    ran = {name.split(".", 1)[1] for name in json.loads(proc.stdout)}
    assert not ran & unused
    assert used <= ran


RANDOM_RUN = """
import json, sys
from qact.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, "numpy.random" in sys.modules]))
"""


def test_no_verb_imports_numpy_random(tmp_path):
    # nothing in qact draws: the block decomposition and the audits of build
    # and deform are exact over the basis, so no verb loads numpy.random, on
    # an ergodic action (S3 translation), on fixed algebras of dimension 2
    # (inner_m2) and 3 (m3_clock_shift), or on both deform inputs
    s3 = ("--backend", "backends/s3.json", "--input", "actions/s3_translation.json")
    inner = ("--backend", "backends/z2.json", "--input", "actions/inner_m2.json")
    clock = ("--backend", "backends/dual_z3.json", "--input", "actions/m3_clock_shift.json")
    runs = [
        ("spectral", *s3),
        ("roundtrip", *s3),
        ("module-functor", *s3),
        ("build", "--backend", "backends/z2.json", "--input", "functors/spectral_swap_c2.json"),
        ("spectral", *inner),
        *((verb, *args) for verb in ("roundtrip", "module-functor", "fullness")
          for args in (inner, clock)),
        record_golden.FIXTURE_RUNS[-2],
        record_golden.DEFORM_GROUP_RUN,
    ]
    assert runs[-2][0] == "deform"
    procs = {}
    for k, argv in enumerate(runs):
        args = [str(FIXTURES / a) if a.endswith(".json") else a for a in argv]
        procs[argv] = subprocess.Popen(
            [sys.executable, "-c", RANDOM_RUN, *args, "--report", str(tmp_path / f"r{k}.json")],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    for argv, proc in procs.items():
        out, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
        assert json.loads(out) == [0, False], argv


def test_unexpected_exception_is_exit_three(monkeypatch, tmp_path):
    from qact import functors

    def broken(bundle, tol):
        raise RuntimeError("broken on purpose")

    monkeypatch.setattr(functors, "validate_graded", broken)
    report = tmp_path / "r.json"
    code = cli.main(["validate-graded", "--input", str(FIXTURES / "bundles/clock_shift_z3.json"),
                     "--report", str(report)])
    assert code == 3
    data = json.loads(report.read_text())
    assert data["internal_error"] == {"type": "RuntimeError", "message": "broken on purpose"}
    assert data["verb"] == "validate-graded" and "error" not in data


def test_every_corpus_pairing_ends_in_a_report(tmp_path):
    # every action verb on every (backend, action) pair of the corpus, and
    # cocycle-check and deform --cross-test on every (backend, cocycle) and
    # (backend, action, cocycle); most pairs are mismatched on purpose and
    # must end in exit 2, none in a traceback or an internal error
    backends = sorted((FIXTURES / "backends").glob("*.json"))
    actions = sorted((FIXTURES / "actions").glob("*.json"))
    cocycles = sorted((FIXTURES / "cocycles").glob("*.json"))
    runs = []
    for backend in backends:
        for act in actions:
            for verb in ("spectral", "roundtrip", "module-functor", "fullness"):
                runs.append([verb, "--backend", str(backend), "--input", str(act)])
        for cocycle in cocycles:
            runs.append(["cocycle-check", "--backend", str(backend), "--input", str(cocycle)])
            for act in actions:
                runs.append(["deform", "--backend", str(backend), "--input", str(act),
                             "--input", str(cocycle), "--cross-test"])
    report = tmp_path / "r.json"
    codes = []
    for argv in runs:
        report.unlink(missing_ok=True)
        code = cli.main([*argv, "--report", str(report)])
        data = json.loads(report.read_text())
        assert code in (0, 1, 2) and "internal_error" not in data, (argv, data)
        assert data["verb"] == argv[0]
        codes.append(code)
    assert len(codes) == len(backends) * (len(actions) * (4 + len(cocycles)) + len(cocycles))
    assert codes.count(0) >= 4 * len(actions)
