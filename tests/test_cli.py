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


@pytest.mark.parametrize("verb", ["spectral", "roundtrip", "module-functor", "fullness"])
@pytest.mark.parametrize("name", sorted(action_corpus()))
def test_action_verbs_on_whole_corpus(name, verb, tmp_path, two_thread_corpus_runs):
    backend = json.loads((FIXTURES / "actions" / f"{name}.json").read_text())["backend_ref"]
    report = tmp_path / "report.json"
    code = cli.main([verb, "--backend", str(FIXTURES / backend),
                     "--input", str(FIXTURES / "actions" / f"{name}.json"),
                     "--report", str(report)])
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
    # --tolerance only loosens: no fixture run that exits 0 at the default
    # fails at a larger tolerance
    report = tmp_path / "r.json"

    def code(args, *extra):
        return cli.main([*record_golden.fixture_argv(args), *extra, "--report", str(report)])

    runs = [*record_golden.FIXTURE_RUNS, record_golden.DEFORM_GROUP_RUN]
    passing = [args for args in runs if code(args) == 0]
    assert passing == runs
    for args in passing:
        for tol in ("1e-6", "1e-3", "1e-1"):
            assert code(args, "--tolerance", tol) == 0, (args, tol)


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


def test_encode_complex_gives_the_recursive_encoders_bytes():
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
        assert json.dumps(serialize.encode_complex(arr), indent=2) == want
        assert cli.render_report({"a": np.asarray(arr)}) \
            == json.dumps({"a": recursive_encode_complex(arr)}, indent=2)


def reference_jsonable(obj):
    """The report with numpy values as JSON values, for json.dumps: what
    cli.main encoded before render_report wrote arrays whole."""
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
        from qact import serialize

        return serialize.encode_complex(obj)
    return obj


def test_render_report_edge_cases_match_json_module():
    special = np.array([0.0, -0.0, 1.0, -1e-300, np.inf, -np.inf, np.nan, 2.5e-17])
    report = {"a": special, 3: {1: np.zeros((3, 0)), "x": [1, 2.5, (3, np.float64(-0.0))],
                                "c": np.complex128(1 - 2j), "e": [], "f": {}, "g": [[]]},
              "z": np.zeros((2, 0, 4)), "w": np.asarray(3), "n": None, "t": np.bool_(True),
              "s": "h\u00e9 \"q\"", "i": np.int64(-7), "m": np.arange(6.0).reshape(2, 3)}
    assert cli.render_report(report) \
        == json.dumps(reference_jsonable(report), indent=2, sort_keys=True)


def test_every_comparison_set_report_is_the_json_module_text(tmp_path, monkeypatch):
    # the runs of tests/report_diff.py: every verb on every corpus input and
    # both benchmark workloads' jobs
    import report_diff

    runs = report_diff.comparison_set(tmp_path / "inputs")
    render, checked = cli.render_report, []

    def compared(report):
        text = render(report)
        checked.append(text == json.dumps(reference_jsonable(report), indent=2, sort_keys=True))
        return text

    monkeypatch.setattr(cli, "render_report", compared)
    for argv in runs:
        cli.main([*argv, "--report", str(tmp_path / "report.json")])
    assert len(checked) == len(runs) and all(checked)


def test_missing_file_is_input_error(tmp_path):
    proc = run_cli("roundtrip", "--backend", str(FIXTURES / "backends/z2.json"),
                   "--input", str(tmp_path / "nope.json"))
    assert proc.returncode == 2
    assert "error" in json.loads(proc.stdout)


def test_bad_json_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    proc = run_cli("validate-graded", "--input", str(bad))
    assert proc.returncode == 2


def test_validation_failure_is_exit_one(tmp_path):
    # perturb one stored tensor of a good functor file
    src = json.loads((FIXTURES / "functors/spectral_s3_translation.json").read_text())
    entry = next(e for e in src["phi"]
                 if (e["alpha"], e["beta"], e["gamma"]) == ("std", "std", "std"))
    entry["tensor"][0][0][0][0] += 1e-3
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(src))
    proc = run_cli("validate", "--backend", str(FIXTURES / "backends/s3.json"),
                   "--input", str(bad))
    assert proc.returncode == 1
    data = json.loads(proc.stdout)
    assert not data["validation"]["passed"]


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
        data = serialize.backend_to_json(backend)
        again = serialize.backend_to_json(serialize.backend_from_json(data))
        assert json.dumps(data, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_functor_file_roundtrip(tmp_path):
    from qact import serialize
    from qact.fixtures import standard_backends, action_corpus
    from qact.actions import spectral_functor

    backends = standard_backends()
    bk, act = action_corpus()["swap_c2"]
    functor = spectral_functor(backends[bk], act).functor
    data = serialize.functor_to_json(functor)
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


def test_project_word_unknown_label_is_error():
    import numpy as np
    import pytest as _pytest

    from qact.fixtures import standard_backends, action_corpus
    from qact.actions import spectral_functor
    from qact.reconstruction import build_algebra
    from qact.repcat import BackendError

    backends = standard_backends()
    bk, act = action_corpus()["swap_c2"]
    alg = build_algebra(spectral_functor(backends[bk], act).functor, validate=False)
    with _pytest.raises(BackendError):
        alg.project_word((("nope", False),), np.zeros((1, 1)))


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
