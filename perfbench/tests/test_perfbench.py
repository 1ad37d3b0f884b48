"""Tests of the benchmark's own code: job lists, failure accounting, span
arithmetic, metric names and the report comparison."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import compare  # noqa: E402
import harness  # noqa: E402
import perlayer  # noqa: E402
import run  # noqa: E402
from spans import SpanAggregator  # noqa: E402
from workloads import TOP_JOB, WORKLOADS, Job, build_jobs, passes_for  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


def files(root: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir())}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_generation(workload, tmp_path):
    jobs = build_jobs(workload, 7, tmp_path / "a")
    ids = [job.id for job in jobs]
    assert len(ids) == len(set(ids))
    for job in jobs:
        assert job.inputs and all(Path(p).is_file() for p in job.inputs)
    # the expected-verdict table covers exactly this job list
    assert sorted(f"{workload}/{i}" for i in ids) == sorted(
        k for k in EXPECTED if k.startswith(workload + "/"))
    # same seed, same inputs
    again = build_jobs(workload, 7, tmp_path / "b")
    assert [j.id for j in again] == ids
    assert files(tmp_path / "a") == files(tmp_path / "b")
    assert passes_for(workload, 30) >= 1
    assert TOP_JOB[workload] in ids


def test_seed_conjugates_noncommutative_actions_only(tmp_path):
    one = build_jobs("block-ladder", 1, tmp_path / "s1")
    two = build_jobs("block-ladder", 2, tmp_path / "s2")
    assert [j.id for j in one] == [j.id for j in two]
    assert (tmp_path / "s1/action_clock4.json").read_bytes() != \
        (tmp_path / "s2/action_clock4.json").read_bytes()
    build_jobs("translation-ladder", 1, tmp_path / "t1")
    build_jobs("translation-ladder", 2, tmp_path / "t2")
    assert (tmp_path / "t1/action_z8_translation.json").read_bytes() == \
        (tmp_path / "t2/action_z8_translation.json").read_bytes()


def _spawn(tmp_path, code):
    report = tmp_path / "report.json"
    out = harness.spawn([sys.executable, "-c", code, str(report)],
                        harness.child_env(str(ROOT / "src")), str(report))
    return out


def test_crashing_child_is_a_failure(tmp_path):
    out = _spawn(tmp_path, "raise ValueError('boom')")
    assert out.exit == 1
    assert out.failed and out.failure == "traceback"
    assert out.maxrss_kb > 0 and out.wall_s > 0


def test_child_exiting_one_with_report_is_not_a_failure(tmp_path):
    code = ("import json, sys\n"
            "open(sys.argv[1], 'w').write(json.dumps({'a': {'passed': False}}))\n"
            "sys.exit(1)\n")
    out = _spawn(tmp_path, code)
    assert out.exit == 1 and not out.failed
    got = harness.verdict(out)
    assert got == {"exit": 1, "passed": {"/a/passed": False}}


def test_other_failures(tmp_path):
    assert _spawn(tmp_path, "import sys; sys.exit(3)").failure == "exit 3"
    assert _spawn(tmp_path, "import sys; sys.exit(1)").failure == "no report"
    code = "import sys; open(sys.argv[1], 'w').write('{oops')"
    assert _spawn(tmp_path, code).failure == "unparseable report"


def test_failed_job_is_a_verdict_mismatch(tmp_path):
    env = harness.child_env(str(ROOT / "src"))
    runner = run.Runner("w", 0, env, tmp_path, {"w/bad": {"exit": 0, "passed": {}}})
    out, _ = runner.run(Job("bad", ("no-such-verb",)))
    assert out.failed
    assert (runner.attempted, runner.failed, runner.mismatch) == (1, 1, 1)
    assert runner.records["bad"]["raw_walls"] == [out.wall_s]
    assert len(runner.probes) == 2 and runner.scale_walls()[0] > 0
    assert len(runner.records["bad"]["walls"]) == 1


def test_speed_scales_take_times_to_reference_speed():
    assert harness.probe() > 0
    nominal = harness.PROBE_NOMINAL_S
    assert harness.speed_scales([nominal] * 5) == pytest.approx([1.0] * 4)
    # a host at half speed: probes take twice as long, times count half
    assert harness.speed_scales([2 * nominal] * 3) == pytest.approx([0.5] * 2)
    # the window median ignores one slow probe, and follows a lasting change
    probes = [nominal] * 6 + [5 * nominal] + [nominal] * 6 + [2 * nominal] * 12
    scales = harness.speed_scales(probes, window=4)
    assert scales[:11] == pytest.approx([1.0] * 11)
    assert scales[-8:] == pytest.approx([0.5] * 8)


def test_self_time_of_nested_spans():
    agg = SpanAggregator()
    agg.enter("x.a", "x", 0.0)
    agg.enter("y.b", "y", 1.0)
    agg.enter("x.c", "x", 2.0)
    agg.exit(3.0)
    agg.exit(4.0)
    agg.enter("y.d", "y", 5.0)
    assert agg.is_open("y.d")
    agg.exit(9.0)
    agg.exit(10.0)
    s = agg.summary()
    # x: a is 10 minus children b (3) and d (4), plus c (1)
    assert s["self_s"] == {"x": 4.0, "y": 6.0}
    assert s["inclusive_s"] == {"x.a": 10.0, "y.b": 3.0, "x.c": 1.0, "y.d": 4.0}
    # c runs inside a, so only a counts toward the layer's inclusive time
    assert s["layer_s"] == {"x": 10.0, "y": 7.0}
    assert sum(s["self_s"].values()) == s["inclusive_s"]["x.a"]


def test_tail_has_ten_samples_beyond():
    samples = [float(i) for i in range(1, 31)]
    value, pct, n = harness.tail(samples)
    assert n == 30 and pct == pytest.approx(100 * 20 / 30)
    # on samples 1..n the Harrell-Davis weights give n p + 1/2
    assert value == pytest.approx(20.5, abs=1e-3)
    assert harness.tail([1.0, 2.0]) == (2.0, 100.0, 2)


def test_harrell_davis_of_constant_and_uniform_samples():
    assert harness.harrell_davis([3.0] * 12, 0.9) == pytest.approx(3.0)
    grid = [float(i) for i in range(101)]
    assert harness.harrell_davis(grid, 0.5) == pytest.approx(50.0, abs=1e-6)


def _fake_runner(jobs, walls):
    runner = run.Runner("w", 0, {}, Path("."), {})
    for job, w in zip(jobs, walls):
        runner.records[job.id] = {"walls": w, "maxrss_kb": 1000}
    return runner


def test_printed_metric_names_are_declared():
    declared_e2e = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in DECLARED["per_layer"]}
    jobs = [Job("a", ("x.json",)), Job("b", ("y.json",))]
    values, _ = run.end_to_end(_fake_runner(jobs, [[1.0, 1.1], [2.0, 2.2]]), jobs, "b",
                               [3.0, 3.3], [0.5, 0.6, 0.7])
    assert list(values) == list(run.END_TO_END)
    assert values["top_job_s"] == pytest.approx(2.1)
    assert values["wall_s"] == pytest.approx(3.15)
    assert values["setup_s"] == pytest.approx(0.6)
    assert run.END_TO_END == declared_e2e
    span = {"calls": {"cli.main": 1}, "inclusive_s": {"cli.main": 0.5},
            "self_s": {"cli": 0.5}, "layer_s": {"cli": 0.5}}
    values, _ = run.per_layer([[(0.7, span)]], [1.0], [1.2])
    assert set(values) == set(declared_layer)
    assert {n: perlayer.unit_of(n) for n in values} == declared_layer
    assert values["cli.spawn_s"] == pytest.approx(0.2)
    assert values["trace.overhead_ratio"] == pytest.approx(1.2)


def test_tracer_leaves_the_report_unchanged(tmp_path):
    jobs = build_jobs("translation-ladder", 0, tmp_path / "in")
    job = next(j for j in jobs if j.id == "cocycle-check/bicharacter_z2z2")
    env = harness.child_env(str(ROOT / "src"))
    plain = harness.spawn([sys.executable, "-m", "qact", *job.argv,
                           "--report", str(tmp_path / "a.json")],
                          env, str(tmp_path / "a.json"))
    traced = harness.spawn([sys.executable, str(BENCH / "tracer.py"), str(tmp_path / "s.json"),
                            *job.argv, "--report", str(tmp_path / "b.json")],
                           env, str(tmp_path / "b.json"))
    assert plain.exit == traced.exit == 0
    assert plain.report == traced.report
    spans = json.loads((tmp_path / "s.json").read_text())
    assert spans["calls"]["cli.main"] == 1
    assert spans["calls"]["cocycles.check_cocycle"] == 1
    assert spans["load_bytes"] > 0


def test_residual_diff_walks_objects_only():
    a = {"r": {"x": 1.0, "y": 2.0}, "m": [[1.0, 0.0]], "passed": True}
    b = {"r": {"x": 1.0, "y": 2.5}, "m": [[9.0, 0.0]], "passed": True}
    assert compare.residual_diff(a, b) == (0.5, "/r/y")
