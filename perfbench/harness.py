"""Running one job, classifying its outcome, and the metric arithmetic."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import threading
import time
from dataclasses import dataclass

# A child that runs longer than this is killed and counted as failed.
JOB_TIMEOUT_S = 150.0
TAIL_BEYOND = 10
BETA_CELLS = 100_000
BLAS_THREADS = 1
_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env(src_dir: str) -> dict:
    """The environment of every child: the checkout's sources first, a fixed
    BLAS thread count and a fixed hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir
    env["PYTHONHASHSEED"] = "0"
    for var in _THREAD_VARS:
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Outcome:
    """What one child did: exit code, wall time, max RSS and its report."""

    exit: int
    wall_s: float
    maxrss_kb: int
    report: bytes | None
    stderr_tail: str = ""
    failure: str | None = None

    @property
    def failed(self) -> bool:
        return self.failure is not None


def classify(exit_code: int, report: bytes | None, stderr: str) -> str | None:
    """Why a job failed, or None: it exited outside {0, 1, 2}, wrote no
    parseable report, or printed a traceback."""
    if exit_code not in (0, 1, 2):
        return f"exit {exit_code}"
    if "Traceback (most recent call last)" in stderr:
        return "traceback"
    if not report:
        return "no report"
    try:
        json.loads(report)
    except ValueError:
        return "unparseable report"
    return None


def spawn(argv: list[str], env: dict, report_path: str) -> Outcome:
    """Run argv to completion and reap it with wait4 for its own rusage."""
    if os.path.exists(report_path):
        os.remove(report_path)
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        err = proc.stderr.read()
        # wait4, not Popen.wait, so the rusage is this child's alone
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
        proc.stderr.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    stderr = err.decode("utf-8", "replace")
    report = None
    if os.path.exists(report_path):
        with open(report_path, "rb") as fh:
            report = fh.read()
    out = Outcome(proc.returncode, wall, usage.ru_maxrss, report, stderr[-400:])
    out.failure = classify(proc.returncode, report, stderr)
    return out


# -- verdicts ---------------------------------------------------------------------


def passed_flags(report: dict, prefix: str = "") -> dict[str, bool]:
    """Every `passed` flag in a report, keyed by its path."""
    flags = {}
    if isinstance(report, dict):
        for key in sorted(report):
            path = f"{prefix}/{key}"
            if key == "passed" and isinstance(report[key], bool):
                flags[path] = report[key]
            else:
                flags.update(passed_flags(report[key], path))
    elif isinstance(report, list):
        for i, item in enumerate(report):
            if isinstance(item, (dict, list)):
                flags.update(passed_flags(item, f"{prefix}[{i}]"))
    return flags


def verdict(outcome: Outcome) -> dict:
    """The verdict of a completed job: its exit code and passed flags."""
    return {"exit": outcome.exit, "passed": passed_flags(json.loads(outcome.report))}


# -- speed probe ------------------------------------------------------------------

# The host's speed drifts by tens of percent over seconds and minutes, and
# a job's wall time moves with it.  The parent,
# pinned to the vCPU its children run on, times this fixed loop before and
# after every job.  A job's time at reference speed is its wall time times
# PROBE_NOMINAL_S over the median of the PROBE_WINDOW probes nearest to it:
# its time at the speed at which the probe takes PROBE_NOMINAL_S, the probe's
# time on the quiet reference machine.  The median over a window of probes,
# not the two probes next to the job, because one 20 ms probe is itself noisy.
PROBE_LOOPS = 300_000
PROBE_NOMINAL_S = 0.020
PROBE_WINDOW = 20


def pin_to_one_cpu():
    """Pin this process, and the children it starts, to the last CPU it may
    run on; returns that CPU, or None where affinity is not supported."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def probe() -> float:
    """Seconds the fixed probe loop takes now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(PROBE_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - t0


def speed_scales(probes: list[float], window: int = PROBE_WINDOW) -> list[float]:
    """For the job between probes[k] and probes[k + 1], the factor that takes
    its time to reference speed: PROBE_NOMINAL_S over the median of the
    `window` probes around that gap (fewer at the ends of the list)."""
    half = window // 2
    return [PROBE_NOMINAL_S / statistics.median(probes[max(0, k + 1 - half):k + 1 + half])
            for k in range(len(probes) - 1)]


# -- metric arithmetic ------------------------------------------------------------


def tail(samples: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """The highest percentile with at least `beyond` samples above it:
    (value, percentile, sample count).  With too few samples, the maximum.

    The value is the Harrell-Davis estimate of that percentile, a weighted
    mean of all order statistics, so it does not jump from one job's
    cluster of times to the next the way a single order statistic does."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= beyond:
        return ordered[-1], 100.0, n
    p = (n - beyond) / n
    return harrell_davis(ordered, p), 100.0 * p, n


def harrell_davis(ordered: list[float], p: float) -> float:
    """Harrell-Davis estimate of quantile p of sorted samples: weight i is the
    Beta(p(n+1), (1-p)(n+1)) probability of ((i-1)/n, i/n], integrated by the
    midpoint rule on BETA_CELLS cells."""
    import numpy as np

    n = len(ordered)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    cells = BETA_CELLS
    x = (np.arange(cells) + 0.5) / cells
    logpdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x)
    cdf = np.concatenate(([0.0], np.cumsum(np.exp(logpdf - logpdf.max()))))
    cdf /= cdf[-1]
    weights = np.diff(cdf[np.round(np.arange(n + 1) / n * cells).astype(int)])
    return float(weights @ np.asarray(ordered))


# -- environment record -----------------------------------------------------------


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_build() -> str:
    import numpy as np

    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = deps.get("blas", {})
        return f"{blas.get('name', '?')} {blas.get('version', '?')}"
    except (TypeError, KeyError, AttributeError):
        return "unknown"


def environment(seed: int) -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_build(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }
