"""The CLI tests start `python -m qact` in child processes; they import the
package from this checkout's src/, as the tests themselves do."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def pytest_configure(config):
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if SRC not in paths:
        os.environ["PYTHONPATH"] = os.pathsep.join([SRC] + [p for p in paths if p])
