"""Shared benchmark fixtures: one simulated semester for all benches, and
the run-record trajectory benches append their measurements to."""

import json
import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import pytest

from repro.core import CohortSimulation

ROOT = Path(__file__).resolve().parents[1]


def pytest_addoption(parser):
    parser.addoption(
        "--quick",
        action="store_true",
        default=False,
        help="shrink bench workloads to smoke-test size (CI uses this)",
    )


@pytest.fixture
def quick(request):
    """True when the bench run should finish in seconds, not minutes."""
    return request.config.getoption("--quick")


@pytest.fixture(scope="session")
def semester_records():
    """The default-seed semester (labs + project) used by every bench."""
    return CohortSimulation().run()


def _git(*args: str) -> str | None:
    try:
        out = subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


@pytest.fixture
def bench_trajectory():
    """``append(name, measured)``: add one run record to ``BENCH_<name>.json``.

    The file is a JSON list, oldest run first; runs are appended, never
    overwritten, so a speedup can be read off two records of the same
    machine class.  Each record carries the commit (``src_dirty`` when
    ``src/`` had uncommitted edits), ``cpu_count`` and the python/numpy
    versions ahead of the bench's own numbers.  A file still holding one
    object, the older overwrite format, becomes the list's first entry.
    """

    def append(name: str, measured: dict) -> dict:
        record = {
            "commit": _git("rev-parse", "HEAD"),
            "src_dirty": bool(_git("status", "--porcelain", "--", "src")),
            "cpu_count": os.cpu_count() or 1,
            "python": platform.python_version(),
            "numpy": np.__version__,
            **measured,
        }
        path = ROOT / f"BENCH_{name}.json"
        runs = json.loads(path.read_text()) if path.exists() else []
        if isinstance(runs, dict):
            runs = [runs]
        runs.append(record)
        path.write_text(json.dumps(runs, indent=2) + "\n")
        return record

    return append
