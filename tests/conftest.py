"""Shared helpers: run xlmimo in a fresh interpreter under a chosen BLAS thread count."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def run_python():
    """Run ``python <args>`` with xlmimo importable; returns the CompletedProcess.

    blas_threads sets OPENBLAS_NUM_THREADS for the child; timeout bounds
    its wall time so a hang fails the test instead of stalling the suite.
    """

    def run(args, blas_threads=1, timeout=120.0, cwd=None):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(blas_threads))
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        return subprocess.run(
            [sys.executable, *args],
            env=env,
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=timeout,
        )

    return run
