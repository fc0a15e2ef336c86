"""README stays true: its API session runs, and every xlmimo name it cites exists."""

import importlib
import re
from pathlib import Path

import xlmimo

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# Backticked words in README that name other software, not xlmimo.
OTHER_SOFTWARE = {"numpy", "scipy", "pytest", "hypothesis", "mpmath", "zpotrf", "zpotrs"}


def test_minimal_api_session_runs(capsys):
    block = re.search(r"A minimal API session:\s*```python\n(.*?)```", README, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})
    sinr, loss_factor = (float(v) for v in capsys.readouterr().out.split())
    assert sinr > 0.0 and 0.0 <= loss_factor <= 1.0


def test_every_cited_name_is_importable():
    cited = set(re.findall(r"`([A-Za-z][\w.]*)`", README)) - OTHER_SOFTWARE
    names = sorted(name for name in cited if not name.isupper())  # skip environment variables
    assert {"correlation", "response_matrix", "solve_user"} <= set(names)
    for name in names:
        if name.startswith("xlmimo."):
            importlib.import_module(name)
        else:
            assert hasattr(xlmimo, name), f"README cites `{name}`, which xlmimo does not export"
