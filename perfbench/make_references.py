"""Regenerate the reference tables in references/ from this checkout's src/.

    python3 perfbench/make_references.py

The references pin the tables of the commit that generated them, and every
benchmark sweep is compared against them.  Regenerate them only in a change
that is meant to alter a table, and say so in that change.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

from run import RUNS
from worker import import_cli
from workloads import REFERENCES, SUMRATE_REFERENCE_SEEDS, WORKLOADS


def main() -> None:
    cli = import_cli()
    REFERENCES.mkdir(exist_ok=True)
    RUNS.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RUNS) as tmp:
        for workload in WORKLOADS.values():
            for seed in SUMRATE_REFERENCE_SEEDS if workload.seeded else (0,):
                csv = Path(tmp) / "table.csv"
                cli.run(workload.config(cli, seed), str(csv))
                shutil.copyfile(csv, workload.reference(seed))
                print(workload.reference(seed).name)


if __name__ == "__main__":
    main()
