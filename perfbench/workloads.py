"""The four pinned sweep workloads of the benchmark.

Each workload is one CLI experiment at its default config (wavelength
0.1256 m, half-wavelength spacing, 50 dB), so all four share one physical
setup and differ only in which layers do the work; BENCHMARK.json says
why each was chosen.  Sizes are pinned here; a later change must not
shrink them to flatter a result.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCES = Path(__file__).resolve().parent / "references"

# Random drops in one sumrate sweep.  Per-drop work is identical, so this sets
# the run length only; points_per_s does not depend on it.
SUMRATE_DROPS = 2

# Seeds whose sumrate table is stored in references/; any other seed is held
# out and checked through invariants instead.
SUMRATE_REFERENCE_SEEDS = range(16)


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    overrides: tuple = ()

    @property
    def seeded(self) -> bool:
        """True when the table depends on the seed (random user drops)."""
        return self.experiment == "sumrate-vs-m"

    def config(self, cli, seed: int):
        """Resolve the workload's config through the public CLI parser."""
        return cli.parse_config(
            experiment=self.experiment, overrides=list(self.overrides), seed=seed
        )

    def points(self, cfg) -> int:
        """Sweep points per sweep: one random drop for sumrate, one table row otherwise."""
        sweep = cfg.sweep
        if self.experiment == "sumrate-vs-m":
            return sweep["n_drops"]
        if self.experiment == "sinr-vs-m":
            return len(sweep["mz_values"])
        if self.experiment == "corr-vs-dist":
            return len(sweep["separations_m"])
        return len(sweep["x_values_m"]) * len(sweep["y_values_m"])

    def reference(self, seed: int) -> Path | None:
        """Stored reference table for this seed, or None for a held-out seed."""
        if not self.seeded:
            return REFERENCES / f"{self.name}.csv"
        if seed in SUMRATE_REFERENCE_SEEDS:
            return REFERENCES / f"{self.name}-seed{seed}.csv"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sumrate", "sumrate-vs-m", overrides=(("sweep.n_drops", SUMRATE_DROPS),)),
        Workload("sinr-m", "sinr-vs-m"),
        Workload("corr-dist", "corr-vs-dist"),
        Workload("heatmap", "snr-loss-heatmap"),
    )
}
