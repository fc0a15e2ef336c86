"""Self-tests of the benchmark tracer: it must leave tables unchanged, see
every call (including names re-bound by ``from .numerics import ...``) and
account for the whole traced sweep.

    python3 -m pytest -q perfbench/tests
"""

import sys
import time

import pytest

from tracer import Tracer, layer_metrics, self_times
from worker import import_cli
from workloads import WORKLOADS

cli = import_cli()

# Small versions of the four workloads; the heatmap grid includes a point
# outside the front half space, whose cells are written empty.
SMALL = {
    "sumrate": [("sweep.sides", [10, 12]), ("sweep.n_drops", 2)],
    "sinr-m": [("sweep.mz_values", [11, 12, 31])],
    "corr-dist": [
        ("geometry.num_y", 20), ("geometry.num_z", 20), ("sweep.separations_m", [0.0, 5.0, 50.0]),
    ],
    "heatmap": [
        ("geometry.num_y", 20), ("geometry.num_z", 20),
        ("sweep.x_values_m", [-1.0, 60.0]), ("sweep.y_values_m", [0.0, 10.0]),
    ],
}


def _config(name, overrides, seed=0):
    return cli.parse_config(experiment=WORKLOADS[name].experiment, overrides=overrides, seed=seed)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_and_untraced_tables_are_byte_identical(name, tmp_path):
    cfg = _config(name, SMALL[name])
    cli.run(cfg, str(tmp_path / "plain.csv"))
    with Tracer() as tracer:
        cli.run(cfg, str(tmp_path / "traced.csv"))
    assert tracer.spans
    assert (tmp_path / "traced.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()


def test_call_counts_match_analytic_counts_per_sumrate_drop(tmp_path):
    # Default sumrate drop: 6 sides x 2 models = 12 scenarios of K = 10 users.
    # Each scenario: one Gram (45 cdot, 10 vector_power), then per user two
    # K-1 solves and two cdot on their results.
    cfg = _config("sumrate", [("sweep.n_drops", 1)])
    with Tracer() as tracer:
        cli.run(cfg, str(tmp_path / "t.csv"))
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["numerics.gram.calls"] == 12
    assert m["numerics.cdot.calls"] == 780
    assert m["numerics.vector_power.calls"] == 120
    assert m["numerics.hermitian_solve.calls"] == 240
    assert m["beamforming.evaluate_scenario.calls"] == 12
    sides = cfg.sweep["sides"]
    assert m["numerics.gram.ops"] == 2 * sum(s * s for s in sides) * 10 * 11 // 2
    assert m["numerics.gram.bytes"] == 2 * sum(s * s for s in sides) * 16 * 10


@pytest.mark.parametrize(
    "module, attr",
    [
        ("beamforming", "gram"),
        ("beamforming", "hermitian_solve"),
        ("channel", "cdot"),
        ("channel", "element_distances"),
        ("experiments", "evaluate_scenario"),
    ],
)
def test_a_missed_rebinding_fails_loudly(module, attr, tmp_path):
    mod = sys.modules[f"xlmimo.{module}"]
    with Tracer() as tracer:
        wrapped = getattr(mod, attr)
        setattr(mod, attr, wrapped.__wrapped__)  # as if the tracer had missed it
        try:
            with pytest.raises(RuntimeError, match=f"xlmimo.{module}.{attr}"):
                tracer.verify()
        finally:
            setattr(mod, attr, wrapped)
        tracer.verify()


def test_uninstall_restores_every_function():
    before = {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name.startswith("xlmimo")
        for attr, value in vars(mod).items()
    }
    with Tracer():
        pass
    for (name, attr), value in before.items():
        assert getattr(sys.modules[name], attr) is value


def test_self_times_are_non_negative_and_sum_to_the_sweep(tmp_path):
    cfg = _config("sumrate", SMALL["sumrate"])
    with Tracer() as tracer:
        start = time.perf_counter()
        cli.run(cfg, str(tmp_path / "t.csv"))
        outside = time.perf_counter() - start
    own = self_times(tracer.spans)
    assert min(own.values()) >= -1e-9
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["cli.run"]
    root = roots[0].end - roots[0].start
    assert sum(own.values()) == pytest.approx(root, rel=1e-9)
    assert 0.0 <= outside - root < 0.005 + 0.01 * outside


def test_layer_metrics_alias_the_sweep_and_skip_absent_layers(tmp_path):
    cfg = _config("corr-dist", SMALL["corr-dist"])
    with Tracer() as tracer:
        cli.run(cfg, str(tmp_path / "t.csv"))
    m = layer_metrics(tracer.spans, tracer.counts)
    assert m["experiments.sweep.total_s"] > m["experiments.sweep.self_s"] > 0.0
    assert m["channel.correlation.calls"] == 3 * 2
    assert m["numerics.gram.calls"] == 0
    assert m["numerics.hermitian_solve.calls"] == 0
    assert m["cli.write_csv.bytes"] == (tmp_path / "t.csv").stat().st_size
