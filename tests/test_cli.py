"""Tests for config parsing, CSV/sidecar output, and CLI exit codes."""

import json
import math
import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import xlmimo.channel as ch
from xlmimo.cli import (
    _EXPERIMENTS,
    DEFAULT_ELEMENT_AREA,
    dispatch,
    main,
    parse_angle,
    parse_config,
    run,
    sidecar_path,
)
from xlmimo.errors import ConfigError, NearSingularError


class TestParseAngle:
    def test_plain_numbers(self):
        assert parse_angle(0.5) == 0.5
        assert parse_angle("0.25") == 0.25

    def test_pi_fractions(self):
        assert parse_angle("pi/2") == pytest.approx(math.pi / 2)
        assert parse_angle("-pi/6") == pytest.approx(-math.pi / 6)
        assert parse_angle("2pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_angle("pi") == pytest.approx(math.pi)

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_angle("two pies")
        # not finite angles: a zero denominator, an int beyond float range, an overflow
        for value in ("pi/0", 10**400, "1e400"):
            with pytest.raises(ConfigError):
                parse_angle(value)


# (experiment, overrides at the bound, overrides one past it): the largest
# array's elements x users (a user per SNR) is 2^26, and then more
AT_THE_ARRAY_BOUND = [
    ("corr-vs-m", [("geometry.num_y", 1), ("sweep.mz_values", [2**25])],
     [("geometry.num_y", 1), ("sweep.mz_values", [2**25 + 1])]),
    ("corr-vs-dist", [("geometry.num_y", 2**13), ("geometry.num_z", 2**13)],
     [("geometry.num_y", 2**13), ("geometry.num_z", 2**13 + 1)]),
    ("sinr-vs-m", [("geometry.num_y", 1), ("sweep.mz_values", [2**25])],
     [("geometry.num_y", 1), ("sweep.mz_values", [2**25 + 1])]),
    ("snr-loss-heatmap", [("geometry.num_y", 2**12), ("geometry.num_z", 2**13)],
     [("geometry.num_y", 2**12), ("geometry.num_z", 2**13 + 1)]),
    ("sumrate-vs-m", [("sweep.sides", [2**13]), ("sweep.n_users", 1)],
     [("sweep.sides", [2**13 + 1]), ("sweep.n_users", 1)]),
]
ARRAY_BOUND_CASES = [
    pytest.param(case[0], case[index], kind == "past", id=f"{case[0]}-{kind}")
    for kind, index in (("at", 1), ("past", 2))
    for case in AT_THE_ARRAY_BOUND
]


class TestParseConfig:
    def test_defaults_reproduce_reference_setup(self):
        cfg = parse_config(experiment="corr-vs-m")
        assert cfg.geometry.num_y == 10
        assert cfg.geometry.spacing == pytest.approx(0.0628)
        assert cfg.geometry.wavelength == pytest.approx(0.1256)
        assert cfg.geometry.element_area == pytest.approx(DEFAULT_ELEMENT_AREA)
        assert [u.r for u in cfg.users] == [25.0, 250.0]
        assert cfg.users[0].theta == pytest.approx(math.pi / 2)
        assert cfg.sweep["mz_values"][0] == 11
        assert cfg.sweep["mz_values"][-1] == 1001

    def test_reference_snr_converts_to_linear_once(self):
        cfg = parse_config(experiment="sinr-vs-m")
        assert cfg.snr_db == [50.0, 50.0]
        for p_bar in cfg.snr_linear():
            assert p_bar * cfg.beta0 == pytest.approx(1e5, rel=1e-12)

    def test_unknown_key_is_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"experiment": "corr-vs-m", "geometry": {"num_q": 5}}))
        with pytest.raises(ConfigError, match="geometry.num_q"):
            parse_config(str(path))

    def test_invalid_geometry_is_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(
            json.dumps({"experiment": "corr-vs-m", "geometry": {"num_y": 0}})
        )
        with pytest.raises(ConfigError, match="geometry"):
            parse_config(str(path))

    def test_even_counts_are_allowed(self):
        cfg = parse_config(
            experiment="corr-vs-dist", overrides=[("geometry.num_y", 200)]
        )
        assert cfg.geometry.num_y == 200

    def test_overrides_reach_nested_keys(self):
        cfg = parse_config(
            experiment="corr-vs-m",
            overrides=[("users.0.r_m", 30.0), ("sweep.mz_values", [11, 21])],
        )
        assert cfg.users[0].r == 30.0
        assert cfg.sweep["mz_values"] == [11, 21]

    def test_angle_strings_in_overrides(self):
        cfg = parse_config(experiment="corr-vs-m", overrides=[("users.0.theta_rad", "pi/3")])
        assert cfg.users[0].theta == pytest.approx(math.pi / 3)

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigError, match="sweep.bogus"):
            parse_config(experiment="corr-vs-m", overrides=[("sweep.bogus", 1)])

    def test_experiment_required(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config()

    def test_wrong_user_count_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "corr-vs-m", "users": [
            {"r_m": 10.0, "theta_rad": "pi/2", "phi_rad": 0.0}
        ]}))
        with pytest.raises(ConfigError, match="2 users"):
            parse_config(str(path))

    def test_user_count_is_checked_before_the_sweep(self):
        # the empty users block, not sweep.user_index, is what is wrong
        with pytest.raises(ConfigError, match="sinr-vs-m needs 2 users, got 0"):
            parse_config(experiment="sinr-vs-m", overrides=[("users", [])])

    def test_snr_list_length_checked(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": "sinr-vs-m", "snr_db": [50.0]}))
        with pytest.raises(ConfigError, match="snr_db"):
            parse_config(str(path))

    @pytest.mark.parametrize(
        "experiment, override, message",
        [
            ("corr-vs-m", ("seed.x.y", 1), "unknown config key 'seed.x.y'"),
            ("corr-vs-m", ("geometry", 5), "'geometry' must be an object"),
            ("sumrate-vs-m", ("sweep.region.theta_rad", 5), r"theta_rad must be a \[min, max\]"),
        ],
        ids=["key-below-a-number", "block-set-to-a-number", "pair-set-to-a-number"],
    )
    def test_override_of_the_wrong_shape_is_diagnosed(self, experiment, override, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(experiment=experiment, overrides=[override])

    def test_array_bound_admits_a_1000_square_with_64_users(self):
        overrides = [("sweep.sides", [1000]), ("sweep.n_users", 64)]
        assert parse_config(experiment="sumrate-vs-m", overrides=overrides).sweep["n_users"] == 64

    @pytest.mark.parametrize("experiment, overrides, over", ARRAY_BOUND_CASES)
    def test_the_array_bound_is_2_26_elements_x_users(self, experiment, overrides, over):
        if not over:
            assert parse_config(experiment=experiment, overrides=overrides).experiment == experiment
            return
        with pytest.raises(ConfigError, match=r"elements x users of the sweep's largest array"):
            parse_config(experiment=experiment, overrides=overrides)

    def test_sidecar_config_block_must_be_an_object(self, tmp_path):
        path = tmp_path / "side.json"
        path.write_text(json.dumps({"config": 5, "run": {}}))
        with pytest.raises(ConfigError, match="JSON object"):
            parse_config(str(path))

    @pytest.mark.parametrize("name", ["corr-vs-x", ["corr-vs-m"]])
    def test_unknown_experiment_is_diagnosed(self, tmp_path, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"experiment": name}))
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config(str(path))

    def test_resolved_config_round_trips(self):
        cfg = parse_config(experiment="snr-loss-heatmap")
        resolved = cfg.resolved()
        assert resolved["sweep"]["x_values_m"][0] == 50.0
        assert len(resolved["sweep"]["x_values_m"]) == 11
        assert resolved["users"][0]["theta_rad"] == pytest.approx(math.pi / 2)


SMALL_CORR = [
    ("geometry.num_y", 4),
    ("sweep.mz_values", [5, 9, 15]),
]

# Small overrides per experiment; range-style sweeps are left as ranges so that
# re-ingesting the sidecar also checks their resolution into explicit lists.
SMALL = {
    "corr-vs-m": SMALL_CORR,
    "corr-vs-dist": [
        ("geometry.num_y", 4), ("geometry.num_z", 4),
        ("sweep.separation_stop", 10.0), ("sweep.separation_step", 5.0),
    ],
    "sinr-vs-m": [("geometry.num_y", 4), ("sweep.mz_stop", 31)],
    "snr-loss-heatmap": [
        ("geometry.num_y", 4), ("geometry.num_z", 4),
        ("sweep.x_points", 3), ("sweep.y_points", 2),
    ],
    "sumrate-vs-m": [("sweep.sides", [4, 6]), ("sweep.n_users", 2), ("sweep.n_drops", 2)],
}


class TestRun:
    def test_csv_has_header_plus_requested_rows(self, tmp_path):
        cfg = parse_config(experiment="corr-vs-m", overrides=SMALL_CORR)
        out = tmp_path / "corr.csv"
        run(cfg, str(out))
        lines = out.read_text().splitlines()
        assert lines[0] == "m,m_z,pnusw_rho_linear,upw_rho_linear"
        assert len(lines) == 1 + 3

    def test_sidecar_written_with_config_and_run_blocks(self, tmp_path):
        cfg = parse_config(experiment="corr-vs-m", overrides=SMALL_CORR)
        out = tmp_path / "corr.csv"
        run(cfg, str(out))
        sidecar = json.loads((tmp_path / "corr.json").read_text())
        assert sidecar["config"]["experiment"] == "corr-vs-m"
        assert sidecar["config"]["sweep"]["mz_values"] == [5, 9, 15]
        assert sidecar["run"]["n_rows"] == 3
        assert "version" in sidecar["run"]

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = parse_config(experiment="corr-vs-m", overrides=SMALL_CORR)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        run(cfg, str(first))
        run(cfg, str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("experiment", sorted(SMALL))
    def test_sidecar_reingests_to_identical_csv(self, tmp_path, experiment):
        cfg = parse_config(experiment=experiment, overrides=SMALL[experiment])
        first = tmp_path / "a.csv"
        run(cfg, str(first))
        cfg2 = parse_config(str(tmp_path / "a.json"))
        second = tmp_path / "b.csv"
        run(cfg2, str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_sinr_table_has_six_metric_columns(self, tmp_path):
        cfg = parse_config(
            experiment="sinr-vs-m",
            overrides=[("geometry.num_y", 4), ("sweep.mz_values", [5, 9])],
        )
        out = tmp_path / "sinr.csv"
        run(cfg, str(out))
        header = out.read_text().splitlines()[0].split(",")
        metric_columns = [c for c in header if c.endswith("_sinr_db")]
        assert len(metric_columns) == 6

    def test_heatmap_emits_empty_cells_behind_array(self, tmp_path):
        cfg = parse_config(
            experiment="snr-loss-heatmap",
            overrides=[
                ("geometry.num_y", 4),
                ("geometry.num_z", 4),
                ("sweep.x_values_m", [-5.0, 100.0]),
                ("sweep.y_values_m", [0.0]),
            ],
        )
        out = tmp_path / "map.csv"
        run(cfg, str(out))
        lines = out.read_text().splitlines()
        assert lines[1] == "-5.0,0.0,,"

    @pytest.mark.parametrize("experiment", sorted(SMALL))
    def test_the_array_bound_counts_the_largest_array_walked(self, monkeypatch, experiment):
        # the bound's elements are those of the largest spherical-wave array
        # the sweep walks, at the small sizes below
        cfg = parse_config(experiment=experiment, overrides=SMALL[experiment], model="pnusw")
        walked, walker = [], ch._pnusw_walk

        def recording(geom, *args, **options):
            walked.append(geom.num_elements)
            return walker(geom, *args, **options)

        monkeypatch.setattr(ch, "_pnusw_walk", recording)
        dispatch(cfg)
        assert max(walked) == _EXPERIMENTS[experiment].block(cfg.geometry, cfg.sweep)[0]

    def test_no_temp_files_left_behind(self, tmp_path):
        cfg = parse_config(experiment="corr-vs-m", overrides=SMALL_CORR)
        run(cfg, str(tmp_path / "c.csv"))
        leftovers = [p for p in os.listdir(tmp_path) if ".tmp" in p]
        assert leftovers == []


SIDECAR_CONFIGS = Path(__file__).resolve().parent / "data" / "sidecar_configs"


@pytest.mark.parametrize("kind", ["default", "small"])
@pytest.mark.parametrize("experiment", sorted(SMALL))
def test_old_sidecar_config_blocks_resolve_unchanged(experiment, kind):
    # each file is the config block the CLI wrote, before its config resolver was
    # rewritten, for the default or the SMALL config; the block itself (a rerun from
    # an old sidecar) and the config it came from must both resolve to it byte for byte
    block = SIDECAR_CONFIGS / f"{experiment}-{kind}.json"
    overrides = SMALL[experiment] if kind == "small" else []
    for cfg in (parse_config(str(block)), parse_config(experiment=experiment, overrides=overrides)):
        assert json.dumps(cfg.resolved(), sort_keys=True, indent=2) + "\n" == block.read_text()


class TestMain:
    def test_success_exit_code(self, tmp_path, capsys):
        out = tmp_path / "ok.csv"
        code = main([
            "--experiment", "corr-vs-m",
            "--out", str(out),
            "--set", "geometry.num_y=4",
            "--set", "sweep.mz_values=[5,9]",
        ])
        assert code == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_config_error_exit_code(self, capsys):
        code = main(["--experiment", "corr-vs-m", "--set", "geometry.num_y=0"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["abc", "0", "-4", "257", "1", "3"])
    def test_xlmimo_threads_changes_nothing(self, tmp_path, monkeypatch, threads):
        # builds run on the calling thread, so the variable, whose bad values
        # were once config errors, reaches neither the table nor the sidecar
        args = [
            "--experiment", "corr-vs-dist",
            "--set", "geometry.num_y=4",
            "--set", "sweep.separation_stop=2",
        ]
        monkeypatch.delenv("XLMIMO_THREADS", raising=False)
        assert main([*args, "--out", str(tmp_path / "unset.csv")]) == 0
        monkeypatch.setenv("XLMIMO_THREADS", threads)
        assert main([*args, "--out", str(tmp_path / "set.csv")]) == 0
        assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "unset.csv").read_bytes()
        unset, set_ = (
            json.loads((tmp_path / f"{name}.json").read_text())["run"] for name in ("unset", "set")
        )
        assert "threads" not in set_ and set(set_) == set(unset)

    def test_numerical_error_exit_code(self, tmp_path, capsys):
        # a user pinned to the z axis has an exactly zero spherical channel
        code = main([
            "--experiment", "sinr-vs-m",
            "--out", str(tmp_path / "x.csv"),
            "--set", "geometry.num_y=4",
            "--set", "sweep.mz_values=[5]",
            "--set", "users.0.theta_rad=0",
        ])
        assert code == 2
        assert "numerical error" in capsys.readouterr().err

    def test_model_selection_narrows_columns(self, tmp_path):
        out = tmp_path / "one.csv"
        code = main([
            "--experiment", "corr-vs-m",
            "--model", "pnusw",
            "--out", str(out),
            "--set", "geometry.num_y=4",
            "--set", "sweep.mz_values=[5]",
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == "m,m_z,pnusw_rho_linear"

    def test_seed_flag_lands_in_sidecar(self, tmp_path):
        out = tmp_path / "seeded.csv"
        main([
            "--experiment", "corr-vs-m",
            "--seed", "99",
            "--out", str(out),
            "--set", "geometry.num_y=4",
            "--set", "sweep.mz_values=[5]",
        ])
        sidecar = json.loads((tmp_path / "seeded.json").read_text())
        assert sidecar["config"]["seed"] == 99


class TestSidecarPath:
    def test_swaps_csv_suffix(self):
        assert sidecar_path("out/run.csv") == "out/run.json"

    def test_appends_for_other_suffixes(self):
        assert sidecar_path("out/run.data") == "out/run.data.json"


class TestSamplingRegion:
    """Regions nearly in the array plane end the run quickly instead of hanging."""

    def sumrate(self, run_python, tmp_path, theta, phi):
        return run_python([
            "-m", "xlmimo.cli", "--experiment", "sumrate-vs-m",
            "--out", str(tmp_path / "s.csv"),
            "--set", f"sweep.region.theta_rad={theta}",
            "--set", f"sweep.region.phi_rad={phi}",
        ], timeout=60.0)

    def test_degenerate_region_is_rejected_when_parsed(self, run_python, tmp_path):
        proc = self.sumrate(run_python, tmp_path, "[0,0]", "[0.5,1.0]")
        assert proc.returncode == 1
        assert "config error: sweep.region" in proc.stderr

    def test_nearly_degenerate_region_gives_up_sampling(self, run_python, tmp_path):
        phi_lo = math.pi / 2 - math.asin(1e-3) - 1e-12
        proc = self.sumrate(run_python, tmp_path, '["pi/2","pi/2"]', f'[{phi_lo!r},"pi/2"]')
        assert proc.returncode == 2
        assert "numerical error" in proc.stderr and "consecutive" in proc.stderr


@pytest.mark.parametrize(
    "experiment, override",
    [
        ("snr-loss-heatmap", "sweep.x_values_m=[NaN]"),
        ("corr-vs-dist", "sweep.separations_m=[NaN]"),
        ("corr-vs-dist", "sweep.separation_step=Infinity"),
        ("sinr-vs-m", "snr_db=NaN"),
        ("sumrate-vs-m", "sweep.n_drops=NaN"),
        ("corr-vs-dist", "sweep.direction2.theta_rad=NaN"),
        ("corr-vs-dist", "sweep.direction2.theta_rad=5"),
        ("sinr-vs-m", "snr_db=4000"),
        ("sinr-vs-m", "snr_db=-4000"),
        ("corr-vs-m", "beta0=0"),
        ("corr-vs-m", "geometry.element_area_m2=5e-324"),
        pytest.param(  # a grid range whose span overflows: linspace gives NaN
            "snr-loss-heatmap",
            'sweep={"x_start": -1e308, "x_stop": 1e308, "x_points": 3, "y_values_m": [0]}',
            id="snr-loss-heatmap-grid-span-overflows",
        ),
        ("corr-vs-m", "geometry.spacing_m=1.7e308"),  # its square overflows
        # ints beyond the float range
        pytest.param("corr-vs-m", "geometry.spacing_m=1" + "0" * 400, id="corr-vs-m-int-1e400"),
        pytest.param("corr-vs-m", "users.0.theta_rad=1" + "0" * 400, id="corr-vs-m-angle-1e400"),
        ("corr-vs-m", "users.0.theta_rad=pi/0"),
    ],
)
def test_bad_config_numbers_are_config_errors(run_python, tmp_path, experiment, override):
    proc = run_python([
        "-m", "xlmimo.cli", "--experiment", experiment,
        "--out", str(tmp_path / "t.csv"), "--set", override,
    ], timeout=60.0)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr


def run_with_overrides(run_python, tmp_path, experiment, overrides, **kwargs):
    args = ["-m", "xlmimo.cli", "--experiment", experiment, "--out", str(tmp_path / "t.csv")]
    for item in overrides:
        args += ["--set", item]
    return run_python(args, timeout=60.0, **kwargs)


def test_a_near_array_user_prints_one_warning_line(run_python, tmp_path):
    # a map cell 0.05 m from the array center, 1.26 element spacings of its range
    overrides = ["sweep.x_values_m=[0.05,60]", "sweep.y_values_m=[0]"]
    proc = run_with_overrides(run_python, tmp_path, "snr-loss-heatmap", overrides)
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 3
    assert proc.stderr.splitlines() == [
        "warning: element spacing is 1.26 of the user range; "
        "the scenario is unusually close to the array"
    ]
    assert "channel.py" not in proc.stderr and "Traceback" not in proc.stderr
    far = run_with_overrides(run_python, tmp_path, "snr-loss-heatmap", ["sweep.x_values_m=[60]"])
    assert far.returncode == 0 and far.stderr == ""


@pytest.mark.parametrize("r, warned", [("1e-320", None), ("1e-300", "6.28e+298")])
def test_a_range_too_small_for_its_ratio_gives_only_the_numerical_error(
    run_python, tmp_path, r, warned
):
    # spacing / 1e-320 overflows to inf, which no warning line reports; a finite
    # ratio, however large, is still reported before the numerical error
    overrides = [f"users.0.r_m={r}", "sweep.mz_values=[11]"]
    proc = run_with_overrides(run_python, tmp_path, "corr-vs-m", overrides)
    assert proc.returncode == 2, proc.stderr
    assert "numerical error:" in proc.stderr
    assert "inf of the user range" not in proc.stderr
    warning = f"warning: element spacing is {warned} of the user range"
    assert (warning in proc.stderr) == (warned is not None), proc.stderr


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("snr-loss-heatmap", ["sweep.x_values_m=[1e200]", "sweep.y_values_m=[0]"]),
        ("corr-vs-m", ["users.0.r_m=1e-300", "sweep.mz_values=[11]"]),
        ("corr-vs-dist", ["users.0.r_m=1e-300", "sweep.separations_m=[1]"]),
        ("snr-loss-heatmap", ["model=upw", "sweep.x_values_m=[1e200]", "sweep.y_values_m=[0]"]),
        ("snr-loss-heatmap", ["model=upw", "sweep.x_values_m=[1e-200]", "sweep.y_values_m=[0]"]),
        ("snr-loss-heatmap", ["model=upw", "users.0.r_m=1e200"]),
        ("snr-loss-heatmap", ["model=pnusw", "sweep.x_values_m=[1e-200]", "sweep.y_values_m=[0]"]),
        ("sinr-vs-m", ["beta0=1e300"]),
        ("sumrate-vs-m", ["beta0=1e300", "sweep.sides=[10]", "sweep.n_drops=1"]),
        # user 2's range overflows to inf: hypot(x, y), and r1 + separation
        ("snr-loss-heatmap", ["sweep.x_values_m=[1.7e308]", "sweep.y_values_m=[1.7e308]"]),
        ("corr-vs-dist", ["users.0.r_m=1e308", "sweep.separations_m=[1e308]"]),
        # d / lambda overflows, so the plane-wave Gram entries are not finite
        ("sinr-vs-m", ["model=upw", "geometry.wavelength_m=5e-324"]),
    ],
)
def test_extreme_user_positions_are_numerical_errors(run_python, tmp_path, experiment, overrides):
    proc = run_with_overrides(run_python, tmp_path, experiment, overrides)
    assert proc.returncode == 2, proc.stderr
    assert "numerical error:" in proc.stderr and "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize(
    "experiment, beta0",
    [("corr-vs-m", "1e300"), ("corr-vs-m", "1e-300"), ("corr-vs-dist", "1e300")],
)
def test_correlations_do_not_depend_on_beta0(run_python, tmp_path, experiment, beta0):
    # rho is scale-free: |G_12|^2 overflowing or G_11 G_22 underflowing must not
    # stop the table
    proc = run_with_overrides(run_python, tmp_path, experiment, [f"beta0={beta0}"])
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
    default = tmp_path / "default.csv"
    run(parse_config(experiment=experiment), str(default))
    got = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()]
    want = [line.split(",") for line in default.read_text().splitlines()]
    assert got[0] == want[0] and len(got) == len(want)
    for row, ref in zip(got[1:], want[1:]):
        for cell, ref_cell in zip(row, ref):
            assert float(cell) == pytest.approx(float(ref_cell), rel=1e-12, abs=0.0)


def test_heatmap_keeps_its_table_at_extreme_beta0(run_python, tmp_path):
    proc = run_with_overrides(run_python, tmp_path, "snr-loss-heatmap", ["beta0=1e300"])
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    alphas = [float(v) for row in rows for v in row.split(",")[2:]]
    assert len(alphas) == 2 * 121 and all(0.0 <= alpha <= 1.0 for alpha in alphas)


@pytest.mark.parametrize("model", ["both", "upw"])
def test_heatmap_runs_at_extreme_snr(run_python, tmp_path, model):
    proc = run_with_overrides(
        run_python, tmp_path, "snr-loss-heatmap", ["snr_db=200", f"model={model}"]
    )
    assert proc.returncode == 0, proc.stderr
    rows = (tmp_path / "t.csv").read_text().splitlines()[1:]
    alphas = [float(v) for row in rows for v in row.split(",")[2:]]
    assert len(alphas) == 121 * (2 if model == "both" else 1)
    assert all(0.0 <= alpha <= 1.0 for alpha in alphas)


@pytest.mark.parametrize(
    "args",
    [["--experiment", "bogus"], ["--experiment", "corr-vs-m", "--seed", "abc"], ["--bogus"]],
)
def test_usage_errors_are_config_errors(run_python, args):
    proc = run_python(["-m", "xlmimo.cli", *args], timeout=60.0)
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:") and "Traceback" not in proc.stderr


def test_help_exits_zero(run_python):
    proc = run_python(["-m", "xlmimo.cli", "--help"], timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: xlmimo")


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("corr-vs-dist", ["sweep.separation_stop=1e12"]),
        ("corr-vs-dist", ["sweep.separation_step=1e-300"]),
        ("sinr-vs-m", ["sweep.mz_stop=1000000000000"]),
        ("snr-loss-heatmap", ["sweep.y_points=1000000000000"]),
        ("snr-loss-heatmap", ["sweep.x_points=1000", "sweep.y_points=1000"]),
        ("sumrate-vs-m", ["sweep.n_drops=1000000000"]),
    ],
)
def test_oversized_sweeps_are_config_errors(run_python, tmp_path, experiment, overrides):
    proc = run_with_overrides(
        run_python, tmp_path, experiment, overrides, memory_limit=3 * 2**30
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:") and "sweep points" in proc.stderr


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("corr-vs-dist", ["geometry.num_y=1000000"]),
        ("sumrate-vs-m", ["sweep.sides=[20000]", "sweep.n_users=1", "sweep.n_drops=1"]),
        ("corr-vs-m", ["sweep.mz_values=[10000000]"]),
    ],
)
def test_oversized_arrays_are_config_errors(run_python, tmp_path, experiment, overrides):
    proc = run_with_overrides(
        run_python, tmp_path, experiment, overrides, memory_limit=3 * 2**30
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error:") and "elements x users" in proc.stderr


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("sumrate-vs-m", ["sweep.sides=[10,120]", "sweep.n_drops=1"]),
        ("corr-vs-m", ["sweep.mz_values=[11,1001]"]),
        ("sumrate-vs-m", ["sweep.n_drops=2"]),
        ("sinr-vs-m", []),
        ("sumrate-vs-m", ["sweep.n_users=16", "sweep.sides=[10,40]", "sweep.n_drops=2"]),
        ("sumrate-vs-m", ["sweep.sides=[10,100]", "sweep.n_drops=3"]),
        ("corr-vs-dist", ["sweep.separation_stop=20"]),
        ("snr-loss-heatmap", []),
    ],
)
def test_csv_is_byte_identical_across_blas_threads(run_python, tmp_path, experiment, overrides):
    tables = []
    for threads in (1, 2):
        out = tmp_path / f"t{threads}.csv"
        args = ["-m", "xlmimo.cli", "--experiment", experiment, "--out", str(out)]
        for item in overrides:
            args += ["--set", item]
        proc = run_python(args, blas_threads=threads)
        assert proc.returncode == 0, proc.stderr
        tables.append(out.read_bytes())
    assert tables[0] == tables[1]


def test_every_experiment_runs_on_the_calling_thread(run_python):
    # in a fresh process: importing the CLI loads no thread pool module, and
    # none of the five experiments leaves a thread behind (at their default
    # sizes corr-vs-dist and the map walk many boxes)
    runs = [(experiment, []) for experiment in sorted(SMALL) if experiment != "sumrate-vs-m"]
    runs.append(("sumrate-vs-m", [["sweep.n_drops", 2]]))
    script = """if True:
        import json, sys, threading
        import xlmimo.cli as cli
        assert "concurrent.futures" not in sys.modules, "concurrent.futures is imported"
        before = threading.enumerate()
        for experiment, overrides in json.loads(sys.argv[1]):
            cli.dispatch(cli.parse_config(experiment=experiment, overrides=overrides))
            assert threading.enumerate() == before, f"{experiment} started a thread"
    """
    proc = run_python(["-c", script, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr


def test_collinear_plane_wave_users_at_extreme_snr_are_one_numerical_error(run_python, tmp_path):
    # W = I + H fails its condition gate for every drop; the stacked solve must
    # report it once, as the one-scenario solve did
    overrides = [
        "snr_db=200", "model=upw", "sweep.sides=[4]", "sweep.n_users=3", "sweep.n_drops=3",
        "sweep.region.theta_rad=[1.2,1.2]", "sweep.region.phi_rad=[0.3,0.3]",
    ]
    proc = run_with_overrides(run_python, tmp_path, "sumrate-vs-m", overrides)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.count("numerical error:") == 1 and "Traceback" not in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


NO_SCIPY_RUN = """
import sys
import xlmimo.cli as cli
cfg = cli.parse_config(experiment="sinr-vs-m", overrides=[("sweep.mz_values", [11, 101])])
cli.run(cfg, sys.argv[1])
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_cli_sweep_never_imports_scipy(run_python, tmp_path):
    # scipy is a test oracle only; importing it cost most of every process start
    proc = run_python(["-c", NO_SCIPY_RUN, str(tmp_path / "t.csv")], timeout=60.0)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert len((tmp_path / "t.csv").read_text().splitlines()) == 3


@pytest.mark.parametrize(
    "experiment, overrides",
    [
        ("sinr-vs-m", [("snr_db", -200), ("sweep.mz_values", [11, 101])]),
        ("sinr-vs-m", [("beta0", 1e-300), ("sweep.mz_values", [11])]),
        ("sumrate-vs-m", [("beta0", 1e-300), ("sweep.sides", [10]), ("sweep.n_drops", 1)]),
    ],
)
def test_mmse_is_finite_and_at_least_mrc_at_tiny_powers(tmp_path, experiment, overrides):
    # MMSE read 0 at -200 dB (1 / [W^-1]_kk - 1 cancelled), and at beta0 = 1e-300
    # plane-wave MRC rose above MMSE (|G_ik|^2 underflowed to 0)
    out = tmp_path / "t.csv"
    run(parse_config(experiment=experiment, overrides=overrides), str(out))
    header, *rows = [line.split(",") for line in out.read_text().splitlines()]
    metric = "sinr_db" if experiment == "sinr-vs-m" else "sumrate_bpshz"
    for row in rows:
        cells = dict(zip(header, map(float, row)))
        for model in ("pnusw", "upw"):
            mrc, mmse = cells[f"{model}_mrc_{metric}"], cells[f"{model}_mmse_{metric}"]
            assert math.isfinite(mmse)
            assert mmse >= mrc - 1e-9 * abs(mrc), (model, row)


NEAR_AND_FAR = [
    "model=upw", "users.0.r_m=1", "users.1.r_m=3e6", "users.1.phi_rad=0.5",
    "sweep.mz_values=[11,101]",
]


@pytest.mark.parametrize("extra", [[], ["snr_db=110"]])
def test_near_and_far_users_keep_zero_forcing_and_mmse(run_python, tmp_path, extra):
    # Two nearly orthogonal plane-wave users 1 m and 3e6 m away, channel powers
    # 13 decades apart: their power spread alone must not rule out ZF or MMSE
    proc = run_with_overrides(run_python, tmp_path, "sinr-vs-m", NEAR_AND_FAR + extra)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split(",") for line in (tmp_path / "t.csv").read_text().splitlines()]
    for row in rows:
        cells = dict(zip(header, map(float, row)))
        mrc, zf, mmse = (cells[f"upw_{scheme}_sinr_db"] for scheme in ("mrc", "zf", "mmse"))
        assert math.isfinite(zf), row
        assert mmse >= max(mrc, zf) - 1e-9 * abs(mmse), row


def test_default_sinr_sweep_raises_no_near_singular_error(tmp_path, monkeypatch):
    # rank-1 plane-wave Grams fail the condition gate without a raising solve
    raised = []
    init = NearSingularError.__init__

    def counted(self, *args, **kwargs):
        raised.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NearSingularError, "__init__", counted)
    run(parse_config(experiment="sinr-vs-m"), str(tmp_path / "t.csv"))
    assert raised == []


# Config fuzz: floats over the whole range, with its edges drawn often.  Counts
# and sizes stay at most 16 (n_drops at most 2, separation ranges a few dozen
# points) so that every example runs in milliseconds.
EDGES = [math.inf, -math.inf, math.nan, 1.7e308, -1.7e308, 5e-324, -5e-324, 0.0]
ANY_FLOAT = st.sampled_from(EDGES) | st.floats()
ANGLE = ANY_FLOAT | st.sampled_from(["pi/2", "-pi/2", "2pi/3", "-2pi", "pi/0", "pie"])
SIZE = st.sampled_from(EDGES) | st.integers(-1, 16)


def maybe_list(values):
    return st.none() | st.lists(values, max_size=3)


def user_keys(count):
    return {
        f"users.{i}.{key}": strategy
        for i in range(count)
        for key, strategy in (("r_m", ANY_FLOAT), ("theta_rad", ANGLE), ("phi_rad", ANGLE))
    }


COMMON_KEYS = {
    "seed": SIZE,
    "snr_db": ANY_FLOAT | st.lists(ANY_FLOAT, max_size=3),
    "beta0": st.none() | ANY_FLOAT,
    "model": st.sampled_from(["pnusw", "upw", "both", "plane"]),
    "geometry.num_y": SIZE,
    "geometry.num_z": SIZE,
    "geometry.spacing_m": ANY_FLOAT,
    "geometry.element_area_m2": ANY_FLOAT,
    "geometry.wavelength_m": ANY_FLOAT,
}
MZ_KEYS = {
    "sweep.mz_values": maybe_list(SIZE),
    "sweep.mz_start": SIZE,
    "sweep.mz_stop": SIZE,
    "sweep.mz_step": SIZE,
}
FUZZ_KEYS = {
    "corr-vs-m": {**COMMON_KEYS, **user_keys(2), **MZ_KEYS},
    "sinr-vs-m": {**COMMON_KEYS, **user_keys(2), **MZ_KEYS, "sweep.user_index": SIZE},
    "corr-vs-dist": {
        **COMMON_KEYS,
        **user_keys(1),
        "sweep.direction2.theta_rad": ANGLE,
        "sweep.direction2.phi_rad": ANGLE,
        "sweep.separations_m": maybe_list(ANY_FLOAT),
        "sweep.separation_start": st.sampled_from(EDGES) | st.floats(-20.0, 20.0),
        "sweep.separation_stop": st.sampled_from(EDGES) | st.floats(-20.0, 20.0),
        "sweep.separation_step": st.sampled_from(EDGES) | st.floats(1.0, 20.0),
    },
    "snr-loss-heatmap": {
        **COMMON_KEYS,
        **user_keys(1),
        **{f"sweep.{axis}_{end}": ANY_FLOAT for axis in "xy" for end in ("start", "stop")},
        **{f"sweep.{axis}_points": SIZE for axis in "xy"},
        **{f"sweep.{axis}_values_m": maybe_list(ANY_FLOAT) for axis in "xy"},
    },
    "sumrate-vs-m": {
        **COMMON_KEYS,
        "sweep.sides": maybe_list(SIZE),
        "sweep.n_users": SIZE,
        "sweep.n_drops": st.sampled_from(EDGES) | st.integers(-1, 2),
        "sweep.region.r_m": st.lists(ANY_FLOAT, min_size=2, max_size=2),
        "sweep.region.theta_rad": st.lists(ANGLE, min_size=2, max_size=2),
        "sweep.region.phi_rad": st.lists(ANGLE, min_size=2, max_size=2),
    },
}


@st.composite
def fuzzed_runs(draw):
    """An experiment and up to four overrides, laid over its SMALL config."""
    experiment = draw(st.sampled_from(sorted(FUZZ_KEYS)))
    keys = FUZZ_KEYS[experiment]
    chosen = draw(st.lists(st.sampled_from(sorted(keys)), min_size=1, max_size=4, unique=True))
    return experiment, [(key, draw(keys[key])) for key in chosen]


@settings(
    max_examples=400,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(case=fuzzed_runs())
@example(case=("snr-loss-heatmap", [
    ("sweep.x_start", -1e308), ("sweep.x_stop", 1e308), ("sweep.x_points", 3),
    ("sweep.y_values_m", [0]),
]))
@example(case=("snr-loss-heatmap", [("sweep.x_values_m", [1.7e308]), ("sweep.y_values_m", [1.7e308])]))
@example(case=("corr-vs-dist", [("users.0.r_m", 1e308), ("sweep.separations_m", [1e308])]))
def test_any_config_gives_a_table_or_exits_1_or_2(tmp_path, case):
    # in process, so that a raw exception fails the test instead of printing a traceback
    experiment, overrides = case
    args = ["--experiment", experiment, "--out", str(tmp_path / "fuzz.csv")]
    for key, value in SMALL[experiment] + overrides:
        args += ["--set", f"{key}={json.dumps(value)}"]
    assert main(args) in (0, 1, 2)
