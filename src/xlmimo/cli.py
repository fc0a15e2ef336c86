"""Command-line front end: JSON config in, CSV table plus JSON sidecar out.

One table, ``_EXPERIMENTS``, holds all the CLI knows about each experiment:
its default users and sweep blocks, its sweep resolver, its largest response
block and its call into ``experiments``.  The defaults reproduce the
reference setup (wavelength 0.1256 m, half-wavelength spacing, element area
wavelength^2 / (4 pi), 50 dB reference SNR), so ``xlmimo --experiment
corr-vs-m`` runs out of the box.  Any key can be overridden from a JSON
config file or with repeated ``--set dotted.path=value`` flags; angles
accept radians or fractions of pi such as ``pi/2`` or ``-2pi/3``.

The sidecar written next to the CSV embeds the fully resolved config;
feeding it back through ``--config`` reproduces the CSV byte for byte.
Exit codes: 0 success, 1 config error, 2 numerical/degenerate error.
"""

from __future__ import annotations

import argparse
import copy
import csv
import io
import json
import math
import os
import re
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import experiments as xp
from .channel import UpwConfig
from .errors import (
    ConfigError,
    DegenerateChannelError,
    DegenerateGeometryError,
    DimensionMismatchError,
    NearSingularError,
    ZeroForcingInfeasibleError,
)
from .geometry import ArrayGeometry, UserLocation

DEFAULT_WAVELENGTH = 0.1256
DEFAULT_SPACING = DEFAULT_WAVELENGTH / 2.0
DEFAULT_ELEMENT_AREA = DEFAULT_WAVELENGTH**2 / (4.0 * math.pi)
DEFAULT_SNR_DB = 50.0

# Most points one sweep may have, checked before any sweep axis is built.
_MAX_SWEEP_POINTS = 100_000
# Most entries (elements x users) of the largest response block a sweep may
# build: 1 GiB of complex128, which admits a 1000 x 1000 array with 64 users.
_MAX_BLOCK_ENTRIES = 2**26

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$", re.IGNORECASE
)


def parse_angle(value) -> float:
    """Angle in radians from a number or a pi-fraction string like 'pi/2'."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        match = _ANGLE_RE.match(value)
        if match:
            sign = -1.0 if match.group(1) == "-" else 1.0
            num = float(match.group(2)) if match.group(2) else 1.0
            den = float(match.group(3)) if match.group(3) else 1.0
            return sign * num * math.pi / den
        try:
            return float(value)
        except ValueError:
            pass
    raise ConfigError(f"cannot parse angle {value!r} (use radians or e.g. 'pi/2')")


def _merge(defaults, provided, path: str = ""):
    """Overlay a provided config onto the defaults, rejecting unknown keys."""
    if not isinstance(defaults, dict):
        return copy.deepcopy(provided)
    if not isinstance(provided, (dict, type(None))):
        raise ConfigError(f"config key '{path.rstrip('.') or '(root)'}' must be an object")
    provided = provided or {}
    for key in provided:
        if key not in defaults:
            raise ConfigError(f"unknown config key '{path}{key}'")
    return {
        key: _merge(dval, provided.get(key, dval), f"{path}{key}.")
        for key, dval in defaults.items()
    }


def _apply_override(tree: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    if parts[0] == "experiment":
        raise ConfigError("use --experiment to choose the experiment")
    node = tree
    try:
        for part in parts[:-1]:
            node = node[int(part)] if isinstance(node, list) else node[part]
        key = int(parts[-1]) if isinstance(node, list) else parts[-1]
        current = node[key]
    except (KeyError, IndexError, ValueError, TypeError):
        raise ConfigError(f"unknown config key '{dotted}'") from None
    node[key] = _merge(current, value, f"{dotted}.")


def _as_int(value, path: str, minimum: int) -> int:
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise ConfigError(f"config key '{path}' must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ConfigError(f"config key '{path}' must be >= {minimum}, got {value}")
    return value


def _as_float(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ConfigError(f"config key '{path}' must be a finite number, got {value!r}")
    return float(value)


def _as_angle(value, path: str) -> float:
    try:
        angle = parse_angle(value)
    except ConfigError:
        angle = math.nan
    if not math.isfinite(angle):
        raise ConfigError(f"config key '{path}': cannot parse angle {value!r}")
    return angle


def _build_geometry(node: dict) -> ArrayGeometry:
    try:
        return ArrayGeometry(
            num_y=_as_int(node["num_y"], "geometry.num_y", minimum=1),
            num_z=_as_int(node["num_z"], "geometry.num_z", minimum=1),
            spacing=_as_float(node["spacing_m"], "geometry.spacing_m"),
            element_area=_as_float(node["element_area_m2"], "geometry.element_area_m2"),
            wavelength=_as_float(node["wavelength_m"], "geometry.wavelength_m"),
        )
    except ValueError as exc:
        raise ConfigError(f"geometry: {exc}") from None


def _build_users(entries) -> list[UserLocation]:
    if not isinstance(entries, list):
        raise ConfigError("config key 'users' must be a list")
    users = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {"r_m", "theta_rad", "phi_rad"}:
            raise ConfigError(
                f"users.{i} must be an object with keys r_m, theta_rad, phi_rad"
            )
        try:
            users.append(
                UserLocation(
                    r=_as_float(entry["r_m"], f"users.{i}.r_m"),
                    theta=_as_angle(entry["theta_rad"], f"users.{i}.theta_rad"),
                    phi=_as_angle(entry["phi_rad"], f"users.{i}.phi_rad"),
                )
            )
        except ValueError as exc:
            raise ConfigError(f"users.{i}: {exc}") from None
    return users


def _number_list(values, path: str) -> list[float]:
    if not isinstance(values, list) or not values:
        raise ConfigError(f"config key '{path}' must be a non-empty list of numbers")
    _check_points(len(values), path)
    return [_as_float(v, path) for v in values]


def _check_points(count, path: str) -> None:
    if not count <= _MAX_SWEEP_POINTS:
        raise ConfigError(f"{path} gives {count:.4g} sweep points, more than {_MAX_SWEEP_POINTS}")


def _user_region(region: dict) -> xp.UserRegion:
    return xp.UserRegion(
        r=tuple(region["r_m"]), theta=tuple(region["theta_rad"]), phi=tuple(region["phi_rad"])
    )


def _resolve_mz(sweep: dict, users: list) -> dict:
    if sweep["mz_values"] is not None:
        values = _number_list(sweep["mz_values"], "sweep.mz_values")
        values = [_as_int(v, "sweep.mz_values", minimum=1) for v in values]
    else:
        start = _as_int(sweep["mz_start"], "sweep.mz_start", minimum=1)
        stop = _as_int(sweep["mz_stop"], "sweep.mz_stop", minimum=start)
        step = _as_int(sweep["mz_step"], "sweep.mz_step", minimum=1)
        values = range(start, stop + 1, step)
        _check_points(len(values), "sweep.mz_start/mz_stop/mz_step")
        values = list(values)
    out = {"mz_values": values}
    if "user_index" in sweep:
        out["user_index"] = _as_int(sweep["user_index"], "sweep.user_index", minimum=0)
        if out["user_index"] >= len(users):
            raise ConfigError("sweep.user_index is out of range for the users block")
    return out


def _resolve_separations(sweep: dict, users: list) -> dict:
    direction = sweep["direction2"]
    theta = _as_angle(direction["theta_rad"], "sweep.direction2.theta_rad")
    phi = _as_angle(direction["phi_rad"], "sweep.direction2.phi_rad")
    try:
        UserLocation(r=1.0, theta=theta, phi=phi)
    except ValueError as exc:
        raise ConfigError(f"sweep.direction2: {exc}") from None
    if sweep["separations_m"] is not None:
        seps = _number_list(sweep["separations_m"], "sweep.separations_m")
    else:
        start = _as_float(sweep["separation_start"], "sweep.separation_start")
        stop = _as_float(sweep["separation_stop"], "sweep.separation_stop")
        step = _as_float(sweep["separation_step"], "sweep.separation_step")
        if step <= 0 or stop < start:
            raise ConfigError("separation sweep needs step > 0 and stop >= start")
        span = (stop - start) / step + 1e-9
        _check_points(span + 1, "sweep.separation_start/stop/step")
        seps = [start + i * step for i in range(int(span) + 1)]
    if any(s < 0 for s in seps):
        raise ConfigError("sweep.separations_m must be non-negative")
    return {
        "direction2": {"theta_rad": theta, "phi_rad": phi},
        "separations_m": seps,
    }


def _resolve_grid(sweep: dict, users: list) -> dict:
    out = {}
    for axis in ("x", "y"):
        explicit = sweep[f"{axis}_values_m"]
        if explicit is not None:
            out[f"{axis}_values_m"] = _number_list(explicit, f"sweep.{axis}_values_m")
        else:
            start = _as_float(sweep[f"{axis}_start"], f"sweep.{axis}_start")
            stop = _as_float(sweep[f"{axis}_stop"], f"sweep.{axis}_stop")
            points = _as_int(sweep[f"{axis}_points"], f"sweep.{axis}_points", minimum=1)
            _check_points(points, f"sweep.{axis}_points")
            out[f"{axis}_values_m"] = [float(v) for v in np.linspace(start, stop, points)]
    _check_points(len(out["x_values_m"]) * len(out["y_values_m"]), "the x-y grid")
    return out


def _resolve_drops(sweep: dict, users: list) -> dict:
    sides = _number_list(sweep["sides"], "sweep.sides")
    sides = [_as_int(v, "sweep.sides", minimum=1) for v in sides]
    n_users = _as_int(sweep["n_users"], "sweep.n_users", minimum=1)
    n_drops = _as_int(sweep["n_drops"], "sweep.n_drops", minimum=1)
    _check_points(n_drops, "sweep.n_drops")
    if n_users > min(s * s for s in sides):
        raise ConfigError("sweep.n_users exceeds the smallest array in sweep.sides")
    resolved_region = {}
    for key, pair in sweep["region"].items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"sweep.region.{key} must be a [min, max] pair")
        parse = _as_float if key == "r_m" else _as_angle
        resolved_region[key] = [parse(v, f"sweep.region.{key}") for v in pair]
    try:
        _user_region(resolved_region)
    except ValueError as exc:
        raise ConfigError(f"sweep.region: {exc}") from None
    return {
        "sides": sides,
        "n_users": n_users,
        "n_drops": n_drops,
        "region": resolved_region,
    }


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run configuration."""

    experiment: str
    model: str
    seed: int
    snr_db: list
    beta0: float
    geometry: ArrayGeometry
    users: list
    sweep: dict

    def models(self) -> tuple[str, ...]:
        return ("pnusw", "upw") if self.model == "both" else (self.model,)

    def snr_linear(self) -> list[float]:
        """Per-user transmit SNR: reference SNR (dB) divided by beta0."""
        try:
            snr = [10.0 ** (db / 10.0) / self.beta0 for db in self.snr_db]
        except OverflowError:
            snr = [math.inf]
        if not all(0.0 < p < math.inf for p in snr):
            raise ConfigError("snr_db and beta0 give a transmit SNR that is 0 or not finite")
        return snr

    def resolved(self) -> dict:
        return {
            "experiment": self.experiment,
            "model": self.model,
            "seed": self.seed,
            "snr_db": list(self.snr_db),
            "beta0": self.beta0,
            "geometry": {
                "num_y": self.geometry.num_y,
                "num_z": self.geometry.num_z,
                "spacing_m": self.geometry.spacing,
                "element_area_m2": self.geometry.element_area,
                "wavelength_m": self.geometry.wavelength,
            },
            "users": [
                {"r_m": u.r, "theta_rad": u.theta, "phi_rad": u.phi} for u in self.users
            ],
            "sweep": copy.deepcopy(self.sweep),
        }


class _Experiment(NamedTuple):
    """Everything the CLI knows about one experiment."""

    users: list  # default users block; a config's users block must be as long
    sweep: dict  # default sweep block
    resolve: Callable[[dict, list], dict]  # (sweep block, users) -> explicit lists; pins reruns
    block: Callable[[ArrayGeometry, dict], tuple[int, int]]  # largest; one SNR per user
    run: Callable[..., xp.SweepResult]  # (cfg, models=, upw_cfg=) -> the sweep's table
    geometry: dict = {}  # overrides of the default geometry block


_TWO_USERS_SAME_DIRECTION = [
    {"r_m": 25.0, "theta_rad": "pi/2", "phi_rad": 0.0},
    {"r_m": 250.0, "theta_rad": "pi/2", "phi_rad": 0.0},
]
_MZ_SWEEP = {"mz_start": 11, "mz_stop": 1001, "mz_step": 10, "mz_values": None}

_EXPERIMENTS = {
    "corr-vs-m": _Experiment(
        users=_TWO_USERS_SAME_DIRECTION,
        sweep=_MZ_SWEEP,
        resolve=_resolve_mz,
        block=lambda geom, sweep: (geom.num_y * max(sweep["mz_values"]), 2),
        run=lambda cfg, **common: xp.sweep_correlation_vs_m(
            cfg.geometry, cfg.users[0], cfg.users[1], cfg.sweep["mz_values"], **common
        ),
    ),
    "corr-vs-dist": _Experiment(
        users=[{"r_m": 50.0, "theta_rad": "pi/2", "phi_rad": 0.0}],
        sweep={
            "direction2": {"theta_rad": "pi/2", "phi_rad": 0.0},
            "separation_start": 0.0,
            "separation_stop": 200.0,
            "separation_step": 1.0,
            "separations_m": None,
        },
        resolve=_resolve_separations,
        block=lambda geom, sweep: (geom.num_elements, 1),
        run=lambda cfg, **common: xp.sweep_correlation_vs_distance(
            cfg.geometry, cfg.users[0],
            (cfg.sweep["direction2"]["theta_rad"], cfg.sweep["direction2"]["phi_rad"]),
            cfg.sweep["separations_m"], **common,
        ),
        geometry={"num_y": 200, "num_z": 200},
    ),
    "sinr-vs-m": _Experiment(
        users=_TWO_USERS_SAME_DIRECTION,
        sweep={**_MZ_SWEEP, "user_index": 0},
        resolve=_resolve_mz,
        block=lambda geom, sweep: (geom.num_y * max(sweep["mz_values"]), 2),
        run=lambda cfg, **common: xp.sweep_sinr_vs_m(
            cfg.geometry, cfg.users, cfg.snr_linear(), cfg.sweep["mz_values"],
            user_index=cfg.sweep["user_index"], **common,
        ),
    ),
    "snr-loss-heatmap": _Experiment(
        users=[{"r_m": 100.0, "theta_rad": "pi/2", "phi_rad": 0.0}],
        sweep={
            "x_start": 50.0,
            "x_stop": 150.0,
            "x_points": 11,
            "x_values_m": None,
            "y_start": -50.0,
            "y_stop": 50.0,
            "y_points": 11,
            "y_values_m": None,
        },
        resolve=_resolve_grid,
        # two users, so two SNRs; a cell builds at most the moved user's response
        block=lambda geom, sweep: (geom.num_elements, 2),
        run=lambda cfg, **common: xp.heatmap_snr_loss(
            cfg.geometry, cfg.users[0], cfg.sweep["x_values_m"], cfg.sweep["y_values_m"],
            cfg.snr_linear(), **common,
        ),
        geometry={"num_y": 200, "num_z": 200},
    ),
    "sumrate-vs-m": _Experiment(
        users=[],
        sweep={
            "sides": [10, 20, 40, 80, 140, 200],
            "n_users": 10,
            "n_drops": 100,
            "region": {
                "r_m": [50.0, 100.0],
                "theta_rad": [0.0, "pi/3"],
                "phi_rad": ["pi/6", "pi/3"],
            },
        },
        resolve=_resolve_drops,
        block=lambda geom, sweep: (max(sweep["sides"]) ** 2, sweep["n_users"]),
        run=lambda cfg, **common: xp.sumrate_vs_m(
            cfg.geometry, _user_region(cfg.sweep["region"]), cfg.sweep["n_users"],
            cfg.snr_linear(), cfg.sweep["sides"], seed=cfg.seed,
            n_drops=cfg.sweep["n_drops"], **common,
        ),
    ),
}


def _defaults(experiment: str, spec: _Experiment) -> dict:
    return {
        "experiment": experiment,
        "model": "both",
        "seed": 1,
        "snr_db": DEFAULT_SNR_DB,
        "beta0": None,
        "geometry": {
            "num_y": 10,
            "num_z": 11,
            "spacing_m": DEFAULT_SPACING,
            "element_area_m2": DEFAULT_ELEMENT_AREA,
            "wavelength_m": DEFAULT_WAVELENGTH,
            **spec.geometry,
        },
        "users": spec.users,
        "sweep": spec.sweep,
    }


def parse_config(
    path: str | None = None,
    overrides=(),
    experiment: str | None = None,
    model: str | None = None,
    seed: int | None = None,
) -> RunConfig:
    """Load, merge, override, and validate a run configuration."""
    raw = {}
    if path is not None:
        try:
            with open(path) as handle:
                raw = json.load(handle)
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path!r} is not valid JSON: {exc}") from None
        if isinstance(raw, dict) and set(raw) >= {"config", "run"}:
            raw = raw["config"]
        if not isinstance(raw, dict):
            raise ConfigError(f"config {path!r} must contain a JSON object")

    experiment = experiment or raw.get("experiment")
    spec = _EXPERIMENTS.get(experiment) if isinstance(experiment, str) else None
    if spec is None:
        raise ConfigError(
            f"unknown experiment {experiment!r}; choose one of {', '.join(_EXPERIMENTS)} "
            "with --experiment or the config file"
        )
    merged = _merge(_defaults(experiment, spec), raw)

    for dotted, value in overrides:
        _apply_override(merged, dotted, value)
    if model is not None:
        merged["model"] = model
    if seed is not None:
        merged["seed"] = seed

    if merged["model"] not in ("pnusw", "upw", "both"):
        raise ConfigError(f"model must be pnusw, upw, or both, got {merged['model']!r}")
    seed_value = _as_int(merged["seed"], "seed", minimum=0)
    geometry = _build_geometry(merged["geometry"])
    users = _build_users(merged["users"])
    sweep = spec.resolve(merged["sweep"], users)
    if len(users) != len(spec.users):
        noun = "user" if len(spec.users) == 1 else "users"
        raise ConfigError(f"{experiment} needs {len(spec.users)} {noun}, got {len(users)}")
    elements, num_snr = spec.block(geometry, sweep)
    if elements * num_snr > _MAX_BLOCK_ENTRIES:
        raise ConfigError(
            f"a {elements} x {num_snr} response block (elements x users) has more than "
            f"{_MAX_BLOCK_ENTRIES} entries"
        )

    snr_db = merged["snr_db"]
    if not isinstance(snr_db, list):
        snr_db = [snr_db] * num_snr
    snr_db = [_as_float(v, "snr_db") for v in snr_db]
    if len(snr_db) != num_snr:
        raise ConfigError(f"snr_db lists {len(snr_db)} values for {num_snr} users")

    beta0 = merged["beta0"]
    if beta0 is None:
        beta0 = geometry.element_area / (4.0 * math.pi)
    beta0 = _as_float(beta0, "beta0")
    if beta0 <= 0:
        raise ConfigError(f"beta0 must be positive, got {beta0}")

    return RunConfig(
        experiment=experiment,
        model=merged["model"],
        seed=seed_value,
        snr_db=snr_db,
        beta0=beta0,
        geometry=geometry,
        users=users,
        sweep=sweep,
    )


def dispatch(cfg: RunConfig) -> xp.SweepResult:
    return _EXPERIMENTS[cfg.experiment].run(
        cfg, models=cfg.models(), upw_cfg=UpwConfig(beta0=cfg.beta0)
    )


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def _write_atomic(path: str, data: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", newline="") as handle:
        handle.write(data)
    os.replace(tmp, path)


def write_csv(path: str, columns, rows) -> None:
    """Write a sweep table as CSV (LF endings), atomically."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(v) for v in row] for row in rows)
    _write_atomic(path, buffer.getvalue())


def sidecar_path(csv_path: str) -> str:
    root, ext = os.path.splitext(csv_path)
    return (root if ext == ".csv" else csv_path) + ".json"


def run(cfg: RunConfig, out: str | None = None) -> str:
    """Execute the configured experiment; write CSV and sidecar; return CSV path."""
    started = time.perf_counter()
    result = dispatch(cfg)
    csv_file = out or f"{cfg.experiment}.csv"
    write_csv(csv_file, result.columns, result.rows)
    sidecar = {
        "config": cfg.resolved(),
        "run": {
            "version": __version__,
            "experiment": cfg.experiment,
            "csv": os.path.basename(csv_file),
            "columns": list(result.columns),
            "n_rows": len(result.rows),
            "wall_time_s": time.perf_counter() - started,
        },
    }
    _write_atomic(sidecar_path(csv_file), json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    return csv_file


def _parse_set_flag(item: str) -> tuple[str, object]:
    if "=" not in item:
        raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
    key, _, text = item.partition("=")
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text
    return key.strip(), value


class _ArgumentParser(argparse.ArgumentParser):
    """argparse whose usage errors are config errors (exit 1), not argparse's exit 2."""

    def error(self, message):
        raise ConfigError(message)


def main(argv=None) -> int:
    parser = _ArgumentParser(
        prog="xlmimo",
        description="Run an uplink sweep and write its CSV table plus JSON sidecar.",
    )
    parser.add_argument("--experiment", choices=_EXPERIMENTS, help="experiment to run")
    parser.add_argument(
        "--config", help="JSON config file, or the sidecar of a previous run"
    )
    parser.add_argument("--seed", type=int, help="random seed override")
    parser.add_argument("--out", help="output CSV path (default <experiment>.csv)")
    parser.add_argument(
        "--model", choices=("pnusw", "upw", "both"), help="channel model selection"
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override any config key by dotted path, e.g. --set geometry.num_y=10",
    )

    try:
        args = parser.parse_args(argv)
        overrides = [_parse_set_flag(item) for item in args.overrides]
        cfg = parse_config(
            args.config,
            overrides=overrides,
            experiment=args.experiment,
            model=args.model,
            seed=args.seed,
        )
        csv_file = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        DegenerateGeometryError,
        DegenerateChannelError,
        DimensionMismatchError,
        NearSingularError,
        ZeroForcingInfeasibleError,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2

    print(csv_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
