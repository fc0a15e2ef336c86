"""Command-line front end: JSON config in, CSV table plus JSON sidecar out.

One table, ``_EXPERIMENTS``, holds all the CLI knows about each experiment:
its default users and sweep blocks, its sweep resolver, its largest array
and user count and its call into ``experiments``.  The defaults reproduce the
reference setup (wavelength 0.1256 m, half-wavelength spacing, element area
wavelength^2 / (4 pi), 50 dB reference SNR), so ``xlmimo --experiment
corr-vs-m`` runs out of the box.  Any key can be overridden from a JSON
config file or with repeated ``--set dotted.path=value`` flags; angles
accept radians or fractions of pi such as ``pi/2`` or ``-2pi/3``.

``parse_config`` resolves the merged config once into one plain tree, every
sweep axis made an explicit list by ``_axis``.  The typed objects are built
from that tree, and the sidecar written next to the CSV embeds it as its
config block; feeding the sidecar back through ``--config`` reproduces the
CSV byte for byte.
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
import warnings
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
    NearSingularError,
    ZeroForcingInfeasibleError,
)
from .geometry import ArrayGeometry, NearArrayWarning, UserLocation

DEFAULT_WAVELENGTH = 0.1256
DEFAULT_SPACING = DEFAULT_WAVELENGTH / 2.0
DEFAULT_ELEMENT_AREA = DEFAULT_WAVELENGTH**2 / (4.0 * math.pi)
DEFAULT_SNR_DB = 50.0

# Most points one sweep may have, checked before any sweep axis is built.
_MAX_SWEEP_POINTS = 100_000
# Most elements x users of a sweep's largest array, a bound on a run's size
# (no sweep holds that many responses at once): 2^26 admits 1000 x 1000 with 64 users.
_MAX_BLOCK_ENTRIES = 2**26

# The keys of a user, in the order of UserLocation's fields (and UserRegion's).
_USER_KEYS = ("r_m", "theta_rad", "phi_rad")

_ANGLE_RE = re.compile(
    r"^\s*([+-]?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$", re.IGNORECASE
)


def parse_angle(value) -> float:
    """Finite angle in radians from a number or a string like 'pi/2', else a ConfigError."""
    angle = math.nan
    try:
        if isinstance(value, str) and (match := _ANGLE_RE.match(value)):
            sign = -1.0 if match.group(1) == "-" else 1.0
            num = float(match.group(2)) if match.group(2) else 1.0
            den = float(match.group(3)) if match.group(3) else 1.0
            angle = sign * num * math.pi / den
        elif isinstance(value, (int, float, str)) and not isinstance(value, bool):
            angle = float(value)
    except (ValueError, ArithmeticError):  # ArithmeticError: pi/0, or an int beyond float range
        pass
    if not math.isfinite(angle):
        raise ConfigError(f"cannot parse angle {value!r} (use radians or e.g. 'pi/2')")
    return angle


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


def _number(value, path: str, integer: bool = False, minimum: float = -math.inf):
    """A finite config number, at least `minimum`: an exact int if `integer`, else a float."""
    kind = "an integer" if integer else "a finite number"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"config key '{path}' must be {kind}, got {value!r}")
    if integer:
        if isinstance(value, float) and not value.is_integer():
            raise ConfigError(f"config key '{path}' must be {kind}, got {value!r}")
        number = int(value)
    else:
        try:
            number = float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
        if not math.isfinite(number):
            raise ConfigError(f"config key '{path}' must be {kind}, got {value!r}")
    if number < minimum:
        raise ConfigError(f"config key '{path}' must be >= {minimum}, got {number}")
    return number


def _coordinate(key: str, value, path: str) -> float:
    """One spherical coordinate of a user, region or direction: r_m, theta_rad or phi_rad."""
    if key == "r_m":
        return _number(value, path)
    try:
        return parse_angle(value)
    except ConfigError:
        raise ConfigError(f"config key '{path}': cannot parse angle {value!r}") from None


def _build(cls, path: str, *fields):
    """``cls(*fields)``, with the ValueError of an invalid object as a config error."""
    try:
        return cls(*fields)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _plain_users(entries) -> list[dict]:
    if not isinstance(entries, list):
        raise ConfigError("config key 'users' must be a list")
    users = []
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != set(_USER_KEYS):
            raise ConfigError(
                f"users.{i} must be an object with keys r_m, theta_rad, phi_rad"
            )
        users.append({key: _coordinate(key, entry[key], f"users.{i}.{key}") for key in _USER_KEYS})
    return users


def _check_points(count, path: str) -> None:
    if not count <= _MAX_SWEEP_POINTS:
        raise ConfigError(f"{path} gives {count:.4g} sweep points, more than {_MAX_SWEEP_POINTS}")


def _axis(
    sweep: dict, key: str, prefix: str | None = None, integer: bool = False, minimum=-math.inf
) -> list:
    """Resolve one sweep axis: the explicit list ``sweep[key]``, else its range.

    The range keys are ``<prefix>start`` and ``<prefix>stop`` with either
    ``<prefix>step`` (start, start + step, ... up to stop) or
    ``<prefix>points`` (evenly spaced, both ends included); an axis without a
    prefix is a plain list.  An integer axis stays in integer arithmetic.
    Every value, listed or resolved, must be finite and at least `minimum`.
    """
    values, path = sweep[key], f"sweep.{key}"
    if values is not None or prefix is None:
        if not isinstance(values, list) or not values:
            raise ConfigError(f"config key '{path}' must be a non-empty list of numbers")
        _check_points(len(values), path)
    else:
        form = "points" if f"{prefix}points" in sweep else "step"
        path = f"sweep.{prefix}start/stop/{form}"
        start = _number(sweep[f"{prefix}start"], f"sweep.{prefix}start", integer)
        stop = _number(sweep[f"{prefix}stop"], f"sweep.{prefix}stop", integer)
        if form == "points":
            count = _number(sweep[f"{prefix}points"], f"sweep.{prefix}points", True, minimum=1)
            _check_points(count, path)
            with np.errstate(all="ignore"):  # a span that overflows gives NaN, rejected below
                values = np.linspace(start, stop, count).tolist()
        else:
            step = _number(sweep[f"{prefix}step"], f"sweep.{prefix}step", integer)
            if not step > 0 or stop < start:
                raise ConfigError(f"{path} needs step > 0 and stop >= start")
            span = (stop - start) // step if integer else (stop - start) / step + 1e-9
            _check_points(span + 1, path)
            values = [start + i * step for i in range(int(span) + 1)]
    return [_number(v, path, integer, minimum) for v in values]


def _resolve_mz(sweep: dict, users: list) -> dict:
    out = {"mz_values": _axis(sweep, "mz_values", "mz_", integer=True, minimum=1)}
    if "user_index" in sweep:
        out["user_index"] = _number(sweep["user_index"], "sweep.user_index", True, minimum=0)
        if out["user_index"] >= len(users):
            raise ConfigError("sweep.user_index is out of range for the users block")
    return out


def _resolve_separations(sweep: dict, users: list) -> dict:
    direction = {
        key: _coordinate(key, value, f"sweep.direction2.{key}")
        for key, value in sweep["direction2"].items()
    }
    _build(UserLocation, "sweep.direction2", 1.0, *direction.values())
    return {
        "direction2": direction,
        "separations_m": _axis(sweep, "separations_m", "separation_", minimum=0.0),
    }


def _resolve_grid(sweep: dict, users: list) -> dict:
    out = {f"{axis}_values_m": _axis(sweep, f"{axis}_values_m", f"{axis}_") for axis in "xy"}
    _check_points(len(out["x_values_m"]) * len(out["y_values_m"]), "the x-y grid")
    return out


def _resolve_drops(sweep: dict, users: list) -> dict:
    sides = _axis(sweep, "sides", integer=True, minimum=1)
    n_users = _number(sweep["n_users"], "sweep.n_users", integer=True, minimum=1)
    n_drops = _number(sweep["n_drops"], "sweep.n_drops", integer=True, minimum=1)
    _check_points(n_drops, "sweep.n_drops")
    if n_users > min(s * s for s in sides):
        raise ConfigError("sweep.n_users exceeds the smallest array in sweep.sides")
    region = {}
    for key, pair in sweep["region"].items():
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f"sweep.region.{key} must be a [min, max] pair")
        region[key] = [_coordinate(key, v, f"sweep.region.{key}") for v in pair]
    return {"sides": sides, "n_users": n_users, "n_drops": n_drops, "region": region}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved, validated run configuration.

    ``tree`` is the whole config with every value parsed, as plain JSON data:
    the sidecar's config block.  The geometry, the users and a drop sweep's
    sampling region are built from it once as typed objects; the other
    fields read it.
    """

    tree: dict
    geometry: ArrayGeometry
    users: list
    region: xp.UserRegion | None = None

    experiment = property(lambda self: self.tree["experiment"])
    model = property(lambda self: self.tree["model"])
    seed = property(lambda self: self.tree["seed"])
    snr_db = property(lambda self: self.tree["snr_db"])
    beta0 = property(lambda self: self.tree["beta0"])
    sweep = property(lambda self: self.tree["sweep"])

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
        return copy.deepcopy(self.tree)


class _Experiment(NamedTuple):
    """Everything the CLI knows about one experiment."""

    users: list  # default users block; a config's users block must be as long
    sweep: dict  # default sweep block
    resolve: Callable[[dict, list], dict]  # (sweep block, users) -> explicit lists; pins reruns
    block: Callable[[ArrayGeometry, dict], tuple[int, int]]  # largest array's M, K; one SNR a user
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
            cfg.geometry, cfg.region, cfg.sweep["n_users"],
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
        "geometry": {  # in the order of ArrayGeometry's fields, which are built from it
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
    tree = {
        "experiment": experiment,
        "model": merged["model"],
        "seed": _number(merged["seed"], "seed", integer=True, minimum=0),
        "geometry": {
            key: _number(value, f"geometry.{key}", integer=key.startswith("num_"))
            for key, value in merged["geometry"].items()
        },
        "users": _plain_users(merged["users"]),
    }
    geometry = _build(ArrayGeometry, "geometry", *tree["geometry"].values())
    users = [
        _build(UserLocation, f"users.{i}", *user.values()) for i, user in enumerate(tree["users"])
    ]
    if len(users) != len(spec.users):
        noun = "user" if len(spec.users) == 1 else "users"
        raise ConfigError(f"{experiment} needs {len(spec.users)} {noun}, got {len(users)}")
    tree["sweep"] = sweep = spec.resolve(merged["sweep"], users)
    region = None
    if "region" in sweep:
        region = _build(xp.UserRegion, "sweep.region", *map(tuple, sweep["region"].values()))
    elements, num_snr = spec.block(geometry, sweep)
    if elements * num_snr > _MAX_BLOCK_ENTRIES:
        raise ConfigError(
            f"elements x users of the sweep's largest array, {elements} x {num_snr}, "
            f"is more than {_MAX_BLOCK_ENTRIES}"
        )

    snr_db = merged["snr_db"]
    if not isinstance(snr_db, list):
        snr_db = [snr_db] * num_snr
    tree["snr_db"] = [_number(v, "snr_db") for v in snr_db]
    if len(snr_db) != num_snr:
        raise ConfigError(f"snr_db lists {len(snr_db)} values for {num_snr} users")

    beta0 = merged["beta0"]
    try:
        upw = UpwConfig.matched_to(geometry) if beta0 is None else UpwConfig(_number(beta0, "beta0"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    tree["beta0"] = upw.beta0
    return RunConfig(tree, geometry, users, region)


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
    """Write data to path through a temp file, which a failed write removes (a config error)."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", newline="") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except OSError as exc:
        if os.path.isfile(tmp):
            os.remove(tmp)
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None


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
    """Execute the configured experiment; write CSV and sidecar; return CSV path.

    The sidecar's run block records, beside the table's shape, the wall time,
    which stays out of the CSV.
    """
    started = time.perf_counter()
    csv_file = out or f"{cfg.experiment}.csv"
    for path in (csv_file, sidecar_path(csv_file)):  # an unwritable one fails before the sweep
        folder = os.path.dirname(path) or "."
        writable = os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)
        if os.path.isdir(path) or not writable:
            _write_atomic(path, "")  # raises the config error the write would, leaving nothing
    result = dispatch(cfg)
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


def _one_line_warnings(show):
    """A warnings.showwarning that prints a NearArrayWarning as one "warning:
    <message>" line on stderr, with no file or source line, and hands any other to show."""

    def showwarning(message, category, *where, **options):
        if issubclass(category, NearArrayWarning):
            print(f"warning: {message}", file=sys.stderr)
        else:
            show(message, category, *where, **options)

    return showwarning


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
        with warnings.catch_warnings():  # restores showwarning on the way out
            warnings.showwarning = _one_line_warnings(warnings.showwarning)
            csv_file = run(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (
        DegenerateGeometryError,
        DegenerateChannelError,
        NearSingularError,
        ZeroForcingInfeasibleError,
    ) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 2

    print(csv_file)
    return 0


if __name__ == "__main__":
    sys.exit(main())
