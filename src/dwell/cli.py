"""Command-line interface: solves, sweeps, rule validation, benchmark tables
and phase-space export, with byte-deterministic output and an on-disk cache.

Output rows use a fixed column order and 17-significant-digit float
formatting so that identical configurations produce identical bytes.  Each
output and cache file is written through a temp file renamed into place,
so it appears complete or not at all.  Sweep points are cached one file
per point, keyed by a content hash of the exact coefficients, the point
settings and the record revision; a cache file carries a checksum line and
is recomputed when it does not verify.  `SETTINGS` builds each command's
flags and config-file keys, so a command takes exactly the settings it reads.

This module imports no numpy: each command imports the numerical modules
it runs when it first computes, so that `--help`, a configuration error and
a sweep served entirely from its cache start up without them.  The cache's
digest is CPython's built-in SHA-256, not hashlib's, so no command maps
OpenSSL.
"""

from __future__ import annotations

import argparse
import csv
import enum
import functools
import itertools
import json
import math
import os
import re
import sys
from collections.abc import Callable, Iterable, Iterator
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, TextIO

from .defaults import (DEFAULT_GRID_POINTS, DEFAULT_N_BASIS, DEFAULT_N_STATES, DEFAULT_RHO_FLOOR,
                       DEGENERACY_REL_TOL, MIN_GRID_POINTS, SolverError, certified_states,
                       grid_intervals)
from .potential import QuarticPotential, critical_points, delta_gamma

if TYPE_CHECKING:
    from .report import StateReport

__all__ = ["main", "SETTINGS", "ConfigError", "SCHEMA_VERSION", "CSV_COLUMNS"]

SCHEMA_VERSION = "dwell-result-v1"
# part of every cache key: bump whenever the arithmetic behind a cached record
# changes (solver or per-state layer), so that records computed by older code
# are not served
RECORD_REVISION = "grid-multiple-of-4-12"
CACHE_DIR_ENV = "DWELL_CACHE_DIR"

CSV_COLUMNS = [
    "alpha", "beta", "gamma", "n", "energy",
    "mean_x", "delta_x", "delta_p", "uncertainty_product",
    "p_well_I", "p_well_II", "occupancy", "total_nodes", "effective_nodes",
    "s_x", "s_p", "s_total", "i_x", "i_p", "i_product",
    "e_x", "e_p", "e_product", "os_x", "os_p", "os_total",
    "barrier_action", "allowed_action", "lobe_count", "converged_flag",
    "error",
]
_COLUMN_SET = set(CSV_COLUMNS)
_STR_COLUMNS = {"occupancy", "error"}  # JSON strings; every other token is a JSON literal

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

# a computation that raises one of these failed on its inputs: the command
# exits 3, and a sweep records the message in the point's error row
FAILURES = (SolverError, ValueError)


class ConfigError(ValueError):
    """Invalid configuration (bad flag values, empty ranges, ...)."""


def _token(value: object) -> str:
    """The text of one output value, the same in every CSV and JSON file."""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, int):
        return str(value)
    return format(float(value), ".17g")


# ---------------------------------------------------------------- settings


def _finite(text: str) -> float:
    """The finite number `text`, with -0 read as 0, so that no output or
    cache key depends on the sign of a zero."""
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number, got {text.strip()!r}")
    return value + 0.0


def _checked(parse: Callable[[str], float], ok: Callable[[float], bool],
             what: str) -> Callable[[str], float]:
    def convert(text: str) -> float:
        value = parse(text)
        if not ok(value):
            raise ConfigError(f"must be {what}, got {value!r}")
        return value

    return convert


MAX_VALUES = 10_000  # per value setting; a range is counted before it is built
MAX_GRID_POINTS = 65_536
MAX_N_BASIS = 1000  # solve time and memory grow fast with the basis size
MAX_WORKERS = 64  # sweep processes, started together at the first point
MAX_POINTS = 100_000  # (beta, gamma) or (alpha, gamma) points planned before any solve


def parse_values(text: str) -> tuple[float, ...]:
    """Parse '3', '1,3,5' or 'start:stop:step' (inclusive of stop), at most
    MAX_VALUES values."""
    text = text.strip()
    if not text:
        raise ConfigError("expected at least one value")
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (_finite(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range {text!r}")
        steps = (stop - start) / step + 1e-9  # may overflow to inf
        if not steps < MAX_VALUES:
            raise ConfigError(f"range {text!r} has more than {MAX_VALUES} values")
        return tuple(start + i * step for i in range(int(steps) + 1))
    values = tuple(_finite(p) for p in text.split(","))
    if len(values) > MAX_VALUES:
        raise ConfigError(f"more than {MAX_VALUES} values")
    return values


def _parse_poly(text: str) -> tuple[float, ...]:
    coeffs = tuple(_finite(p) for p in text.split(","))
    if len(coeffs) != 5:
        raise ConfigError("expected 5 comma-separated values c4,c3,c2,c1,c0")
    return coeffs


def _parse_v0(text: str) -> str:
    if text not in ("auto", "none"):
        _finite(text)  # anything else must be a finite number
    return text


def _one_of(options: dict[str, object]) -> Callable[[str], object]:
    def convert(text: str) -> object:
        if text not in options:
            raise ConfigError(f"expected one of {', '.join(options)}, got {text!r}")
        return options[text]

    return convert


def _int_at_least(low: int) -> Callable[[str], int]:
    return _checked(int, lambda value: value >= low, f"at least {low}")


_GRID_RANGE = _checked(int, lambda v: MIN_GRID_POINTS <= v <= MAX_GRID_POINTS,
                       f"in [{MIN_GRID_POINTS}, {MAX_GRID_POINTS}]")
# a _BOOL setting is a flag without a value; a config file says true or false
_BOOL = _one_of({"true": True, "false": False})
COMMANDS = SOLVE, SWEEP, RULES, TABLE, PHASE = (
    "solve", "sweep", "validate-rules", "table", "phase-space")
_VALUES = "value, comma list or start:stop:step"
# the states of the largest solve of each table that reads --n-basis
# (table 1 sets its own basis sizes)
TABLE_STATES = {2: 6, 3: 11, 4: 8, 5: 6}


@dataclass(frozen=True)
class Setting:
    """One setting: flag `--name` (with '-' for '_'), config-file key `name`."""

    convert: Callable[[str], object]
    default: object
    commands: tuple[str, ...]
    help: str | None = None


SETTINGS: dict[str, Setting] = {
    "alpha": Setting(_finite, 1.0, (SOLVE, SWEEP, PHASE)),
    "beta": Setting(parse_values, (20.0,), (SOLVE, SWEEP, RULES, PHASE), _VALUES),
    "gamma": Setting(parse_values, (0.0,), (SOLVE, SWEEP, RULES, PHASE), _VALUES),
    "v0": Setting(_parse_v0, "auto", (SOLVE, SWEEP, PHASE),
                  "'auto' (shift minimum to zero), 'none' or number"),
    "n_basis": Setting(_checked(int, lambda v: 4 <= v <= MAX_N_BASIS, f"in [4, {MAX_N_BASIS}]"),
                       DEFAULT_N_BASIS, COMMANDS),
    "states": Setting(_int_at_least(1), DEFAULT_N_STATES, (SOLVE, SWEEP, RULES, PHASE)),
    "grid_points": Setting(lambda text: grid_intervals(_GRID_RANGE(text)), DEFAULT_GRID_POINTS,
                           (SOLVE, SWEEP, RULES, TABLE)),  # rounded, so the key is the grids' count
    "rel_tol": Setting(_checked(_finite, lambda v: v > 0.0, "positive"), DEGENERACY_REL_TOL,
                       (RULES,)),
    "rho_floor": Setting(_checked(_finite, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
                         DEFAULT_RHO_FLOOR, (SOLVE, SWEEP)),
    "outdir": Setting(Path, Path("."), COMMANDS),
    "format": Setting(_one_of({"csv": "csv", "json": "json"}), "csv", (SOLVE, SWEEP),
                      "csv or json"),
    "poly": Setting(_parse_poly, None, (SOLVE,), "explicit coefficients c4,c3,c2,c1,c0"),
    "workers": Setting(_checked(_int_at_least(0), lambda v: v <= MAX_WORKERS,
                                f"at most {MAX_WORKERS}"),
                       0, (SWEEP,), "worker processes (0: one per CPU)"),
    "no_cache": Setting(_BOOL, False, (SWEEP,)),
    "cache_dir": Setting(str, None, (SWEEP,)),
    "alphas": Setting(parse_values, (1.0,), (RULES,), "comma list of alpha values"),
    "contours": Setting(_BOOL, False, (PHASE,), "also export sampled lobe contours"),
}


def read_config_file(path: Path, command: str) -> dict[str, tuple[str, str]]:
    """Flat key=value lines; '#' starts a comment.  Returns each key's
    source (file, line and key) and text.  Any setting that `command`
    reads may be a key, once; any other key is an error here.  The values
    are converted and checked by `build_config`, as a flag's are."""
    try:
        text = path.read_text(encoding="utf-8-sig")  # a leading byte-order mark is not text
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    entries: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{path}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().replace("-", "_")
        setting = SETTINGS.get(key)
        if setting is None:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if command not in setting.commands:
            raise ConfigError(f"{where}: {command} does not read {key!r}")
        if key in entries:
            raise ConfigError(f"{entries[key][0]} is set again at line {lineno}")
        entries[key] = (f"{where}: {key}", value.strip())
    return entries


def build_config(args: argparse.Namespace) -> argparse.Namespace:
    """The settings that `args.command` reads: defaults, then the config
    file, then flags (flags win).  `given` names those set by either.

    Each value is converted and range-checked here, and the largest solve
    the command makes and the points it plans are checked against the states
    that `n_basis` certifies and MAX_POINTS, so that a configuration the
    solver would reject or could not plan exits 2 before any solve."""
    names = [name for name, s in SETTINGS.items() if args.command in s.commands]
    texts = read_config_file(Path(args.config), args.command) if args.config else {}
    for name in names:
        if getattr(args, name) is not None:
            texts[name] = ("--" + name.replace("_", "-"), getattr(args, name))
    cfg = argparse.Namespace(**vars(args), given=frozenset(texts))
    for name in names:
        setattr(cfg, name, SETTINGS[name].default)
    for name, (source, text) in texts.items():
        try:
            setattr(cfg, name, SETTINGS[name].convert(text))
        except ValueError as exc:  # malformed numbers in flags/config files
            raise ConfigError(f"{source}: {exc}") from exc
    certified = certified_states(cfg.n_basis)
    limit = f"exceeds the {certified} states certified converged at n_basis={cfg.n_basis}"
    if args.command == TABLE and TABLE_STATES.get(args.number, 0) > certified:
        raise ConfigError(f"table {args.number} solves {TABLE_STATES[args.number]} states, "
                          f"which {limit}")
    # validate-rules solves only with a gamma check, and then also the top
    # state's pair partner
    partner = args.command == RULES
    if "states" in names and (not partner or "gamma" in cfg.given):
        if cfg.states + partner > certified:
            solved = f" with a gamma check solves {cfg.states + 1} states, which" if partner else ""
            raise ConfigError(f"states={cfg.states}{solved} {limit}")
    if args.command == SWEEP or partner and "gamma" in cfg.given:
        # a sweep solves each distinct point once, validate-rules each given one
        name, outer = ("alphas", cfg.alphas) if partner else ("betas", set(cfg.beta))
        gammas = cfg.gamma if partner else set(cfg.gamma)
        if len(outer) * len(gammas) > MAX_POINTS:
            raise ConfigError(f"{len(outer)} {name} times {len(gammas)} gammas make "
                              f"{len(outer) * len(gammas)} points, more than the {MAX_POINTS} "
                              "a command may plan")
    return cfg


def single(cfg: argparse.Namespace, name: str) -> float:
    """The value of a beta or gamma setting of a command that takes one point."""
    values = getattr(cfg, name)
    if len(values) != 1:
        raise ConfigError(f"{cfg.command} takes a single {name} value, got {len(values)}")
    return values[0]


@dataclass(frozen=True)
class PointSettings:
    """Every setting besides the potential that changes a point's records.

    The cache key hashes every field, and `point_records` passes every
    field to `state_reports` by name, so a field is either both keyed and
    applied, or the call fails.
    """

    n_basis: int
    n_states: int
    grid_points: int
    rho_floor: float


# ---------------------------------------------------------------- records


def resolve_potential(alpha: float, beta: float, gamma: float, v0: str) -> QuarticPotential:
    """Well-parameter potential with the requested zero-point convention.

    v0='auto' shifts the global minimum to zero (the convention under which
    the benchmark tables report positive energies); 'none' leaves it at 0.
    """
    pot = QuarticPotential.from_well_params(alpha, beta, gamma)
    if v0 == "none":
        return pot
    if v0 == "auto":
        return pot.shifted(-critical_points(pot).global_minimum[1])
    return pot.shifted(float(v0))


def record(
    alpha: float | str, beta: float | str, gamma: float | str,
    rep: StateReport | None = None, error: str = "",
) -> dict[str, str]:
    """One row; every other column is the report's attribute of that name,
    and a blank cell without a report (the error row of a failed point).

    A point parameter given as "" (a polynomial potential) is a blank cell.
    """
    point = {"alpha": alpha, "beta": beta, "gamma": gamma, "error": error.replace("\n", " ")}
    return {col: _token(point[col] if col in point else "" if rep is None else getattr(rep, col))
            for col in CSV_COLUMNS}


def point_records(
    alpha: float | str, beta: float | str, gamma: float | str, pot: QuarticPotential,
    settings: PointSettings,
) -> list[dict[str, str]]:
    """All per-state records of one parameter point (raises on failure)."""
    from .report import state_reports

    return [record(alpha, beta, gamma, rep) for rep in state_reports(pot, **asdict(settings))]


def _sweep_worker(payload: tuple) -> list[dict[str, str]]:
    """A point's records, or its error row."""
    try:
        return point_records(*payload)
    except FAILURES as exc:
        return [record(*payload[:3], error=str(exc))]


# ---------------------------------------------------------------- cache


@functools.cache
def _sha256_constructor() -> Callable:
    """CPython's built-in SHA-256 (`_sha2` from 3.12, `_sha256` before),
    which, unlike hashlib's, maps no OpenSSL; hashlib's where neither is
    built.  Resolved once: a failed import searches sys.path again."""
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256


def _sha256(text: str) -> str:
    """The hex SHA-256 of `text`, UTF-8 encoded: the cache's one digest."""
    return _sha256_constructor()(text.encode()).hexdigest()


def cache_key(pot: QuarticPotential, settings: PointSettings) -> str:
    """Content hash of everything a point's records depend on."""
    fields = {
        name: value.hex() if isinstance(value, float) else value
        for name, value in asdict(settings).items()
    }
    payload = json.dumps(
        {
            "schema": SCHEMA_VERSION,
            "revision": RECORD_REVISION,
            "coeffs": [c.hex() for c in pot.coefficients],
            **fields,
        },
        sort_keys=True,
    )
    return _sha256(payload)[:16]


def cache_load(cache_dir: Path, key: str) -> list[dict[str, str]] | None:
    """The records stored under `key`, or None if the entry is missing,
    unreadable, fails its checksum or holds anything but a non-empty list of
    records of string cells in CSV_COLUMNS (the key itself hashes the schema)."""
    path = cache_dir / f"{key}.json"
    try:
        body, checksum_line = path.read_text(encoding="utf-8").rsplit("\n", 1)
        if checksum_line.strip() != f"sha256:{_sha256(body)}":
            return None
        doc = json.loads(body)
    except (OSError, ValueError):
        return None
    records = doc.get("records") if isinstance(doc, dict) else None
    if isinstance(records, list) and records and all(
        isinstance(rec, dict) and rec.keys() == _COLUMN_SET
        and all(isinstance(v, str) for v in rec.values())
        for rec in records
    ):
        return records
    return None


def _write_atomic(path: Path, write: Callable[[TextIO], object]) -> None:
    """Write `path` through `write(fh)`: to a per-process temp file beside
    it (its directory made), renamed into place once `write` returns, so a
    reader sees the old file or the whole new one; the temp file is removed
    whatever `write` raises."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def cache_store(cache_dir: Path, key: str, records: list[dict[str, str]]) -> None:
    """Store `records` under `key`, checksum line last, atomically."""
    body = json.dumps({"records": records}, sort_keys=True)
    _write_atomic(cache_dir / f"{key}.json", lambda fh: fh.write(f"{body}\nsha256:{_sha256(body)}"))


# ---------------------------------------------------------------- writers


def _write_file(path: Path, write: Callable[[TextIO], object]) -> None:
    """Write one output file atomically through `write(fh)` and print its path."""
    _write_atomic(path, write)
    print(path)


def write_csv(path: Path, rows: Iterable[Iterable[object]]) -> None:
    """The one CSV writer: the schema line, then a line of tokens per row
    (header first), each row written as it is drawn from `rows`."""
    def write(fh: TextIO) -> None:
        fh.write(f"# schema {SCHEMA_VERSION}\n")
        csv.writer(fh, lineterminator="\n").writerows([_token(v) for v in row] for row in rows)

    _write_file(path, write)


def _json_cell(col: str, token: str) -> str:
    if col in _STR_COLUMNS:
        return json.dumps(token)
    return token or "null"  # int/float/bool tokens are already valid JSON


def _json_value(value: object) -> object:
    """`value` with every scalar but an int or bool as its token, and every
    tuple as a list."""
    if isinstance(value, dict):
        return {key: _json_value(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return value if isinstance(value, int) else _token(value)  # bool is an int


def write_records(path: Path, records: Iterable[dict[str, str]], fmt: str) -> None:
    """The records as CSV or JSON, each written as it is drawn from `records`."""
    if fmt == "csv":
        write_csv(path, itertools.chain([CSV_COLUMNS],
                                        ([rec[col] for col in CSV_COLUMNS] for rec in records)))
        return

    def write(fh: TextIO) -> None:
        fh.write('{\n"schema": "%s",\n"records": [\n' % SCHEMA_VERSION)
        sep = ""
        for rec in records:
            fh.write(sep + "{" + ", ".join(f'"{col}": {_json_cell(col, rec[col])}'
                                           for col in CSV_COLUMNS) + "}")
            sep = ",\n"
        fh.write("\n]\n}\n")

    _write_file(path, write)


# ---------------------------------------------------------------- commands


def cmd_solve(cfg: argparse.Namespace) -> int:
    """single potential, full per-state report"""
    point = (cfg.alpha, single(cfg, "beta"), single(cfg, "gamma"))
    if cfg.poly is None:
        pot = resolve_potential(*point, cfg.v0)
    else:
        clash = [name for name in ("alpha", "beta", "gamma", "v0") if name in cfg.given]
        if clash:
            raise ConfigError(f"poly sets the potential itself; drop {', '.join(clash)}")
        pot = QuarticPotential(*cfg.poly)
        point = ("", "", "")  # no well parameters: blank cells
    settings = PointSettings(cfg.n_basis, cfg.states, cfg.grid_points, cfg.rho_floor)
    records = point_records(*point, pot, settings)
    write_records(cfg.outdir / f"solve.{cfg.format}", records, cfg.format)
    return EXIT_OK


def _solved(payloads: list[tuple], workers: int) -> Iterator[list[dict[str, str]]]:
    """Each payload's records, or its error row, in payload order: from a
    pool of `workers` processes, or in this process for one."""
    if workers <= 1:
        yield from map(_sweep_worker, payloads)
        return
    # the per-point modules, numpy with them: imported before the pool
    # starts, they load once and forked workers inherit them.  Imported
    # before multiprocessing, they leave the parent 0.4 MB less peak RSS.
    from . import report  # noqa: F401

    # imported here: it loads multiprocessing, which nothing else needs
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_sweep_worker, payloads)


def cmd_sweep(cfg: argparse.Namespace) -> int:
    """cartesian (beta, gamma) sweep with cache

    Points whose rows are known without a solve (a potential that fails, a
    cache hit) are sorted out first, so that a pool starts with every point
    to solve.  The rows are then written through one `write_records` in
    point order, each point's as soon as it is done, so the sweep holds one
    point's rows however many it solves; the output file appears whole at
    the end.  A solved point's cache entry is written right after its rows,
    before the next point is solved.  After a cache write fails no other is
    tried; the rows keep coming and the sweep ends with that error.
    """
    points = sorted({(b, g) for b in cfg.beta for g in cfg.gamma})
    cache_dir = cfg.cache_dir if cfg.cache_dir is not None else os.environ.get(CACHE_DIR_ENV)
    cache_dir = Path(cache_dir) if cache_dir else cfg.outdir / "cache"
    settings = PointSettings(cfg.n_basis, cfg.states, cfg.grid_points, cfg.rho_floor)
    # per point, in order: its rows where they are known before any solve (a
    # potential that fails, a cache hit), else None, and its cache key
    plan: list[tuple[list[dict[str, str]] | None, str | None]] = []
    payloads = []
    for beta, gamma in points:
        try:
            pot = resolve_potential(cfg.alpha, beta, gamma, cfg.v0)
        except FAILURES as exc:
            plan.append(([record(cfg.alpha, beta, gamma, error=str(exc))], None))
            continue
        key = None if cfg.no_cache else cache_key(pot, settings)
        plan.append((None if key is None else cache_load(cache_dir, key), key))
        if plan[-1][0] is None:
            payloads.append((cfg.alpha, beta, gamma, pot, settings))
    workers = min(cfg.workers or os.cpu_count() or 1, len(payloads))
    any_ok = False
    store_error: OSError | None = None

    def rows() -> Iterator[dict[str, str]]:
        """Each point's rows, then a solved point's cache entry."""
        nonlocal any_ok, store_error
        solved = _solved(payloads, workers)
        try:
            for recs, key in plan:
                fresh = recs is None
                if fresh:
                    recs = next(solved)
                yield from recs
                if recs[0]["error"]:
                    continue
                any_ok = True
                if fresh and key is not None and store_error is None:
                    try:
                        cache_store(cache_dir, key, recs)
                    except OSError as exc:
                        store_error = exc
        finally:
            solved.close()  # shuts a pool down

    write_records(cfg.outdir / f"sweep.{cfg.format}", rows(), cfg.format)
    if store_error is not None:
        raise store_error
    if not any_ok:
        raise SolverError("every point failed (see the error column)")
    return EXIT_OK


def cmd_validate_rules(cfg: argparse.Namespace) -> int:
    """check the k-rules at k = gamma / delta_gamma, delta_gamma = 2 sqrt(alpha)"""
    # only a gamma check solves, and only it reads beta; beta and then every
    # alpha are checked here, before any solve
    beta = single(cfg, "beta") if "gamma" in cfg.given else None
    blocks = [{"alpha": alpha, "delta_gamma": delta_gamma(alpha)} for alpha in cfg.alphas]
    if "gamma" in cfg.given:
        from .rules import validate_rules

        for block in blocks:
            report = validate_rules(block["alpha"], beta, cfg.gamma, n_max=cfg.states - 1,
                                    n_basis=cfg.n_basis, grid_points=cfg.grid_points,
                                    rel_tol=cfg.rel_tol)
            points = [{**asdict(p), "participates": p.participates, "pairs_match": p.pairs_match,
                       "occupancy_agreement": p.occupancy_agreement} for p in report.points]
            block |= {"beta": beta, "occupancy_agreement": report.occupancy_agreement,
                      "pairs_agreement": report.pairs_agreement, "points": points}
    doc = json.dumps(_json_value({"schema": "dwell-rules-v2", "results": blocks}),
                     indent=1, sort_keys=True)
    _write_file(cfg.outdir / "validate_rules.json", lambda fh: fh.write(doc + "\n"))
    return EXIT_OK


def _table_rows(table: int, cfg: argparse.Namespace) -> Iterator[list[object]]:
    """The header, then the rows of one benchmark table."""
    from .report import state_reports
    from .spectrum import solve

    if table == 1:
        yield ["n_basis", "e0", "e1", "e2", "e3"]
        v2 = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
        for n_basis in (25, 50, 75, 100):
            spec = solve(v2, n_basis=n_basis, n_states=4)
            yield [n_basis, *(spec.energy(i) for i in range(4))]
    elif table == 2:
        yield ["pair", "gamma", "beta", "gap"]
        # the pair (lo, lo + 1) at gamma = 2 lo, where k = lo
        for lo in range(1, TABLE_STATES[2] - 1):
            gamma, hi = 2.0 * lo, lo + 1
            for beta in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
                pot = QuarticPotential.from_well_params(1.0, beta, gamma)
                spec = solve(pot, n_basis=cfg.n_basis, n_states=hi + 1)
                yield [f"{lo}-{hi}", gamma, beta, abs(spec.energy(hi) - spec.energy(lo))]
    elif table == 3:
        yield ["gamma", "n", "energy"]
        for gamma in (0.0, 2.0, 4.0, 6.0, 8.0):
            pot = resolve_potential(1.0, 30.0, gamma, "auto")
            spec = solve(pot, n_basis=cfg.n_basis, n_states=TABLE_STATES[3])
            for n in range(TABLE_STATES[3]):
                yield [gamma, n, spec.energy(n)]
    elif table == 4:
        yield ["beta", "gamma", "n", "energy"]
        for beta, gamma in ((11.0, 2.0), (15.0, 8.0), (12.0, 6.0), (14.0, 10.0), (20.0, 12.0)):
            pot = resolve_potential(1.0, beta, gamma, "auto")
            spec = solve(pot, n_basis=cfg.n_basis, n_states=TABLE_STATES[4])
            for n in range(TABLE_STATES[4]):
                yield [beta, gamma, n, spec.energy(n)]
    else:
        yield ["k", "n", "well", "effective_nodes"]
        for gamma in (1.0, 3.0, 5.0, 7.0):
            pot = resolve_potential(1.0, 20.0, gamma, "auto")
            for rep in state_reports(pot, n_basis=cfg.n_basis, n_states=TABLE_STATES[5],
                                     grid_points=cfg.grid_points):
                yield [gamma / 2.0, rep.n, rep.occupancy, rep.effective_nodes]


def cmd_table(cfg: argparse.Namespace) -> int:
    """reproduce a benchmark table (1-5)"""
    write_csv(cfg.outdir / f"table{cfg.number}.csv", _table_rows(cfg.number, cfg))
    return EXIT_OK


def cmd_phase_space(cfg: argparse.Namespace) -> int:
    """actions and lobes per state"""
    import numpy as np

    from .phasespace import area
    from .spectrum import solve

    pot = resolve_potential(cfg.alpha, single(cfg, "beta"), single(cfg, "gamma"), cfg.v0)
    spec = solve(pot, n_basis=cfg.n_basis, n_states=cfg.states)
    lobes = [["n", "energy", "barrier_action", "allowed_action", "lobe_count", "lobe",
              "x_lo", "x_hi"]]
    contours = [["n", "lobe", "x", "p"]]
    for n in range(cfg.states):
        energy = spec.energy(n)
        res = area(pot, energy)
        for j, lobe in enumerate(res.lobes):
            lobes.append([n, energy, res.barrier_action, res.allowed_action,
                          res.lobe_count, j, lobe.x_lo, lobe.x_hi])
            if cfg.contours:  # the upper branch; the closed contour is +/- p
                x = np.linspace(lobe.x_lo, lobe.x_hi, 512)
                p = np.sqrt(np.maximum(energy - pot(x), 0.0))
                contours.extend([n, j, xv, pv] for xv, pv in zip(x, p))
    write_csv(cfg.outdir / "phase_space.csv", lobes)
    if cfg.contours:
        write_csv(cfg.outdir / "phase_space_contours.csv", contours)
    return EXIT_OK


# ---------------------------------------------------------------- parser

RUN = {SOLVE: cmd_solve, SWEEP: cmd_sweep, RULES: cmd_validate_rules,
       TABLE: cmd_table, PHASE: cmd_phase_space}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with a flag for each setting it reads.

    Flags keep their text; `build_config` converts it, so a malformed flag
    and a malformed config-file line fail the same way."""
    parser = argparse.ArgumentParser(
        prog="dwell",
        description="Quartic double-well spectra, information measures and "
        "phase-space analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sp = sub.add_parser(command, help=RUN[command].__doc__.split("\n", 1)[0])
        if command == TABLE:
            sp.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
        sp.add_argument("--config", help="flat key=value config file (flags win)")
        for name, s in SETTINGS.items():
            if command in s.commands:
                switch = {"action": "store_const", "const": "true"} if s.convert is _BOOL else {}
                sp.add_argument("--" + name.replace("_", "-"), help=s.help, **switch)
    return parser


def _join_negative_values(argv: list[str]) -> list[str]:
    """Join each flag with a following value that starts with a minus sign
    (`--gamma -2:2:1` becomes `--gamma=-2:2:1`).  argparse reads such a
    token as an option unless it is one plain negative number; no flag
    starts with a minus and a digit or a point."""
    out: list[str] = []
    for arg in argv:
        if out and re.fullmatch(r"--[a-z][a-z0-9-]*", out[-1]) and re.match(r"-[0-9.]", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    try:
        return RUN[args.command](build_config(args))
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_CONFIG
    except (*FAILURES, OSError) as exc:
        print(f"error: {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER

