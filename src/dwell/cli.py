"""Command-line interface: solves, sweeps, rule validation, benchmark tables
and phase-space export, with byte-deterministic output and an on-disk cache.

Output rows use a fixed column order and 17-significant-digit float
formatting so that identical configurations produce identical bytes.  Sweep
points are cached one file per point, keyed by a content hash of the exact
coefficients, the point settings and the record revision; each cache file
is written atomically, carries a checksum line and is recomputed when it
does not verify.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path

from .phasespace import area
from .potential import QuarticPotential, critical_points
from .report import StateReport, state_reports
from .rules import estimate_delta_gamma, validate_rules
from .spectrum import SolverError, certified_states, solve

__all__ = ["main", "JobConfig", "ConfigError", "SCHEMA_VERSION", "CSV_COLUMNS"]

SCHEMA_VERSION = "dwell-result-v1"
# part of every cache key: bump whenever the arithmetic behind a cached record
# changes (solver or per-state layer), so that records computed by older code
# are not served
RECORD_REVISION = "batched-2"
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
_STR_COLUMNS = {"occupancy", "error"}
_BOOL_COLUMNS = {"converged_flag"}  # remaining columns are numeric tokens

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3


class ConfigError(ValueError):
    """Invalid configuration (bad flag values, empty ranges, ...)."""


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


# ---------------------------------------------------------------- config


@dataclass(frozen=True)
class PointSettings:
    """Every setting besides the potential that changes a point's records.

    `point_records` reads its settings from here only and the cache key
    hashes every field, so a setting added here is keyed automatically.
    """

    n_basis: int
    n_states: int
    grid_points: int
    rho_floor: float


@dataclass
class JobConfig:
    alpha: float = 1.0
    betas: tuple[float, ...] = (20.0,)
    gammas: tuple[float, ...] = (0.0,)
    poly: tuple[float, float, float, float, float] | None = None
    v0: str = "auto"  # "auto" | "none" | numeric string
    n_basis: int = 100
    n_states: int = 8
    grid_points: int = 4096
    rel_tol: float = 1e-6
    rho_floor: float = 0.01
    outdir: Path = field(default_factory=lambda: Path("."))
    fmt: str = "csv"
    workers: int = 0  # 0 = auto
    no_cache: bool = False
    cache_dir: Path | None = None
    gammas_given: bool = False  # gamma set by a flag or the config file

    @property
    def point_settings(self) -> PointSettings:
        return PointSettings(self.n_basis, self.n_states, self.grid_points, self.rho_floor)

    def validate(self) -> None:
        if not self.betas or not self.gammas:
            raise ConfigError("beta/gamma ranges must be non-empty")
        if self.n_states < 1:
            raise ConfigError("states must be positive")
        if self.n_states > certified_states(self.n_basis):
            raise ConfigError(
                f"states={self.n_states} exceeds the {certified_states(self.n_basis)} "
                f"states certified converged at n_basis={self.n_basis}"
            )
        if self.grid_points < 512:
            raise ConfigError("grid-points must be at least 512")
        if self.fmt not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.fmt!r}")
        if self.v0 not in ("auto", "none"):
            try:
                float(self.v0)
            except ValueError:
                raise ConfigError(f"v0 must be 'auto', 'none' or a number, got {self.v0!r}")


def parse_values(text: str) -> tuple[float, ...]:
    """Parse '3', '1,3,5' or 'start:stop:step' (inclusive of stop)."""
    text = text.strip()
    if not text:
        return ()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"range must be start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if step <= 0 or stop < start:
            raise ConfigError(f"bad range {text!r}")
        count = int((stop - start) / step + 1e-9) + 1
        return tuple(start + i * step for i in range(count))
    return tuple(float(p) for p in text.split(","))


def read_config_file(path: Path) -> dict[str, str]:
    """Flat key=value lines; '#' starts a comment."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def build_config(args: argparse.Namespace) -> JobConfig:
    """Merge defaults, config file, then explicit flags (flags win)."""
    cfg = JobConfig()
    file_entries: dict[str, str] = {}
    if getattr(args, "config", None):
        file_entries = read_config_file(Path(args.config))

    def pick(flag_name: str, file_key: str, convert, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return convert(flag) if isinstance(flag, str) else flag
        if file_key in file_entries:
            return convert(file_entries[file_key])
        return default

    cfg.alpha = pick("alpha", "alpha", float, cfg.alpha)
    cfg.betas = pick("beta", "beta", parse_values, cfg.betas)
    cfg.gammas = pick("gamma", "gamma", parse_values, cfg.gammas)
    cfg.gammas_given = getattr(args, "gamma", None) is not None or "gamma" in file_entries
    if getattr(args, "poly", None) is not None:
        coeffs = tuple(float(p) for p in args.poly.split(","))
        if len(coeffs) != 5:
            raise ConfigError("--poly expects 5 comma-separated values c4,c3,c2,c1,c0")
        cfg.poly = coeffs
    elif "poly" in file_entries:
        coeffs = tuple(float(p) for p in file_entries["poly"].split(","))
        if len(coeffs) != 5:
            raise ConfigError("poly expects 5 comma-separated values c4,c3,c2,c1,c0")
        cfg.poly = coeffs
    cfg.v0 = str(pick("v0", "v0", str, cfg.v0))
    cfg.n_basis = pick("n_basis", "n_basis", int, cfg.n_basis)
    cfg.n_states = pick("states", "states", int, cfg.n_states)
    cfg.grid_points = pick("grid_points", "grid_points", int, cfg.grid_points)
    cfg.rel_tol = pick("rel_tol", "rel_tol", float, cfg.rel_tol)
    cfg.rho_floor = pick("rho_floor", "rho_floor", float, cfg.rho_floor)
    cfg.outdir = Path(pick("outdir", "outdir", str, str(cfg.outdir)))
    cfg.fmt = pick("fmt", "format", str, cfg.fmt)
    cfg.workers = pick("workers", "workers", int, cfg.workers)
    if getattr(args, "no_cache", False) or file_entries.get("no_cache") == "true":
        cfg.no_cache = True
    cache_dir = pick("cache_dir", "cache_dir", str, None)
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV)
    cfg.cache_dir = Path(cache_dir) if cache_dir else None
    cfg.validate()
    return cfg


# ---------------------------------------------------------------- records


def resolve_potential(
    alpha: float, beta: float, gamma: float, v0: str
) -> QuarticPotential:
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


def record_from_report(
    alpha: float, beta: float, gamma: float, rep: StateReport
) -> dict[str, str]:
    m = rep.measures
    values = {
        "alpha": fmt_float(alpha),
        "beta": fmt_float(beta),
        "gamma": fmt_float(gamma),
        "n": str(rep.n),
        "energy": fmt_float(rep.energy),
        "mean_x": fmt_float(rep.mean_x),
        "delta_x": fmt_float(rep.delta_x),
        "delta_p": fmt_float(rep.delta_p),
        "uncertainty_product": fmt_float(rep.uncertainty_product),
        "p_well_I": fmt_float(rep.p_well_I),
        "p_well_II": fmt_float(rep.p_well_II),
        "occupancy": rep.occupancy.value,
        "total_nodes": str(rep.total_nodes),
        "effective_nodes": str(rep.effective_nodes),
        "s_x": fmt_float(m.s_x),
        "s_p": fmt_float(m.s_p),
        "s_total": fmt_float(m.s_total),
        "i_x": fmt_float(m.i_x),
        "i_p": fmt_float(m.i_p),
        "i_product": fmt_float(m.i_product),
        "e_x": fmt_float(m.e_x),
        "e_p": fmt_float(m.e_p),
        "e_product": fmt_float(m.e_product),
        "os_x": fmt_float(m.os_x),
        "os_p": fmt_float(m.os_p),
        "os_total": fmt_float(m.os_total),
        "barrier_action": fmt_float(rep.barrier_action),
        "allowed_action": fmt_float(rep.allowed_action),
        "lobe_count": str(rep.lobe_count),
        "converged_flag": "true" if rep.converged else "false",
        "error": "",
    }
    return values


def error_record(alpha: float, beta: float, gamma: float, message: str) -> dict[str, str]:
    rec = {col: "" for col in CSV_COLUMNS}
    rec.update(
        alpha=fmt_float(alpha),
        beta=fmt_float(beta),
        gamma=fmt_float(gamma),
        error=message.replace("\n", " "),
    )
    return rec


def point_records(
    alpha: float,
    beta: float,
    gamma: float,
    pot: QuarticPotential,
    settings: PointSettings,
) -> list[dict[str, str]]:
    """All per-state records of one parameter point (raises on failure)."""
    reports = state_reports(
        pot, n_basis=settings.n_basis, n_states=settings.n_states,
        grid_points=settings.grid_points, rho_floor=settings.rho_floor,
    )
    return [record_from_report(alpha, beta, gamma, rep) for rep in reports]


def _sweep_worker(payload: tuple) -> tuple[list[dict[str, str]] | None, str]:
    try:
        return point_records(*payload), ""
    except (SolverError, ValueError) as exc:
        return None, str(exc)


# ---------------------------------------------------------------- cache


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
            "coeffs": [c.hex() for c in (pot.c4, pot.c3, pot.c2, pot.c1, pot.c0)],
            **fields,
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def cache_load(cache_dir: Path, key: str) -> list[dict[str, str]] | None:
    path = cache_dir / f"{key}.json"
    try:
        body, checksum_line = path.read_text(encoding="utf-8").rsplit("\n", 1)
    except (FileNotFoundError, ValueError):
        return None
    digest = hashlib.sha256(body.encode()).hexdigest()
    if checksum_line.strip() != f"sha256:{digest}":
        return None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        return None
    if doc.get("schema") != SCHEMA_VERSION:
        return None
    return doc["records"]


def cache_store(cache_dir: Path, key: str, records: list[dict[str, str]]) -> None:
    """Write via a per-process temp file and an atomic rename, so that a
    concurrent reader sees either the old file or the complete new one."""
    cache_dir.mkdir(parents=True, exist_ok=True)
    body = json.dumps({"schema": SCHEMA_VERSION, "records": records}, sort_keys=True)
    digest = hashlib.sha256(body.encode()).hexdigest()
    tmp = cache_dir / f".{key}.{os.getpid()}.tmp"
    try:
        tmp.write_text(f"{body}\nsha256:{digest}", encoding="utf-8")
        os.replace(tmp, cache_dir / f"{key}.json")
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------- writers


def _csv_cell(value: str) -> str:
    if "," in value or '"' in value or "\n" in value:
        return '"' + value.replace('"', '""') + '"'
    return value


def records_to_csv(records: list[dict[str, str]]) -> str:
    lines = [f"# schema {SCHEMA_VERSION}", ",".join(CSV_COLUMNS)]
    for rec in records:
        lines.append(",".join(_csv_cell(rec.get(col, "")) for col in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def _json_cell(col: str, value: str) -> str:
    if value == "" and col not in _STR_COLUMNS:
        return "null"
    if col in _STR_COLUMNS:
        return json.dumps(value)
    if col in _BOOL_COLUMNS:
        return value
    return value  # int/float tokens are already valid JSON


def records_to_json(records: list[dict[str, str]]) -> str:
    rows = []
    for rec in records:
        cells = ", ".join(
            f"\"{col}\": {_json_cell(col, rec.get(col, ''))}" for col in CSV_COLUMNS
        )
        rows.append("{" + cells + "}")
    body = ",\n".join(rows)
    return (
        "{\n\"schema\": \"%s\",\n\"records\": [\n%s\n]\n}\n" % (SCHEMA_VERSION, body)
    )


def write_records(path: Path, records: list[dict[str, str]], fmt: str) -> None:
    text = records_to_csv(records) if fmt == "csv" else records_to_json(records)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


# ---------------------------------------------------------------- commands


def cmd_solve(cfg: JobConfig) -> int:
    if cfg.poly is None and (len(cfg.betas) != 1 or len(cfg.gammas) != 1):
        raise ConfigError("solve expects single beta and gamma values (use sweep)")
    beta = cfg.betas[0]
    gamma = cfg.gammas[0]
    try:
        if cfg.poly is not None:
            pot = QuarticPotential(*cfg.poly)
        else:
            pot = resolve_potential(cfg.alpha, beta, gamma, cfg.v0)
        records = point_records(cfg.alpha, beta, gamma, pot, cfg.point_settings)
    except (SolverError, ValueError) as exc:
        print(f"error: solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    out = cfg.outdir / f"solve.{cfg.fmt}"
    write_records(out, records, cfg.fmt)
    print(out)
    return EXIT_OK


def cmd_sweep(cfg: JobConfig) -> int:
    points = [(b, g) for b in cfg.betas for g in cfg.gammas]
    cache_dir = cfg.cache_dir if cfg.cache_dir is not None else cfg.outdir / "cache"
    settings = cfg.point_settings
    results: dict[tuple[float, float], list[dict[str, str]]] = {}
    failures = 0
    pending = []
    for beta, gamma in points:
        try:
            pot = resolve_potential(cfg.alpha, beta, gamma, cfg.v0)
        except (SolverError, ValueError) as exc:
            results[(beta, gamma)] = [error_record(cfg.alpha, beta, gamma, str(exc))]
            failures += 1
            continue
        key = cache_key(pot, settings)
        cached = None if cfg.no_cache else cache_load(cache_dir, key)
        if cached is not None:
            results[(beta, gamma)] = cached
        else:
            pending.append((beta, gamma, pot, key))

    payloads = [(cfg.alpha, beta, gamma, pot, settings) for beta, gamma, pot, _ in pending]
    workers = cfg.workers if cfg.workers > 0 else min(len(pending) or 1, os.cpu_count() or 1)
    if workers > 1 and len(pending) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_sweep_worker, payloads))
    else:
        outcomes = [_sweep_worker(p) for p in payloads]

    for (beta, gamma, _, key), (recs, err) in zip(pending, outcomes):
        if recs is None:
            results[(beta, gamma)] = [error_record(cfg.alpha, beta, gamma, err)]
            failures += 1
        else:
            results[(beta, gamma)] = recs
            if not cfg.no_cache:
                cache_store(cache_dir, key, recs)

    ordered: list[dict[str, str]] = []
    for beta, gamma in sorted(points):
        ordered.extend(results[(beta, gamma)])
    out = cfg.outdir / f"sweep.{cfg.fmt}"
    write_records(out, ordered, cfg.fmt)
    print(out)
    if failures == len(points):
        print("error: all sweep points failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


def cmd_validate_rules(cfg: JobConfig, alphas: tuple[float, ...]) -> int:
    blocks = []
    for alpha in alphas:
        est = estimate_delta_gamma(alpha, n_basis=cfg.n_basis)
        block = {
            "alpha": fmt_float(alpha),
            "delta_gamma": fmt_float(est.delta_gamma),
            "uncertainty": fmt_float(est.uncertainty),
            "transitions": [fmt_float(t) for t in est.transitions],
            "beta_used": fmt_float(est.beta_used),
        }
        if cfg.gammas_given:
            report = validate_rules(
                alpha, cfg.betas[0], cfg.gammas, n_max=cfg.n_states - 1,
                delta_gamma=est.delta_gamma, n_basis=cfg.n_basis,
                grid_points=cfg.grid_points, rel_tol=cfg.rel_tol,
            )
            block["beta"] = fmt_float(cfg.betas[0])
            block["occupancy_agreement"] = fmt_float(report.occupancy_agreement)
            block["pairs_agreement"] = fmt_float(report.pairs_agreement)
            block["points"] = [
                {
                    "gamma": fmt_float(p.gamma),
                    "k": fmt_float(p.k),
                    "participates": p.participates,
                    "pairs_match": p.pairs_match,
                    "occupancy_agreement": fmt_float(p.occupancy_agreement),
                    "predicted_pairs": [list(q) for q in p.predicted_pairs],
                    "detected_pairs": [list(q) for q in p.detected_pairs],
                    "occupancy_predicted": [o.value for o in p.occupancy_predicted],
                    "occupancy_measured": [o.value for o in p.occupancy_measured],
                }
                for p in report.points
            ]
        blocks.append(block)
    out = cfg.outdir / "validate_rules.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    doc = {"schema": "dwell-rules-v1", "results": blocks}
    with open(out, "w", encoding="utf-8", newline="") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return EXIT_OK


def _table_records(table: int, cfg: JobConfig) -> tuple[list[str], list[list[str]]]:
    if table == 1:
        v2 = QuarticPotential(0.01, -0.0075, -0.0025, 0.0, 0.0)
        header = ["n_basis", "e0", "e1", "e2", "e3"]
        rows = []
        for n_basis in (25, 50, 75, 100):
            spec = solve(v2, n_basis=n_basis, n_states=4)
            rows.append([str(n_basis)] + [fmt_float(spec.energy(i)) for i in range(4)])
        return header, rows
    if table == 2:
        header = ["pair", "gamma", "beta", "gap"]
        rows = []
        for gamma, (lo, hi) in ((2.0, (1, 2)), (4.0, (2, 3)), (6.0, (3, 4)), (8.0, (4, 5))):
            for beta in (5.0, 10.0, 15.0, 20.0, 25.0, 30.0):
                pot = QuarticPotential.from_well_params(1.0, beta, gamma)
                spec = solve(pot, n_basis=cfg.n_basis, n_states=hi + 1)
                gap = abs(spec.energy(hi) - spec.energy(lo))
                rows.append([f"{lo}-{hi}", fmt_float(gamma), fmt_float(beta), fmt_float(gap)])
        return header, rows
    if table == 3:
        header = ["gamma", "n", "energy"]
        rows = []
        for gamma in (0.0, 2.0, 4.0, 6.0, 8.0):
            pot = resolve_potential(1.0, 30.0, gamma, "auto")
            spec = solve(pot, n_basis=cfg.n_basis, n_states=11)
            for n in range(11):
                rows.append([fmt_float(gamma), str(n), fmt_float(spec.energy(n))])
        return header, rows
    if table == 4:
        header = ["beta", "gamma", "n", "energy"]
        rows = []
        for beta, gamma in ((11.0, 2.0), (15.0, 8.0), (12.0, 6.0), (14.0, 10.0), (20.0, 12.0)):
            pot = resolve_potential(1.0, beta, gamma, "auto")
            spec = solve(pot, n_basis=cfg.n_basis, n_states=8)
            for n in range(8):
                rows.append([fmt_float(beta), fmt_float(gamma), str(n), fmt_float(spec.energy(n))])
        return header, rows
    if table == 5:
        header = ["k", "n", "well", "effective_nodes"]
        rows = []
        for gamma in (1.0, 3.0, 5.0, 7.0):
            pot = resolve_potential(1.0, 20.0, gamma, "auto")
            reports = state_reports(pot, n_basis=cfg.n_basis, n_states=6,
                                    grid_points=cfg.grid_points)
            for rep in reports:
                rows.append([
                    fmt_float(gamma / 2.0), str(rep.n), rep.occupancy.value,
                    str(rep.effective_nodes),
                ])
        return header, rows
    raise ConfigError(f"unknown table {table} (valid: 1-5)")


def cmd_table(cfg: JobConfig, table: int) -> int:
    header, rows = _table_records(table, cfg)
    lines = [f"# schema {SCHEMA_VERSION}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    out = cfg.outdir / f"table{table}.csv"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(out)
    return EXIT_OK


def cmd_phase_space(cfg: JobConfig, contours: bool) -> int:
    beta = cfg.betas[0]
    gamma = cfg.gammas[0]
    pot = resolve_potential(cfg.alpha, beta, gamma, cfg.v0)
    try:
        spec = solve(pot, n_basis=cfg.n_basis, n_states=cfg.n_states)
    except SolverError as exc:
        print(f"error: solve failed: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    lines = [f"# schema {SCHEMA_VERSION}",
             "n,energy,barrier_action,allowed_action,lobe_count,lobe,x_lo,x_hi"]
    contour_lines = [f"# schema {SCHEMA_VERSION}", "n,lobe,x,p"]
    for n in range(cfg.n_states):
        res = area(pot, spec.energy(n))
        for j, lobe in enumerate(res.lobes):
            lines.append(",".join([
                str(n), fmt_float(spec.energy(n)), fmt_float(res.barrier_action),
                fmt_float(res.allowed_action), str(res.lobe_count), str(j),
                fmt_float(lobe.x_lo), fmt_float(lobe.x_hi),
            ]))
            if contours:
                for xv, pv in zip(lobe.x, lobe.p):
                    contour_lines.append(
                        ",".join([str(n), str(j), fmt_float(xv), fmt_float(pv)])
                    )
    cfg.outdir.mkdir(parents=True, exist_ok=True)
    out = cfg.outdir / "phase_space.csv"
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(out)
    if contours:
        cout = cfg.outdir / "phase_space_contours.csv"
        with open(cout, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(contour_lines) + "\n")
        print(cout)
    return EXIT_OK


# ---------------------------------------------------------------- parser


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--config", help="flat key=value config file (flags win)")
    sp.add_argument("--alpha", type=float)
    sp.add_argument("--beta", help="value, comma list or start:stop:step")
    sp.add_argument("--gamma", help="value, comma list or start:stop:step")
    sp.add_argument("--v0", help="'auto' (shift minimum to zero), 'none' or number")
    sp.add_argument("--n-basis", dest="n_basis", type=int)
    sp.add_argument("--states", type=int)
    sp.add_argument("--grid-points", dest="grid_points", type=int)
    sp.add_argument("--rel-tol", dest="rel_tol", type=float)
    sp.add_argument("--rho-floor", dest="rho_floor", type=float)
    sp.add_argument("--outdir")
    sp.add_argument("--format", dest="fmt", choices=("csv", "json"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dwell",
        description="Quartic double-well spectra, information measures and "
        "phase-space analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="single potential, full per-state report")
    _add_common(p_solve)
    p_solve.add_argument("--poly", help="explicit coefficients c4,c3,c2,c1,c0")

    p_sweep = sub.add_parser("sweep", help="cartesian (beta, gamma) sweep with cache")
    _add_common(p_sweep)
    p_sweep.add_argument("--workers", type=int)
    p_sweep.add_argument("--no-cache", action="store_true")
    p_sweep.add_argument("--cache-dir", dest="cache_dir")

    p_rules = sub.add_parser(
        "validate-rules",
        help="estimate delta-gamma per alpha and check the k-rules",
    )
    _add_common(p_rules)
    p_rules.add_argument("--alphas", help="comma list of alpha values")

    p_table = sub.add_parser("table", help="reproduce a benchmark table (1-5)")
    _add_common(p_table)
    p_table.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))

    p_ps = sub.add_parser("phase-space", help="actions and lobes per state")
    _add_common(p_ps)
    p_ps.add_argument("--contours", action="store_true",
                      help="also export sampled lobe contours")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        try:
            cfg = build_config(args)
        except ValueError as exc:  # malformed numbers in flags/config files
            raise ConfigError(str(exc)) from exc
        if args.command == "solve":
            return cmd_solve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        if args.command == "validate-rules":
            alphas = (
                parse_values(args.alphas) if getattr(args, "alphas", None)
                else (cfg.alpha,)
            )
            return cmd_validate_rules(cfg, alphas)
        if args.command == "table":
            return cmd_table(cfg, args.number)
        if args.command == "phase-space":
            return cmd_phase_space(cfg, args.contours)
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), file=sys.stderr, end="")
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
