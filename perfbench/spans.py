"""In-process traced runs of the dwell CLI, and per-layer aggregation.

Run as a script, this is the child process of a traced benchmark run:

    python perfbench/spans.py SPEC.json

SPEC names the CLI argv (with "{outdir}" and "{cache}" placeholders), a
work directory, a time budget in seconds and the path of the result file.  The child imports `dwell.cli` (timing the
import), then runs `dwell.cli.main(argv)` in pairs of passes, one untraced
and one traced, alternating which goes first, until the budget is spent.

For a traced pass every function in LAYER_FUNCTIONS is replaced, in each
`dwell.*` module that holds it, by a wrapper that records a span: name,
start, end, parent span and the parameter point it belongs to.  Patching
every importing module matters: `solve` is called through the names that
`dwell.report`, `dwell.rules` and `dwell.cli` imported, which a patch at the
definition alone would miss.  A function that no longer exists is reported
as absent.  Spans stay in memory and are written with the result.

    python perfbench/spans.py --meta

prints the import time and the BLAS libraries with their effective thread
counts as one JSON line.

The aggregation functions (`pass_metrics`, `layer_shares`) are imported by
run.py.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import inspect
import io
import json
import statistics
import sys
import time
from pathlib import Path

# module -> public functions whose calls are timed
LAYER_FUNCTIONS = {
    "basis": ("optimal_sigma", "assemble_position"),
    "spectrum": ("solve", "solve_energies"),
    "potential": ("turning_points", "critical_points"),
    "wavefunction": (
        "build_grid", "build_momentum_grid", "position_functions",
        "momentum_functions", "count_nodes",
    ),
    "measures": ("uncertainties", "well_occupancy", "info_measures"),
    "phasespace": ("area",),
    "report": ("state_reports",),
    "rules": ("estimate_delta_gamma", "validate_rules", "measured_occupancies"),
    "cli": ("main", "point_records", "cache_load", "cache_store", "write_records"),
}

# functions whose arguments name the parameter point of their subtree
POINT_OF = {
    "cli.point_records": lambda a: f"beta={a['beta']!r},gamma={a['gamma']!r}",
    "cli.cache_load": lambda a: f"key={a['key']}",
    "cli.cache_store": lambda a: f"key={a['key']}",
    "rules.estimate_delta_gamma": lambda a: f"alpha={a['alpha']!r}",
    "rules.measured_occupancies": lambda a: f"coeffs={a['pot'].coefficients!r}",
}


def _count_cache(counts: dict, result) -> None:
    counts["cache_misses"] += result is None


def _count_eigpairs(counts: dict, spec) -> None:
    counts["eigpairs_used"] += spec.n_verified
    counts["eigpairs_computed"] += len(spec.energies)


AFTER = {"cli.cache_load": _count_cache, "spectrum.solve": _count_eigpairs}
COUNTERS = ("cache_misses", "eigpairs_used", "eigpairs_computed")


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, point]
        self.stack: list[tuple[int, str | None]] = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    def _wrap(self, name: str, fn):
        point_of = POINT_OF.get(name)
        after = AFTER.get(name)
        signature = inspect.signature(fn) if point_of else None
        spans, stack, counts = self.spans, self.stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, point = stack[-1] if stack else (-1, None)
            if point_of is not None:
                point = point_of(signature.bind(*args, **kwargs).arguments)
            record = [len(spans), parent, name, 0.0, 0.0, point]
            spans.append(record)
            stack.append((record[0], point))
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(counts, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "dwell" or n.startswith("dwell."))]
        self.absent = []
        for module_name, names in LAYER_FUNCTIONS.items():
            home = sys.modules.get(f"dwell.{module_name}")
            for name in names:
                original = getattr(home, name, None)
                if not callable(original):
                    self.absent.append(f"{module_name}.{name}")
                    continue
                wrapper = self._wrap(f"{module_name}.{name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self.patches.append((module, attr, value))
                            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self.patches):
            setattr(module, attr, value)
        self.patches.clear()


# ---------------------------------------------------------------- BLAS


def blas_libraries() -> list[dict]:
    """Loaded OpenBLAS-family libraries with version and thread count."""
    paths = set()
    for line in Path("/proc/self/maps").read_text().splitlines():
        path = line.split()[-1]
        name = path.rsplit("/", 1)[-1]
        if path.startswith("/") and name.startswith("lib") and "blas" in name.lower():
            paths.add(path)
    libs = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        info = {"library": Path(path).name, "threads": None, "config": None}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None and info["threads"] is None:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    info["threads"] = threads()
                if config is not None and info["config"] is None:
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    info["config"] = config().decode()
        libs.append(info)
    return libs


def _import_dwell() -> float:
    start = time.perf_counter()
    import dwell.cli  # noqa: F401
    return time.perf_counter() - start


# ---------------------------------------------------------------- passes


def _run_pass(argv: list[str]) -> float:
    import dwell.cli

    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = dwell.cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise SystemExit(f"dwell exited with {code} on {argv}")
    return wall


def run_spec(spec: dict) -> dict:
    import_s = _import_dwell()
    work = Path(spec["workdir"])
    # warm lazy paths (first LAPACK call, first quadrature) outside the timing
    _run_pass(["solve", "--alpha", "1", "--beta", "10", "--gamma", "0.5",
               "--states", "2", "--grid-points", "512", "--outdir", str(work / "warmup")])
    passes = []
    deadline = time.perf_counter() + spec["budget"]
    pair = 0
    while pair == 0 or time.perf_counter() < deadline:
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            tag = f"{pair}-{'traced' if traced else 'plain'}"
            outdir = work / tag
            cache = work / f"{tag}-cache"
            argv = [a.format(outdir=outdir, cache=cache) for a in spec["argv"]]
            tracer = Tracer()
            if traced:
                tracer.install()
            try:
                wall = _run_pass(argv)
            finally:
                tracer.uninstall()
            passes.append({
                "traced": traced, "wall": wall, "outdir": str(outdir),
                "spans": tracer.spans, "counts": tracer.counts,
                "absent": tracer.absent,
            })
        pair += 1
    return {"import_s": import_s, "blas": blas_libraries(), "passes": passes}


# ---------------------------------------------------------------- aggregation


def self_times(spans: list[list]) -> dict[str, tuple[float, int]]:
    """name -> (total self time, calls); self = duration minus child spans."""
    child = [0.0] * len(spans)
    for sid, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for sid, _, name, start, end, _ in spans:
        total, calls = out.get(name, (0.0, 0))
        out[name] = (total + (end - start) - child[sid], calls + 1)
    return out


def pass_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced child: medians over its traced passes."""
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    per_pass = []
    for p in traced:
        st = self_times(p["spans"])
        c = p["counts"]

        def self_s(*names):
            return sum(st.get(n, (0.0, 0))[0] for n in names)

        def calls(name):
            return float(st.get(name, (0.0, 0))[1])

        per_pass.append({
            "basis.assemble_position.self_s": self_s("basis.assemble_position"),
            "basis.assemble_position.calls": calls("basis.assemble_position"),
            "basis.optimal_sigma.self_s": self_s("basis.optimal_sigma"),
            "spectrum.solve.self_s": self_s("spectrum.solve"),
            "spectrum.solve.calls": calls("spectrum.solve"),
            "spectrum.solve_energies.self_s": self_s("spectrum.solve_energies"),
            "spectrum.solve_energies.calls": calls("spectrum.solve_energies"),
            "spectrum.useful_eigpair_ratio": (
                c["eigpairs_used"] / c["eigpairs_computed"] if c["eigpairs_computed"] else 0.0
            ),
            "potential.turning_points.calls": calls("potential.turning_points"),
            "potential.turning_points.self_s": self_s("potential.turning_points"),
            "potential.critical_points.calls": calls("potential.critical_points"),
            "potential.critical_points.self_s": self_s("potential.critical_points"),
            "wavefunction.position_functions.self_s": self_s("wavefunction.position_functions"),
            "wavefunction.momentum_functions.self_s": self_s("wavefunction.momentum_functions"),
            "wavefunction.build_grids.self_s": self_s(
                "wavefunction.build_grid", "wavefunction.build_momentum_grid"
            ),
            "wavefunction.count_nodes.self_s": self_s("wavefunction.count_nodes"),
            "measures.uncertainties.self_s": self_s("measures.uncertainties"),
            "measures.well_occupancy.self_s": self_s("measures.well_occupancy"),
            "measures.info_measures.self_s": self_s("measures.info_measures"),
            "phasespace.area.self_s": self_s("phasespace.area"),
            "phasespace.area.calls": calls("phasespace.area"),
            "report.state_reports.self_s": self_s("report.state_reports"),
            "report.state_reports.calls": calls("report.state_reports"),
            "rules.estimate_delta_gamma.self_s": self_s("rules.estimate_delta_gamma"),
            "rules.measured_occupancies.self_s": self_s("rules.measured_occupancies"),
            "cli.cache_load.self_s": self_s("cli.cache_load"),
            "cli.cache_store.self_s": self_s("cli.cache_store"),
            "cli.cache.misses": float(c["cache_misses"]),
            "cli.write_records.self_s": self_s("cli.write_records"),
        })
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    traced_wall = statistics.median(p["wall"] for p in traced)
    plain_wall = statistics.median(p["wall"] for p in plain)
    threads = [lib["threads"] for lib in result["blas"] if lib["threads"] is not None]
    metrics.update({
        "package.import_s": result["import_s"],
        "trace.overhead_ratio": traced_wall / plain_wall,
        "trace.untraced_wall_s": plain_wall,
        "blas.threads": float(max(threads, default=0)),
    })
    return metrics


def layer_shares(result: dict) -> dict[str, float]:
    """Median share of each module's self time in a traced pass's wall."""
    shares: dict[str, list[float]] = {m: [] for m in LAYER_FUNCTIONS}
    for p in result["passes"]:
        if not p["traced"]:
            continue
        per_layer = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
        for name, (self_s, _) in self_times(p["spans"]).items():
            per_layer[name.split(".", 1)[0]] += self_s
        for module, total in per_layer.items():
            shares[module].append(total / p["wall"])
    return {m: statistics.median(v) for m, v in shares.items()}


def main() -> int:
    if sys.argv[1:] == ["--meta"]:
        import_s = _import_dwell()
        print(json.dumps({"import_s": import_s, "blas": blas_libraries()}))
        return 0
    spec = json.loads(Path(sys.argv[1]).read_text())
    result = run_spec(spec)
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
