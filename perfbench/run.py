#!/usr/bin/env python3
"""Benchmark of the dwell CLI: end-to-end times and per-layer self times.

Run from the root of a checkout (the package is read from ./src):

    python3 perfbench/run.py --workload sweep-cold --seed 0 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 45 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

    sweep-cold  sweep --alpha 1 --beta 10,20 --gamma 0:7:0.5 --states 8
                --workers 1, into an empty cache (30 points x 8 states)
    rules-scan  validate-rules --alphas 1,2 --beta 20 --gamma 0.5:7:0.5
                --states 6

The seed shifts every gamma grid by an offset in [0, 0.5); seed 0 gives
the grids above.

With --trace 0 each command runs as `python -m dwell ...` in a child
process, repeatedly until the timed commands have taken --seconds, in
three chunks that each follow their own set-up.  The run reports the
medians of wall_s (spawn to exit), cpu_s (user + system of the child and
its descendants), peak_rss_mb and setup_s.  With --trace 1 the command runs in-process
under perfbench/spans.py, once with the BLAS library's default thread
count and once with one thread (metrics prefixed `t1.`), and the run
reports per-layer self times and counts.

Outputs are checked outside the timed region: energies against an
independent oracle, per-row bounds, the bytes of a sweep re-run against
the cache a timed sweep filled, and delta_gamma against 2 sqrt(alpha).
The last line of standard output is one JSON object: correct, attempted and failed (parameter
points), and metrics.  The child environment drops OMP_NUM_THREADS,
OPENBLAS_NUM_THREADS and MKL_NUM_THREADS so that the library default is
what gets measured; the effective thread count is printed on the `# meta`
line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import checks
import spans

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
TRACES = WORK / "traces"  # spans of the latest traced run of each workload
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
RUN_LIMIT_S = 170.0  # children still running past this are killed

E2E_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
THREAD_SETTINGS = (("", None), ("t1.", 1))  # (per-layer metric prefix, BLAS threads)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith((".calls", ".misses", ".threads")):
        return "count"
    return "1" if name.endswith("_ratio") else "s"


# ---------------------------------------------------------------- workloads


@dataclass
class Workload:
    argv: list[str]  # CLI argv; "{outdir}" and "{cache}" are filled per run
    output: str  # file the command writes into its outdir
    points: int  # parameter points per command
    check: Callable[[str], int]  # failed points of one output
    cached: bool = False  # the command reads and fills a result cache


def gamma_offset(seed: int, step: float) -> float:
    return 0.0 if seed == 0 else random.Random(seed).random() * step


def make_workload(name: str, seed: int) -> Workload:
    step = 0.5
    off = gamma_offset(seed, step)
    if name == "rules-scan":
        alphas = [1.0, 2.0]
        start, stop = 0.5 + off, 7.0 + off
        gammas = checks.grid(start, stop, step)
        return Workload(
            argv=["validate-rules", "--alphas", "1,2", "--beta", "20",
                  "--gamma", f"{start!r}:{stop!r}:{step!r}", "--states", "6",
                  "--outdir", "{outdir}"],
            output="validate_rules.json",
            points=len(alphas),
            check=lambda text: checks.check_rules(text, alphas, gammas),
        )
    alpha, n_states = 1.0, 8
    start, stop = off, 7.0 + off
    points = [(b, g) for b in (10.0, 20.0) for g in checks.grid(start, stop, step)]
    oracle: dict = {}

    def check(text: str) -> int:
        if not oracle:
            oracle.update(checks.sweep_oracle(alpha, points, n_states))
        return checks.check_sweep(text, alpha, points, n_states, oracle)

    return Workload(
        argv=["sweep", "--alpha", "1", "--beta", "10,20",
              "--gamma", f"{start!r}:{stop!r}:{step!r}", "--states", str(n_states),
              "--workers", "1", "--outdir", "{outdir}", "--cache-dir", "{cache}"],
        output="sweep.csv",
        points=len(points),
        check=check,
        cached=True,
    )


WORKLOADS = ("sweep-cold", "rules-scan")


# ---------------------------------------------------------------- children


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: Path


def child_env(threads: int | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env.pop("DWELL_CACHE_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    if threads is not None:
        env.update(dict.fromkeys(BLAS_ENV, str(threads)))
    return env


def fill(argv: list[str], outdir: Path, cache: Path) -> list[str]:
    return [a.format(outdir=outdir, cache=cache) for a in argv]


def read_output(child: Child, path: Path) -> str | None:
    if child.code != 0 or not path.is_file():
        return None
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------- one run


class Run:
    """One benchmark run of one workload: its children, checks and tally."""

    def __init__(self, name: str, wl: Workload, workdir: Path) -> None:
        self.name = name
        self.wl = wl
        self.workdir = workdir
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.spawned = 0
        self.attempted = 0
        self.failed = 0
        self.blas: list[dict] | None = None

    def count(self, failed: int) -> None:
        self.attempted += self.wl.points
        self.failed += failed

    def spawn(self, argv: list[str], env: dict[str, str]) -> Child:
        """Run one child to its exit, killing it at the run's time limit."""
        self.spawned += 1
        base = self.workdir / f"child{self.spawned}"
        limit = max(1.0, self.deadline - time.perf_counter())
        with open(f"{base}.stdout", "wb") as out, open(f"{base}.stderr", "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
            timer = threading.Timer(limit, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(f"child exited with {proc.returncode}: {' '.join(argv)}\n")
            sys.stderr.write(Path(f"{base}.stderr").read_text(errors="replace")[-2000:])
        return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                     proc.returncode, Path(f"{base}.stdout"))

    def dwell(self, outdir: Path, cache: Path) -> Child:
        return self.spawn([sys.executable, "-m", "dwell", *fill(self.wl.argv, outdir, cache)],
                          child_env())

    def set_up(self, workdir: Path) -> None:
        """A fresh work directory and a warm-up child that imports dwell.cli,
        as every CLI call does, and reports the BLAS libraries it loaded."""
        workdir.mkdir(parents=True)
        child = self.spawn([sys.executable, str(HERE / "spans.py"), "--meta"], child_env())
        if child.code != 0:
            raise RuntimeError("importing dwell.cli failed")
        self.blas = json.loads(child.stdout.read_text())["blas"]

    def measure(self, seconds: float) -> dict[str, tuple[float, str, int]]:
        """--trace 0: time the command for `seconds` in all, then check.

        The timed commands come in SETUP_REPS chunks, each after its own
        set-up, so that one run's samples span the whole run: the speed of a
        shared machine drifts over tens of seconds.  A chunk ends when the
        commands timed so far have taken its share of `seconds`."""
        setups: list[float] = []
        samples: list[tuple[Child, Path]] = []
        timed = 0.0
        for i in range(SETUP_REPS):
            start = time.perf_counter()
            self.set_up(self.workdir / f"setup{i}")
            setups.append(time.perf_counter() - start)
            first = len(samples)
            while len(samples) == first or timed < seconds * (i + 1) / SETUP_REPS:
                outdir = self.workdir / f"run{len(samples)}"
                child = self.dwell(outdir, outdir / "cache")
                samples.append((child, outdir))
                timed += child.wall

        verdicts: dict[str, int] = {}
        for child, outdir in samples:
            text = read_output(child, outdir / self.wl.output)
            if text is None:
                self.count(self.wl.points)
                continue
            if text not in verdicts:
                verdicts[text] = self.wl.check(text)
            self.count(verdicts[text])
        if self.wl.cached:
            self.check_cache(samples[0][1])

        children = [c for c, _ in samples]
        print("# wall_s samples: " + " ".join(f"{c.wall:.3f}" for c in children))
        print("# setup_s samples: " + " ".join(f"{s:.3f}" for s in setups))
        values = {
            "wall_s": [c.wall for c in children],
            "cpu_s": [c.cpu for c in children],
            "peak_rss_mb": [c.rss_mb for c in children],
            "setup_s": setups,
        }
        return {k: (statistics.median(v), E2E_UNITS[k], len(v)) for k, v in values.items()}

    def check_cache(self, outdir: Path) -> None:
        """Re-run the command, untimed, against the cache that the timed
        command in `outdir` filled: the answer from the cache must repeat
        that command's bytes."""
        path = outdir / self.wl.output
        cold = path.read_text(encoding="utf-8") if path.is_file() else None
        child = self.dwell(self.workdir / "rerun", outdir / "cache")
        warm = read_output(child, self.workdir / "rerun" / self.wl.output)
        if cold is None or warm is None:
            self.count(self.wl.points)
        else:
            self.count(checks.compare_bytes(cold, warm, self.wl.points))

    def trace(self, seconds: float) -> dict[str, tuple[float, str, int]]:
        """--trace 1: in-process traced passes under both thread settings."""
        self.set_up(self.workdir / "setup")
        metrics = {}
        for prefix, threads in THREAD_SETTINGS:
            tdir = self.workdir / f"trace{threads or 'default'}"
            tdir.mkdir()
            spec = {
                "argv": self.wl.argv,
                "workdir": str(tdir),
                "budget": seconds / len(THREAD_SETTINGS),
                "result": str(tdir / "result.json"),
            }
            (tdir / "spec.json").write_text(json.dumps(spec))
            child = self.spawn([sys.executable, str(HERE / "spans.py"), str(tdir / "spec.json")],
                               child_env(threads))
            if child.code != 0:
                raise RuntimeError(f"traced run failed (BLAS threads {threads or 'default'})")
            result = json.loads((tdir / "result.json").read_text())
            TRACES.mkdir(parents=True, exist_ok=True)
            shutil.copy(tdir / "result.json", TRACES / f"{self.name}-{threads or 'default'}.json")
            for p in result["passes"]:
                self.count(self.wl.check((Path(p["outdir"]) / self.wl.output).read_text(encoding="utf-8")))
            n = sum(p["traced"] for p in result["passes"])
            for name, value in spans.pass_metrics(result).items():
                samples = 1 if name == "package.import_s" else n
                metrics[prefix + name] = (value, layer_unit(name), samples)
            absent = sorted({a for p in result["passes"] for a in p["absent"]})
            setting = "threads=1" if threads else "default threads"
            print(f"# layers ({setting}): "
                  + " ".join(f"{m}={s:.1%}" for m, s in spans.layer_shares(result).items())
                  + (f"; absent: {', '.join(absent)}" if absent else ""))
            print(f"# blas ({setting}): {json.dumps(result['blas'])}")
        return metrics


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():  # an export, not a clone
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_workload(name: str, seed: int, seconds: float, traced: bool
                 ) -> tuple[Run, dict[str, tuple[float, str, int]]]:
    workdir = WORK / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    run = Run(name, make_workload(name, seed), workdir)
    try:
        metrics = run.trace(seconds) if traced else run.measure(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    meta = {
        "seed": seed,
        "blas": run.blas,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "git_commit": git_commit(),
    }
    print(f"# meta {json.dumps(meta)}")
    print(f"# {name} seed={seed}: failed {run.failed}/{run.attempted} points "
          f"(failed_frac {run.failed / run.attempted:.6g})")
    for metric, (value, unit, n) in metrics.items():
        print(f"{name:<11} {metric:<42} {value:>14.6g} {unit:<6} n={n}")
    return run, metrics


def result_line(attempted: int, failed: int,
                metrics: dict[str, tuple[float, str, int]]) -> str:
    return json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dwell" / "cli.py").is_file():
        print(f"error: no dwell sources under {ROOT / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted, failed, merged = 0, 0, {}
    for name in names:
        run, metrics = run_workload(name, args.seed, args.seconds, bool(args.trace))
        attempted += run.attempted
        failed += run.failed
        prefix = f"{name}." if args.workload == "all" else ""
        merged.update({prefix + k: v for k, v in metrics.items()})
    print(result_line(attempted, failed, merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
