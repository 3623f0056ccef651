#!/usr/bin/env python3
"""Compare the CLI outputs of this checkout with those of another revision.

    python scripts/identity.py --against REV

REV is exported with `git archive` into a temporary directory.  A fixed
list of commands then runs as `python -m dwell ...` on both trees, each
importing the package from its own src/: the benchmark's sweep and
validate-rules commands at seeds 0, 7 and 13, `validate-rules --alphas
0.25,16`, `validate-rules --alphas 1e-12,1e12` (delta_gamma = 2 sqrt(alpha)
far from unit scale, 2e-6 and 2e6, where an absolute tolerance would show),
`validate-rules --n-basis 9 --states 5 --beta 10,20` (without a gamma check
it solves nothing, so neither the certified band nor the single beta
applies), `validate-rules --alphas 1 --beta 5 --gamma 0:7:0.125 --states 8`
(a shallow well, whose states sit nearest the occupancy thresholds: there
the occupancies read from the band in closed form and those of a grid
split differ the most), tables 1-5, `table 3 --n-basis 12` (a basis that
certifies 5 of the table's 11 states: exit 2 before any solve), `phase-space --contours`,
`phase-space --beta 8 --gamma 2 --states 8 --contours` (asymmetric
states of one and two lobes and above the barrier, whose actions take the
one Gauss-Legendre rule over every kind of interval),
`solve --beta 30 --states 11` at gamma 0, 3.3 and 6, `solve --beta 30
--gamma 0 --states 8 --grid-points 4094` (4094 rounds up to 4096 intervals,
a multiple of 4, so this symmetric well's window stays symmetric and its
bytes equal those of the 4096 run), `solve --beta
30 --gamma 6 --states 4` (its top state is half of a doublet split below
solver resolution), `solve --beta 2 --gamma 7 --states 8` (a shallow
well whose position window loses the most tail, where the grid's Fisher
integral in x was furthest from 4 <p^2>), `solve --poly 1,0,-10,0.5,0`,
`solve --poly
7.922816251426434e+28,0,-3.68934881474191e+20,844424930131968,0 --states
4` (x^4 - 20 x^2 + 3 x at scale 2^16, a potential far from unit scale),
`solve --poly 3,-4,0,0,0 --states 4` (V' = 12 x^2 (x - 1): a double root
of V' that is an inflection, not an extremum), `solve --poly 1,0,0,0,0
--states 4` (V' has a triple root at the single minimum), `solve --states
40` and `validate-rules --alphas 1 --gamma 3 --states 34` (each asks for
more states than the default basis certifies, the second through the one
extra state a gamma check solves: exit 2 before any solve, so the
refusal's exit code and message are compared), three sweeps
of the error rows and the JSON records: `sweep --alpha -1` (every point
fails before it is solved, and the command exits 3), `sweep --alpha 0.01
--beta 1,400` (beta 400 fails while it is solved, beta 1 does not, so the
cache re-run solves only the failed point again) and `sweep --format json`;
`sweep --beta 5,10 --gamma 1,4.02 --states 6 --rho-floor 0.3` (a
non-default point setting that moves effective_nodes, so the bytes show
that it is applied and the cache re-run that it is keyed); `sweep --beta
10,1e308 --gamma 0 --states 2` (a well whose extrema leave double
precision: the text of its error cell); `sweep --beta 10
--gamma=-0,0,1 --states 2` (a negative zero, which reads as 0 in the
bytes and the cache key); and `sweep --beta 10,20 --gamma 0:3:1 --states 4
--workers 2`, in CSV and in JSON (a pool of two processes, whose points
the sweep writes in point order as they come back); and the same sweep
with `--grid-points 514` on one worker (a size that rounds up to 516, so
its rows are compared across trees and re-run from its cache).  Against a
REV from before the CLI rounded `--grid-points` where it reads it, that
sweep's cross-tree cache re-run differs once, on purpose: its cache key is
now 516's, so it finds nothing of REV's 514 entries and writes its own.

Exit codes, stdout and stderr (each with the output and cache directories
replaced by placeholders) and every file a command writes are compared.  A differing
CSV file gets one line per changed column, and a differing JSON file one
line per changed key path (list positions read [*], and a key that only
one file has reads (absent) in the other): the values changed and the
largest absolute and relative change.  Any other differing file gets
one line.
Each sweep also runs again against the cache it filled, in both trees, and
must repeat its exit code, stdout, stderr and files.  It then runs once
more, in this checkout against the cache that REV's run filled (a
cross-tree cache re-run): it must repeat REV's exit code, stdout, stderr
and files and leave every
file of that cache as it was (names and st_mtime_ns), which shows that
cache keys and checksum lines did not move.  The script exits 0 only when
nothing differs.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _offset(seed: int) -> float:
    """The gamma-grid offset of a benchmark seed (see perfbench/run.py)."""
    return 0.0 if seed == 0 else random.Random(seed).random() * 0.5


def commands() -> list[tuple[str, list[str]]]:
    """(name, argv) of every compared command; "{outdir}" and "{cache}" are
    filled per run."""
    out = ["--outdir", "{outdir}"]
    cmds = []
    for seed in (0, 7, 13):
        off = _offset(seed)
        cmds.append((f"sweep-cold-{seed}", [
            "sweep", "--alpha", "1", "--beta", "10,20",
            "--gamma", f"{off!r}:{7.0 + off!r}:0.5", "--states", "8",
            "--workers", "1", "--cache-dir", "{cache}", *out,
        ]))
        cmds.append((f"rules-scan-{seed}", [
            "validate-rules", "--alphas", "1,2", "--beta", "20",
            "--gamma", f"{0.5 + off!r}:{7.0 + off!r}:0.5", "--states", "6", *out,
        ]))
    cmds.append(("rules-alphas-0.25-16",
                 ["validate-rules", "--alphas", "0.25,16", "--beta", "20", "--states", "6", *out]))
    cmds.append(("rules-alphas-extreme",
                 ["validate-rules", "--alphas", "1e-12,1e12", "--states", "6", *out]))
    cmds.append(("rules-no-gamma-check",
                 ["validate-rules", "--n-basis", "9", "--states", "5", "--beta", "10,20", *out]))
    cmds.append(("rules-shallow-well",
                 ["validate-rules", "--alphas", "1", "--beta", "5", "--gamma", "0:7:0.125",
                  "--states", "8", *out]))
    cmds += [(f"table-{n}", ["table", str(n), *out]) for n in range(1, 6)]
    cmds.append(("table-3-n-basis-12", ["table", "3", "--n-basis", "12", *out]))
    cmds.append(("phase-space-contours", ["phase-space", "--contours", *out]))
    cmds.append(("phase-space-beta8-gamma2",
                 ["phase-space", "--beta", "8", "--gamma", "2", "--states", "8", "--contours",
                  *out]))
    for gamma in ("0", "3.3", "6"):
        cmds.append((f"solve-beta30-gamma{gamma}",
                     ["solve", "--beta", "30", "--states", "11", "--gamma", gamma, *out]))
    cmds.append(("solve-beta30-gamma0-4094",
                 ["solve", "--beta", "30", "--gamma", "0", "--states", "8",
                  "--grid-points", "4094", *out]))
    cmds.append(("solve-beta30-gamma6-states4",
                 ["solve", "--beta", "30", "--gamma", "6", "--states", "4", *out]))
    cmds.append(("solve-beta2-gamma7-states8",
                 ["solve", "--beta", "2", "--gamma", "7", "--states", "8", *out]))
    cmds.append(("solve-poly", ["solve", "--poly", "1,0,-10,0.5,0", *out]))
    cmds.append(("solve-poly-scaled-2-16",
                 ["solve", "--poly",
                  "7.922816251426434e+28,0,-3.68934881474191e+20,844424930131968,0",
                  "--states", "4", *out]))
    cmds.append(("solve-poly-inflection",
                 ["solve", "--poly", "3,-4,0,0,0", "--states", "4", *out]))
    cmds.append(("solve-poly-pure-quartic",
                 ["solve", "--poly", "1,0,0,0,0", "--states", "4", *out]))
    cmds.append(("solve-states-40", ["solve", "--states", "40", *out]))
    cmds.append(("rules-gamma-check-states-34",
                 ["validate-rules", "--alphas", "1", "--gamma", "3", "--states", "34", *out]))
    sweep = ["sweep", "--workers", "1", "--cache-dir", "{cache}", *out]
    cmds.append(("sweep-error-rows",
                 [*sweep, "--alpha", "-1", "--beta", "10", "--gamma", "0,1", "--states", "2"]))
    cmds.append(("sweep-solve-error-row",
                 [*sweep, "--alpha", "0.01", "--beta", "1,400", "--gamma", "0",
                  "--states", "8"]))
    cmds.append(("sweep-json",
                 [*sweep, "--beta", "10", "--gamma", "0,3", "--states", "4",
                  "--grid-points", "512", "--format", "json"]))
    cmds.append(("sweep-rho-floor",
                 [*sweep, "--beta", "5,10", "--gamma", "1,4.02", "--states", "6",
                  "--rho-floor", "0.3"]))
    cmds.append(("sweep-beyond-double-precision",
                 [*sweep, "--beta", "10,1e308", "--gamma", "0", "--states", "2"]))
    cmds.append(("sweep-negative-zero",
                 [*sweep, "--beta", "10", "--gamma=-0,0,1", "--states", "2"]))
    pooled = ["sweep", "--workers", "2", "--cache-dir", "{cache}", *out,
              "--beta", "10,20", "--gamma", "0:3:1", "--states", "4"]
    cmds.append(("sweep-pool-csv", pooled))
    cmds.append(("sweep-pool-json", [*pooled, "--format", "json"]))
    cmds.append(("sweep-grid-points-514",
                 [*sweep, "--beta", "10,20", "--gamma", "0:3:1", "--states", "4",
                  "--grid-points", "514"]))
    return cmds


def run(tree: Path, argv: list[str], outdir: Path, cache: Path) -> tuple[int, str, str]:
    """Exit code and normalized stdout and stderr of `python -m dwell argv`
    on tree."""
    argv = [a.format(outdir=outdir, cache=cache) for a in argv]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "dwell", *argv],
        cwd=outdir.parent, env=env, capture_output=True, text=True,
    )
    def normalized(text: str) -> str:
        return text.replace(str(outdir), "{outdir}").replace(str(cache), "{cache}")

    return proc.returncode, normalized(proc.stdout), normalized(proc.stderr)


def _cache_files(cache: Path) -> dict[str, int]:
    """st_mtime_ns of every file in a cache directory, by name."""
    return {p.name: p.stat().st_mtime_ns for p in cache.glob("*")}


def _read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    """Comment lines and the remaining rows of a CSV file."""
    lines = path.read_text().splitlines()
    comments = [line for line in lines if line.startswith("#")]
    rows = list(csv.reader(line for line in lines if not line.startswith("#")))
    return comments, rows


def _change(x: str, y: str) -> tuple[float, float] | None:
    """Absolute and relative change between two numeric cells, else None."""
    try:
        fx, fy = float(x), float(y)
    except ValueError:
        return None
    delta = abs(fx - fy)
    if not math.isfinite(delta):
        return None
    scale = max(abs(fx), abs(fy))
    return delta, delta / scale if scale else 0.0


def _summary(name: str, values: list[tuple[object, object]], unit: str) -> list[str]:
    """No line when every (old, new) pair is equal, else one: the values
    changed and the largest absolute and relative change."""
    changed = [(x, y) for x, y in values if x != y]
    if not changed:
        return []
    changes = [_change(str(x), str(y)) for x, y in changed]
    numeric = [c for c in changes if c is not None]
    line = f"{name}: {len(changed)} of {len(values)} {unit} changed"
    if numeric:
        line += (f", max abs {max(c[0] for c in numeric):.3g},"
                 f" max rel {max(c[1] for c in numeric):.3g}")
    if len(numeric) < len(changed):
        line += f", {len(changed) - len(numeric)} not numeric"
    return [line]


def compare_csv(a: Path, b: Path) -> list[str]:
    """One line per column that differs between the CSV files a and b.  A
    single line when the comment lines, the header or the row count differ."""
    (comments_a, rows_a), (comments_b, rows_b) = _read_csv(a), _read_csv(b)
    if comments_a != comments_b or rows_a[:1] != rows_b[:1] or len(rows_a) != len(rows_b):
        return ["comment lines, header or row count differ"]
    if not rows_a:
        return []
    header, body = rows_a[0], list(zip(rows_a[1:], rows_b[1:]))
    lines = []
    for j, name in enumerate(header):
        lines += _summary(name, [(x[j], y[j]) for x, y in body], "rows")
    return lines


ABSENT = "(absent)"  # the value of a key that only the other document has


def _leaf_pairs(a: object, b: object, path: str) -> Iterator[tuple[str, object, object]]:
    """(key path, a value, b value) of every leaf of two JSON documents; list
    positions read [*], a key that one document lacks is one leaf whose
    value there is ABSENT, and where the shapes part otherwise the subtrees
    count as one leaf."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in {**a, **b}:
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from _leaf_pairs(a[key], b[key], sub)
            else:
                yield sub, a.get(key, ABSENT), b.get(key, ABSENT)
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for x, y in zip(a, b):
            yield from _leaf_pairs(x, y, f"{path}[*]")
    else:
        yield path or "(document)", a, b


def compare_json(a: Path, b: Path) -> list[str]:
    """One line per key path whose values differ between the JSON files a
    and b."""
    doc_a, doc_b = json.loads(a.read_text()), json.loads(b.read_text())
    values: dict[str, list[tuple[object, object]]] = {}
    for path, x, y in _leaf_pairs(doc_a, doc_b, ""):
        values.setdefault(path, []).append((x, y))
    lines = []
    for path, pairs in values.items():
        lines += _summary(path, pairs, "values")
    return lines


COMPARE = {".csv": compare_csv, ".json": compare_json}


def compare_outputs(a: Path, b: Path) -> list[str]:
    """One or more lines per file that differs between the directories a and b."""
    files_a = {p.relative_to(a) for p in a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(b) for p in b.rglob("*") if p.is_file()}
    lines = [f"{rel}: only in one tree" for rel in sorted(files_a ^ files_b)]
    for rel in sorted(files_a & files_b):
        if (a / rel).read_bytes() == (b / rel).read_bytes():
            continue
        compare_file = COMPARE.get(rel.suffix)
        found = compare_file(a / rel, b / rel) if compare_file else []
        lines += [f"{rel}: {line}" for line in found or ["differs"]]
    return lines


def compare(a: tuple[int, str, str], b: tuple[int, str, str], dir_a: Path,
            dir_b: Path) -> list[str]:
    """Differences in exit code, stdout, stderr and files between two runs."""
    lines = []
    if a[0] != b[0]:
        lines.append(f"exit code {a[0]} against {b[0]}")
    if a[1] != b[1]:
        lines.append("stdout differs")
    if a[2] != b[2]:
        lines.append("stderr differs")
    return lines + compare_outputs(dir_a, dir_b)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", required=True, metavar="REV",
                        help="git revision whose outputs this checkout is compared with")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="dwell-identity-") as tmp:
        rev_tree = Path(tmp) / "rev"
        rev_tree.mkdir()
        archive = subprocess.run(
            ["git", "archive", "--format=tar", args.against],
            cwd=ROOT, capture_output=True, check=False,
        )
        if archive.returncode:
            sys.stderr.write(archive.stderr.decode())
            return 2
        subprocess.run(["tar", "-x", "-C", str(rev_tree)], input=archive.stdout, check=True)

        cmds = commands()
        failures = files = reruns = cross = 0
        for name, cmd in cmds:
            results = {}
            for side, tree in (("rev", rev_tree), ("checkout", ROOT)):
                work = Path(tmp) / side / name
                work.mkdir(parents=True)
                outdir, cache = work / "out", work / "cache"
                results[side] = (run(tree, cmd, outdir, cache), outdir)
                if "{cache}" in cmd:
                    rerun = work / "rerun"
                    again = run(tree, cmd, rerun, cache)
                    lines = compare(results[side][0], again, outdir, rerun)
                    failures += len(lines)
                    reruns += 1
                    for line in lines:
                        print(f"{name} ({side} cache re-run): {line}")
            (res_a, dir_a), (res_b, dir_b) = results["rev"], results["checkout"]
            lines = compare(res_a, res_b, dir_a, dir_b)
            if "{cache}" in cmd:
                rev_cache = Path(tmp) / "rev" / name / "cache"
                work = Path(tmp) / "cross" / name
                work.mkdir(parents=True)
                cross_out = work / "out"
                before = _cache_files(rev_cache)
                again = run(ROOT, cmd, cross_out, rev_cache)
                cross_lines = compare(res_a, again, dir_a, cross_out)
                if _cache_files(rev_cache) != before:
                    cross_lines.append("the cache's file names or mtimes changed")
                lines += [f"(cross-tree cache re-run) {line}" for line in cross_lines]
                cross += 1
            failures += len(lines)
            files += sum(p.is_file() for p in dir_b.rglob("*"))
            for line in lines:
                print(f"{name}: {line}")
        verdict = "identical" if failures == 0 else f"{failures} differences"
        print(f"# {verdict}: {len(cmds)} commands, {files} files, {reruns} cache re-runs,"
              f" {cross} cross-tree cache re-runs against {args.against}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
