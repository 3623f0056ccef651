"""Tests of the benchmark itself: its checks catch broken outputs, and the
metrics it prints are the ones BENCHMARK.json declares.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
BENCHMARK = json.loads((REPO / "BENCHMARK.json").read_text())
ALPHA, N_STATES = 1.0, 8
POINTS = [(10.0, 0.0), (10.0, 0.5)]


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory) -> str:
    out = tmp_path_factory.mktemp("sweep")
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run(
        [sys.executable, "-m", "dwell", "sweep", "--alpha", "1", "--beta", "10",
         "--gamma", "0,0.5", "--states", str(N_STATES), "--grid-points", "1024",
         "--workers", "1", "--no-cache", "--outdir", str(out)],
        env=env, check=True, capture_output=True, timeout=120,
    )
    return (out / "sweep.csv").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def oracle():
    return checks.sweep_oracle(ALPHA, POINTS, N_STATES)


def failed_frac(text: str, oracle) -> float:
    return checks.check_sweep(text, ALPHA, POINTS, N_STATES, oracle) / len(POINTS)


def _replace_cell(text: str, row_index: int, column: str, value: str) -> str:
    lines = text.split("\n")
    header = lines[1].split(",")
    cells = lines[2 + row_index].split(",")
    cells[header.index(column)] = value
    lines[2 + row_index] = ",".join(cells)
    return "\n".join(lines)


def test_clean_sweep_passes(sweep_csv, oracle):
    assert failed_frac(sweep_csv, oracle) == 0.0


def test_oracle_matches_a_larger_basis():
    small = checks.oracle_energies(1.0, 20.0, 3.0, 8)
    large = checks.oracle_energies(1.0, 20.0, 3.0, 8, n_basis=200)
    assert max(abs(small - large) / abs(large)) <= 1e-12


def test_perturbed_energy_fails(sweep_csv, oracle):
    energy = float(sweep_csv.split("\n")[5].split(",")[4])
    bad = _replace_cell(sweep_csv, 3, "energy", repr(energy * (1.0 + 1e-8)))
    assert failed_frac(bad, oracle) > 0.0


def test_error_row_fails(sweep_csv, oracle):
    bad = _replace_cell(sweep_csv, 0, "error", "solver failed")
    assert failed_frac(bad, oracle) > 0.0


def test_missing_state_fails(sweep_csv, oracle):
    lines = sweep_csv.split("\n")
    del lines[4]
    assert failed_frac("\n".join(lines), oracle) > 0.0


def test_broken_bound_fails(sweep_csv, oracle):
    bad = _replace_cell(sweep_csv, 1, "uncertainty_product", "0.49")
    assert failed_frac(bad, oracle) > 0.0


@pytest.mark.parametrize("offset", [0, 200, -2])
def test_one_byte_change_in_warm_output_fails(sweep_csv, offset):
    i = offset % len(sweep_csv)
    warm = sweep_csv[:i] + ("x" if sweep_csv[i] != "x" else "y") + sweep_csv[i + 1:]
    assert checks.compare_bytes(sweep_csv, warm, len(POINTS)) > 0
    assert checks.compare_bytes(sweep_csv, sweep_csv, len(POINTS)) == 0


def test_rules_check():
    alphas, gammas = [1.0, 2.0], checks.grid(0.5, 1.5, 0.5)
    doc = {"results": [
        {"alpha": repr(a), "delta_gamma": repr(2.0 * math.sqrt(a) + 3e-8),
         "points": [{"gamma": repr(g)} for g in gammas]}
        for a in alphas
    ]}
    assert checks.check_rules(json.dumps(doc), alphas, gammas) == 0
    doc["results"][1]["delta_gamma"] = repr(2.0 * math.sqrt(2.0) + 2e-6)
    assert checks.check_rules(json.dumps(doc), alphas, gammas) == 1
    doc["results"].pop(0)
    assert checks.check_rules(json.dumps(doc), alphas, gammas) == 2


def test_seed_zero_gives_the_documented_grids():
    argv = run.make_workload("sweep-cold", 0).argv
    assert argv[argv.index("--gamma") + 1] == "0.0:7.0:0.5"
    argv = run.make_workload("rules-scan", 0).argv
    assert argv[argv.index("--gamma") + 1] == "0.5:7.0:0.5"
    offsets = {run.gamma_offset(seed, 0.5) for seed in range(1, 20)}
    assert len(offsets) == 19 and all(0.0 <= o < 0.5 for o in offsets)


def _traced_result() -> dict:
    # main(0..10) -> state_reports(1..9) -> solve(2..5)
    return {
        "import_s": 0.5,
        "blas": [{"library": "libopenblas.so", "threads": 2, "config": None}],
        "passes": [
            {"traced": False, "wall": 10.0, "spans": [], "counts": {}, "absent": []},
            {"traced": True, "wall": 11.0, "absent": [],
             "counts": dict.fromkeys(spans.COUNTERS, 0),
             "spans": [[0, -1, "cli.main", 0.0, 10.0, None],
                       [1, 0, "report.state_reports", 1.0, 9.0, None],
                       [2, 1, "spectrum.solve", 2.0, 5.0, None]]},
        ],
    }


def test_declared_metrics_match_the_printed_ones():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert e2e == run.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    printed = {prefix + name: run.layer_unit(name) for prefix, _ in run.THREAD_SETTINGS
               for name in spans.pass_metrics(_traced_result())}
    assert per_layer == printed


def test_self_time_excludes_child_spans():
    result = _traced_result()
    metrics = spans.pass_metrics(result)
    assert metrics["report.state_reports.self_s"] == pytest.approx(5.0)
    assert metrics["spectrum.solve.self_s"] == pytest.approx(3.0)
    assert metrics["report.state_reports.calls"] == 1.0
    assert metrics["trace.overhead_ratio"] == pytest.approx(1.1)
    assert spans.layer_shares(result)["cli"] == pytest.approx(2.0 / 11.0)


def test_tracer_patches_imported_names():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    code = (
        "import dwell.cli, dwell.report, spans\n"
        "t = spans.Tracer(); t.install()\n"
        "assert dwell.report.solve is dwell.spectrum.solve is dwell.cli.solve\n"
        "assert dwell.report.solve.__wrapped__ is not None\n"
        "t.uninstall()\n"
        "assert not hasattr(dwell.report.solve, '__wrapped__')\n"
        "print(t.absent)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_traced_sweep_counts_calls_and_reports_absent_names(tmp_path):
    spec = {
        "argv": ["sweep", "--alpha", "1", "--beta", "10", "--gamma", "0.5,1", "--states", "2",
                 "--grid-points", "512", "--workers", "1", "--outdir", "{outdir}",
                 "--cache-dir", "{cache}"],
        "workdir": str(tmp_path), "budget": 0.0,
    }
    code = (
        "import json, sys, spans\n"
        "spans.LAYER_FUNCTIONS['spectrum'] += ('removed_function',)\n"
        "result = spans.run_spec(json.loads(sys.argv[1]))\n"
        "print(json.dumps([spans.pass_metrics(result), result['passes'][1]['absent']]))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", code, json.dumps(spec)], cwd=HERE, env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    metrics, absent = json.loads(out.stdout)
    assert absent == ["spectrum.removed_function"]
    assert metrics["report.state_reports.calls"] == 2
    assert metrics["spectrum.solve.calls"] == 2
    assert metrics["cli.cache.misses"] == 2
    assert metrics["spectrum.useful_eigpair_ratio"] == pytest.approx(2 / 100)
    assert metrics["phasespace.area.calls"] == 4


def test_refuses_to_run_without_sources(tmp_path):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "sweep-cold", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout == ""
