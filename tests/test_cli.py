import concurrent.futures
import csv
import dataclasses
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dwell import QuarticPotential, cli, solve
from dwell.cli import (
    SCHEMA_VERSION,
    CSV_COLUMNS,
    ConfigError,
    PointSettings,
    cache_key,
    main,
    parse_values,
)


def read_rows(path: Path):
    with open(path, encoding="utf-8") as fh:
        return list(csv.DictReader(line for line in fh if not line.startswith("#")))


def test_parse_values_forms():
    assert parse_values("3") == (3.0,)
    assert parse_values("1,3,5") == (1.0, 3.0, 5.0)
    assert parse_values("0:1:0.25") == (0.0, 0.25, 0.5, 0.75, 1.0)
    with pytest.raises(ConfigError):
        parse_values("1:0:0.5")


def test_solve_reproduces_reference_energies(tmp_path):
    rc = main([
        "solve", "--alpha", "1", "--beta", "30", "--gamma", "0",
        "--states", "11", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    rows = read_rows(tmp_path / "solve.csv")
    assert len(rows) == 11
    assert float(rows[0]["energy"]) == pytest.approx(7.7123035268648, abs=1e-9)
    assert float(rows[2]["energy"]) == pytest.approx(22.999742809258, abs=1e-9)
    assert rows[0]["converged_flag"] == "true"


def test_solve_polynomial_coefficients(tmp_path):
    rc = main([
        "solve", "--poly", "0.01,-0.0075,-0.0025,0,0",
        "--states", "4", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    rows = read_rows(tmp_path / "solve.csv")
    assert float(rows[0]["energy"]) == pytest.approx(0.22049693355138318, rel=1e-10)
    assert float(rows[3]["energy"]) == pytest.approx(2.47522712627695799794, rel=1e-10)


def test_empty_gamma_range_exits_2(tmp_path):
    rc = main([
        "solve", "--alpha", "1", "--beta", "10", "--gamma", "",
        "--outdir", str(tmp_path),
    ])
    assert rc == 2


def test_states_beyond_certified_band_rejected(tmp_path):
    rc = main([
        "solve", "--alpha", "1", "--beta", "10", "--gamma", "0",
        "--states", "40", "--outdir", str(tmp_path),
    ])
    assert rc == 2


def test_invalid_potential_exits_3(tmp_path):
    rc = main([
        "solve", "--poly=-1,0,0,0,0", "--outdir", str(tmp_path),
    ])
    assert rc == 3


def test_csv_schema_header_golden(tmp_path):
    main([
        "solve", "--alpha", "1", "--beta", "5", "--gamma", "1",
        "--states", "2", "--grid-points", "512", "--outdir", str(tmp_path),
    ])
    lines = (tmp_path / "solve.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "# schema dwell-result-v1"
    assert lines[1] == ",".join(CSV_COLUMNS)
    assert lines[1] == (
        "alpha,beta,gamma,n,energy,mean_x,delta_x,delta_p,uncertainty_product,"
        "p_well_I,p_well_II,occupancy,total_nodes,effective_nodes,"
        "s_x,s_p,s_total,i_x,i_p,i_product,e_x,e_p,e_product,os_x,os_p,os_total,"
        "barrier_action,allowed_action,lobe_count,converged_flag,error"
    )


def test_json_output_is_valid(tmp_path):
    rc = main([
        "solve", "--alpha", "1", "--beta", "5", "--gamma", "1", "--states", "2",
        "--grid-points", "512", "--format", "json", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "solve.json").read_text(encoding="utf-8"))
    assert doc["schema"] == SCHEMA_VERSION
    assert len(doc["records"]) == 2
    assert doc["records"][0]["n"] == 0
    assert isinstance(doc["records"][0]["energy"], float)


def test_sweep_cache_roundtrip(tmp_path):
    args = [
        "sweep", "--alpha", "1", "--beta", "12", "--gamma", "0:1:0.5",
        "--states", "3", "--grid-points", "512",
        "--outdir", str(tmp_path), "--workers", "1",
    ]
    assert main(args) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    cache_files = sorted((tmp_path / "cache").glob("*.json"))
    assert len(cache_files) == 3
    assert main(args) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    # --no-cache must give byte-identical output as well
    assert main(args + ["--no-cache"]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_sweep_corrupted_cache_recomputed(tmp_path):
    args = [
        "sweep", "--alpha", "1", "--beta", "12", "--gamma", "0.5",
        "--states", "3", "--grid-points", "512",
        "--outdir", str(tmp_path), "--workers", "1",
    ]
    assert main(args) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    (cache_file,) = (tmp_path / "cache").glob("*.json")
    body = cache_file.read_text(encoding="utf-8")
    cache_file.write_text(body.replace("energy", "enemgy", 1), encoding="utf-8")
    assert main(args) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    # the cache file was rewritten with a valid checksum
    fresh = cache_file.read_text(encoding="utf-8")
    assert "enemgy" not in fresh


def test_sweep_truncated_cache_recomputed(tmp_path):
    args = [
        "sweep", "--alpha", "1", "--beta", "12", "--gamma", "0.5",
        "--states", "3", "--grid-points", "512",
        "--outdir", str(tmp_path), "--workers", "1",
    ]
    assert main(args) == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    (cache_file,) = (tmp_path / "cache").glob("*.json")
    whole = cache_file.read_bytes()
    cache_file.write_bytes(whole[: len(whole) // 2])  # a torn write
    assert main(args) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first
    assert cache_file.read_bytes() == whole
    assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == [cache_file.name]


def full_row(**cells):
    """One cache record: every column, blank but `cells`."""
    return {col: "" for col in CSV_COLUMNS} | cells


def _write_entry(path: Path, body: str) -> None:
    """A cache entry holding `body` under its correct checksum line."""
    digest = hashlib.sha256(body.encode()).hexdigest()
    path.write_text(f"{body}\nsha256:{digest}", encoding="utf-8")


def test_cache_store_leaves_no_temp_file(tmp_path):
    records = [full_row(n="0", energy="1.5")]
    cli.cache_store(tmp_path, "abc", records)
    cli.cache_store(tmp_path, "abc", records)  # overwrite in place
    assert [p.name for p in tmp_path.iterdir()] == ["abc.json"]
    assert cli.cache_load(tmp_path, "abc") == records


def test_cache_entry_that_is_a_directory_is_a_miss(tmp_path):
    (tmp_path / "abc.json").mkdir()
    assert cli.cache_load(tmp_path, "abc") is None


def test_cache_entry_with_a_schema_field_is_served(tmp_path):
    # entries once carried the schema in their body as well as in their key
    records = [full_row(n="0", energy="1.5")]
    body = json.dumps({"records": records, "schema": SCHEMA_VERSION}, sort_keys=True)
    _write_entry(tmp_path / "abc.json", body)
    assert cli.cache_load(tmp_path, "abc") == records


@pytest.mark.parametrize("body", [
    '{"foo": 1}', "[1, 2]", '{"records": [{"n": "0"}]}', '{"records": 5}', '{"records": []}',
])
def test_cache_entry_that_verifies_but_holds_no_records_is_a_miss(tmp_path, body):
    # the checksum guards against torn writes, not against a body that some
    # other program wrote: such an entry is recomputed and rewritten
    args = ["sweep", "--beta", "10", "--gamma", "0", "--states", "2", "--grid-points", "512",
            "--workers", "1"]
    assert main(args + ["--no-cache", "--outdir", str(tmp_path / "ref")]) == 0
    assert main(args + ["--outdir", str(tmp_path)]) == 0
    (entry,) = (tmp_path / "cache").glob("*.json")
    whole = entry.read_bytes()
    _write_entry(entry, body)
    assert cli.cache_load(entry.parent, entry.stem) is None
    assert main(args + ["--outdir", str(tmp_path)]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == (tmp_path / "ref/sweep.csv").read_bytes()
    assert entry.read_bytes() == whole


@pytest.mark.parametrize("text", ["", "dwell-result-v1", "é x"])
def test_cache_digest_is_sha256(text):
    assert cli._sha256(text) == hashlib.sha256(text.encode()).hexdigest()


def test_cache_digest_falls_back_to_hashlib_without_a_built_in_sha256(monkeypatch):
    # a CPython built without _sha2 (3.12+) and _sha256 (3.10/3.11) hashes
    # with hashlib's, and every key and checksum stays the same
    cli._sha256_constructor.cache_clear()
    try:
        with monkeypatch.context() as patched:
            patched.setitem(sys.modules, "_sha2", None)
            patched.setitem(sys.modules, "_sha256", None)
            assert cli._sha256_constructor() is hashlib.sha256
            for text in ("", "dwell-result-v1", "é x"):
                assert cli._sha256(text) == hashlib.sha256(text.encode()).hexdigest()
            pot = QuarticPotential.from_well_params(1.0, 10.0, 0.5)
            assert cache_key(pot, PointSettings(100, 6, 1024, 0.01)) == "0a0dea417efca62f"
    finally:
        cli._sha256_constructor.cache_clear()


def test_cache_key_is_pinned():
    # a moved key turns every entry that users already have into a miss
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.5)
    assert cache_key(pot, PointSettings(100, 6, 1024, 0.01)) == "0a0dea417efca62f"


def test_sweep_cache_key_includes_rho_floor(tmp_path):
    # the floor changes effective_nodes, so a cached answer computed with
    # the default floor must not be served for another floor
    args = [
        "sweep", "--alpha", "1", "--beta", "10", "--gamma", "0.5",
        "--states", "6", "--grid-points", "1024", "--workers", "1",
        "--outdir", str(tmp_path),
    ]
    assert main(args) == 0
    default_floor = read_rows(tmp_path / "sweep.csv")
    assert main(args + ["--rho-floor", "0.6"]) == 0
    cached = (tmp_path / "sweep.csv").read_bytes()
    assert main(args + ["--rho-floor", "0.6", "--no-cache"]) == 0
    assert (tmp_path / "sweep.csv").read_bytes() == cached
    high_floor = read_rows(tmp_path / "sweep.csv")
    assert default_floor[5]["effective_nodes"] == "5"
    assert high_floor[5]["effective_nodes"] == "2"
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_cache_key_covers_every_point_setting(monkeypatch):
    pot = QuarticPotential.from_well_params(1.0, 10.0, 0.5)
    base = PointSettings(n_basis=100, n_states=6, grid_points=1024, rho_floor=0.01)
    keys = {cache_key(pot, base)}
    for f in dataclasses.fields(PointSettings):
        value = getattr(base, f.name)
        keys.add(cache_key(pot, dataclasses.replace(base, **{f.name: value * 2})))
    keys.add(cache_key(pot.shifted(1.0), base))
    assert len(keys) == len(dataclasses.fields(PointSettings)) + 2
    # records written under another record revision are not served
    monkeypatch.setattr(cli, "RECORD_REVISION", "another-revision")
    assert cache_key(pot, base) not in keys


def test_a_negative_zero_reads_as_zero(tmp_path, monkeypatch):
    # -0 and 0 are one point: one cache entry serves both, and a list
    # that holds both writes the same bytes in either order
    assert all(math.copysign(1.0, v) == 1.0 for v in (
        *parse_values("-0,-0.0"), parse_values("-0:1:1")[0], *cli._parse_poly("1,-0,-0,-0,-0")))
    base = ["sweep", "--beta", "10", "--states", "2", "--grid-points", "512", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache")]
    assert main(base + ["--gamma", "0", "--outdir", str(tmp_path / "zero")]) == 0
    (entry,) = (tmp_path / "cache").glob("*.json")

    def no_solve(*args):
        raise AssertionError("solved")

    with monkeypatch.context() as patched:
        patched.setattr(cli, "point_records", no_solve)
        assert main(base + ["--gamma=-0", "--outdir", str(tmp_path / "minus")]) == 0
    assert list((tmp_path / "cache").glob("*.json")) == [entry]
    assert (tmp_path / "minus/sweep.csv").read_bytes() == (tmp_path / "zero/sweep.csv").read_bytes()
    for order in ("-0,0,1", "0,-0,1"):
        assert main(base + [f"--gamma={order}", "--outdir", str(tmp_path / order)]) == 0
    assert (tmp_path / "-0,0,1/sweep.csv").read_bytes() == (tmp_path / "0,-0,1/sweep.csv").read_bytes()


def test_cache_written_under_old_revision_is_recomputed(tmp_path, monkeypatch):
    args = [
        "sweep", "--alpha", "1", "--beta", "10", "--gamma", "0.5",
        "--states", "3", "--grid-points", "512", "--workers", "1",
        "--outdir", str(tmp_path),
    ]
    cache_dir = tmp_path / "cache"
    monkeypatch.setattr(cli, "RECORD_REVISION", "banded-1")
    assert main(args) == 0
    (old_file,) = cache_dir.glob("*.json")
    stale = cli.cache_load(cache_dir, old_file.stem)
    for rec in stale:
        rec["s_x"] = "0"  # an answer the current code would not give
    cli.cache_store(cache_dir, old_file.stem, stale)
    monkeypatch.undo()
    assert main(args) == 0
    assert all(row["s_x"] != "0" for row in read_rows(tmp_path / "sweep.csv"))
    assert len(list(cache_dir.glob("*.json"))) == 2


SRC = str(Path(cli.__file__).resolve().parents[1])
BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _child_env(base, *paths):
    """`base` with `paths` and the package's sources in front of PYTHONPATH."""
    return dict(base, PYTHONPATH=os.pathsep.join(
        p for p in (*paths, SRC, os.environ.get("PYTHONPATH")) if p
    ))


def _without_blas_settings(**blas):
    """os.environ with no BLAS thread variable but `blas`, and no cache override."""
    drop = {*BLAS_THREAD_VARIABLES, "DWELL_CACHE_DIR"}
    return {k: v for k, v in os.environ.items() if k not in drop} | blas


# one run of each command, none of which reads or writes a cache
COMMAND_RUNS = [
    ["solve", "--beta", "10", "--gamma", "0.5", "--states", "2", "--grid-points", "512"],
    ["sweep", "--beta", "10", "--gamma", "0,0.5", "--states", "2", "--grid-points", "512",
     "--workers", "1", "--no-cache"],
    ["validate-rules", "--alphas", "1", "--beta", "20", "--gamma", "1:2:0.5", "--states", "6"],
    ["table", "1"],
    ["phase-space", "--beta", "10", "--states", "2"],
]


def test_no_command_loads_scipy(tmp_path):
    # dsbevx comes from the LAPACK of numpy's own OpenBLAS, and scipy's f2py
    # wrapper only where that has no ILP64 dsbevx; checked after the import
    # and after one run of each command.  Called in-process, no command sets
    # a BLAS thread variable either.
    code = "\n".join([
        "import contextlib, io, os, sys, dwell.cli",
        "def loaded(): return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))",
        "print(loaded())",
        f"for argv in {COMMAND_RUNS!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        assert dwell.cli.main(argv + ['--outdir', {str(tmp_path)!r}]) == 0",
        "    print(loaded())",
        f"print([k for k in {BLAS_THREAD_VARIABLES!r} if k in os.environ])",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(_without_blas_settings()),
        capture_output=True, text=True, check=True, timeout=120,
    )
    assert out.stdout.splitlines() == ["[]"] * (2 + len(COMMAND_RUNS))
    written = {p.name for p in tmp_path.iterdir()}
    assert {"solve.csv", "sweep.csv", "validate_rules.json", "table1.csv"} <= written


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads /proc/self/maps")
def test_every_command_maps_one_blas_and_no_openssl(tmp_path):
    # all five commands in one process: the eigensolver uses numpy's BLAS,
    # so no second one is mapped, and the cache hashes with CPython's
    # built-in SHA-256, so not even a sweep that reads or writes its cache
    # loads hashlib's OpenSSL
    cached = ["sweep", "--beta", "10", "--gamma", "0", "--states", "2", "--grid-points", "512",
              "--workers", "1"]
    code = "\n".join([
        "import contextlib, io, json, sys, dwell.cli",
        f"for argv in {COMMAND_RUNS + [cached]!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        f"        assert dwell.cli.main(argv + ['--outdir', {str(tmp_path)!r}]) == 0",
        "    print('_hashlib' in sys.modules)",
        "with open('/proc/self/maps') as fh:",
        "    paths = {line.split()[-1] for line in fh}",
        "names = {p.rsplit('/', 1)[-1] for p in paths if p.startswith('/')}",
        "print(json.dumps(sorted(n for n in names if n.startswith('lib') and 'blas' in n.lower())))",
        "print(json.dumps(sorted(n for n in names if n.startswith(('libcrypto', 'libssl')))))",
    ])
    out = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(_without_blas_settings()),
        capture_output=True, text=True, check=True, timeout=120,
    )
    *hashlib_loaded, blas, openssl = out.stdout.splitlines()
    assert hashlib_loaded == ["False"] * (len(COMMAND_RUNS) + 1)
    assert len(json.loads(blas)) == 1, blas
    assert json.loads(openssl) == [], openssl
    assert list((tmp_path / "cache").glob("*.json"))


def test_only_a_process_pool_loads_multiprocessing(tmp_path):
    # checked after the import and again after an in-process sweep
    argv = [
        "sweep", "--beta", "10", "--gamma", "0,0.5", "--states", "2", "--grid-points", "512",
        "--workers", "1", "--no-cache", "--outdir", str(tmp_path),
    ]
    code = (
        "import sys, dwell.cli\n"
        "def loaded(): return sorted(m for m in sys.modules "
        "if m in ('concurrent.futures.process', 'multiprocessing'))\n"
        "print(loaded())\n"
        f"assert dwell.cli.main({argv!r}) == 0\n"
        "print(loaded())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_child_env(os.environ), capture_output=True,
        text=True, check=True, timeout=120,
    )
    lines = out.stdout.splitlines()  # the command prints its output path between
    assert (lines[0], lines[-1]) == ("[]", "[]")
    assert (tmp_path / "sweep.csv").exists()


def _imported(argv, cwd):
    """The exit code of `python -m dwell argv` and every module it imported,
    as `-X importtime` lists them."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "dwell", *argv], cwd=cwd,
        env=_child_env(_without_blas_settings()), capture_output=True, text=True, timeout=120,
    )
    return out.returncode, {line.rsplit("|", 1)[1].strip() for line in out.stderr.splitlines()
                            if line.startswith("import time:")}


def test_each_command_imports_only_the_modules_it_runs(tmp_path):
    numerical = {"numpy", "dwell.spectrum"}
    openssl = {"_hashlib"}  # no command loads it, not even the sweep cache
    for argv, code in ((["--help"], 0), (["sweep", "--gamma", "2:1:1"], 2)):
        rc, modules = _imported(argv, tmp_path)
        assert rc == code and not modules & (numerical | openssl), (argv, rc, modules)

    # the action integrals' Gauss-Legendre rule is a stored table, so no
    # command loads numpy.polynomial to build it
    sweep = ["sweep", "--beta", "10", "--gamma", "0,0.5", "--states", "2",
             "--grid-points", "512", "--workers", "1"]
    rc, cold = _imported(sweep + ["--outdir", "cold"], tmp_path)
    assert rc == 0 and numerical <= cold
    assert not cold & {"dwell.rules", "numpy.polynomial", *openssl}
    for argv in (["solve", "--beta", "10", "--states", "2", "--grid-points", "512"],
                 ["phase-space", "--beta", "10", "--states", "2"]):
        rc, modules = _imported(argv + ["--outdir", "single"], tmp_path)
        assert rc == 0 and "dwell.phasespace" in modules, (argv, rc)
        assert "numpy.polynomial" not in modules, argv
    # every point served from the cache that the cold run filled
    rc, hit = _imported(sweep + ["--outdir", "hit", "--cache-dir", "cold/cache"], tmp_path)
    assert rc == 0 and not hit & (numerical | openssl), hit & (numerical | openssl)
    assert (tmp_path / "hit/sweep.csv").read_bytes() == (tmp_path / "cold/sweep.csv").read_bytes()

    rc, rules = _imported(["validate-rules", "--alphas", "1", "--beta", "20", "--gamma", "1,2",
                           "--states", "4"], tmp_path)
    assert rc == 0 and "dwell.rules" in rules
    assert not rules & {"dwell.report", "dwell.phasespace", *openssl}


def test_grid_point_counts_that_round_alike_share_one_cache_entry_per_point(tmp_path):
    # 514 and 515 read as 516 intervals, the count every grid uses, so the
    # runs after the first are served from its cache without numpy
    sweep = ["sweep", "--beta", "10", "--gamma", "0,0.5", "--states", "2", "--workers", "1",
             "--cache-dir", "cache"]
    rc, first = _imported(sweep + ["--grid-points", "514", "--outdir", "514"], tmp_path)
    assert rc == 0 and "numpy" in first
    for points in ("515", "516"):
        rc, modules = _imported(sweep + ["--grid-points", points, "--outdir", points], tmp_path)
        assert rc == 0 and "numpy" not in modules, points
        assert ((tmp_path / points / "sweep.csv").read_bytes()
                == (tmp_path / "514" / "sweep.csv").read_bytes())
    assert len(list((tmp_path / "cache").glob("*.json"))) == 2


def test_import_dwell_loads_no_numpy_and_resolves_every_export():
    code = "\n".join([
        "import sys, dwell, dwell.cli",
        "assert 'numpy' not in sys.modules, 'import dwell or dwell.cli loaded numpy'",
        # the well geometry, which a cache key needs, works in Python floats
        "from dwell.potential import QuarticPotential, critical_points, turning_points",
        "pot = QuarticPotential.from_well_params(1, 20, 3)",
        "geo, tps, v = critical_points(pot), turning_points(pot, -50.0), pot(0.5)",
        "assert 'numpy' not in sys.modules, 'the well geometry loaded numpy'",
        "assert type(tps) is tuple and len(tps) == 4, tps",
        "assert all(type(t) is float for t in (*tps, v, *geo.barrier)), (tps, v, geo)",
        "missing = [n for n in dwell.__all__ if getattr(dwell, n, None) is None]",
        "assert not missing, missing",
        "print(len(dwell.__all__), dwell.__version__)",
        # a name left in a submodule's __all__ after its definition is gone
        "import importlib, pkgutil",
        "mods = [importlib.import_module('dwell.' + m.name)",
        "        for m in pkgutil.iter_modules(dwell.__path__) if not m.name.startswith('_')]",
        "stale = [(m.__name__, n) for m in mods for n in m.__all__ if not hasattr(m, n)]",
        "assert len(mods) > 9 and not stale, stale",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=_child_env(os.environ),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert int(out.stdout.split()[0]) > 40


# imported by the child as sitecustomize, before any other module: at exit it
# prints the BLAS variables the process ended with and the thread count of each
# mapped OpenBLAS (the symbol lookup of perfbench/spans.py)
_EXIT_PROBE = """
import atexit, ctypes, json, os

def _report():
    threads = {}
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh}
        for path in sorted(paths):
            name = path.rsplit("/", 1)[-1]
            if not (path.startswith("/") and name.startswith("lib") and "blas" in name.lower()):
                continue
            lib = ctypes.CDLL(path)
            for prefix in ("scipy_openblas", "openblas"):
                for suffix in ("64_", ""):
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                    if get is not None and name not in threads:
                        get.restype = ctypes.c_int
                        get.argtypes = []
                        threads[name] = get()
    env = {k: os.environ.get(k) for k in %r}
    print(json.dumps({"env": env, "threads": threads}), flush=True)

atexit.register(_report)
""" % (BLAS_THREAD_VARIABLES,)


def _run_module_entry(tmp_path, **blas):
    """`python -m dwell table 1` in a fresh interpreter with only the BLAS
    variables `blas` set; returns what the exit probe saw."""
    probe = tmp_path / "probe"
    probe.mkdir(parents=True)
    (probe / "sitecustomize.py").write_text(_EXIT_PROBE)
    out = subprocess.run(
        [sys.executable, "-m", "dwell", "table", "1", "--outdir", str(tmp_path / "out")],
        env=_child_env(_without_blas_settings(**blas), str(probe)),
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert (tmp_path / "out" / "table1.csv").is_file()
    return json.loads(out.stdout.splitlines()[-1])


def test_module_entry_runs_blas_on_one_thread_unless_the_user_chose(tmp_path):
    default = _run_module_entry(tmp_path / "default")
    assert default["env"] == dict.fromkeys(BLAS_THREAD_VARIABLES, "1")
    assert all(n == 1 for n in default["threads"].values()), default["threads"]

    # any one variable set by the user keeps the library's own defaults for the rest
    chosen = _run_module_entry(tmp_path / "chosen", OMP_NUM_THREADS="2")
    assert chosen["env"] == {"OMP_NUM_THREADS": "2", "OPENBLAS_NUM_THREADS": None,
                             "MKL_NUM_THREADS": None}


def test_sweep_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    argv = ["sweep", "--alpha", "1", "--beta", "10,20", "--gamma", "0:2.5:0.5",
            "--states", "6", "--workers", "1", "--outdir", "out"]
    runs = []
    for name, blas in (("one", {}), ("two", {"OPENBLAS_NUM_THREADS": "2"})):
        cwd = tmp_path / name
        cwd.mkdir()
        out = subprocess.run([sys.executable, "-m", "dwell", *argv], cwd=cwd,
                             env=_child_env(_without_blas_settings(**blas)),
                             capture_output=True, timeout=120)
        files = {p.relative_to(cwd).as_posix(): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        runs.append((out.returncode, out.stdout, files))
    (code, stdout, files), other = runs
    assert code == 0
    assert len([f for f in files if f.startswith("out/cache/")]) == 12
    assert (code, stdout, files) == other


def test_cache_dir_env_override(tmp_path, monkeypatch):
    cache_dir = tmp_path / "elsewhere"
    monkeypatch.setenv("DWELL_CACHE_DIR", str(cache_dir))
    rc = main([
        "sweep", "--alpha", "1", "--beta", "12", "--gamma", "0.5",
        "--states", "2", "--grid-points", "512",
        "--outdir", str(tmp_path / "out"), "--workers", "1",
    ])
    assert rc == 0
    assert list(cache_dir.glob("*.json"))
    assert not (tmp_path / "out" / "cache").exists()


def test_sweep_worker_pool_matches_serial(tmp_path):
    base = [
        "sweep", "--alpha", "1", "--beta", "10,14", "--gamma", "0,1",
        "--states", "3", "--grid-points", "512", "--no-cache",
    ]
    assert main(base + ["--outdir", str(tmp_path / "serial"), "--workers", "1"]) == 0
    assert main(base + ["--outdir", str(tmp_path / "pool"), "--workers", "2"]) == 0
    serial = (tmp_path / "serial" / "sweep.csv").read_bytes()
    pool = (tmp_path / "pool" / "sweep.csv").read_bytes()
    assert serial == pool


def test_sweep_fisher_x_cells_are_the_band_moment_at_any_grid(tmp_path):
    # I_x of the real psi(x) is 4 <p^2>, read from the band, so its cells
    # follow delta_p's and do not move with the number of grid points; 514
    # and 4094 points, which are not multiples of 4, round up to 516 and
    # 4096, and no point may fail there
    base = ["sweep", "--alpha", "1", "--beta", "2,10,30", "--gamma", "0,3.3,7",
            "--states", "8", "--workers", "1", "--no-cache"]
    cells = []
    for points in ("514", "1024", "4094", "4096"):
        assert main(base + ["--grid-points", points, "--outdir", str(tmp_path / points)]) == 0
        rows = read_rows(tmp_path / points / "sweep.csv")
        assert len(rows) == 72
        for row in rows:
            assert row["error"] == ""
            dp = float(row["delta_p"])
            assert row["i_x"] == cli._token(4.0 * dp * dp)
        cells.append([row["i_x"] for row in rows])
    assert all(c == cells[0] for c in cells)


def test_sweep_all_points_failing_exits_3(tmp_path):
    rc = main([
        "sweep", "--alpha", "-1", "--beta", "10", "--gamma", "0,1",
        "--states", "3", "--grid-points", "512",
        "--outdir", str(tmp_path), "--workers", "1",
    ])
    assert rc == 3
    rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 2
    # error messages containing commas must stay inside their (quoted) cell
    assert all("positive, got -1" in r["error"] for r in rows)
    assert all(r["energy"] == "" for r in rows)
    assert all(None not in r for r in rows)


def test_malformed_config_value_exits_2(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("states = many\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--outdir", str(tmp_path)]) == 2


def test_a_config_file_that_cannot_be_read_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["solve", "--config", str(missing), "--outdir", str(tmp_path / "out")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith("error: cannot read config file: ")
    assert str(missing) in errors[0]
    assert not (tmp_path / "out").exists()


def test_a_config_file_with_a_byte_order_mark_reads_as_without(tmp_path, capsys):
    # editors that save UTF-8 with a byte-order mark put U+FEFF before the first key
    text = "beta = 30\ngamma = 4\nstates = 3\ngrid_points = 512\n"
    results = []
    for name, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text, encoding=encoding)
        assert cfg.read_bytes().startswith(b"\xef\xbb\xbf") == (name == "bom")
        rc = main(["solve", "--config", str(cfg), "--outdir", str(tmp_path / name)])
        results.append((rc, capsys.readouterr().err, (tmp_path / name / "solve.csv").read_bytes()))
    assert results[0] == results[1] and results[0][0] == 0


@pytest.mark.parametrize("first, second, key", [
    ("beta=10", "beta = 20", "beta"),
    ("grid_points=1024", "grid-points=2048", "grid_points"),
])
def test_a_key_given_twice_in_a_config_file_exits_2(tmp_path, capsys, first, second, key):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"{first}\nstates = 2\n{second}\n", encoding="utf-8")
    assert main(["solve", "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {cfg}:1: {key} is set again at line 3"]
    assert not (tmp_path / "out").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(
        "alpha = 1\nbeta = 30\ngamma = 4\nstates = 3\ngrid_points = 512\n"
        f"outdir = {tmp_path}\n# comment line\n",
        encoding="utf-8",
    )
    assert main(["solve", "--config", str(cfg)]) == 0
    rows = read_rows(tmp_path / "solve.csv")
    assert float(rows[0]["gamma"]) == 4.0
    # flags win over the file
    assert main(["solve", "--config", str(cfg), "--gamma", "0"]) == 0
    rows = read_rows(tmp_path / "solve.csv")
    assert float(rows[0]["gamma"]) == 0.0


def test_table_1_benchmark(tmp_path):
    assert main(["table", "1", "--outdir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "table1.csv")
    assert [r["n_basis"] for r in rows] == ["25", "50", "75", "100"]
    last = rows[-1]
    assert float(last["e0"]) == pytest.approx(0.22049693355138318, rel=1e-10)
    assert float(last["e3"]) == pytest.approx(2.47522712627695799794, rel=1e-10)


def test_table_2_3_4_reference_values(tmp_path):
    assert main(["table", "2", "--outdir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "table2.csv")
    cell = {(r["beta"], r["gamma"], r["pair"]): float(r["gap"]) for r in rows}
    assert cell[("5", "2", "1-2")] == pytest.approx(0.728, abs=1e-3)
    assert cell[("10", "4", "2-3")] == pytest.approx(2.8e-3, rel=0.05)

    assert main(["table", "3", "--outdir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "table3.csv")
    cell = {(r["gamma"], r["n"]): float(r["energy"]) for r in rows}
    assert cell[("0", "0")] == pytest.approx(7.7123035268648, abs=1e-9)
    assert cell[("8", "4")] == pytest.approx(69.461672176182, abs=1e-9)

    assert main(["table", "4", "--outdir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "table4.csv")
    cell = {(r["beta"], r["gamma"], r["n"]): float(r["energy"]) for r in rows}
    assert cell[("11", "2", "1")] == pytest.approx(13.823057196, abs=1e-8)
    assert cell[("15", "8", "0")] == pytest.approx(5.7909404284, abs=1e-8)


def test_validate_rules_report(tmp_path):
    rc = main([
        "validate-rules", "--alphas", "1", "--beta", "20", "--gamma", "1,3",
        "--states", "6", "--grid-points", "2048", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "validate_rules.json").read_text(encoding="utf-8"))
    (block,) = doc["results"]
    assert float(block["delta_gamma"]) == pytest.approx(2.0, abs=0.05)
    assert float(block["occupancy_agreement"]) == 1.0
    assert len(block["points"]) == 2


def test_validate_rules_json_layout(tmp_path):
    argv = ["validate-rules", "--alphas", "1", "--beta", "20", "--states", "4",
            "--grid-points", "512"]
    docs = {}
    for name, gamma in (("estimate", []), ("rules", ["--gamma", "1,2"])):
        assert main(argv + gamma + ["--outdir", str(tmp_path / name)]) == 0
        docs[name] = json.loads((tmp_path / name / "validate_rules.json").read_text("utf-8"))
    estimate_keys = {"alpha", "delta_gamma"}
    rules_keys = estimate_keys | {"beta", "occupancy_agreement", "pairs_agreement", "points"}
    point_keys = {"gamma", "k", "predicted_pairs", "detected_pairs", "occupancy_predicted",
                  "occupancy_measured", "participates", "pairs_match", "occupancy_agreement"}
    for name, keys in (("estimate", estimate_keys), ("rules", rules_keys)):
        assert docs[name].keys() == {"schema", "results"}
        assert docs[name]["schema"] == "dwell-rules-v2"
        (block,) = docs[name]["results"]
        assert block.keys() == keys
        assert all(isinstance(block[key], str) for key in keys - {"points"})
        assert (block["alpha"], block["delta_gamma"]) == ("1", "2")
    points = docs["rules"]["results"][0]["points"]
    assert [p["gamma"] for p in points] == ["1", "2"]
    for p in points:
        assert p.keys() == point_keys
        assert all(isinstance(p[key], str) for key in ("gamma", "k", "occupancy_agreement"))
        assert isinstance(p["participates"], bool) and isinstance(p["pairs_match"], bool)
        for key in ("predicted_pairs", "detected_pairs"):
            assert all(len(pair) == 2 and all(type(i) is int for i in pair)
                       for pair in p[key])
        for key in ("occupancy_predicted", "occupancy_measured"):
            assert len(p[key]) == 4 and set(p[key]) <= {"I", "II", "both"}
    # k = 1 pairs states (1, 2) and (3, 4): the int check above is not vacuous
    assert points[1]["predicted_pairs"] == [[1, 2], [3, 4]]


def test_validate_rules_at_the_certified_band_edge_exits_2(tmp_path, capsys, monkeypatch):
    # states 0..33 are certified, but judging state 33 also solves 34: with
    # a gamma check that is a configuration error, found before any solve
    import dwell.rules

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    argv = ["validate-rules", "--alphas", "1", "--gamma", "3", "--states", "34",
            "--outdir", str(tmp_path)]
    with monkeypatch.context() as patched:
        patched.setattr(dwell.rules, "solve", no_solve)
        assert main(argv) == 2
    assert capsys.readouterr().err.splitlines()[0] == (
        "error: states=34 with a gamma check solves 35 states, which exceeds the 34 states "
        "certified converged at n_basis=100")
    assert not list(tmp_path.iterdir())
    # without a gamma check, and one state lower, the same settings run
    assert main(argv[:3] + argv[5:]) == 0
    assert main(argv[:-3] + ["33", "--outdir", str(tmp_path)]) == 0


def test_validate_rules_at_negative_gammas(tmp_path):
    rc = main([
        "validate-rules", "--alphas", "1", "--beta", "20", "--gamma=-3,-1,1,3",
        "--states", "6", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "validate_rules.json").read_text(encoding="utf-8"))
    (block,) = doc["results"]
    assert block["occupancy_agreement"] == block["pairs_agreement"] == "1"
    points = {float(p["gamma"]): p for p in block["points"]}
    for gamma in (1.0, 3.0):
        minus, plus = dict(points[-gamma]), dict(points[gamma])
        # the JSON keeps the signed k; every verdict matches the mirror image
        assert float(minus.pop("k")) == -float(plus.pop("k"))
        del minus["gamma"], plus["gamma"]
        assert minus == plus


@pytest.mark.parametrize("argv, flag, value", [
    (["sweep", "--beta", "10", "--states", "2", "--workers", "1", "--no-cache"],
     "--gamma", "-2:2:1"),
    (["validate-rules", "--beta", "20", "--states", "2"], "--gamma", "-3,3"),
    (["solve", "--beta", "10", "--states", "2"], "--gamma", "-1e-3"),
    (["sweep", "--gamma", "1", "--states", "2", "--workers", "1", "--no-cache"],
     "--beta", "-5,10"),
    # a flag name with a digit; argparse alone reads neither value as a value
    (["solve", "--states", "2"], "--v0", "-1e-3"),
    (["solve", "--states", "2"], "--v0", "-5."),
])
def test_values_starting_with_a_minus_read_like_the_joined_form(tmp_path, argv, flag, value):
    outputs = []
    for form, given in (("split", [flag, value]), ("joined", [f"{flag}={value}"])):
        outdir = tmp_path / form
        assert main(argv + given + ["--outdir", str(outdir)]) == 0
        (path,) = outdir.iterdir()
        outputs.append((path.name, path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_a_flag_without_its_value_still_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--gamma", "--states", "3", "--outdir", str(tmp_path)])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_validate_rules_reads_gammas_from_config(tmp_path):
    cfg = tmp_path / "rules.cfg"
    cfg.write_text("beta = 20\ngamma = 1,3\nstates = 4\ngrid_points = 1024\n",
                   encoding="utf-8")
    rc = main([
        "validate-rules", "--alphas", "1", "--config", str(cfg),
        "--outdir", str(tmp_path),
    ])
    assert rc == 0
    doc = json.loads((tmp_path / "validate_rules.json").read_text(encoding="utf-8"))
    (block,) = doc["results"]
    assert [float(p["gamma"]) for p in block["points"]] == [1.0, 3.0]
    assert block["beta"] == "20"


def test_table_5_occupancy(tmp_path):
    assert main(["table", "5", "--grid-points", "2048", "--outdir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "table5.csv")
    by_k = {}
    for r in rows:
        by_k.setdefault(r["k"], []).append((r["well"], r["effective_nodes"]))
    assert by_k["0.5"] == [
        ("I", "0"), ("II", "0"), ("I", "1"), ("II", "1"), ("I", "2"), ("II", "2"),
    ]
    assert by_k["3.5"][4] == ("II", "0")


def test_phase_space_contours_sample_each_lobe_on_the_energy_shell(tmp_path):
    # each lobe row has 512 contour samples from turning point to turning
    # point on the upper branch p = sqrt(E - V) >= 0
    assert main([
        "phase-space", "--beta", "10", "--gamma", "3", "--v0", "none", "--states", "4",
        "--contours", "--outdir", str(tmp_path),
    ]) == 0
    pot = QuarticPotential.from_well_params(1.0, 10.0, 3.0)
    lobes = read_rows(tmp_path / "phase_space.csv")
    contours = read_rows(tmp_path / "phase_space_contours.csv")
    assert {r["lobe_count"] for r in lobes} == {"1", "2"}
    assert len(contours) == 512 * len(lobes)
    for lobe in lobes:
        rows = [r for r in contours if (r["n"], r["lobe"]) == (lobe["n"], lobe["lobe"])]
        x = np.array([float(r["x"]) for r in rows])
        p = np.array([float(r["p"]) for r in rows])
        assert x.size == p.size == 512
        assert x[0] == float(lobe["x_lo"]) and x[-1] == float(lobe["x_hi"])
        assert p[0] == pytest.approx(0.0, abs=1e-7)
        assert p[-1] == pytest.approx(0.0, abs=1e-7)
        assert np.all(p >= 0.0)
        # contour consistent with energy conservation
        assert np.allclose(p**2 + pot(x), float(lobe["energy"]), atol=1e-10)


def test_phase_space_export(tmp_path):
    rc = main([
        "phase-space", "--alpha", "1", "--beta", "8", "--gamma", "2",
        "--states", "4", "--contours", "--outdir", str(tmp_path),
    ])
    assert rc == 0
    rows = read_rows(tmp_path / "phase_space.csv")
    counts = {}
    for r in rows:
        counts[int(r["n"])] = int(r["lobe_count"])
    assert counts == {0: 1, 1: 2, 2: 2, 3: 2}
    contours = read_rows(tmp_path / "phase_space_contours.csv")
    assert len(contours) == 512 * len(rows)  # 512 samples per lobe row


RULES_SCAN = ["validate-rules", "--alphas", "1,2", "--beta", "20", "--gamma", "0.5:7:0.5",
              "--states", "6"]


def test_rules_scan_solves_only_its_gamma_check(tmp_path, monkeypatch):
    # delta_gamma is the closed form 2 sqrt(alpha): one solve per alpha and
    # gamma, 2 x 14, and none for the library's 32-solve delta-gamma probe
    import dwell.rules

    def no_probe(*args, **kwargs):
        raise AssertionError("estimate_delta_gamma called")

    dwell.rules._probe_transitions.cache_clear()
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(dwell.rules, "solve", counted)
    monkeypatch.setattr(dwell.rules, "estimate_delta_gamma", no_probe)
    assert main(RULES_SCAN + ["--outdir", str(tmp_path)]) == 0
    assert len(calls) == 28
    doc = json.loads((tmp_path / "validate_rules.json").read_text(encoding="utf-8"))
    assert [(b["alpha"], b["delta_gamma"]) for b in doc["results"]] == [
        ("1", "2"), ("2", format(2.0 * math.sqrt(2.0), ".17g"))]


def test_validate_rules_without_a_gamma_check_solves_nothing_and_loads_no_numpy(tmp_path):
    # without a gamma check the command solves nothing, so it reads neither
    # beta nor the states: n_basis 9 certifies 4 states, fewer than the
    # library's 5-state probe and than --states 5, and beta may be a list
    assert main(["validate-rules", "--outdir", str(tmp_path / "plain")]) == 0
    plain = (tmp_path / "plain/validate_rules.json").read_bytes()
    doc = json.loads(plain.decode("utf-8"))
    assert doc == {"schema": "dwell-rules-v2", "results": [{"alpha": "1", "delta_gamma": "2"}]}
    for i, argv in enumerate((["--n-basis", "9", "--states", "2"],
                              ["--n-basis", "9", "--states", "5"], ["--beta", "10,20"])):
        rc, modules = _imported(["validate-rules", *argv, "--outdir", f"out{i}"], tmp_path)
        assert rc == 0, argv
        assert not modules & {"numpy", "dwell.rules", "dwell.spectrum"}, argv
        assert (tmp_path / f"out{i}/validate_rules.json").read_bytes() == plain, argv


@pytest.mark.parametrize("argv", [
    ["--n-basis", "9", "--gamma", "3", "--states", "4"],
    ["--n-basis", "11", "--gamma", "3", "--states", "4"],
])
def test_a_basis_too_small_for_the_gamma_check_exits_2_before_any_solve(tmp_path, capsys,
                                                                        monkeypatch, argv):
    # the gamma check of --states 4 solves 5 states, and n_basis 9 and 11
    # certify 4: a configuration error, found before any solve and without
    # numpy; one state fewer runs at the same basis
    import dwell.rules

    def no_solve(*args, **kwargs):
        raise AssertionError("solved")

    argv = ["validate-rules", *argv, "--outdir", str(tmp_path / "out")]
    with monkeypatch.context() as patched:
        patched.setattr(dwell.rules, "solve", no_solve)
        assert main(argv) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: states=4 with a gamma check solves 5 states, which exceeds the 4 "
                      f"states certified converged at n_basis={argv[2]}"]
    assert not list(tmp_path.iterdir())
    rc, modules = _imported(argv, tmp_path)
    assert rc == 2 and "numpy" not in modules
    assert not list(tmp_path.iterdir())
    assert main(argv[:-3] + ["3", "--outdir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("table", [2, 3, 4, 5])
def test_a_basis_too_small_for_a_table_exits_2_before_any_solve(tmp_path, capsys, table):
    # n_basis 12 certifies 5 states; tables 2-5 solve 6, 11, 8 and 6
    argv = ["table", str(table), "--n-basis", "12", "--outdir", "out"]
    rc, modules = _imported(argv, tmp_path)
    assert rc == 2 and "numpy" not in modules
    assert not list(tmp_path.iterdir())
    assert main(argv[:-1] + [str(tmp_path / "out")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: table {table} solves {cli.TABLE_STATES[table]} states, which "
                      f"exceeds the 5 states certified converged at n_basis=12"]
    assert not list(tmp_path.iterdir())


def test_table_states_are_each_tables_largest_solve(monkeypatch):
    # so that the check above is exact: the smallest basis it accepts runs
    import dwell.report
    import dwell.spectrum

    sizes = []

    def counted(pot, n_basis, n_states):
        sizes.append(n_states)
        return solve(pot, n_basis, n_states)

    monkeypatch.setattr(dwell.spectrum, "solve", counted)
    monkeypatch.setattr(dwell.report, "solve", counted)
    for table, states in cli.TABLE_STATES.items():
        sizes.clear()
        argv = ["table", str(table), "--n-basis", str(3 * (states - 1)), "--grid-points", "512"]
        list(cli._table_rows(table, cli.build_config(cli.build_parser().parse_args(argv))))
        assert max(sizes) == states, table


@pytest.mark.parametrize("command, flag, line, outputs", [
    ("validate-rules", ["--alphas", "1,2"], "alphas = 1,2", ["validate_rules.json"]),
    ("phase-space", ["--contours"], "contours = true",
     ["phase_space.csv", "phase_space_contours.csv"]),
])
def test_a_config_file_sets_every_setting_its_command_reads(tmp_path, command, flag, line,
                                                            outputs):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"{line}\n", encoding="utf-8")
    assert main([command, *flag, "--outdir", str(tmp_path / "flag")]) == 0
    assert main([command, "--config", str(cfg), "--outdir", str(tmp_path / "file")]) == 0
    for name in outputs:
        assert (tmp_path / "file" / name).read_bytes() == (tmp_path / "flag" / name).read_bytes()


@pytest.mark.parametrize("argv, command", [
    (["validate-rules", "--alphas", "-1"], "validate-rules"),
    (["validate-rules", "--alphas", "1", "--gamma", "1e300", "--states", "2"], "validate-rules"),
    (["phase-space", "--alpha", "-1"], "phase-space"),
])
def test_solver_and_potential_failures_exit_3(tmp_path, capsys, argv, command):
    # a negative alpha, and a gamma check whose tilt overflows the solver's
    # residuals, end in one error line instead of a traceback
    assert main(argv + ["--outdir", str(tmp_path)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {command} failed: ")


_BAND_OVERFLOW = "the Hamiltonian band overflows double precision at basis scale sigma="
_SIGMA_OUT_OF_RANGE = "the basis scale sigma for n_basis=100 leaves double precision"
_EXTREMA_OUT_OF_RANGE = "the extrema of the well leave double precision"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, cause", [
    (["solve", "--alpha", "1e-300", "--states", "2"], _BAND_OVERFLOW + "5.000e-300"),
    (["solve", "--poly", "1e-300,0,-1,0,0", "--states", "2"], _BAND_OVERFLOW + "1.000e-298"),
    (["validate-rules", "--alphas", "1e-300", "--beta", "1", "--gamma", "0"],
     _BAND_OVERFLOW + "1.000e-298"),
    (["solve", "--v0", "1e308", "--states", "2"],
     "the residual of state 0 at energy 1.000e+308 overflows double precision"),
    # the sigma cubic's c4 or c2 term overflows
    (["solve", "--alpha", "1e303", "--states", "2"], _SIGMA_OUT_OF_RANGE),
    (["solve", "--v0", "none", "--beta", "1e308", "--states", "2"], _SIGMA_OUT_OF_RANGE),
    (["solve", "--poly", "1e308,1e308,0,0,0", "--states", "2"], _SIGMA_OUT_OF_RANGE),
    # the minimum value -beta^2 / (4 alpha) overflows, or 2 c2 in V' does
    (["solve", "--beta", "1e303", "--states", "2"], _EXTREMA_OUT_OF_RANGE),
    (["solve", "--alpha", "5e-324", "--states", "2"], _EXTREMA_OUT_OF_RANGE),
    (["solve", "--beta", "1e308", "--states", "2"], _EXTREMA_OUT_OF_RANGE),
], ids=["alpha", "poly", "validate-rules", "v0", "alpha-1e303", "v0-none-beta-1e308",
        "poly-1e308", "beta-1e303", "alpha-5e-324", "beta-1e308"])
def test_wells_beyond_double_precision_exit_3_with_their_cause(tmp_path, capsys, argv, cause):
    # one error line that names the cause, and no numpy floating-point warning
    assert main(argv + ["--outdir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"error: {argv[0]} failed: {cause}\n"


def test_a_sweep_point_beyond_double_precision_records_its_cause(tmp_path):
    argv = ["sweep", "--beta", "10,1e308", "--gamma", "0", "--states", "2", "--workers", "1",
            "--outdir", str(tmp_path)]
    assert main(argv) == 0
    rows = read_rows(tmp_path / "sweep.csv")
    assert [(r["beta"], r["error"]) for r in rows] == [
        ("10", ""), ("10", ""), ("1e+308", _EXTREMA_OUT_OF_RANGE)]


def test_a_residual_above_its_bound_fails_the_solve_and_the_sweep_point(tmp_path, capsys,
                                                                        monkeypatch):
    # state 1 comes back from LAPACK off by 1e-6 of state 0, with info 0:
    # only the residual check can catch it (beta 5 has no unresolved doublet)
    from dwell import spectrum

    spec = solve(cli.resolve_potential(1.0, 5.0, 0.0, "auto"), n_states=3)
    bound = spectrum.RESIDUAL_TOL * max(spec.basis.sigma, abs(spec.energy(1)))
    cause = rf"residual \S+ for state 1 exceeds {re.escape(f'{bound:.3e}')}"
    lowest = spectrum._dsbevx

    def perturbed(band, k):
        w, z, m, info = lowest(band, k)
        z = z.copy()
        z[:, 1] += 1e-6 * z[:, 0]
        return w, z, m, info

    monkeypatch.setattr(spectrum, "_dsbevx", perturbed)
    argv = ["--beta", "5", "--gamma", "0", "--states", "3", "--grid-points", "512",
            "--outdir", str(tmp_path)]
    assert main(["solve", *argv]) == 3
    assert re.fullmatch(f"error: solve failed: {cause}\n", capsys.readouterr().err)
    assert main(["sweep", *argv, "--workers", "1", "--no-cache"]) == 3
    (row,) = read_rows(tmp_path / "sweep.csv")
    assert re.fullmatch(cause, row["error"]) and row["energy"] == ""


@pytest.mark.parametrize("argv, command", [
    (["solve", "--states", "2", "--outdir", "{file}/o"], "solve"),
    (["sweep", "--beta", "10", "--gamma", "0", "--states", "2", "--workers", "1",
      "--outdir", "{tmp}/out", "--cache-dir", "{file}/c"], "sweep"),
])
def test_a_path_that_cannot_be_written_exits_3(tmp_path, capsys, argv, command):
    # an output directory or cache directory below a plain file
    file = tmp_path / "afile"
    file.touch()
    assert main([arg.format(file=file, tmp=tmp_path) for arg in argv]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {command} failed: ")


def test_a_cache_that_cannot_be_written_keeps_the_rows(tmp_path, capsys, monkeypatch):
    # the sweep writes its rows before its cache entries, and tries no
    # other cache write after one fails
    stored = []
    cache_store = cli.cache_store

    def counted(cache_dir, key, records):
        stored.append(key)
        return cache_store(cache_dir, key, records)

    monkeypatch.setattr(cli, "cache_store", counted)
    file = tmp_path / "afile"
    file.touch()
    argv = ["sweep", "--beta", "10", "--gamma", "0,0.5", "--states", "2", "--grid-points", "512",
            "--workers", "1"]
    assert main(argv + ["--outdir", str(tmp_path / "out"), "--cache-dir", str(file / "c")]) == 3
    assert capsys.readouterr().err.startswith("error: sweep failed: ")
    assert len(stored) == 1
    assert main(argv + ["--outdir", str(tmp_path / "ref"), "--no-cache"]) == 0
    assert (tmp_path / "out/sweep.csv").read_bytes() == (tmp_path / "ref/sweep.csv").read_bytes()


def test_a_sweep_stores_each_point_before_it_solves_the_next(tmp_path, monkeypatch):
    calls = []
    point_records, cache_store = cli.point_records, cli.cache_store

    def solving(*payload):
        calls.append("solve")
        return point_records(*payload)

    def storing(*args):
        calls.append("store")
        return cache_store(*args)

    monkeypatch.setattr(cli, "point_records", solving)
    monkeypatch.setattr(cli, "cache_store", storing)
    assert main(["sweep", "--beta", "10", "--gamma", "0,1,2", "--states", "2",
                 "--grid-points", "512", "--workers", "1", "--outdir", str(tmp_path)]) == 0
    assert calls == ["solve", "store"] * 3


def test_a_sweep_holds_a_few_points_at_a_time(tmp_path, monkeypatch):
    # each point's rows are written as soon as it is solved and its cache
    # entry right after them, so the traced peak hardly grows with the
    # points: against one point, 8 points add less than 3 points' rows and
    # 32 points less than 31/4 (a sweep that held 8 points' rows for a
    # batched store added more than both)
    import tracemalloc

    held = []
    point_records = cli.point_records

    def measured(*payload):
        before = tracemalloc.get_traced_memory()[0]
        recs = point_records(*payload)
        held.append(tracemalloc.get_traced_memory()[0] - before)
        return recs

    monkeypatch.setattr(cli, "point_records", measured)

    def traced_peak(beta, points, name):
        argv = ["sweep", "--beta", beta, "--gamma", f"0:{0.25 * (points - 1)!r}:0.25",
                "--states", "8", "--grid-points", "512", "--workers", "1",
                "--outdir", str(tmp_path / name)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak("20", 32, "warm-up")  # imports and first-call caches
    held.clear()
    one, few, many = (traced_peak("10", points, f"points{points}") for points in (1, 8, 32))
    rows = statistics.median(held)  # what one point's returned rows hold
    assert len(read_rows(tmp_path / "points32/sweep.csv")) == 8 * 32
    assert len(list((tmp_path / "points32/cache").glob("*.json"))) == 32
    assert few - one < 3 * rows, (one, few, many, rows)
    assert many - one < 31 * rows / 4, (one, few, many, rows)


def test_an_interrupted_sweep_leaves_no_output_file(tmp_path, monkeypatch):
    # the rows go to a temp file that is renamed into place only at the end
    solved = []
    point_records = cli.point_records

    def interrupted(alpha, beta, gamma, pot, settings):
        solved.append(gamma)
        if len(solved) == 2:
            raise KeyboardInterrupt
        return point_records(alpha, beta, gamma, pot, settings)

    monkeypatch.setattr(cli, "point_records", interrupted)
    outdir = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--beta", "10", "--gamma", "0,1,2", "--states", "2", "--grid-points", "512",
              "--workers", "1", "--no-cache", "--outdir", str(outdir)])
    assert solved == [0.0, 1.0]
    assert list(outdir.iterdir()) == []


def test_an_interrupted_sweep_keeps_the_entries_of_the_points_it_finished(tmp_path, monkeypatch):
    solved = []
    point_records = cli.point_records

    def interrupted(*payload):
        solved.append(payload[2])
        if len(solved) == 3:
            raise KeyboardInterrupt
        return point_records(*payload)

    monkeypatch.setattr(cli, "point_records", interrupted)
    outdir = tmp_path / "out"
    with pytest.raises(KeyboardInterrupt):
        main(["sweep", "--beta", "10", "--gamma", "0,1,2", "--states", "2", "--grid-points", "512",
              "--workers", "1", "--outdir", str(outdir)])
    assert solved == [0.0, 1.0, 2.0]
    assert len(list((outdir / "cache").glob("*.json"))) == 2
    assert not (outdir / "sweep.csv").exists()


@pytest.mark.parametrize("alpha", ["-1", "0"])
def test_validate_rules_names_a_non_positive_alpha(tmp_path, capsys, alpha):
    assert main(["validate-rules", "--alphas", alpha, "--outdir", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        f"error: validate-rules failed: alpha must be positive, got {float(alpha)}\n"
    )


def test_validate_rules_small_alpha_small_basis(tmp_path):
    # delta_gamma is the closed form 2 sqrt(alpha) at every alpha and basis,
    # also far from unit scale (2e-6 and 2e6), where an absolute tolerance
    # would show
    argv = ["validate-rules", "--alphas", "0.01,1e-12,1e12", "--n-basis", "30", "--states", "6"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "validate_rules.json").read_text(encoding="utf-8"))
    assert [block["alpha"] for block in doc["results"]] == ["0.01", "9.9999999999999998e-13",
                                                            "1000000000000"]
    for block in doc["results"]:
        closed_form = 2.0 * math.sqrt(float(block["alpha"]))
        assert float(block["delta_gamma"]) == pytest.approx(closed_form, rel=1e-12, abs=0.0)


def test_validate_rules_runs_where_the_probe_finds_no_sharp_gap_minima(tmp_path):
    # 16 oscillator functions resolve none of the library probe's gap minima
    # (test_rules.py::test_no_transitions_raises), and the command does not
    # need them
    argv = ["validate-rules", "--alphas", "1", "--n-basis", "16", "--gamma", "2,3",
            "--states", "4"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "validate_rules.json").read_text(encoding="utf-8"))
    (block,) = doc["results"]
    assert block["delta_gamma"] == "2"
    assert [p["k"] for p in block["points"]] == ["1", "1.5"]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--gamma", "0:inf:1", "--no-cache"], "--gamma: expected a finite number, got 'inf'"),
    (["sweep", "--gamma", "nan:1:0.5", "--no-cache"], "--gamma: expected a finite number"),
    (["solve", "--gamma", "nan"], "--gamma: expected a finite number, got 'nan'"),
    (["solve", "--beta", "10,inf"], "--beta: expected a finite number, got 'inf'"),
    (["solve", "--alpha", "inf"], "--alpha: expected a finite number, got 'inf'"),
    (["phase-space", "--alpha", "nan"], "--alpha: expected a finite number, got 'nan'"),
    (["solve", "--v0", "nan"], "--v0: expected a finite number, got 'nan'"),
    (["solve", "--poly", "1,0,-inf,0,0"], "--poly: expected a finite number, got '-inf'"),
    (["validate-rules", "--alphas", "nan"], "--alphas: expected a finite number, got 'nan'"),
    (["solve", "--rho-floor", "5"], "--rho-floor: must be in [0, 1], got 5.0"),
    (["solve", "--rho-floor", "nan"], "--rho-floor: expected a finite number, got 'nan'"),
    (["sweep", "--rho-floor", "-0.1", "--no-cache"], "--rho-floor: must be in [0, 1], got -0.1"),
    (["validate-rules", "--rel-tol", "nan"], "--rel-tol: expected a finite number, got 'nan'"),
    (["validate-rules", "--rel-tol", "0"], "--rel-tol: must be positive, got 0.0"),
    (["sweep", "--workers", "-3", "--no-cache"], "--workers: must be at least 0, got -3"),
    (["sweep", "--gamma", "0:1:1e-9", "--no-cache"],
     "--gamma: range '0:1:1e-9' has more than 10000 values"),
    (["sweep", "--grid-points", "10000000", "--no-cache"],
     "--grid-points: must be in [512, 65536], got 10000000"),
    (["solve", "--n-basis", "3"], "--n-basis: must be in [4, 1000], got 3"),
    (["sweep", "--n-basis", "1001", "--no-cache"], "--n-basis: must be in [4, 1000], got 1001"),
    (["sweep", "--gamma", "1:2", "--no-cache"], "--gamma: range must be start:stop:step, got '1:2'"),
    (["solve", "--poly", "1,0,-10,0"], "--poly: expected 5 comma-separated values c4,c3,c2,c1,c0"),
    (["solve", "--format", "xml"], "--format: expected one of csv, json, got 'xml'"),
    # the range is checked on the count as given, before it is rounded up
    (["sweep", "--grid-points", "511", "--no-cache"],
     "--grid-points: must be in [512, 65536], got 511"),
    (["solve", "--grid-points", "65537"], "--grid-points: must be in [512, 65536], got 65537"),
])
def test_non_finite_and_out_of_range_settings_exit_2(tmp_path, capsys, monkeypatch,
                                                     argv, message):
    # a range is counted, never built, before it is rejected
    def no_range(*args):
        raise AssertionError(f"range{args} was built")

    monkeypatch.setattr(cli, "range", no_range, raising=False)
    assert main(argv + ["--states", "2", "--outdir", str(tmp_path)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and errors[0].startswith(f"error: {message}")
    assert not list(tmp_path.iterdir())


def test_n_basis_bounds_are_inclusive_and_checked_before_any_solve(tmp_path, capsys):
    # 3 and 1001 exit 2 in test_non_finite_and_out_of_range_settings_exit_2;
    # both ends are read without solving anything
    for n_basis in (4, cli.MAX_N_BASIS):
        args = cli.build_parser().parse_args(["solve", "--states", "1", "--n-basis", str(n_basis)])
        assert cli.build_config(args).n_basis == n_basis
    assert cli.MAX_N_BASIS == 1000
    assert main(["table", "2", "--n-basis", "-5", "--outdir", str(tmp_path)]) == 2
    assert "error: --n-basis: must be in [4, 1000], got -5" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, counts", [
    (["sweep", "--beta", "1:1000:1", "--gamma", "0:100:1"], "1000 betas times 101 gammas"),
    (["validate-rules", "--alphas", "1:1000:1", "--beta", "20", "--gamma", "0:100:1"],
     "1000 alphas times 101 gammas"),
])
def test_more_points_than_a_command_may_plan_exit_2(tmp_path, capsys, monkeypatch, argv, counts):
    # rejected by build_config: no point is resolved, planned or solved
    import dwell.rules

    def no_solve(*args, **kwargs):
        raise AssertionError("a point was planned")

    for owner, name in ((cli, "resolve_potential"), (cli, "point_records"),
                        (dwell.rules, "validate_rules")):
        monkeypatch.setattr(owner, name, no_solve)
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    assert (f"error: {counts} make 101000 points, more than the {cli.MAX_POINTS} a command "
            "may plan") in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    # a sweep counts distinct values: 101 gammas, of which 100 differ
    ["sweep", "--beta", "1:1000:1", "--gamma", ",".join(map(str, [*range(100), 0]))],
    ["validate-rules", "--alphas", "1:1000:1", "--beta", "20", "--gamma", "0:99:1"],
    # without a gamma check validate-rules plans no point
    ["validate-rules", "--alphas", "1:10000:1", "--beta", "1:10000:1"],
])
def test_the_point_bound_itself_passes_the_configuration(argv):
    assert cli.MAX_POINTS == 100_000
    cli.build_config(cli.build_parser().parse_args(argv))


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    def __init__(self, made, max_workers):
        made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, func, items):
        return map(func, items)


@pytest.mark.parametrize("workers, cpus, gammas, pool", [
    (str(cli.MAX_WORKERS), 2, "0,1", [2]),  # capped at the pending points
    ("0", 64, "0,1,2", [3]),  # one per CPU, capped likewise
    ("0", 64, "0", []),  # a single pending point runs in process
    ("1", 2, "0,1", []),
])
def test_sweep_pool_never_exceeds_the_pending_points(tmp_path, monkeypatch, workers, cpus,
                                                     gammas, pool):
    made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                        lambda max_workers: RecordingPool(made, max_workers))
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    assert main([
        "sweep", "--beta", "10", "--gamma", gammas, "--states", "2", "--grid-points", "512",
        "--workers", workers, "--no-cache", "--outdir", str(tmp_path),
    ]) == 0
    assert made == pool
    assert len(read_rows(tmp_path / "sweep.csv")) == 2 * len(gammas.split(","))


def test_workers_above_max_workers_start_no_process(tmp_path, capsys, monkeypatch):
    def no_pool(max_workers):
        raise AssertionError(f"a pool of {max_workers} was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert cli.SETTINGS["workers"].convert(str(cli.MAX_WORKERS)) == cli.MAX_WORKERS
    with pytest.raises(ConfigError, match="must be at most 64"):
        cli.SETTINGS["workers"].convert(str(cli.MAX_WORKERS + 1))
    argv = ["sweep", "--gamma", "0,1", "--states", "2", "--no-cache", "--outdir", str(tmp_path)]
    assert main(argv + ["--workers", str(cli.MAX_WORKERS + 1)]) == 2
    assert "error: --workers: must be at most 64, got 65" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_value_settings_hold_at_most_max_values():
    assert len(parse_values("0:9999:1")) == cli.MAX_VALUES
    with pytest.raises(ConfigError, match="more than 10000 values"):
        parse_values("0:10000:1")
    with pytest.raises(ConfigError, match="more than 10000 values"):
        parse_values("0:1e300:1e-300")  # the count overflows to inf
    with pytest.raises(ConfigError, match="more than 10000 values"):
        parse_values(",".join(["1"] * 10_001))


@pytest.mark.parametrize("argv", [
    ["phase-space", "--beta", "10,20"],
    ["phase-space", "--gamma", "1,2"],
    # only its gamma check reads beta
    ["validate-rules", "--alphas", "1", "--beta", "10,20", "--gamma", "3"],
    ["solve", "--beta", "10,20"],
    ["solve", "--poly", "1,0,-10,0.5,0", "--beta", "10,20"],
])
def test_single_point_commands_reject_value_lists(tmp_path, capsys, argv):
    assert main(argv + ["--states", "2", "--outdir", str(tmp_path)]) == 2
    assert "takes a single" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("given", [
    ["--alpha", "2"], ["--beta", "10"], ["--gamma", "1"], ["--v0", "none"],
])
def test_poly_rejects_well_parameters(tmp_path, capsys, given):
    argv = ["solve", "--poly", "1,0,-10,0.5,0", *given, "--states", "2"]
    assert main(argv + ["--outdir", str(tmp_path)]) == 2
    assert "poly sets the potential" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_poly_rows_leave_well_parameters_blank(tmp_path):
    # x^4 - 10 x^2 + 0.5 x has no alpha, beta or gamma to report
    argv = ["solve", "--poly", "1,0,-10,0.5,0", "--states", "2", "--grid-points", "512",
            "--outdir", str(tmp_path)]
    assert main(argv) == 0
    assert main(argv + ["--format", "json"]) == 0
    rows = read_rows(tmp_path / "solve.csv")
    records = json.loads((tmp_path / "solve.json").read_text(encoding="utf-8"))["records"]
    assert len(rows) == len(records) == 2
    for row, rec in zip(rows, records):
        for col in ("alpha", "beta", "gamma"):
            assert row[col] == "" and rec[col] is None
        assert float(row["energy"]) == rec["energy"]


def test_poly_well_I_is_the_deeper_well_however_shallow(tmp_path):
    # the right minimum (-4.2e-14) is 15 times deeper than the left (2.8e-15)
    argv = ["solve", "--poly=1,0,-2.668078851075046e-07,-6.27583746464877e-11,0",
            "--outdir", str(tmp_path)]
    assert main(argv) == 0
    row = read_rows(tmp_path / "solve.csv")[0]
    assert float(row["p_well_I"]) == pytest.approx(0.50008601354, abs=1e-11)


def test_sweep_solves_a_repeated_point_once(tmp_path, monkeypatch):
    solved = []
    point_records = cli.point_records

    def counting(alpha, beta, gamma, pot, settings):
        solved.append((beta, gamma))
        return point_records(alpha, beta, gamma, pot, settings)

    monkeypatch.setattr(cli, "point_records", counting)
    assert main([
        "sweep", "--beta", "10,10", "--gamma", "1,1", "--states", "2", "--grid-points", "512",
        "--workers", "1", "--no-cache", "--outdir", str(tmp_path),
    ]) == 0
    assert solved == [(10.0, 1.0)]
    assert [row["n"] for row in read_rows(tmp_path / "sweep.csv")] == ["0", "1"]


def test_a_point_that_fails_while_it_is_solved_is_solved_again_next_run(tmp_path, monkeypatch):
    # at alpha 0.01 beta 400 is too deep for the grid's density to integrate
    # to 1: an error row, which is not cached, beside beta 1's complete rows
    solved = []
    point_records = cli.point_records

    def counting(alpha, beta, gamma, pot, settings):
        solved.append(beta)
        return point_records(alpha, beta, gamma, pot, settings)

    monkeypatch.setattr(cli, "point_records", counting)
    argv = ["sweep", "--alpha", "0.01", "--beta", "1,400", "--gamma", "0", "--workers", "1",
            "--cache-dir", str(tmp_path / "cache"), "--outdir", str(tmp_path)]
    for want in ([1.0, 400.0], [400.0]):
        solved.clear()
        assert main(argv) == 0
        assert solved == want
        rows = read_rows(tmp_path / "sweep.csv")
        good, bad = [r for r in rows if r["beta"] == "1"], [r for r in rows if r["beta"] == "400"]
        assert len(good) == 8 and all(r["error"] == "" and r["energy"] for r in good)
        assert len(bad) == 1
        assert bad[0]["error"].startswith("the momentum density of state 0 integrates to ")
        assert bad[0]["energy"] == ""


@pytest.mark.parametrize("command, line, message", [
    ("solve", "state = 3", "unknown key 'state'"),
    ("sweep", "poly = 1,0,-10,0.5,0", "sweep does not read 'poly'"),
    ("solve", "workers = 2", "solve does not read 'workers'"),
    ("validate-rules", "alpha = 2", "validate-rules does not read 'alpha'"),
    ("phase-space", "contour = true", "unknown key 'contour'"),
    ("solve", "beta 20", "expected key=value, got 'beta 20'"),
])
def test_config_key_a_command_does_not_read_exits_2(tmp_path, capsys, command, line, message):
    cfg = tmp_path / "job.cfg"
    cfg.write_text(f"states = 2\n# a comment\n{line}\n", encoding="utf-8")
    assert main([command, "--config", str(cfg), "--outdir", str(tmp_path / "out")]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {cfg}:3: {message}"]
    assert not (tmp_path / "out").exists()


def test_table_ignores_settings_it_does_not_read(tmp_path):
    # table 1 fixes its own basis sizes, so --n-basis 12 (which certifies
    # fewer than the default 8 states) neither fails nor changes a byte
    assert main(["table", "1", "--outdir", str(tmp_path / "a")]) == 0
    assert main(["table", "1", "--n-basis", "12", "--outdir", str(tmp_path / "b")]) == 0
    assert (tmp_path / "a" / "table1.csv").read_bytes() == (tmp_path / "b" / "table1.csv").read_bytes()


def test_each_command_takes_only_the_flags_it_reads():
    sub = next(a for a in cli.build_parser()._actions if a.dest == "command")
    flags = {
        command: sorted({o for a in parser._actions for o in a.option_strings} - {"-h", "--help"})
        for command, parser in sub.choices.items()
    }
    point = ["--alpha", "--beta", "--config", "--gamma", "--n-basis", "--outdir", "--states",
             "--v0"]
    assert flags == {
        "solve": sorted(point + ["--format", "--grid-points", "--poly", "--rho-floor"]),
        "sweep": sorted(point + ["--cache-dir", "--format", "--grid-points", "--no-cache",
                                 "--rho-floor", "--workers"]),
        "validate-rules": ["--alphas", "--beta", "--config", "--gamma", "--grid-points",
                           "--n-basis", "--outdir", "--rel-tol", "--states"],
        "table": ["--config", "--grid-points", "--n-basis", "--outdir"],
        "phase-space": sorted(point + ["--contours"]),
    }
    assert sum(map(len, flags.values())) == 48


def _csv_and_json_cells(outdir: Path):
    rows = read_rows(outdir / "sweep.csv")
    doc = json.loads(
        (outdir / "sweep.json").read_text(encoding="utf-8"),
        parse_float=str, parse_int=str,  # keep every number's token as written
    )
    assert doc["schema"] == SCHEMA_VERSION
    assert len(rows) == len(doc["records"])
    for row, rec in zip(rows, doc["records"]):
        assert list(row) == list(rec) == CSV_COLUMNS
        for col in CSV_COLUMNS:
            yield col, row[col], rec[col]


@pytest.mark.parametrize("alpha, rc", [("1", 0), ("-1", 3)])
def test_csv_and_json_writers_carry_the_same_tokens(tmp_path, alpha, rc):
    base = [
        "sweep", "--alpha", alpha, "--beta", "10", "--gamma", "0,1",
        "--states", "3", "--grid-points", "512", "--workers", "1", "--no-cache",
        "--outdir", str(tmp_path),
    ]
    assert main(base) == rc
    assert main(base + ["--format", "json"]) == rc
    seen = set()
    for col, cell, value in _csv_and_json_cells(tmp_path):
        if col in ("occupancy", "error"):
            assert value == cell  # strings, commas included
            assert rc == 0 or col != "error" or "positive, got -1" in value
        elif cell == "":
            assert value is None
        elif cell in ("true", "false"):
            assert value is (cell == "true")
        else:
            assert value == cell  # the same int or float token
        seen.add((col, cell == ""))
    if rc == 3:
        assert ("error", False) in seen and ("energy", True) in seen
    else:
        assert ("converged_flag", False) in seen and ("error", True) in seen
