import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "identity.py"
spec = importlib.util.spec_from_file_location("identity", SCRIPT)
identity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(identity)


def write(path, text):
    path.write_text(text)
    return path


def test_csv_comparison_reports_each_changed_column(tmp_path):
    a = write(tmp_path / "a.csv", "# schema s\nn,energy,p,occupancy\n0,1.5,0.25,I\n1,2.5,0.5,both\n")
    b = write(tmp_path / "b.csv", "# schema s\nn,energy,p,occupancy\n0,1.5,0.2,I\n1,2.5,0.75,II\n")
    assert identity.compare_csv(a, a) == []
    assert identity.compare_csv(a, b) == [
        "p: 2 of 2 rows changed, max abs 0.25, max rel 0.333",
        "occupancy: 1 of 2 rows changed, 1 not numeric",
    ]
    c = write(tmp_path / "c.csv", "# schema s\nn,energy,p,occupancy\n0,1.5,0.25,I\n")
    assert identity.compare_csv(a, c) == ["comment lines, header or row count differ"]


def test_json_comparison_reports_each_changed_key_path(tmp_path):
    block = {"alpha": "1", "k": ["0.5", "1"], "participates": True}
    other = {"alpha": "2", "k": ["0.25", "0.5"], "participates": True}
    a = write(tmp_path / "a.json", json.dumps({"results": [block, other]}))
    changed = dict(other, k=["0.25", "0.75"], participates=False)
    b = write(tmp_path / "b.json", json.dumps({"results": [block, changed]}))
    assert identity.compare_json(a, a) == []
    assert identity.compare_json(a, b) == [
        "results[*].k[*]: 1 of 4 values changed, max abs 0.25, max rel 0.333",
        "results[*].participates: 1 of 2 values changed, 1 not numeric",
    ]
    shorter = dict(other, k=["0.25"])
    c = write(tmp_path / "c.json", json.dumps({"results": [block, shorter]}))
    assert identity.compare_json(a, c) == ["results[*].k: 1 of 1 values changed, 1 not numeric"]
    # a key that one document lacks is a path of its own, and the shared
    # keys beside it are still compared one by one
    dropped = {key: value for key, value in changed.items() if key != "k"}
    d = write(tmp_path / "d.json", json.dumps({"results": [block, dropped]}))
    assert identity.compare_json(a, d) == [
        "results[*].participates: 1 of 2 values changed, 1 not numeric",
        "results[*].k: 1 of 1 values changed, 1 not numeric",
    ]


def test_outputs_equal_as_data_but_not_as_bytes_still_differ(tmp_path):
    for side, csv_text, json_text in (("a", "n\n0\n", '{"k": "1"}'),
                                      ("b", "n\r\n0\r\n", '{"k":  "1"}')):
        (tmp_path / side).mkdir()
        (tmp_path / side / "r.csv").write_bytes(csv_text.encode())
        write(tmp_path / side / "r.json", json_text)
    assert identity.compare_outputs(tmp_path / "a", tmp_path / "b") == [
        "r.csv: differs", "r.json: differs",
    ]


def test_runs_differ_by_exit_code_stdout_and_stderr(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    run = (2, "", "error: states=40 exceeds\n")
    assert identity.compare(run, run, tmp_path / "a", tmp_path / "b") == []
    assert identity.compare(run, (3, "out\n", "error: other\n"), tmp_path / "a", tmp_path / "b") == [
        "exit code 2 against 3", "stdout differs", "stderr differs",
    ]
