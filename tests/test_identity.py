import importlib.util
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
