import importlib.util
from pathlib import Path

_PATH = Path(__file__).parent.parent / "tools" / "compare_outputs.py"
_SPEC = importlib.util.spec_from_file_location("compare_outputs", _PATH)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def write_csv(path, rows):
    path.write_text("".join(",".join(map(str, row)) + "\n" for row in rows))
    return path


def test_drift_of_each_column(tmp_path):
    # a roundoff entry that changes sign drifts by 100% of itself but by
    # 1.7e-30 of its column; the unchanged column is not listed
    a = write_csv(tmp_path / "a.csv", [["i", "value", "name"],
                                       [0, 1.0, "x"], [1, 1.7e-30, "y"]])
    b = write_csv(tmp_path / "b.csv", [["i", "value", "name"],
                                       [0, 1.0, "x"], [1, -1.7e-30, "y"]])
    assert compare_outputs.drift(a, b) == "drift value=2.00e+00 " \
        "(column 3.40e-30)"


def test_drift_takes_the_largest_of_the_column(tmp_path):
    a = write_csv(tmp_path / "a.csv", [["u", "p"], [4.0, 1.0], [2.0, 1.0]])
    b = write_csv(tmp_path / "b.csv", [["u", "p"], [4.0, 1.0], [2.2, 1.5]])
    assert compare_outputs.drift(a, b) == \
        "drift u=9.09e-02 (column 5.00e-02) p=3.33e-01 (column 3.33e-01)"


def test_drift_of_text_and_shape(tmp_path):
    a = write_csv(tmp_path / "a.csv", [["check", "value"], ["PASS", 1.0]])
    b = write_csv(tmp_path / "b.csv", [["check", "value"], ["FAIL", 1.0]])
    assert compare_outputs.drift(a, b) == "text differs in column check"
    c = write_csv(tmp_path / "c.csv", [["check", "value"], ["PASS", 1.0],
                                       ["PASS", 2.0]])
    assert compare_outputs.drift(a, c) == "shape differs"
