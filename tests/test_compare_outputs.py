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
    assert compare_outputs.drift(a, b) == "drift value=2.00e+00 at i=1 " \
        "(column 3.40e-30)"


def test_drift_takes_the_largest_of_the_column(tmp_path):
    a = write_csv(tmp_path / "a.csv", [["u", "p"], [4.0, 1.0], [2.0, 1.0]])
    b = write_csv(tmp_path / "b.csv", [["u", "p"], [4.0, 1.0], [2.2, 1.5]])
    assert compare_outputs.drift(a, b) == \
        "drift u=9.09e-02 at u=2.0 (column 5.00e-02) " \
        "p=3.33e-01 at u=2.0 (column 3.33e-01)"


def test_drift_names_the_row_of_the_worst_entry(tmp_path):
    # each column names the row of its largest entry drift by the file's
    # first column, here the check of a report: the residue row drifts
    # most in value, the law's row in ratio
    a = write_csv(tmp_path / "a.csv", [["check", "value", "ratio"],
                                       ["law_u", 2.0, 1.0],
                                       ["residue_u", 1e-10, 0.5]])
    b = write_csv(tmp_path / "b.csv", [["check", "value", "ratio"],
                                       ["law_u", 2.0 + 2e-12, 1.1],
                                       ["residue_u", 3e-10, 0.5 + 1e-6]])
    assert compare_outputs.drift(a, b) == \
        "drift value=6.67e-01 at check=residue_u (column 1.00e-10) " \
        "ratio=9.09e-02 at check=law_u (column 9.09e-02)"


def test_drift_of_text_and_shape(tmp_path):
    a = write_csv(tmp_path / "a.csv", [["check", "value"], ["PASS", 1.0]])
    b = write_csv(tmp_path / "b.csv", [["check", "value"], ["FAIL", 1.0]])
    assert compare_outputs.drift(a, b) == "text differs in column check"
    c = write_csv(tmp_path / "c.csv", [["check", "value"], ["PASS", 1.0],
                                       ["PASS", 2.0]])
    assert compare_outputs.drift(a, c) == "shape differs"


def fake_trees(tmp_path, monkeypatch, written):
    """Two trees with one config each, and a run() that writes, for each
    tree, the files written[tree] into the output directory of every
    command, with the same exit status and verdict lines.  Returns the
    (command, output directory) of each call."""
    trees = [tmp_path / name for name in ("old", "new")]
    for tree in trees:
        (tree / "configs").mkdir(parents=True)
        (tree / "configs" / "box.json").write_text("{}")

    calls = []

    def run(tree, command, config, outdir):
        calls.append((command, outdir))
        outdir.mkdir(parents=True)
        for name in written[Path(tree).name]:
            (outdir / name).write_text("x,y\n1,2\n")
        return 0, ["[PASS] check"]

    monkeypatch.setattr(compare_outputs, "run", run)
    monkeypatch.setattr("sys.argv", ["compare_outputs.py", *map(str, trees),
                                     "--work", str(tmp_path / "work")])
    return calls


def test_same_files_exit_zero(tmp_path, monkeypatch, capsys):
    fake_trees(tmp_path, monkeypatch, {"old": ["a.csv"], "new": ["a.csv"]})
    assert compare_outputs.main() == 0
    assert "a.csv: byte-identical" in capsys.readouterr().out


def test_cell_runs_at_every_regime(tmp_path, monkeypatch, capsys):
    # every command of each tree, and each regime of cell, has its own
    # output directory, so no regime's files overwrite another's
    calls = fake_trees(tmp_path, monkeypatch, {"old": ["a.csv"],
                                               "new": ["a.csv"]})
    assert compare_outputs.main() == 0
    assert [command for command, _ in calls[::2]] == [
        ["run"], ["diag"], ["cell", "--regime", "i"],
        ["cell", "--regime", "ii"], ["cell", "--regime", "iii"]]
    assert len({outdir for _, outdir in calls}) == len(calls) == 10
    assert "box cell --regime iii: exit 0 -> 0, verdicts same" \
        in capsys.readouterr().out


def test_vanished_file_exits_one(tmp_path, monkeypatch, capsys):
    # a file that only one tree writes fails the comparison, whichever
    # tree writes it
    for written in ({"old": ["a.csv", "b.csv"], "new": ["a.csv"]},
                    {"old": ["a.csv"], "new": ["a.csv", "b.csv"]}):
        fake_trees(tmp_path / str(len(written["old"])), monkeypatch, written)
        assert compare_outputs.main() == 1
        out = capsys.readouterr().out
        assert "b.csv: missing on one side" in out
        assert "a.csv: byte-identical" in out


def test_tally_ends_the_output(tmp_path, monkeypatch, capsys):
    # the last line counts the byte-identical files among all files of all
    # commands, and the commands whose exit status or verdicts differ
    fake_trees(tmp_path, monkeypatch, {"old": ["a.csv", "b.csv"],
                                       "new": ["a.csv"]})
    assert compare_outputs.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "5 of 10 files byte-identical; 0 commands differ in exit or verdicts"


def test_tally_counts_commands_that_differ(tmp_path, monkeypatch, capsys):
    # a tree whose diag fails differs in one command; the exit status of the
    # comparison does not change for the tally
    fake_trees(tmp_path, monkeypatch, {"old": ["a.csv"], "new": ["a.csv"]})
    run = compare_outputs.run

    def failing_diag(tree, command, config, outdir):
        code, seen = run(tree, command, config, outdir)
        if Path(tree).name == "new" and command == ["diag"]:
            return 1, []
        return code, seen

    monkeypatch.setattr(compare_outputs, "run", failing_diag)
    assert compare_outputs.main() == 1
    assert capsys.readouterr().out.splitlines()[-1] == \
        "5 of 5 files byte-identical; 1 commands differ in exit or verdicts"
