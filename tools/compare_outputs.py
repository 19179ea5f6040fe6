"""Compare what two thinflow source trees write and report.

    python3 tools/compare_outputs.py OLD_TREE NEW_TREE [--work DIR]

Runs `thinflow run`, `diag` and `cell --regime R` at each regime R (i, ii
and iii) on each config in OLD_TREE/configs with each tree's src/.  Each
command, and each regime of `cell`, writes into its own directory under DIR
(default: a new temporary directory).  Prints whether exit status and verdict
lines agree, and per file "byte-identical" or, for a CSV, the drift of each
column that differs: the largest relative drift |a - b| / max(|a|, |b|) of
an entry, the row of that entry named by the file's first column (check in
report.csv, eps in sweep.csv), and in parentheses the largest |a - b|
against the column's largest magnitude.  Ends with the tally "N of M files
byte-identical; K commands differ in exit or verdicts".  Exits with status
1 if an exit status or the verdict lines of a command differ between the
trees, or if only one tree writes a file, and 0 otherwise."""

import argparse
import csv
import os
import subprocess
import sys
import tempfile
from pathlib import Path


# the output directory of each command, and its arguments after the config
COMMANDS = {"run": ["run"], "diag": ["diag"],
            **{f"cell_{regime}": ["cell", "--regime", regime]
               for regime in ("i", "ii", "iii")}}


def run(tree, command, config, outdir):
    """Exit status and verdict lines ("[PASS] name") of one command."""
    cmd = [sys.executable, "-m", "thinflow.cli", command[0], str(config),
           *command[1:], "--output", str(outdir)]
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    return out.returncode, [line.split(" = ")[0] for line in
                            out.stdout.splitlines() if line.startswith("[")]


def _number(text):
    """The value of a CSV field, or None if it is not a number."""
    try:
        return float(text)
    except ValueError:
        return None


def drift(a, b):
    """Drift of each CSV column that differs: the largest entry drift
    |x - y| / max(|x|, |y|), the row of that entry as its first column
    reads in a, and the largest |x - y| against the column's largest
    magnitude in either file, so that a roundoff entry beside entries of
    order one does not read as a 100% drift."""
    rows_a, rows_b = (list(csv.reader(p.open())) for p in (a, b))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return "shape differs"
    worst, row, gap, size = {}, {}, {}, {}
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(rows_a[0], ra, rb):
            x, y, differs = _number(x), _number(y), x != y
            if x is None or y is None:
                if differs:
                    return f"text differs in column {name}"
                continue
            size[name] = max(size.get(name, 0.0), abs(x), abs(y))
            if differs:
                rel = abs(x - y) / max(abs(x), abs(y))
                if rel > worst.get(name, -1.0):
                    worst[name], row[name] = rel, ra[0]
                gap[name] = max(gap.get(name, 0.0), abs(x - y))
    return "drift " + " ".join(
        f"{k}={v:.2e} at {rows_a[0][0]}={row[k]} "
        f"(column {gap[k] / size[k]:.2e})" for k, v in worst.items())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    for name in ("old", "new", "--work"):
        parser.add_argument(name)
    args = parser.parse_args()
    work = Path(args.work or tempfile.mkdtemp(prefix="compare_outputs_"))
    same = True
    identical = files = commands = 0
    for config in sorted(Path(args.old, "configs").glob("*.json")):
        for label, command in COMMANDS.items():
            dirs = [work / side / config.stem / label for side in "ab"]
            (code_a, seen_a), (code_b, seen_b) = (
                run(tree, command, Path(tree, "configs", config.name), d)
                for tree, d in zip((args.old, args.new), dirs))
            print(f"{config.stem} {' '.join(command)}: "
                  f"exit {code_a} -> {code_b}, "
                  f"verdicts {'same' if seen_a == seen_b else 'DIFFERENT'}")
            agree = code_a == code_b and seen_a == seen_b
            same = same and agree
            commands += not agree
            for name in sorted({p.name for d in dirs for p in d.glob("*")}):
                a, b = (d / name for d in dirs)
                files += 1
                if not (a.exists() and b.exists()):
                    verdict = "missing on one side"
                    same = False
                elif a.read_bytes() == b.read_bytes():
                    verdict = "byte-identical"
                    identical += 1
                else:
                    verdict = drift(a, b) if a.suffix == ".csv" else "differs"
                print(f"  {name}: {verdict}")
    print(f"{identical} of {files} files byte-identical; {commands} "
          f"commands differ in exit or verdicts")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
