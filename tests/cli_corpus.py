"""Byte-identity corpus of the command-line interface.

Runs a fixed list of invocations, each in a fresh interpreter and all in one
temporary directory, and prints one line per invocation with its exit code
and the md5 of its stdout and stderr, then one line per written file with
its md5.  Two source trees print the same lines exactly when the CLI gives
the same bytes on the corpus:

    python tests/cli_corpus.py path/to/old/src > old.txt
    python tests/cli_corpus.py path/to/new/src > new.txt
    diff old.txt new.txt

The argument is the directory that holds the ``affine_elastica`` package
(default: ``src`` beside this file's directory).  pytest does not collect
this file; a run takes about a minute.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

#: invariants (or case flags) for every tag, as in tests/test_acceptance.py
TAGS = {
    "A1": ["--q", "1", "--Q", "3.940854279", "--branch", "closed"],
    "A2": ["--q", "0", "--Q", "1", "--branch", "closed"],
    "A3": ["--q", "-1", "--Q", "6", "--branch", "closed"],
    "B1": ["--q", "0.3", "--Q", "0.7", "--branch", "open"],
    "B2": ["--q", "0", "--Q", "1", "--branch", "open"],
    "B3": ["--q", "-0.5", "--Q", "1.5", "--branch", "open"],
    "C1": ["--P", "1", "--tau", "2", "--branch", "open"],
    "C2": ["--P", "1", "--tau", "0.3", "--branch", "open"],
    "C3": ["--P", "0", "--tau", "1", "--branch", "open"],
    "C4": ["--P", "-1", "--tau", "8", "--branch", "open"],
    "C5": ["--P", "-1", "--tau", "0.125", "--branch", "open"],
    "Da": ["--case", "Da"],
    "Dc": ["--case", "Dc"],
    "E": ["--case", "E"],
    "F": ["--case", "F"],
    "G": ["--case", "G"],
    "ellipse": ["--case", "ellipse"],
}

SUITES = ("el", "sqrt", "closure", "fullaffine", "all")


def corpus() -> list[list[str]]:
    """The invocations, in order; later ones read files that earlier ones write."""
    runs = [
        ["classify", *TAGS["A1"]],
        ["classify", *TAGS["C1"]],
        ["classify", "--g2", "0", "--g3", "-1"],
        ["classify", "--g2", "3", "--g3", "1"],  # degenerate: exit 2
        ["table"],
        ["table", "--pairs", "11:15"],
        ["table", "--pairs", "3:4,4:5,29:37,17:24,1:2"],
        ["scan-closure"],
        ["scan-closure", "--qmin", "1.01", "--qmax", "50", "--steps", "40", "--out", "scan40.csv"],
        ["scan-closure", "--qmin", "0.5", "--qmax", "2", "--steps", "30"],  # Q <= 1: exit 2
    ]
    runs += [["scan-closure", "--qmin", "1.001", "--qmax", "1e8", "--steps", str(n)]
             for n in (0, 1, 2, 7, 8, 15, 16, 17, 20, 78, 200, 1000)]
    for tag, flags in TAGS.items():
        runs.append(["synth", *flags, "--csv", f"{tag}.csv", "--json", f"{tag}.json", "--svg", f"{tag}.svg"])
    runs += [
        ["synth", *TAGS["B1"]],
        ["synth", *TAGS["A1"], "--mark", "100", "--svg", "A1_mark.svg", "--self-check"],
        ["synth", *TAGS["B1"], "--mark", "50", "--svg", "B1_mark.svg", "--congruence-json", "B1_path.json"],
        ["synth", "--case", "ellipse", "--euclidean-display", "--svg", "ellipse_euclid.svg"],
        ["synth", "--length-constrained", "--csv", "length.csv", "--self-check"],
        ["synth", "--closure", "3", "4", "--csv", "c34.csv", "--svg", "c34.svg"],
        ["synth", "--closure", "3", "4", "--congruence-json", "c34_path.json"],
        ["synth", "--closure", "29", "37", "--json", "c2937.json", "--self-check"],
        ["synth", "--closure", "11", "15", "--mark", "777", "--svg", "c1115.svg", "--csv", "c1115.csv",
         "--self-check"],
        ["synth", "--closure", "4", "5", "--mark", "5", "--svg", "c45.svg"],
        ["synth", "--closure", "1", "2"],  # no solution: exit 3
    ]
    for tag in ("A1", "B1", "C1", "ellipse"):
        runs += [["verify", f"{tag}.csv", "--suite", suite] for suite in SUITES]
        runs.append(["verify", f"{tag}.json", "--suite", "all"])
    runs += [["verify", "c34.csv", "--closed", "--suite", suite] for suite in SUITES]
    runs.append(["verify", "c2937.json", "--suite", "all"])
    return runs


def _md5(data: bytes) -> str:
    return hashlib.md5(data).hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src.resolve()), PYTHONDONTWRITEBYTECODE="1")
    env.pop("AFFINE_ELASTICA_TOL", None)
    with tempfile.TemporaryDirectory() as work:
        for args in corpus():
            proc = subprocess.run([sys.executable, "-m", "affine_elastica.cli", *args],
                                  cwd=work, env=env, capture_output=True)
            print(f"{' '.join(args)}: exit {proc.returncode} stdout {_md5(proc.stdout)} stderr {_md5(proc.stderr)}")
        for path in sorted(Path(work).iterdir()):
            print(f"{path.name}: {_md5(path.read_bytes())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
