"""Byte corpus of the command line: one sha256 per in-process command.

Each digest covers the exit code, stdout, stderr, the warnings raised and
every file the command wrote, so any change of CLI output shows up as a
changed digest in `tests/data/cli_corpus.json`.  After an intended output
change, rewrite that file from the package on the path with

    PYTHONPATH=src python tests/test_cli_corpus.py [OUT.json]

and list the changed commands with the change.
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
import tempfile
import warnings
from pathlib import Path

from sedenion.cli import main

CORPUS = Path(__file__).parent / "data" / "cli_corpus.json"

CENTERS = ["e1", "0.5", "0.5+2e1", "-0.2+0.9e3", "0.1+0.6e2+0.8e10"]
SEQS = [
    None,
    '{"kind":"lacunary","coeff":"e4+e15","ratio":2}',
    '{"kind":"table","values":["1","e4+e15","e4+e15","e4+e15"]}',
    '{"kind":"geometric","terms":[{"coeff":"1","ratio":3},{"coeff":"e4-e15","ratio":2}]}',
    '{"kind":"geometric","terms":[{"coeff":"e5","ratio":1.5},{"coeff":"2+e9","ratio":4}]}',
]
POINTS = ["1.5e1", "3e1", "0.5+1.5e10", "2", "-1.2e10"]
# 1e-11 e2 lies between CHANNEL_DUST and PERP_THRESHOLD of its coefficient
BAND_SEQ = ('{"kind":"geometric","terms":[{"coeff":"1","ratio":3},'
            '{"coeff":"0.00000000001e2+e4+e15","ratio":2}]}')
NINES = "9" * 300
TINY = "0." + "0" * 299 + "1"  # 1e-300
HUGE_E = "1" + "0" * 300  # 1e300: its square is past the float range
ZERO_GAPS = '{"kind":"lacunary","coeff":"0","ratio":2}'
HUGE = [0.0] * 16
HUGE[4] = HUGE[15] = 1.5e308


def commands() -> list[list[str]]:
    """The corpus: series commands over centers x sequences, the algebra and
    slice commands, figures, and inputs that exit 2."""
    out = []
    for center in CENTERS:
        for seq in SEQS:
            s = [f"--center={center}"] + ([] if seq is None else ["--seq", seq])
            out += [["radii"] + s, ["radii"] + s + ["--format", "json"]]
            out += [["contains"] + s + ["--", q] for q in POINTS[:3]]
            out += [["contains"] + s + ["--format", "json", "--", POINTS[3]]]
            out += [["eval"] + s + ["--", q] for q in POINTS[3:]]
            out += [["eval"] + s + ["--max-terms", "60", "--format", "json", "--", POINTS[0]]]
            out += [["scan"] + s + ["--rstep", "0.5", "--rmax", "3"]]
            out += [["figure"] + s + ["--n", "30", "--format", "svg"]]
        out += [["figure", f"--center={center}", "--n", "30", "--slices", "e1,e10,e3"]]
    out += [["scan", "--thetas=0.5,2,4", "--rstep", "0.4", "--slices", "e10,e3"],
            ["scan", "--rstep", "0.5", "--out", "scan.csv"],
            ["scan", "--center=0.5+2e1", "--rstep", "0.5", "--seq", SEQS[1]],
            ["eval", "1.5e1", "--tol", "1e-12", "--max-terms", "1000"],
            ["eval", "0.5", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":1e-320}'],
            ["eval", "0.5", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":1e-320}',
             "--format", "json"],
            ["radii", "--seq", json.dumps({"kind": "table", "values": [HUGE, HUGE]})],
            ["radii", "--seq", json.dumps({"kind": "table", "values": [HUGE] * 4})],
            ["contains", "3e1", "--band", "0"],
            ["figure", "--n", "30", "--rmax", "2"],
            ["contains", "0+1.5e10", "--seq", BAND_SEQ],
            ["figure", "--seq", BAND_SEQ, "--slices", "e10", "--n", "30", "--format", "csv"],
            ["figure", "--seq", BAND_SEQ, "--slices", "e10", "--n", "30", "--format", "svg"]]
    for fmt in ([], ["--format", "json"]):
        out += [["table"] + fmt]
        out += [["mul", a, b] + fmt for a, b in [
            ("e1", "e2"), ("e1+e10", "e4+e15"), ("0.5+2e3-e9", "1.25e7+3e14"),
            ("e5", "e5"), ("1e300e1", "1e300e2"),
            (f"{NINES}e1+{NINES}e2", f"{NINES}e1-{NINES}e2")]]
        out += [["kernel", s] + fmt for s in ["e1+e10", "e1", "e3-e13", "e1+e10+e4"]]
        out += [["decompose", x, p] + fmt for x, p in [
            ("1+e2+e5+e9", "e1+e10"), ("e4+e15", "e1+e10"), ("3e7-2e12", "e3-e13"),
            (f"{NINES}e1+{NINES}e2+{NINES}e5", "e1+e10"),
            (f"{TINY}e2+{TINY}e3", f"{TINY}e1+{TINY}e10")]]
        out += [["zd-check", x, y] + fmt for x, y in [
            ("e1+e10", "e4+e15"), ("e1-e10", "e4+e15"), ("e1", "e2"),
            ("e3+e10", "e6-e15"), (f"{NINES}e1+{NINES}e10", f"{NINES}e4+{NINES}e15")]]
        out += [["hyper", j1, j2] + fmt for j1, j2 in [
            ("e1", "e10"), ("e1", "e2"), ("e1", "e3"), ("e1", "-e10")]]
        out += [["polar", s] + fmt for s in ["e1", "e10", "e8", "0.6e2+0.8e10"]]
        out += [["polar", "--alpha", "0.7", "--theta", "0.3", "--frame", "e1,e2"] + fmt,
                ["polar", "--alpha", "1.2", "--theta", "2.5", "--jmath", "e5"] + fmt]
        out += [["cker", "e1", "e10", k] + fmt for k in ["-e1", "e3", "-e10"]]
    out += [["table", "--verify"], ["table", "--verify", "--format", "json"],
            ["contains", f"{HUGE_E}e15"], ["eval", f"{HUGE_E}e15"],
            ["cker", "e1", "e10", "--curve", "12"],
            ["cker", "e1", "e10", "--curve", "5", "--out", "curve.csv"],
            ["eval", "0.000000001e10", "--center=0.5"],
            ["contains", "--center=0.5+0.3e1", "--seq", json.dumps(  # 1/3 < R_a^{p,e10} = R_a
                {"kind": "table", "values": ["1", "3e2", "e4+e15", "e4+e15"]}), "--", "0.5+0.4e10"],
            ["eval", "0.5e1", "--seq", ZERO_GAPS], ["scan", "--rstep", "1", "--seq", ZERO_GAPS],
            # every element argument reads a JSON coefficient array; lists skip empty entries
            ["mul", "[0,1]", "e1"], ["kernel", "[0,1,0,0,0,0,0,0,0,0,1,0,0,0,0,0]"],
            ["scan", "--thetas=1,,2", "--rstep", "1", "--slices", "e10"]]
    bad = [
        ["mul", "e1", "e99"], ["mul", "e1", "2e"], ["mul", "1e400", "e1"], ["mul", "", "e1"],
        ["kernel", "x"], ["radii", "--center", "bad"], ["radii", "--center=1+e1+e10"],
        ["radii", "--seq", '{"kind":"nope"}'], ["radii", "--seq", '{"kind":"geometric"}'],
        ["radii", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":0}'],
        ["radii", "--seq", '{"kind":"table","values":[[NaN]]}'],
        ["radii", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":1' + "0" * 400 + "}"],
        ["radii", "--seq", "/nonexistent/seq.json"], ["radii", "--demo"], ["radii", "--seed", "1"],
        ["contains", "--band", "-1", "e1"], ["contains", "--band", "nan", "e1"],
        ["eval", "--tol", "inf", "e1"], ["eval", "--max-terms", "0", "e1"],
        ["eval", "--max-terms", "2000000", "e1"], ["scan", "--rstep", "0"],
        ["scan", "--rmax", "inf"], ["scan", "--thetas", "nan"], ["scan", "--slices", ","],
        ["scan", "--rstep", "0.0001", "--rmax", "400"], ["figure", "--n", "0"],
        ["figure", "--rmax", "-1"], ["figure", "--n", "2000"], ["figure", "--slices="],
        ["hyper", "e1", "e1+e2"], ["hyper", "e1", "e1"], ["polar"], ["polar", "--alpha", "1"],
        ["polar", "--alpha", "4", "--theta", "0", "--jmath", "e1"],
        ["polar", "--alpha", "1", "--theta", "0", "--frame", "e1"],
        ["cker", "e1", "e10"], ["cker", "e1", "e10", "--curve", "0"],
        ["cker", "e1", "e10", "--curve", "2000000"],
        ["cker", "e1", "e10", "--curve", "3", "--format", "json"], ["nosuch"], [],
        ["radii", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":[2]}'],
        ["contains", "--seq", '{"kind":"lacunary","coeff":[[1]],"ratio":2}', "e1"],
        ["eval", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":null}', "e1"],
        ["hyper", f"{HUGE_E}e1", "e10"], ["cker", f"{HUGE_E}e1", "e10", "e3"],
        ["radii", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":true}'],
        ["contains", "--seq", '{"kind":"lacunary","coeff":[true],"ratio":2}', "e1"],
        ["scan", "--thetas="], ["scan", "--thetas=,"],
        ["cker", "e1", "e10", "--curve", "3", "--out", "nodir/c.csv"],
        ["radii", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":1e400}'],
        ["eval", "0.5+0.5e1", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":1e400}'],
        ["radii", "--seq", '{"kind":"geometric","terms":[{"coeff":"e1","ratio":Infinity}]}'],
    ]
    return out + bad


def run(argv: list[str]) -> str:
    """sha256 of one in-process run, in an empty working directory."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:  # a usage error: only its exit code counts,
                    code = exc.code        # as argparse's wording varies across Pythons
                    err.seek(0)
                    err.truncate()
            files = sorted((str(p.relative_to(tmp)), p.read_text(encoding="utf-8"))
                           for p in Path(tmp).rglob("*") if p.is_file())
        finally:
            os.chdir(cwd)
    record = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue(),
              "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
              "files": files}
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def digests() -> dict[str, str]:
    return {shlex.join(argv): run(argv) for argv in commands()}


def test_cli_output_matches_the_committed_corpus(monkeypatch):
    monkeypatch.delenv("SEDENION_OUTDIR", raising=False)
    want = json.loads(CORPUS.read_text(encoding="utf-8"))
    got = digests()
    assert len(got) == len(commands())  # no command is listed twice
    changed = sorted(k for k in got.keys() | want.keys() if got.get(k) != want.get(k))
    assert not changed, f"{len(changed)} commands differ from the corpus: {changed[:10]}"


if __name__ == "__main__":
    os.environ.pop("SEDENION_OUTDIR", None)
    path = Path(sys.argv[1]) if len(sys.argv) > 1 else CORPUS
    path.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
