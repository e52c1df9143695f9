"""Seeded contract fuzzer for the `sedenion` command line.

Builds argv over all 13 subcommands from hostile inputs: element text with
300-digit, subnormal and nan/inf spellings, JSON coefficient arrays, `--seq`
JSON with wrong types and extreme ratios, and list flags with empty entries.
Each command runs in-process in an empty directory, and must keep the
contract of the command line:

- the exit code is 0, 1 or 2;
- exit 2 prints exactly one stderr line, starting `error: ` (argparse usage
  errors excepted);
- no warning is raised;
- `--format json` output parses with a parser that rejects NaN and Infinity;
- text output holds no `nan`;
- each command finishes within `TIME_LIMIT_S` seconds.

`tests/test_cli_contract.py` runs a short seeded batch in the test suite.
For a longer run, from the repository root:

    PYTHONPATH=src python tests/fuzz_cli.py --seed 1 --count 5000

It prints each violation with its argv, and exits 1 if there was one.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import re
import shlex
import signal
import sys
import tempfile
import threading
import time
import warnings

from sedenion.cli import main

TIME_LIMIT_S = 20.0

NINES = "9" * 300
SUBNORMAL = "0." + "0" * 310 + "5"  # 5e-311
HUGE = "1" + "0" * 300  # 1e300
# Element text that parses, from plain to the ends of the float range, and text that does not
TEXT = ["e1", "e10", "-e3", "e1+e10", "e4+e15", "e1-e10", "0.5+2e3-e9", "3e7-2e12", "1", "0",
        "-0.2+0.9e3", "0.6e2+0.8e10", "0.5+2e1", f"{NINES}e1+{NINES}e10", f"{SUBNORMAL}e2",
        f"{SUBNORMAL}e1+{SUBNORMAL}e10", f"{HUGE}e15", f"{HUGE}e1", " e1 "]
BAD_TEXT = ["nan", "inf", "-inf", "NaN", "1e400", "e99", "2e", "", "e1 e2", "x", "[", '"e1"']
# JSON numbers: extreme but finite, then special or not numbers at all
NUMBERS = ["0", "1", "-1", "0.5", "2", "1e-320", "5e-324", "1e300", "1.7e308", "-1e-300"]
BAD_NUMBERS = ["1e400", "NaN", "Infinity", "-Infinity", "true", "null", '"1"', "[1]", "{}"]
RATIOS = ["2", "3", "1.5", "0.5", "4", "1e-300", "1e308", "1e-320", "5e-324", '"2"']
BAD_RATIOS = ["0", "-1", "1e400", "NaN", "Infinity", "true", "null", "[2]", "{}"]
# Points of W (re + im*J for a slice unit J), and zero divisors
POINTS = ["e1", "0.5", "0.5+2e1", "-0.2+0.9e3", "0.1+0.6e2+0.8e10", "1.5e1", "3e1", "2",
          "0.5+1.5e10", "-1.2e10", "0.000000001e10", f"{NINES}e1", f"{SUBNORMAL}e10", f"{HUGE}e15"]
ZERO_DIVISORS = ["e1+e10", "e1-e10", "e3-e13", "e4+e15", f"{SUBNORMAL}e1+{SUBNORMAL}e10",
                 f"{NINES}e1+{NINES}e10"]
SLICE_NAMES = ["e1", "e10", "-e10", "e3", "e2", "e5", "e8", "0.6e2+0.8e10"]
HYPER_PAIRS = [("e1", "e10"), ("e1", "-e10"), ("e2", "e9"), ("e3", "e14"), ("-e4", "e10")]
BAD_SLICES = ["e1+e2", "0", "e1+e10", "x", "[0,1]", "nan", ""]
FLOATS = ["0", "0.5", "1", "1e-9", "1e308"]
BAD_FLOATS = ["-1", "nan", "inf", "-inf", "x"]


def pick(rng: random.Random, good: list[str], bad: list[str], p_bad: float = 0.15) -> str:
    return rng.choice(bad if rng.random() < p_bad else good)


def _array(rng: random.Random) -> str:
    """A JSON coefficient array; now and then of a length that is no power of two
    up to 16, or with a hostile entry."""
    n = pick(rng, [1, 2, 4, 8, 16, 16, 16], [0, 3, 32])
    values = [rng.choice(["0", "0", "1", "-1", "0.5", "2"]) for _ in range(n)]
    if values and rng.random() < 0.4:
        values[rng.randrange(n)] = pick(rng, NUMBERS, BAD_NUMBERS, 0.3)
    return "[" + ",".join(values) + "]"


def element(rng: random.Random) -> str:
    return _array(rng) if rng.random() < 0.3 else pick(rng, TEXT, BAD_TEXT)


def unit(rng: random.Random) -> str:
    """A slice unit, by name or as a coefficient array, or now and then not one."""
    if rng.random() < 0.2:
        k = rng.randrange(1, 16)
        return json.dumps([1.0 if i == k else 0.0 for i in range(16)])
    return pick(rng, SLICE_NAMES, BAD_SLICES)


def point(rng: random.Random) -> str:
    """A point of W as text, or now and then any element."""
    return rng.choice(POINTS) if rng.random() < 0.8 else element(rng)


def _coeff(rng: random.Random) -> str:
    """A JSON coefficient: element text, an array, or a value of the wrong type."""
    if rng.random() < 0.1:
        return rng.choice(["1", "null", "[[1]]", "[true]", "{}", "[]"])
    return json.dumps(element(rng)) if rng.random() < 0.6 else _array(rng)


def seq(rng: random.Random) -> str:
    """--seq JSON: a geometric sum, a gap series, a short table, or a broken spec."""
    kind = pick(rng, ["geometric", "lacunary", "table"], ["broken"], 0.1)
    ratio = lambda: pick(rng, RATIOS, BAD_RATIOS, 0.1)
    if kind == "geometric":
        terms = [f'{{"coeff":{_coeff(rng)},"ratio":{ratio()}}}' for _ in range(rng.randint(1, 3))]
        return f'{{"kind":"geometric","terms":[{",".join(terms)}]}}'
    if kind == "lacunary":
        return f'{{"kind":"lacunary","coeff":{_coeff(rng)},"ratio":{ratio()}}}'
    if kind == "table":
        values = ",".join(_coeff(rng) for _ in range(rng.randint(0, 8)))
        return f'{{"kind":"table","values":[{values}]}}'
    return rng.choice(['{"kind":"nope"}', '{"kind":"geometric"}', '{"kind":"geometric","terms":"x"}',
                       '{"kind":"table","values":{}}', '{"kind":"lacunary","coeff":"e1"}',
                       '{"kind":"table","values":[NaN]}', '{"kind":', "[]", '{"kind":1}'])


def listed(rng: random.Random, good: list[str], bad: list[str]) -> str:
    """A comma list, now and then with empty or hostile entries, or empty."""
    entries = [pick(rng, good, bad + [""], 0.2) for _ in range(pick(rng, [1, 2, 3], [0], 0.1))]
    return ",".join(entries)


def _series_flags(rng: random.Random) -> list[str]:
    flags = []
    if rng.random() < 0.7:
        flags.append(f"--center={point(rng)}")
    if rng.random() < 0.7:
        flags += ["--seq", seq(rng)]
    return flags


def _fmt(rng: random.Random, choices=("csv", "json")) -> list[str]:
    return ["--format", rng.choice(choices)] if rng.random() < 0.5 else []


def random_argv(rng: random.Random) -> list[str]:
    """One seeded command line; grids and term counts stay small, or past their limits."""
    sub = rng.choice(["table", "mul", "kernel", "decompose", "zd-check", "hyper", "polar",
                      "cker", "radii", "contains", "eval", "scan", "figure"])
    if sub == "table":
        return [sub] + (["--verify"] if rng.random() < 0.5 else []) + _fmt(rng)
    if sub == "mul":
        return [sub] + _fmt(rng) + ["--", element(rng), element(rng)]
    if sub in ("decompose", "zd-check"):
        second = pick(rng, ZERO_DIVISORS, [element(rng)], 0.3)
        return [sub] + _fmt(rng) + ["--", element(rng), second]
    if sub == "kernel":
        return [sub] + _fmt(rng) + ["--", element(rng)]
    pair = list(rng.choice(HYPER_PAIRS)) if rng.random() < 0.6 else [unit(rng), unit(rng)]
    if sub == "hyper":
        return [sub] + _fmt(rng) + ["--"] + pair
    if sub == "polar":
        if rng.random() < 0.3:
            return [sub] + _fmt(rng) + ["--", unit(rng)]
        argv = [sub, f"--alpha={pick(rng, ['0.7', '2', '0', '1.2'], BAD_FLOATS + ['4'])}"]
        if rng.random() < 0.9:
            argv.append(f"--theta={pick(rng, ['0.3', '0', '2.5'], BAD_FLOATS)}")
        if rng.random() < 0.5:
            argv.append(f"--frame={listed(rng, ['e1', 'e2', 'e3', 'e5'], ['-e1', 'e9', 'x'])}")
        else:
            argv.append(f"--jmath={unit(rng)}")
        return argv + _fmt(rng)
    if sub == "cker":
        argv = [sub] + _fmt(rng)
        if rng.random() < 0.5:
            argv.append(f"--curve={pick(rng, ['1', '5', '12'], ['0', '-1', '2000000'])}")
            if rng.random() < 0.5:
                argv.append(f"--out={pick(rng, ['curve.csv'], ['nodir/c.csv', '', '.'], 0.4)}")
            return argv + ["--"] + pair
        return argv + ["--"] + pair + ([unit(rng)] if rng.random() < 0.9 else [])
    argv = [sub] + _series_flags(rng)
    if sub == "radii":
        return argv + _fmt(rng)
    if sub == "contains":
        if rng.random() < 0.3:
            argv.append(f"--band={pick(rng, FLOATS, BAD_FLOATS)}")
        return argv + _fmt(rng) + ["--", point(rng)]
    if sub == "eval":
        if rng.random() < 0.3:
            argv.append(f"--max-terms={pick(rng, ['1', '60', '400'], ['0', '2000000', '-5'])}")
        if rng.random() < 0.3:
            argv.append(f"--tol={pick(rng, FLOATS, BAD_FLOATS)}")
        return argv + _fmt(rng) + ["--", point(rng)]
    if rng.random() < 0.4:
        argv.append(f"--slices={listed(rng, SLICE_NAMES, BAD_SLICES)}")
    if sub == "scan":
        argv += [f"--rstep={pick(rng, ['0.5', '1', '0.25'], ['0', '-1', 'nan'], 0.1)}",
                 f"--rmax={pick(rng, ['2', '3', '4'], ['inf', '-1'], 0.1)}"]
        if rng.random() < 0.05:
            argv += ["--rstep=1e-6", "--rmax=1e6"]  # refused from its size
        if rng.random() < 0.4:
            argv.append(f"--thetas={listed(rng, ['0.5', '2', '-0.5', '4', '0'], ['nan', 'inf', 'x'])}")
        if rng.random() < 0.2:
            argv.append(f"--max-terms={pick(rng, ['60', '400'], ['0'])}")
        if rng.random() < 0.2:
            argv.append(f"--out={pick(rng, ['rows.csv'], ['nodir/x.csv', ''], 0.4)}")
        return argv
    argv.append(f"--n={pick(rng, ['1', '2', '10', '20'], ['0', '2000'], 0.1)}")
    if rng.random() < 0.3:
        argv.append(f"--rmax={pick(rng, ['2', '4'], ['0', '-1', 'nan'])}")
    return argv + _fmt(rng, ("csv", "svg"))


class _Timeout(BaseException):
    """Raised in a command past its time limit; `main` catches no BaseException."""


def _alarm(signum, frame):
    raise _Timeout


@contextlib.contextmanager
def _time_limit(seconds: float):
    if not hasattr(signal, "setitimer") or threading.current_thread() is not threading.main_thread():
        yield  # no alarm: the run's time is still checked when it returns
        return
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def run(argv: list[str]) -> dict:
    """One in-process run in an empty directory, with SEDENION_OUTDIR unset."""
    out, err = io.StringIO(), io.StringIO()
    usage, code = False, None
    cwd, outdir = os.getcwd(), os.environ.pop("SEDENION_OUTDIR", None)
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with (warnings.catch_warnings(record=True) as caught,
                  contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                  _time_limit(TIME_LIMIT_S)):
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse: a usage error or --help
                    code, usage = exc.code, True
        except _Timeout:
            pass
        finally:
            os.chdir(cwd)
            if outdir is not None:
                os.environ["SEDENION_OUTDIR"] = outdir
    return {"exit": code, "usage": usage, "stdout": out.getvalue(), "stderr": err.getvalue(),
            "warnings": [f"{w.category.__name__}: {w.message}" for w in caught],
            "seconds": time.perf_counter() - start}


def _reject(token):
    raise ValueError(f"non-standard JSON token {token}")


def violations(argv: list[str], result: dict) -> list[str]:
    """The contract clauses the run `result` of argv breaks."""
    found = []
    code, out, err = result["exit"], result["stdout"], result["stderr"]
    if code is None:
        found.append(f"no exit within {TIME_LIMIT_S} s")
    elif code not in (0, 1, 2):
        found.append(f"exit {code}")
    if code == 2 and not result["usage"]:
        lines = err.splitlines()
        if len(lines) != 1 or not lines[0].startswith("error: "):
            found.append(f"exit 2 without one `error: ` line: {err!r}")
    if result["warnings"]:
        found.append(f"warnings: {result['warnings']}")
    head = argv[:argv.index("--")] if "--" in argv else argv
    if code in (0, 1) and "--format" in head and head[head.index("--format") + 1] == "json":
        try:
            json.loads(out, parse_constant=_reject)
        except ValueError as exc:
            found.append(f"not standard JSON: {exc}")
    elif re.search(r"\bnan\b", out, re.IGNORECASE):
        found.append("nan in text output")
    if result["seconds"] > TIME_LIMIT_S:
        found.append(f"took {result['seconds']:.1f} s")
    return found


def fuzz(seed: int, count: int) -> list[tuple[list[str], list[str]]]:
    """(argv, violations) of every failing command among `count` seeded ones."""
    rng = random.Random(seed)
    failures = []
    for _ in range(count):
        argv = random_argv(rng)
        if found := violations(argv, run(argv)):
            failures.append((argv, found))
    return failures


def cli(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Seeded contract fuzzer for the sedenion CLI.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--count", type=int, default=1000)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    failures = fuzz(args.seed, args.count)
    for argv, found in failures:
        print(f"{shlex.join(argv)}\n    " + "\n    ".join(found))
    print(f"seed={args.seed} commands={args.count} violations={len(failures)} "
          f"seconds={time.perf_counter() - start:.1f}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(cli())
