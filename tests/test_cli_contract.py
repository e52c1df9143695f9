"""The contract of the command line on seeded hostile input (see `fuzz_cli.py`).

Every command exits 0, 1 or 2; exit 2 prints one `error: ` line (argparse
usage errors excepted); no warning is raised; JSON output is standard JSON;
text output holds no `nan`; and each command finishes in time.
"""

import collections
import json
import random

import pytest

from fuzz_cli import NINES, SUBNORMAL, HUGE, fuzz, random_argv, run, violations
from sedenion import GeometricSum, SliceUnit, same_unit

SUBCOMMANDS = {"table", "mul", "kernel", "decompose", "zd-check", "hyper", "polar", "cker",
               "radii", "contains", "eval", "scan", "figure"}


def test_seeded_commands_keep_the_contract():
    # about 3 s; `python tests/fuzz_cli.py --seed S --count N` runs longer batches
    assert fuzz(seed=2801, count=800) == []


def test_the_seeded_commands_reach_every_subcommand_and_exit_code():
    rng = random.Random(2801)
    argvs = [random_argv(rng) for _ in range(800)]
    assert {argv[0] for argv in argvs} == SUBCOMMANDS
    exits = collections.Counter(run(argv)["exit"] for argv in argvs[:200])
    assert set(exits) == {0, 1, 2} and exits[0] > exits[2] / 2


ARRAY_E1 = "[0,1]"
ARRAY_ZD = "[0,1,0,0,0,0,0,0,0,0,-1,0,0,0,0,0]"  # e1-e10
EXPLICIT = [
    # element text: 300 digits, subnormal, nan/inf spellings
    (["mul", f"{NINES}e1", f"{NINES}e2"], 0),
    (["mul", f"{SUBNORMAL}e1", "e2"], 0),
    (["kernel", f"{SUBNORMAL}e1+{SUBNORMAL}e10"], 0),
    (["zd-check", f"{HUGE}e1-{HUGE}e10", f"{HUGE}e4+{HUGE}e15"], 0),
    (["mul", "nan", "e1"], 2), (["mul", "inf", "e1"], 2), (["kernel", "-inf"], 2),
    (["contains", f"{HUGE}e15"], 0), (["eval", f"{SUBNORMAL}e10"], 0),
    # JSON coefficient arrays, for every element argument
    (["mul", ARRAY_E1, "e1"], 0), (["mul", "e2", ARRAY_E1, "--format", "json"], 0),
    (["kernel", ARRAY_ZD], 0), (["decompose", "1+e2+e5+e9", ARRAY_ZD], 0),
    (["decompose", ARRAY_E1, "e1+e10", "--format", "json"], 0),
    (["zd-check", ARRAY_ZD, "e4+e15"], 0), (["zd-check", "e1", ARRAY_E1], 1),
    (["polar", "--alpha", "1.2", "--theta", "2.5", "--jmath", "[0,0,0,0,0,1,0,0]"], 0),
    (["mul", "[NaN]", "e1"], 2), (["mul", "[Infinity,0]", "e1"], 2), (["kernel", "[1e400]"], 2),
    (["mul", "[1,2,3]", "e1"], 2), (["mul", "[]", "e1"], 2), (["mul", "[", "e1"], 2),
    (["kernel", "[[1]]"], 2), (["kernel", "[true]"], 2), (["mul", "[1e-320,1]", "e1"], 0),
    # --seq JSON with wrong types and extreme ratios
    (["radii", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":"2"}'], 2),
    (["radii", "--seq", '{"kind":"table","values":"12"}'], 2),
    (["radii", "--seq", '{"kind":"table","values":{}}'], 2),
    (["radii", "--seq", '{"kind":"geometric","terms":{"coeff":"e1","ratio":2}}'], 2),
    (["radii", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":{}}'], 2),
    (["radii", "--seq", '{"kind":"geometric","terms":"x"}'], 2),
    (["radii", "--seq", '{"kind":"table","values":[1]}'], 2),
    (["eval", "0.5", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":5e-324}'], 0),
    (["eval", "0.5", "--seq", '{"kind":"geometric","terms":[{"coeff":"e1","ratio":1e308}]}',
      "--format", "json"], 0),
    (["contains", "0.5", "--seq", '{"kind":"lacunary","coeff":[1e300,1e300],"ratio":1e-300}'], 0),
    (["radii", "--seq", '{"kind":"geometric","terms":[{"coeff":"e1","ratio":Infinity}]}'], 2),
    (["radii", "--seq", '{"kind":"geometric","terms":[{"coeff":"e1","ratio":NaN}]}'], 2),
    # list flags with empty entries
    (["scan", "--thetas=", "--rstep", "1"], 2), (["scan", "--thetas=,", "--rstep", "1"], 2),
    (["scan", "--thetas=1,,2", "--rstep", "1", "--slices", "e10"], 0),
    (["scan", "--slices=e10,,e3", "--rstep", "1"], 0), (["scan", "--slices=,"], 2),
    (["figure", "--slices=,e10,", "--n", "3"], 0), (["figure", "--slices="], 2),
    (["polar", "--alpha", "1", "--theta", "0", "--frame=e1,,e2"], 2),
    # the other subcommands, and argparse's own usage errors
    (["table", "--verify", "--format", "json"], 0), (["hyper", "e1", "e10"], 0),
    (["cker", "e1", "e10", "--curve", "3"], 0), (["cker", "e1", "e10", "e3"], 1),
    (["cker", "e1", "e10", "--curve", "3", "--out", "nodir/c.csv"], 2),
    (["scan", "--rstep", "1", "--out", "nodir/x.csv"], 2), (["nosuch"], 2), ([], 2),
]


@pytest.mark.parametrize("argv, code", EXPLICIT, ids=[" ".join(a)[:60] for a, _ in EXPLICIT])
def test_hostile_inputs_keep_the_contract(argv, code):
    result = run(argv)
    assert violations(argv, result) == []
    assert result["exit"] == code, result["stderr"]


def test_a_long_table_finds_its_companion_in_time(tmp_path):
    # The first 2,000 terms of 1/1.1^l + (e4+e15)/1.05^l.  The companion search
    # tries every nonzero value, and each try reads the whole table: one array
    # pass each keeps the command inside the time limit.
    a = GeometricSum.of([("1", 1.1), ("e4+e15", 1.05)])
    path = tmp_path / "long.json"
    path.write_text(json.dumps({"kind": "table",
                                "values": [a.term(ell).tolist() for ell in range(2000)]}))
    argv = ["radii", "--center=0.5+2e1", "--seq", str(path)]
    result = run(argv)
    assert violations(argv, result) == [] and result["exit"] == 0, result
    fields = dict(f.split("=", 1) for f in result["stdout"].split())
    assert fields["R_a^p"] == "1.1" and fields["case"] == "HyperIntersection"
    assert same_unit(SliceUnit(fields["witness"]), SliceUnit("e10"))


@pytest.mark.parametrize("change, clause", [
    ({"exit": 3}, "exit 3"),
    ({"exit": None}, "no exit"),
    ({"stderr": "error: a\nerror: b\n"}, "one `error: ` line"),
    ({"stderr": "Traceback (most recent call last):\n"}, "one `error: ` line"),
    ({"warnings": ["RuntimeWarning: overflow"]}, "warnings"),
    ({"exit": 0, "stdout": '{"R_a": NaN}\n'}, "not standard JSON"),
    ({"exit": 0, "stdout": "[Infinity]\n"}, "not standard JSON"),
    ({"exit": 0, "stdout": "R_a=nan\n", "json": False}, "nan in text output"),
    ({"seconds": 1e9}, "took"),
])
def test_the_contract_check_catches_each_clause(change, clause):
    # A passing exit-2 run of a JSON command, then one clause broken at a time.
    change = dict(change)
    argv = ["radii", "--format", "json"] if change.pop("json", True) else ["radii"]
    result = {"exit": 2, "usage": False, "stdout": "", "stderr": "error: bad\n",
              "warnings": [], "seconds": 0.0}
    assert violations(argv, result) == []
    found = violations(argv, {**result, **change})
    assert len(found) == 1 and clause in found[0]
