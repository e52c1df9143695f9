"""Command line behavior: outputs, exit codes, files, determinism."""

import hashlib
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings

import pytest

import numpy as np

from sedenion.cli import main
from sedenion import (CDElement, basis, cd_mul_recursive, format_real, ortho_decompose,
                      parse_element)
from sedenion._tol import DISPLAY_DUST

from util import SEED, box_kite_diagonals


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


PI_2 = format_real(math.pi / 2)
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


# ---------------------------------------------------------------------------
# algebra commands
# ---------------------------------------------------------------------------


def test_table_verify_reports_full_agreement(capsys):
    rc, out, _ = run(capsys, ["table", "--verify"])
    assert rc == 0
    assert out == "256/256 entries match\n"


def test_table_verify_json_is_a_json_object_with_the_same_exit_code(capsys, monkeypatch):
    import sedenion.cli as cli

    rc, out, _ = run(capsys, ["table", "--verify", "--format", "json"])
    assert (rc, json.loads(out)) == (0, {"matches": 256, "total": 256})
    monkeypatch.setattr(cli, "verify_table", lambda: (255, 256))
    rc, out, _ = run(capsys, ["table", "--verify", "--format", "json"])
    assert (rc, json.loads(out)) == (1, {"matches": 255, "total": 256})


def test_table_json_is_the_csv_grid(capsys):
    _, csv, _ = run(capsys, ["table"])
    rc, out, _ = run(capsys, ["table", "--format", "json"])
    assert rc == 0
    rows = json.loads(out)
    assert rows == [line.split(",") for line in csv.splitlines()]
    assert rows[0][:3] == ["", "1", "e1"] and rows[2][2] == "-1" and rows[2][3] == "e3"


def test_table_prints_a_16_by_16_grid(capsys):
    rc, out, _ = run(capsys, ["table"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 17
    assert lines[0].startswith(",1,e1,e2")
    assert all(len(line.split(",")) == 17 for line in lines)


E1_PLUS_E10 = "[0,1,0,0,0,0,0,0,0,0,1,0,0,0,0,0]"
E4_PLUS_E15 = "[0,0,0,0,1,0,0,0,0,0,0,0,0,0,0,1]"


@pytest.mark.parametrize("text_argv, array_argv", [
    (["mul", "e1", "e2"], ["mul", "[0,1]", "[0,0,1,0]"]),
    (["mul", "e1+e10", "e4+e15"], ["mul", E1_PLUS_E10, E4_PLUS_E15]),
    (["kernel", "e1+e10"], ["kernel", E1_PLUS_E10]),
    (["decompose", "1+e2+e5+e9", "e1+e10"],
     ["decompose", "[1,0,1,0,0,1,0,0,0,1,0,0,0,0,0,0]", E1_PLUS_E10]),
    (["zd-check", "e1+e10", "e4+e15"], ["zd-check", E1_PLUS_E10, E4_PLUS_E15]),
    (["polar", "--alpha", "1.2", "--theta", "2.5", "--jmath", "e5"],
     ["polar", "--alpha", "1.2", "--theta", "2.5", "--jmath", "[0,0,0,0,0,1,0,0]"]),
], ids=["mul-basis", "mul", "kernel", "decompose", "zd-check", "polar-jmath"])
def test_every_element_argument_reads_a_json_coefficient_array(capsys, text_argv, array_argv):
    # One element reader, parse_any, as for --center, points and slice units.
    for fmt in ([], ["--format", "json"]):
        want = run(capsys, text_argv + fmt)
        assert want[0] in (0, 1) and want[2] == ""
        assert run(capsys, array_argv + fmt) == want
    assert run(capsys, ["mul", "[0,1]", "e1"]) == (0, "-1\n", "")


def test_polar_frame_units_stay_text(capsys):
    # --frame splits on commas, so an array there is cut into pieces.
    rc, out, err = run(capsys, ["polar", "--alpha", "0.7", "--theta", "0.3",
                                "--frame", "[0,1],[0,0,1,0]"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1


def test_mul_basis_elements(capsys):
    rc, out, _ = run(capsys, ["mul", "e1", "e2"])
    assert (rc, out) == (0, "e3\n")
    rc, out, _ = run(capsys, ["mul", "e1-e10", "e4+e15"])
    assert (rc, out) == (0, "0\n")


def test_mul_json_payload(capsys):
    rc, out, _ = run(capsys, ["mul", "--format", "json", "e1", "e2"])
    assert rc == 0
    data = json.loads(out)
    assert data["text"] == "e3"
    assert len(data["coeffs"]) == 16 and data["coeffs"][3] == 1.0


def test_kernel_output_shape(capsys):
    rc, out, _ = run(capsys, ["kernel", "e1-e10"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "dim=4"
    assert len(lines) == 5

    rc, out, _ = run(capsys, ["kernel", "--format", "json", "e1-e10"])
    data = json.loads(out)
    assert data["dim"] == 4 and len(data["basis"]) == 4


def test_decompose_names_three_parts(capsys):
    rc, out, _ = run(capsys, ["decompose", "1+2e1+3e4", "e1-e10"])
    assert rc == 0
    lines = out.splitlines()
    assert [line.split("=")[0] for line in lines] == \
        ["o_part", "ker_part", "kerc_part"]


def test_zd_check_certificate_and_exit_codes(capsys):
    rc, out, _ = run(capsys, ["zd-check", "e1-e10", "e4+e15"])
    assert rc == 0
    assert "product_zero=yes" in out and "norms_match=yes" in out
    rc, out, _ = run(capsys, ["zd-check", "e1", "e2"])
    assert rc == 1
    assert "product_zero=no" in out


def _exact_text(x, k: int) -> str:
    """Element text of x * 2**k, every coefficient written out in full decimal."""
    terms = []
    for i, c in enumerate(np.ldexp(x.promote(4).coeffs, k).tolist()):
        if c:
            terms.append(f"{'-' if c < 0 else '+'}{abs(c):.1100f}".rstrip("0").rstrip(".")
                         + f"e{i}")
    return "".join(terms)


def test_zd_check_answers_alike_at_every_power_of_two_scale(capsys):
    # (2^k x)(2^k y) = 4^k xy, so whether the product is zero, and the exit
    # code, cannot depend on k, even where |x|^2 or |x||y| leaves the float
    # range.  Zero products: the 336 ordered pairs of box-kite diagonals
    # e_i +- e_j (de Marrais 2000).  Nonzero ones: e1+e10 times e4+e15,
    # seeded pairs of diagonals whose product is not zero, and seeded
    # elements.  Every product is decided exactly by the recursive formula.
    diagonals = box_kite_diagonals()
    products = [(x, y, cd_mul_recursive(x, y).is_zero()) for x in diagonals for y in diagonals]
    zero = [(x, y) for x, y, is_zero in products if is_zero]
    assert len(zero) == 336
    rng = np.random.default_rng(52)
    nonzero = [(x, y) for x, y, is_zero in products if not is_zero]
    nonzero = [nonzero[i] for i in rng.choice(len(nonzero), size=24, replace=False)]
    nonzero += [(basis(1, 4) + basis(10, 4), basis(4, 4) + basis(15, 4)), (basis(1), basis(2))]
    nonzero += [tuple(CDElement(rng.normal(size=16)) for _ in range(2)) for _ in range(6)]
    for pairs, want in ((zero, (0, "product_zero=yes")), (nonzero, (1, "product_zero=no"))):
        for x, y in pairs:
            for k in (0, 500, -500, 1000, -1000):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    rc, out, err = run(capsys, ["zd-check", "--", _exact_text(x, k),
                                                _exact_text(y, k)])
                assert (rc, out.splitlines()[0], err) == (*want, ""), (str(x), str(y), k)


def test_decompose_json_carries_the_library_parts_at_every_scale(capsys):
    # The 84 box-kite diagonals as p with a seeded x, both scaled by 2^k and
    # written out in full: `decompose --format json` exits 0 with the parts
    # of `ortho_decompose` after the dust rule, bit for bit: a coefficient
    # below DISPLAY_DUST times the largest |coefficient| of x reads 0.
    x = CDElement(np.random.default_rng(SEED).normal(size=16))
    for p in box_kite_diagonals():
        for k in (0, 500, -500, 1000, -1000):
            rc, out, err = run(capsys, ["decompose", "--format", "json", "--",
                                        _exact_text(x, k), _exact_text(p, k)])
            assert (rc, err) == (0, ""), (str(p), k)
            data = json.loads(out)
            xk = np.ldexp(x.coeffs, k)
            lib = ortho_decompose(CDElement(xk), CDElement(np.ldexp(p.coeffs, k)))
            floor = DISPLAY_DUST * np.abs(xk).max()
            for name, part in zip(("o_part", "ker_part", "kerc_part"), lib):
                want = np.where(np.abs(part.coeffs) < floor, 0.0, part.coeffs)
                assert np.array(data[name]).tobytes() == want.tobytes(), (str(p), k)


DECOMPOSE_PAIRS = [("e2+e3", "e1+e10"), ("1+e2+e5+e9", "e1+e10"), ("e4+e15", "e1+e10"),
                   ("3e7-2e12", "e3-e13"), ("1+2e1+3e4", "e1-e10")]


@pytest.mark.parametrize("k", [500, -500, 1000, -1000])
def test_decompose_prints_2_to_the_k_times_its_unit_scale_parts(capsys, k):
    # The parts are linear in x and depend only on the direction of p, and
    # the dust floor is relative to x: scaling x and p by 2^k scales each
    # printed part by 2^k with the same zero pattern, in text (to its 12
    # digits) and in JSON (bit for bit while the parts stay normal; at
    # 2^-1000 projector dust goes subnormal, and they agree to rounding).
    rng = np.random.default_rng(SEED)
    pairs = [(parse_element(x).promote(4), parse_element(p).promote(4))
             for x, p in DECOMPOSE_PAIRS]
    pairs += [(CDElement(rng.normal(size=16)), p) for p in box_kite_diagonals()[::7]]
    for x, p in pairs:
        texts, coeffs = [], []
        for scale in (0, k):
            argv = ["decompose", "--", _exact_text(x, scale), _exact_text(p, scale)]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, out, err = run(capsys, argv)
                rc_js, out_js, _ = run(capsys, argv[:1] + ["--format", "json"] + argv[1:])
            assert (rc, rc_js, err) == (0, 0, ""), (str(x), str(p))
            texts.append(np.array([parse_element(line.split("=", 1)[1]).promote(4).coeffs
                                   for line in out.splitlines()]))
            coeffs.append(np.array(list(json.loads(out_js).values())))
        unit_text, got_text = texts[0], np.ldexp(texts[1], -k)
        assert ((unit_text != 0) == (got_text != 0)).all(), (str(x), str(p))
        assert np.allclose(got_text, unit_text, rtol=1e-11, atol=0.0), (str(x), str(p))
        unit, got = coeffs[0], np.ldexp(coeffs[1], -k)
        assert ((unit != 0) == (got != 0)).all(), (str(x), str(p))
        if k > -1000:
            assert got.tobytes() == unit.tobytes(), (str(x), str(p))
        else:
            assert np.abs(got - unit).max() <= 1e-15 * np.abs(x.coeffs).max(), (str(x), str(p))
    # e2 + e3 lies in O_p for p = e1 + e10: its kernel parts read 0 at every scale.
    rc, out, _ = run(capsys, ["decompose", "--", _exact_text(pairs[0][0], k),
                              _exact_text(pairs[0][1], k)])
    assert out.splitlines()[1:] == ["ker_part=0", "kerc_part=0"]


def test_kernel_json_keeps_its_basis_at_every_scale(capsys):
    # ker L_p depends only on the direction of p: each of the 84 box-kite
    # diagonals, scaled by 2^k and written out in full, gives dim=4 and the
    # unit-scale basis bit for bit, with no warning.
    for p in box_kite_diagonals():
        want = None
        for k in (0, 500, -500, 1000, -1000):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc, out, err = run(capsys, ["kernel", "--format", "json", "--",
                                            _exact_text(p, k)])
            data = json.loads(out)
            assert (rc, err, data["dim"]) == (0, "", 4), (str(p), k)
            want = want or data["basis"]
            assert data["basis"] == want, (str(p), k)


# ---------------------------------------------------------------------------
# slice geometry commands
# ---------------------------------------------------------------------------


def test_hyper_pair_prints_its_frame(capsys):
    rc, out, _ = run(capsys, ["hyper", "e1", "e10"])
    assert rc == 0
    assert out == f"hyper=yes alpha={PI_2} i1=e1 i2=e2\n"


def test_hyper_rejects_octonion_pairs(capsys):
    rc, out, _ = run(capsys, ["hyper", "e1", "e2"])
    assert (rc, out) == (1, "hyper=no\n")


def test_polar_analysis(capsys):
    rc, out, _ = run(capsys, ["polar", "e10"])
    assert rc == 0
    assert out == f"alpha={PI_2} theta={PI_2} jmath=e2\n"


def test_polar_construction_roundtrips(capsys):
    rc, out, _ = run(capsys, ["polar", "--alpha", "0", "--theta", "0",
                              "--jmath", "e1"])
    assert (rc, out) == (0, "e8\n")
    rc, out, _ = run(capsys, ["polar", "--alpha", "0.5", "--theta", "0.3",
                              "--frame", "e1,e2"])
    assert rc == 0
    rc2, out2, _ = run(capsys, ["polar", out.strip()])
    assert rc2 == 0
    alpha = float(out2.split()[0].split("=")[1])
    assert abs(alpha - 0.5) < 1e-9


def test_polar_without_arguments_is_an_error(capsys):
    rc, _, err = run(capsys, ["polar"])
    assert rc == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("argv, message", [
    (["polar", "--alpha", "1.0"], "--alpha needs --theta"),
    (["polar", "--alpha", "1.0", "--theta", "0.5", "--frame", "e1"],
     "--frame wants two comma-separated units"),
    (["polar", "--alpha", "1.0", "--theta", "0.5"], "construction needs --frame or --jmath"),
    (["cker", "e1", "e10", "--curve", "0"], "--curve wants a positive sample count"),
    (["cker", "e1", "e10"], "give a candidate unit K, or --curve N to sample"),
], ids=["polar-alpha-alone", "polar-one-frame-unit", "polar-no-frame-or-jmath",
        "cker-curve-0", "cker-no-k"])
def test_incomplete_construction_or_curve_requests_exit_2(capsys, argv, message):
    assert run(capsys, argv) == (2, "", f"error: {message}\n")


def test_cker_membership_exit_codes(capsys):
    rc, out, _ = run(capsys, ["cker", "e1", "e10", "e10"])
    assert (rc, out) == (0, "member=yes\n")
    rc, out, _ = run(capsys, ["cker", "e1", "e10", "e3"])
    assert (rc, out) == (1, "member=no\n")


def test_cker_curve_csv(capsys, tmp_path):
    rc, out, _ = run(capsys, ["cker", "e1", "e10", "--curve", "8"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "theta," + ",".join(f"c{k}" for k in range(16))
    assert len(lines) == 9
    assert all(len(line.split(",")) == 17 for line in lines)

    target = tmp_path / "curve.csv"
    rc, out, _ = run(capsys, ["cker", "e1", "e10", "--curve", "4",
                              "--out", str(target)])
    assert rc == 0
    assert out == f"wrote {target}\n"
    assert len(target.read_text().splitlines()) == 5


def test_cker_curve_refuses_json_before_any_work(capsys, tmp_path):
    target = tmp_path / "curve.csv"
    rc, out, err = run(capsys, ["cker", "e1", "e10", "--curve", "2", "--format", "json",
                                "--out", str(target)])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert not target.exists()
    rc, out, _ = run(capsys, ["cker", "e1", "e10", "e10", "--format", "json"])
    assert (rc, out) == (0, '{"member": true}\n')


def _never(*args, **kwargs):
    raise AssertionError("called after the command should have been refused")


def test_cker_curve_refuses_more_samples_than_the_grid_limit(capsys, tmp_path, monkeypatch):
    # The sample count is refused from its requested size: no curve point is
    # computed, so the limit itself never runs.
    import sedenion.cli as cli

    monkeypatch.setattr(cli, "cker_curve_points", _never)
    target = tmp_path / "curve.csv"
    rc, out, err = run(capsys, ["cker", "e1", "e10", "--curve", str(10**6 + 1),
                                "--out", str(target)])
    assert (rc, out) == (2, "")
    assert err == "error: grid of 1e+06 points exceeds the limit of 1000000\n"
    assert not target.exists()


def test_cker_curve_writes_csv_under_the_output_dir(capsys, tmp_path, monkeypatch):
    # The one --out rule of scan: a relative path resolves under SEDENION_OUTDIR.
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    rc, out, _ = run(capsys, ["cker", "e1", "e10", "--curve", "4", "--out", "curve.csv"])
    path = tmp_path / "curve.csv"
    assert (rc, out) == (0, f"wrote {path}\n")
    assert len(path.read_text().splitlines()) == 5


def test_cker_curve_refuses_an_unwritable_out_before_any_sample(capsys, tmp_path, monkeypatch):
    import sedenion.cli as cli

    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    monkeypatch.setattr(cli, "cker_curve_points", _never)
    rc, out, err = run(capsys, ["cker", "e1", "e10", "--curve", "20000", "--out", "nodir/c.csv"])
    assert (rc, out) == (2, "")
    path = tmp_path / "nodir" / "c.csv"
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert list(tmp_path.iterdir()) == []
    # without --curve there is no file to write, and --out is not read
    rc, out, err = run(capsys, ["cker", "e1", "e10", "e3", "--out", "nodir/c.csv"])
    assert (rc, out, err) == (1, "member=no\n", "")


# ---------------------------------------------------------------------------
# series commands
# ---------------------------------------------------------------------------


def test_radii_of_the_demo_sequence(capsys):
    rc, out, _ = run(capsys, ["radii"])
    assert rc == 0
    assert out == "R_a=2 R_a^p=3 witness=e10\ncase=HyperIntersection\n"


def test_radii_flags_table_estimates(capsys):
    seq = json.dumps({"kind": "table", "values": ["1", "0.5", "0.25", "0.125"]})
    rc, out, _ = run(capsys, ["radii", "--seq", seq])
    assert rc == 0
    assert "approximate=yes" in out.splitlines()[1]


@pytest.mark.parametrize("scale, r_a", [("1e200", "0.0000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000840896415254"),
                                        ("1e-200", "4135185542" + "0" * 57),
                                        ("1.5e308", "0." + "0" * 154 + "686589047969")])
def test_radii_of_a_table_near_either_end_of_the_float_range(capsys, scale, r_a):
    value = json.dumps([0, 0, 0, 0, float(scale)] + [0] * 10 + [float(scale)])
    seq = '{"kind":"table","values":[%s]}' % ",".join([value] * 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, ["radii", "--seq", seq])
    assert (rc, err) == (0, "")
    assert out.startswith(f"R_a={r_a} R_a^p=")
    assert out.endswith(" witness=e10\ncase=HyperIntersection approximate=yes\n")


def test_seq_reads_a_json_file_path(capsys, tmp_path):
    seq = json.dumps({"kind": "geometric", "terms": [{"coeff": "1", "ratio": 3.0},
                                                     {"coeff": "e4+e15", "ratio": 2.0}]})
    path = tmp_path / "seq.json"
    path.write_text(seq, encoding="utf-8")
    rc, out, err = run(capsys, ["radii", "--seq", str(path)])
    assert (rc, out, err) == (0, "R_a=2 R_a^p=3 witness=e10\ncase=HyperIntersection\n", "")
    for argv in (["contains", "2.5e10"], ["eval", "0.5e1"], ["scan", "--rstep", "1"]):
        assert run(capsys, [*argv, "--seq", str(path)]) == run(capsys, [*argv, "--seq", seq])


def test_seq_naming_a_missing_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "missing.json")
    rc, out, err = run(capsys, ["radii", "--seq", missing])
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and missing in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("command", [["radii"], ["contains", "e1"], ["eval", "e1"], ["scan"],
                                     ["figure"]], ids=lambda c: c[0])
def test_center_is_read_before_seq(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    argv = [*command, "--seq", str(tmp_path / "missing.json"), "--center", "bad"]
    assert run(capsys, argv) == (2, "", "error: cannot parse element text at: 'bad'\n")
    assert list(tmp_path.iterdir()) == []


def test_radii_json_payload(capsys):
    rc, out, _ = run(capsys, ["radii", "--format", "json"])
    data = json.loads(out)
    assert (data["R_a"], data["R_ap"], data["witness"]) == (2.0, 3.0, "e10")
    assert data["case"] == "HyperIntersection"


def test_contains_three_way(capsys):
    for q, want in (("1.5e1", "Interior"), ("3e1", "Boundary"),
                    ("4e1", "Exterior")):
        rc, out, _ = run(capsys, ["contains", q])
        assert (rc, out) == (0, want + "\n")


def test_eval_frozen_output(capsys):
    rc, out, _ = run(capsys, ["eval", "1.5e1"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("verdict=Converged terms=64 tail_norm=")
    assert lines[1] == ("value=0.972972972973+0.162162162162e1"
                       "+0.941176470588e4+0.235294117647e5"
                       "-0.235294117647e14+0.941176470588e15")


def test_eval_json_payload(capsys):
    rc, out, _ = run(capsys, ["eval", "--format", "json", "1.5e1"])
    data = json.loads(out)
    assert data["verdict"] == "Converged" and data["terms"] == 64
    assert len(data["coeffs"]) == 16


def test_repeated_runs_are_byte_identical(capsys):
    outs = set()
    for _ in range(2):
        rc, out, _ = run(capsys, ["eval", "0.3+0.7e10"])
        assert rc == 0
        outs.add(out)
    assert len(outs) == 1


def test_scan_summary_and_success_exit(capsys):
    rc, out, _ = run(capsys, ["scan", "--slices", "e1", "--rmin", "0.5",
                              "--rmax", "1.5", "--rstep", "0.5"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "slice,theta,re,im,predicted,empirical,terms_used,tail_norm"
    assert lines[-2] == "slice=e1 scored=3 agreed=3 agreement=1"
    assert lines[-1] == "total scored=3 agreed=3 agreement=1"


def test_scan_leaves_threshold_dependent_points_unscored(capsys):
    # 1e-11*e2 is orthogonal to ker(e1 - e10) but below PERP_THRESHOLD of
    # the coefficient: R_a^{p,e10} reads it as inside the kernel, while the
    # series diverges wherever |conj(w) - z| > 2.  The points between the
    # two readings are Boundary, so no Interior point is scored as Diverged.
    seq = json.dumps({"kind": "geometric", "terms": [
        {"coeff": "1", "ratio": 3}, {"coeff": "0.00000000001e2+e4+e15", "ratio": 2}]})
    rc, out, _ = run(capsys, ["scan", "--slices", "e10", "--seq", seq,
                              "--rstep", "0.25", "--rmax", "3.25"])
    lines = out.splitlines()
    assert (rc, lines[-1]) == (0, "total scored=8 agreed=8 agreement=1")
    assert sum(",Boundary,Diverged," in line for line in lines) == 4
    assert not any(",Interior,Diverged," in line for line in lines)


def test_contains_and_figure_call_the_threshold_band_boundary(capsys, tmp_path):
    # The sequence above with eps*e2 counted at both floors (1e-9), in the
    # band (1e-11) and dust at both (1e-14): R_a^{p,e10} is 2, undecided
    # and 3.  0+1.5e10 lies 2.5 from conj(z_p) = -i, so contains calls it
    # Exterior, Boundary and Interior, while the band series diverges there.
    # The figure calls Boundary every grid point whose call moves between
    # the two readings, fills what the rule calls Interior (the 1e-9
    # region) and draws the reflected circle at R_a^{p,e10} (3, as for 1e-14).
    def seq(eps):
        return json.dumps({"kind": "geometric", "terms": [
            {"coeff": "1", "ratio": 3}, {"coeff": f"{eps}e2+e4+e15", "ratio": 2}]})

    figures = {}
    for eps, call in (("0.000000001", "Exterior"), ("0.00000000001", "Boundary"),
                      ("0.00000000000001", "Interior")):
        assert run(capsys, ["contains", "--seq", seq(eps), "--", "0+1.5e10"])[1] == call + "\n"
        out_dir = tmp_path / eps
        for fmt in ("csv", "svg"):
            rc, _, _ = run(capsys, ["figure", "--seq", seq(eps), "--slices", "e10", "--n", "40",
                                    "--format", fmt, "--out", str(out_dir)])
            assert rc == 0
        rows = (out_dir / "figure_e10.csv").read_text().splitlines()
        figures[call] = ([row.rsplit(",", 1)[1] for row in rows[1:]],
                         _svg_polygons(out_dir / "figure.svg"), _svg_circles(out_dir / "figure.svg"))
    rc, out, _ = run(capsys, ["eval", "--seq", seq("0.00000000001"), "--", "0+1.5e10"])
    assert (rc, out.split()[:2]) == (0, ["verdict=Diverged", "terms=178"])
    counted, banded, dust = figures["Exterior"], figures["Boundary"], figures["Interior"]
    assert banded[0] == [x if x == y else "Boundary" for x, y in zip(counted[0], dust[0])]
    assert sum(x != y for x, y in zip(counted[0], dust[0])) > 40
    assert banded[1] == counted[1] != dust[1]
    assert banded[2] == dust[2] != counted[2]


def test_scan_flags_disagreement_with_exit_1(capsys):
    # a truncated table converges everywhere, so points outside its estimated
    # radius disagree by construction
    seq = json.dumps({"kind": "table", "values": ["1", "1", "1"]})
    rc, out, _ = run(capsys, ["scan", "--seq", seq, "--slices", "e1",
                              "--rmin", "3", "--rmax", "3", "--rstep", "0.2"])
    assert rc == 1
    assert out.splitlines()[-1] == "total scored=1 agreed=0 agreement=0"


def test_scan_rows_name_the_points_they_tested(capsys):
    # theta = 4 lies below the real axis: each row's re + im*e10, with im < 0,
    # is the point on -e10 that was tested, and contains agrees with its class
    rc, out, _ = run(capsys, ["scan", "--slices", "e10", "--thetas", "4", "--rstep", "0.5"])
    assert rc == 0
    rows = [line.split(",") for line in out.splitlines()[1:] if line.startswith("e10,")]
    assert rows and all(float(im) < 0 for _, _, _, im, *_ in rows)
    for _, _, x, y, predicted, *_ in rows:
        point = f"{x}{'' if y.startswith('-') else '+'}{y}e10"
        assert run(capsys, ["contains", "--band", "0.05", "--", point])[1] == predicted + "\n"


def test_option_values_with_a_leading_minus_take_the_equals_form(capsys):
    rc, out, _ = run(capsys, ["radii", "--center=-0.2+0.9e3"])
    assert rc == 0 and out.startswith("R_a=2 ")
    rc, out, _ = run(capsys, ["scan", "--slices", "e1", "--thetas=-0.5", "--rstep", "1"])
    assert rc == 0 and out.splitlines()[1].startswith("e1,-0.5,")


def test_list_flags_skip_empty_entries(capsys):
    # --slices and --thetas share one comma-list reader.
    base = ["scan", "--rstep", "1", "--slices", "e10"]
    want = run(capsys, base + ["--thetas=1,2"])
    assert want[0] == 0 and [row.split(",")[1] for row in want[1].splitlines()[1:3]] == ["1", "1"]
    assert run(capsys, base + ["--thetas=1,,2"]) == run(capsys, base + ["--thetas=,1,2,"]) == want
    want = run(capsys, ["scan", "--rstep", "1", "--slices=e10,e3"])
    assert want[0] == 0 and run(capsys, ["scan", "--rstep", "1", "--slices=e10,,e3"]) == want


def test_scan_writes_csv_under_the_output_dir(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    rc, out, _ = run(capsys, ["scan", "--slices", "e10", "--rmin", "1",
                              "--rmax", "2", "--rstep", "1", "--out", "rows.csv"])
    assert rc == 0
    path = tmp_path / "rows.csv"
    assert out.splitlines()[0] == f"wrote {path}"
    body = path.read_text().splitlines()
    assert body[0].startswith("slice,theta")
    assert len(body) == 3


def test_scan_refuses_an_unwritable_out_before_any_row(capsys, tmp_path, monkeypatch):
    import sedenion.cli as cli

    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    monkeypatch.setattr(cli, "convergence_scan", _never)
    rc, out, err = run(capsys, ["scan", "--rstep", "0.02", "--out", "nodir/x.csv"])
    assert (rc, out) == (2, "")
    path = tmp_path / "nodir" / "x.csv"
    assert err == f"error: [Errno 2] No such file or directory: '{path}'\n"
    assert list(tmp_path.iterdir()) == []


def test_a_scan_refused_after_the_out_check_leaves_the_out_path_as_it_was(
        capsys, tmp_path, monkeypatch):
    # Radii all below zero leave an empty grid, which convergence_scan
    # refuses after --out passed its check: no file appears, and an existing
    # one keeps its text.
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    argv = ["scan", "--rmin", "-2", "--rmax", "-1", "--out", "rows.csv"]
    for before in (None, "old rows\n"):
        if before is not None:
            (tmp_path / "rows.csv").write_text(before)
        rc, out, err = run(capsys, argv)
        assert (rc, out, err) == (2, "", "error: scan grids must be nonempty\n")
        if before is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert (tmp_path / "rows.csv").read_text() == before


def test_figure_writes_per_slice_csv_and_svg(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    rc, out, _ = run(capsys, ["figure", "--n", "20", "--format", "svg"])
    assert rc == 0
    names = ["figure_e1.csv", "figure_e10.csv", "figure_me10.csv",
             "figure_e3.csv", "figure.svg"]
    assert out.splitlines() == [f"wrote {tmp_path / n}" for n in names]
    for name in names[:4]:
        body = (tmp_path / name).read_text().splitlines()
        assert body[0] == "theta,r,re,im,class"
        assert len(body) == 1 + 20 * 20
    svg = (tmp_path / "figure.svg").read_text()
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    assert svg.count("<polygon") == 6
    assert "stroke-dasharray" in svg


def _svg_circles(path) -> list[tuple[float, float, float, bool]]:
    """(x, y, r, filled) of each circle of a one-panel figure.svg, in slice coordinates."""
    span, gap = 4.6, 14.0
    scale = 300.0 / (2 * span)
    out = []
    for m in re.finditer(r'<circle cx="([-\d.]+)" cy="([-\d.]+)" r="([-\d.]+)" '
                         r'fill="([^"]+)"', path.read_text()):
        cx, cy, r = (float(v) for v in m.groups()[:3])
        out.append(((cx - gap) / scale - span, span - (cy - gap) / scale, r / scale,
                    m[4] != "none"))
    return out


@pytest.mark.parametrize("argv,want", [
    # off the center plane: z_p and conj(z_p), radii R_a = 2 and R_a^{p,e10} = 3
    (["--center", "0.5+2e1", "--slices", "e10"],
     [(0.5, 2.0, 2.0, False), (0.5, -2.0, 3.0, False)]),
    # the slice of -I_p sees the center at conj(z_p) = -i
    (["--center", "e1", "--slices=-e1"], [(0.0, -1.0, 2.0, True), (0.0, -1.0, 2.0, False)]),
    # a real center: one disk around 0.5 on its one plane
    (["--center", "0.5"], [(0.5, 0.0, 2.0, True), (0.5, 0.0, 2.0, False)]),
], ids=["off-plane", "minus-axis", "real-center"])
def test_figure_svg_draws_the_disks_around_the_center(capsys, tmp_path, argv, want):
    rc, _, _ = run(capsys, ["figure", "--n", "2", "--format", "svg",
                            "--out", str(tmp_path), *argv])
    assert rc == 0
    got = _svg_circles(tmp_path / "figure.svg")
    assert [filled for *_, filled in got] == [filled for *_, filled in want]
    for g, w in zip(got, want):
        assert g[:3] == pytest.approx(w[:3], abs=0.01)


@pytest.mark.parametrize("center,digest", [
    ("e1", "3a8806ad11a8ace81dda3029ddc3d15a8d8beb7c85864b11aaede8a460f08576"),
    ("e10", "c630c5218973c4a721d6332193fe29f1411d6c928bd8dd59f5d82b768a52e25f"),
], ids=["e1", "e10"])
def test_figure_svg_at_the_default_slices_keeps_its_bytes(capsys, tmp_path, center, digest):
    # z_p = i on every default slice of these centers, so the disks sit where
    # the earlier +-i drawing put them; the panels do not depend on --n.  The
    # panels of the witness K and of -K draw their lower halves from the
    # other one, whose reflected radius differs (3 against 2).
    rc, _, _ = run(capsys, ["figure", "--center", center, "--n", "1", "--format", "svg",
                            "--out", str(tmp_path)])
    assert rc == 0
    assert hashlib.sha256((tmp_path / "figure.svg").read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv", [
    ["--center", "0.5+2e1", "--slices", "e10"],  # conj(z_p) disk below the panel
    ["--center", "3.5", "--slices", "e1,e10,e3"],  # filled disks past the right edge
], ids=["off-plane", "center-plane"])
def test_figure_svg_circles_stay_inside_their_panel(capsys, tmp_path, argv):
    rc, _, _ = run(capsys, ["figure", "--n", "1", "--format", "svg",
                            "--out", str(tmp_path), *argv])
    assert rc == 0
    clips, frame, clipped = {}, None, 0
    for line in (tmp_path / "figure.svg").read_text().splitlines():
        attrs = dict(re.findall(r'([\w-]+)="([^"]*)"', line))
        box = tuple(float(attrs.get(k, "nan")) for k in ("x", "y", "width", "height"))
        if line.startswith("<rect") and attrs.get("fill") == "white":
            frame = box
        elif line.startswith("<clipPath"):
            clips[attrs["id"]] = box
        elif line.startswith("<circle"):
            cx, cy, r = (float(attrs[k]) for k in ("cx", "cy", "r"))
            x, y, w, h = frame
            if "clip-path" in attrs:
                clipped += 1
                assert clips[attrs["clip-path"][len("url(#"):-1]] == frame
            else:
                assert x <= cx - r and cx + r <= x + w and y <= cy - r and cy + r <= y + h
    assert clipped > 0


def _svg_polygons(path) -> list[list[tuple[float, float]]]:
    """Vertices of each polygon of a one-panel figure.svg, in slice coordinates."""
    span, gap = 4.6, 14.0
    scale = 300.0 / (2 * span)
    return [[((float(x) - gap) / scale - span, span - (float(y) - gap) / scale)
             for x, y in (point.split(",") for point in m[1].split())]
            for m in re.finditer(r'<polygon points="([^"]+)"', path.read_text())]


def test_figure_svg_draws_the_lower_half_from_the_minus_slice(capsys, tmp_path):
    # At the center e1, R_a^{p,e10} = 3 and R_a^{p,-e10} = 2.  The upper half
    # of the e10 panel is {|z - i| < 2, |z + i| < 3}, up to 2i; its lower
    # half is the slice -e10, {|z + i| < 2, |z - i| < 2}, down to -i, so
    # 0 - 1.2i is not filled.
    rc, _, _ = run(capsys, ["figure", "--n", "1", "--format", "svg", "--slices", "e10",
                            "--out", str(tmp_path)])
    assert rc == 0
    upper, lower = _svg_polygons(tmp_path / "figure.svg")
    assert min(y for _, y in upper) == pytest.approx(0.0, abs=0.01)
    assert max(y for _, y in upper) == pytest.approx(2.0, abs=0.01)
    assert max(y for _, y in lower) == pytest.approx(0.0, abs=0.01)
    assert min(y for _, y in lower) == pytest.approx(-1.0, abs=0.01)
    assert min(y for x, y in lower if abs(x) < 0.05) > -1.2
    assert run(capsys, ["contains", "--", "-1.2e10"])[1] == "Exterior\n"
    assert run(capsys, ["contains", "--", "-0.8e10"])[1] == "Interior\n"


@pytest.mark.parametrize("slices", [[], ["--slices", "e10"]], ids=["center-plane", "off-plane"])
def test_figure_svg_of_a_whole_slice_domain_is_finite_and_fills_its_panel(
        capsys, tmp_path, slices):
    # A one-value table has R_a = R_a^{p,J} = inf: the domain is every slice.
    rc, _, _ = run(capsys, ["figure", "--n", "1", "--seq", '{"kind":"table","values":["1"]}',
                            "--format", "svg", "--out", str(tmp_path), *slices])
    assert rc == 0
    svg = (tmp_path / "figure.svg").read_text()
    for value in re.findall(r'="([^"]*)"', svg):
        for token in re.split(r"[ ,]", value):
            try:
                number = float(token)
            except ValueError:
                continue
            assert math.isfinite(number), value
    points = [pt for polygon in _svg_polygons(tmp_path / "figure.svg") for pt in polygon]
    for coord in (0, 1):
        assert min(pt[coord] for pt in points) == pytest.approx(-4.6, abs=0.01)
        assert max(pt[coord] for pt in points) == pytest.approx(4.6, abs=0.01)


def test_figure_keeps_the_slice_text_in_short_file_names(capsys, tmp_path):
    rc, out, _ = run(capsys, ["figure", "--n", "2", "--slices", "e10,-e10,0.6e2+0.8e3",
                              "--out", str(tmp_path)])
    assert rc == 0
    names = ["figure_e10.csv", "figure_me10.csv", "figure_0_6e2p0_8e3.csv"]
    assert out.splitlines() == [f"wrote {tmp_path / n}" for n in names]


def test_figure_numbers_slices_whose_text_is_too_long(capsys, tmp_path):
    # The default slices of a seeded hyper center print as 16-coefficient
    # texts, too long for a file name; the generic probe slice is short.
    argv = PINNED_SCANS["hyper_center_geometric"]["argv"][1:]
    rc, out, err = run(capsys, ["figure", *argv, "--n", "2", "--out", str(tmp_path)])
    assert (rc, err) == (0, "")
    names = ["figure_slice1.csv", "figure_slice2.csv", "figure_slice3.csv",
             "figure_e3.csv"]
    assert out.splitlines() == [f"wrote {tmp_path / n}" for n in names]
    for name in names:
        assert len((tmp_path / name).read_text().splitlines()) == 1 + 2 * 2


def test_figure_explicit_outdir_beats_the_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path / "ignored"))
    target = tmp_path / "here"
    rc, out, _ = run(capsys, ["figure", "--n", "6", "--slices", "e1",
                              "--out", str(target)])
    assert rc == 0
    assert (target / "figure_e1.csv").exists()


# ---------------------------------------------------------------------------
# error handling
# ---------------------------------------------------------------------------


def test_parse_errors_exit_2(capsys):
    rc, _, err = run(capsys, ["mul", "e99", "e1"])
    assert rc == 2
    assert err.startswith("error:")
    rc, _, err = run(capsys, ["zd-check", "0", "e4+e15"])
    assert rc == 2


@pytest.mark.parametrize("seq, field", [
    ('{"kind": "geometric"}', "terms"),
    ('{"kind": "geometric", "terms": [{"coeff": "1"}]}', "ratio"),
    ('{"kind": "lacunary", "coeff": "e1"}', "ratio"),
    ('{"ratio": 2.0}', "kind"),
], ids=["geometric-terms", "term-ratio", "lacunary-ratio", "kind"])
def test_malformed_sequence_json_exits_2(capsys, seq, field):
    rc, out, err = run(capsys, ["radii", "--seq", seq])
    assert (rc, out) == (2, "")
    assert err.startswith("error:") and f"'{field}'" in err
    assert len(err.splitlines()) == 1


def test_json_output_writes_non_finite_as_null(capsys):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    seq = json.dumps({"kind": "table", "values": ["1"]})
    rc, out, _ = run(capsys, ["radii", "--format", "json", "--seq", seq])
    assert rc == 0
    data = json.loads(out, parse_constant=reject)
    assert data["R_a"] is None and data["R_ap"] is None


NINES = "9" * 300


@pytest.mark.parametrize("argv, line, field", [
    (["mul", f"{NINES}e1+{NINES}e2", f"{NINES}e1-{NINES}e2"], "none", "text"),
    (["eval", "0.5", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":1e-320}'],
     "value=none", "value"),
], ids=["mul", "eval"])
def test_an_element_with_a_non_finite_coefficient_is_written_none(capsys, argv, line, field):
    # Element text has no token for inf or NaN: `-nan-infe3` would not parse back.
    # eval's verdict line holds a norm, a real number that may read inf.
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and line in out.splitlines()
    elements = [s for s in out.splitlines() if not s.startswith("verdict=")]
    assert not any("nan" in s or "inf" in s for s in elements)
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    data = json.loads(out)
    assert rc == 0 and data[field] is None
    assert any(c is None for c in data["coeffs"])  # the array keeps null per coefficient


def test_a_non_finite_term_norm_reads_inf_next_to_diverged(capsys):
    # Term 1 of this gap series, (0.5 / 1e-320) e1, is past the float range and
    # comes out NaN; its norm reads inf, where max() would skip it at the end
    # of the window and print 0.
    argv = ["eval", "0.5", "--seq", '{"kind":"lacunary","coeff":"e1","ratio":1e-320}']
    rc, out, _ = run(capsys, argv)
    assert rc == 0 and out.splitlines()[0] == "verdict=Diverged terms=2 tail_norm=inf"
    rc, out, _ = run(capsys, argv + ["--format", "json"])
    data = json.loads(out)
    assert rc == 0 and (data["verdict"], data["terms"], data["tail_norm"]) == ("Diverged", 2, None)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["--seed", "7", "table", "--verify"],
    ["radii", "--demo"],
], ids=["seed", "demo"])
def test_removed_seed_and_demo_flags_exit_2(capsys, argv):
    # Neither flag did anything: no handler read the seed, and the demo
    # sequence is what radii, contains, eval, scan and figure use without --seq.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["contains", "--center", "[NaN,1]", "1.5e1"],
    ["contains", "--center", "[Infinity,1]", "1.5e1"],
    ["contains", "[NaN,1]"],
    ["contains", "[Infinity,1]"],
    ["eval", "--center", "[NaN,1]", "1.5e1"],
    ["eval", "--center", "[Infinity,1]", "1.5e1"],
    ["eval", "[NaN,1]"],
    ["eval", "[Infinity,1]"],
    ["radii", "--seq", '{"kind": "lacunary", "coeff": [NaN, 1], "ratio": 2}'],
], ids=["contains-center-nan", "contains-center-inf", "contains-q-nan",
        "contains-q-inf", "eval-center-nan", "eval-center-inf", "eval-q-nan",
        "eval-q-inf", "seq-coeff-nan"])
def test_non_finite_coordinates_exit_2(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err.startswith("error: coefficients must be finite")
    assert len(err.splitlines()) == 1


SERIES_COMMANDS = [["radii"], ["contains", "e1"], ["eval", "e1"], ["scan", "--rstep", "1"],
                   ["figure", "--n", "3"]]


@pytest.mark.parametrize("seq", [
    '{"kind":"lacunary","coeff":"e1","ratio":[2]}',
    '{"kind":"lacunary","coeff":"e1","ratio":null}',
    '{"kind":"lacunary","coeff":[[1]],"ratio":2}',
    '{"kind":"geometric","terms":[{"coeff":"e1","ratio":{"r":2}}]}',
    '{"kind":"table","values":[[1,null]]}',
    '{"kind":"lacunary","coeff":"e1","ratio":true}',
    '{"kind":"lacunary","coeff":[true],"ratio":2}',
], ids=["ratio-list", "ratio-null", "coeff-list", "ratio-object", "table-null", "ratio-true",
        "coeff-true"])
@pytest.mark.parametrize("command", SERIES_COMMANDS, ids=lambda c: c[0])
def test_a_json_value_that_is_no_number_exits_2(capsys, tmp_path, monkeypatch, command, seq):
    # float() raises TypeError on null, a list or an object, and reads a
    # boolean as 0 or 1: one error line, no traceback.
    monkeypatch.chdir(tmp_path)
    rc, out, err = run(capsys, command[:1] + ["--seq", seq] + command[1:])
    assert (rc, out) == (2, "")
    assert err.startswith("error: not a number: ") and len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


def test_a_small_point_keeps_its_imaginary_part(capsys):
    # 1e-9 e10 lies on the slice e10, not on the real axis: at 12 digits its
    # value shows the e5, e10 and e14 terms of about 3e-10.
    rc, out, _ = run(capsys, ["eval", "0.000000001e10", "--center=0.5"])
    assert rc == 0
    value = out.splitlines()[-1]
    assert "+0.00000000032e5+0.000000000244897959184e10-0.00000000032e14+" in value


HUGE_POINT = "1" + "0" * 300 + "e15"


@pytest.mark.parametrize("argv, first", [
    (["contains", HUGE_POINT], "Exterior"),
    (["contains", "--format", "json", HUGE_POINT], '{"membership": "Exterior"}'),
    (["eval", HUGE_POINT], "verdict=Diverged terms=2 tail_norm=inf"),
], ids=["contains", "contains-json", "eval"])
def test_a_point_whose_norm_squared_overflows_gets_an_answer(capsys, argv, first):
    # |q|^2 = 1e600 is past the float range, |q| = 1e300 is not: wpoint reads
    # |im| through a power-of-two scaling, so the point is classified, not refused.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, argv)
    assert (rc, out.splitlines()[0], err) == (0, first, "")


@pytest.mark.parametrize("argv", [
    ["hyper", "1" + "0" * 300 + "e1", "e10"],
    ["cker", "1" + "0" * 300 + "e1", "e10", "e3"],
    ["polar", "1" + "0" * 300 + "e1"],
], ids=["hyper", "cker", "polar"])
def test_a_300_digit_slice_unit_is_refused_with_one_line_and_no_warning(capsys, argv):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == f"error: not a slice unit: {argv[1]}\n"


def test_numeral_beyond_the_float_range_exits_2(capsys):
    rc, out, err = run(capsys, ["mul", "9" * 400, "e1"])
    assert (rc, out) == (2, "")
    assert err.startswith("error: number out of the float range")
    assert len(err.splitlines()) == 1


BIG_INT = "1" + "0" * 400


@pytest.mark.parametrize("argv", [
    ["eval", f"[{BIG_INT},1]"],
    ["radii", "--seq", f'{{"kind": "lacunary", "coeff": "e4+e15", "ratio": {BIG_INT}}}'],
    ["radii", "--seq",
     f'{{"kind": "geometric", "terms": [{{"coeff": "1", "ratio": {BIG_INT}}}]}}'],
], ids=["json-coordinate", "lacunary-ratio", "geometric-ratio"])
def test_json_integer_beyond_the_float_range_exits_2(capsys, argv):
    rc, out, err = run(capsys, argv)
    assert (rc, out) == (2, "")
    assert err == "error: number out of the float range: an integer of 401 digits\n"


def test_broken_internal_invariant_exits_3(capsys, monkeypatch):
    # e1 - e10 times e4 + e15 is zero; a wrong triple test makes the
    # characterization disagree with the direct product
    import sedenion.zerodiv as zerodiv

    monkeypatch.setattr(zerodiv, "is_special_triple", lambda *args, **kw: False)
    rc, out, err = run(capsys, ["zd-check", "e1-e10", "e4+e15"])
    assert (rc, out) == (3, "")
    assert err.startswith("internal error: zero-product characterization disagrees")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["eval", "1.5e1", "--max-terms", "1000000001"],
    ["eval", "1.5e1", "--max-terms", "0"],
    ["scan", "--max-terms", str(10**9)],
    ["scan", "--max-terms", "1000001", "--slices", "e10"],
], ids=["eval-huge", "eval-zero", "scan-huge", "scan-one-past"])
def test_max_terms_out_of_range_exits_2_before_any_work(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 5.0
    assert (rc, out) == (2, "")
    assert err == "error: --max-terms must be between 1 and 1000000\n"


def test_a_table_is_a_finite_sum_at_any_term_budget(capsys):
    seq = json.dumps({"kind": "table", "values": ["1", "e4+e15"]})
    start = time.perf_counter()
    rc, out, _ = run(capsys, ["eval", "0.5+e1", "--seq", seq, "--max-terms", "1000000"])
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (0, "verdict=Converged terms=1000000 tail_norm=0\n"
                            "value=1+0.5e4+0.5e15\n")
    # 9^l overflows past l = 322; the terms past the table stay exact zeros
    rc, out, _ = run(capsys, ["eval", "10e1", "--seq", seq, "--max-terms", "1000"])
    assert rc == 0 and "nan" not in out
    assert out.splitlines()[1] == "value=1+9e5-9e14"


def test_gap_series_past_the_float_range_of_their_ratio_powers(capsys):
    # 0.001^-128 alone overflows; folded into the step the terms are 0.1^l
    seq = json.dumps({"kind": "lacunary", "coeff": "e4+e15", "ratio": 0.001})
    rc, out, err = run(capsys, ["eval", "0.0001+e1", "--seq", seq])
    assert (rc, err) == (0, "")
    assert out.splitlines()[1] == "value=0.11010001e4+0.11010001e15"


def test_gap_series_with_a_general_kernel_coefficient_never_diverge_inside(capsys):
    # C_minus of this coefficient on its witness slice is rounding dust
    seq = json.dumps({"kind": "lacunary", "coeff": "0.5e4+0.5e15+0.5e5-0.5e14",
                      "ratio": 2})
    rc, out, _ = run(capsys, ["scan", "--seq", seq])
    assert rc == 0
    assert out.count(",Interior,") > 30
    assert ",Interior,Diverged," not in out


@pytest.mark.parametrize("n", ["0", "-3"])
def test_figure_n_below_1_exits_2(capsys, tmp_path, n):
    rc, out, err = run(capsys, ["figure", "--n", n, "--out", str(tmp_path)])
    assert (rc, out) == (2, "")
    assert err == "error: --n wants a positive grid size\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["scan", "--rstep", "1e-6", "--rmax", "1e6"], "exceeds the limit"),
    (["figure", "--n", "1001", "--slices", "e10"], "exceeds the limit"),
    (["scan", "--rstep", "0"], "--rstep wants a positive step"),
    (["scan", "--rstep", "-0.2"], "--rstep wants a positive step"),
    (["scan", "--rmin", "nan"], "must be finite"),
    (["scan", "--rmax", "inf"], "must be finite"),
    (["scan", "--rstep", "inf"], "must be finite"),
    (["scan", "--thetas", "nan"], "--thetas must be finite"),
    (["scan", "--thetas", "0.3,inf"], "--thetas must be finite"),
    (["figure", "--rmax", "nan", "--n", "3", "--slices", "e10"], "--rmax must be finite"),
    (["figure", "--rmax", "inf"], "--rmax must be finite"),
    (["figure", "--rmax", "-1", "--n", "2", "--slices", "e10"],
     "--rmax must be finite and positive"),
    (["figure", "--rmax", "0", "--n", "2", "--slices", "e10"],
     "--rmax must be finite and positive"),
    (["scan", "--slices=,"], "--slices names no slice unit"),
    (["scan", "--slices=,,", "--out", "rows.csv"], "--slices names no slice unit"),
    (["scan", "--slices="], "--slices names no slice unit"),
    (["figure", "--slices=,"], "--slices names no slice unit"),
    (["figure", "--slices=", "--format", "svg"], "--slices names no slice unit"),
    (["scan", "--thetas="], "--thetas names no angle"),
    (["scan", "--thetas=,", "--out", "rows.csv"], "--thetas names no angle"),
], ids=["scan-too-many-points", "figure-too-many-points", "scan-zero-step",
        "scan-negative-step", "scan-nan-rmin", "scan-inf-rmax", "scan-inf-step",
        "scan-nan-theta", "scan-inf-theta", "figure-nan-rmax", "figure-inf-rmax",
        "figure-negative-rmax", "figure-zero-rmax", "scan-no-slice", "scan-out-no-slice",
        "scan-empty-slices", "figure-no-slice", "figure-svg-empty-slices",
        "scan-empty-thetas", "scan-no-theta"])
def test_bad_grids_exit_2_before_any_work(capsys, tmp_path, monkeypatch, argv, message):
    # The grid is refused from its requested size, so even the 4e12-point
    # scan returns at once and nothing is written.
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    start = time.perf_counter()
    rc, out, err = run(capsys, argv)
    assert time.perf_counter() - start < 5.0
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err
    assert len(err.splitlines()) == 1
    assert list(tmp_path.iterdir()) == []


DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
with open(os.path.join(DATA, "scans.json"), encoding="utf-8") as _fh:
    PINNED_SCANS = json.load(_fh)


@pytest.mark.parametrize("name", sorted(PINNED_SCANS))
def test_scan_output_matches_the_pinned_csv(capsys, tmp_path, name):
    # Rows recorded before scans were evaluated as point batches: the demo
    # center at three angles, a seeded hyper center and a gap series.  A
    # change to any row has to be explained, not re-recorded.
    spec = PINNED_SCANS[name]
    path = tmp_path / "rows.csv"
    rc, out, err = run(capsys, spec["argv"] + ["--out", str(path)])
    assert (rc, err) == (spec["exit"], "")
    with open(os.path.join(DATA, f"scan_{name}.csv"), "rb") as fh:
        assert path.read_bytes() == fh.read()


TOLERANCE_COMMANDS = {
    "eval-tol": ["eval", "1.5e1", "--tol"],
    "contains-band": ["contains", "1.5e1", "--band"],
    "scan-tol": ["scan", "--slices", "e10", "--tol"],
    "scan-band": ["scan", "--slices", "e10", "--band"],
    "figure-band": ["figure", "--n", "2", "--slices", "e10", "--band"],
}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
@pytest.mark.parametrize("command", sorted(TOLERANCE_COMMANDS))
def test_bad_tolerances_exit_2(capsys, tmp_path, monkeypatch, command, value):
    # a NaN tolerance made every quiet-run test false (eval printed
    # Converged) and a NaN or negative band made contains print a class
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    *argv, flag = TOLERANCE_COMMANDS[command]
    rc, out, err = run(capsys, argv + [f"{flag}={value}"])
    assert (rc, out) == (2, "")
    assert err == f"error: {flag} must be finite and >= 0\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("command", sorted(TOLERANCE_COMMANDS))
def test_zero_tolerances_are_accepted(capsys, tmp_path, monkeypatch, command):
    monkeypatch.setenv("SEDENION_OUTDIR", str(tmp_path))
    rc, out, err = run(capsys, TOLERANCE_COMMANDS[command] + ["0"])
    assert rc in (0, 1) and out and err == ""


def write_console_script(bin_dir, name):
    """Write the launcher an installer generates for `name` in
    [project.scripts] of pyproject.toml: a shebang naming this interpreter,
    an import of the declared callable, and its return value as exit code."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        spec = tomllib.load(f)["project"]["scripts"][name]
    module, _, attr = spec.partition(":")
    script = bin_dir / name
    script.write_text(f"#!{sys.executable}\n"
                      "import sys\n"
                      f"from {module} import {attr}\n"
                      f"sys.exit({attr}())\n")
    script.chmod(0o755)


def test_installed_entry_point_runs(tmp_path):
    # The console script is made from the pyproject declaration rather than
    # taken from an install, so a bare checkout runs it and a `sedenion`
    # installed from elsewhere cannot shadow the code under test.
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    write_console_script(bin_dir, "sedenion")
    env = dict(os.environ)
    for var, first in (("PATH", str(bin_dir)),
                       ("PYTHONPATH", os.path.join(ROOT, "src"))):
        env[var] = os.pathsep.join(filter(None, [first, env.get(var)]))
    proc = subprocess.run(["sedenion", "radii"], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "R_a=2 R_a^p=3 witness=e10"


@pytest.mark.parametrize("argv, first, code", [
    # `sedenion scan | head -1`: about 130 kB, more than a pipe holds
    (["scan", "--rstep", "0.01", "--max-terms", "50"], b"slice,theta,", 0),
    # `sedenion radii | true`: a few bytes, met by the flush at the end of the run
    (["radii"], None, 0),
    # `sedenion zd-check e1 e2 | true`: the answer (no, exit 1) is already made
    (["zd-check", "e1", "e2"], None, 1),
])
def test_a_closed_stdout_pipe_ends_the_run_with_no_message(argv, first, code):
    # The reader, not the input, ends the run: exit 0, or the command's own
    # status if it had returned one.  stdout is block-buffered, as it is for a
    # pipe by default.
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen([sys.executable, "-m", "sedenion", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if first is not None:
        assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == code
    assert err == b""


def test_help_defaults_name_the_values_in_use():
    # A help string that spells its default must spell the one argparse uses.
    from sedenion.cli import build_parser
    ap = build_parser()
    sub = next(a for a in ap._actions if a.choices and isinstance(a.choices, dict))
    seen = 0
    for name, parser in sub.choices.items():
        for action in parser._actions:
            m = re.search(r"\(default ([-+0-9.e]+)\)", action.help or "")
            if m:
                assert float(m.group(1)) == action.default, (name, action.dest)
                seen += 1
    assert seen >= 1


def test_python_m_sedenion_runs():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "sedenion", "radii"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "R_a=2 R_a^p=3 witness=e10"
