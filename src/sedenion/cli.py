"""Command line front end.

One executable, subcommand per task: multiplication-table checks, products,
kernels and orthogonal decompositions, zero-product certificates, slice-unit
geometry, convergence radii and domain membership, series evaluation, grid
scans, and cross-section figure export (CSV always, SVG on request).

Exit codes: 0 success / affirmative answer, 1 failed verification or negative
answer to a yes-no query, 2 argument or parse errors, 3 internal errors; a
reader that closes stdout early ends the run with no message and exit 0, or
the command's own status if it had already answered.  All
floating output goes through 12-significant-digit formatting so repeated runs
diff clean.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .algebra import (
    CDElement,
    element_to_json,
    format_element,
    format_real,
    parse_any,
    table_csv,
    verify_table,
)
from . import _tol
from .zerodiv import (
    kernel_of_left_mult,
    o_left,
    o_right,
    ortho_decompose,
    zero_product_characterization,
)
from .slices import (
    SliceUnit,
    axis_sign,
    cker_curve_points,
    cker_membership,
    iota_frame,
    is_hyper_solution,
    from_polar,
    psi,
    wpoint,
)
from .series import (
    Domain,
    Membership,
    ScanResult,
    convergence_scan,
    demo_sequence,
    domain,
    evaluate_series,
    polar_grid,
    seq_from_json,
)

# Most points a scan or figure grid may request; checked before the grid is built.
_MAX_GRID_POINTS = 10**6
# Most terms eval or scan may sum per point: a point on a radius circle or
# inside a gap series' domain runs every requested term.
_MAX_TERMS = 10**6


def _written(x: CDElement, scale: float = 0.0) -> tuple[str, str | None, list[float]]:
    """Text, JSON text and JSON coefficients of x, with each coefficient below
    DISPLAY_DUST * scale (the size SVD or projector dust is relative to; none
    for exact results) made 0 first.  An inf or NaN coefficient, which element
    text has no token for, is written as the text `none` and JSON null."""
    c = x.promote(4).coeffs
    shown = CDElement(np.where(np.abs(c) < _tol.DISPLAY_DUST * scale, 0.0, c))
    text = format_element(shown) if np.isfinite(c).all() else None
    return text or "none", text, element_to_json(shown)


def _check_grid_size(points: float) -> None:
    if points > _MAX_GRID_POINTS:
        raise ValueError(f"grid of {points:.3g} points exceeds the limit "
                         f"of {_MAX_GRID_POINTS}")


def _check_shared_flags(args) -> None:
    """--tol and --band must be finite and >= 0, --max-terms in 1..10^6."""
    for flag in ("tol", "band"):
        value = getattr(args, flag, None)
        if value is not None and not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"--{flag} must be finite and >= 0")
    max_terms = getattr(args, "max_terms", None)
    if max_terms is not None and not 1 <= max_terms <= _MAX_TERMS:
        raise ValueError(f"--max-terms must be between 1 and {_MAX_TERMS}")


def _series(args):
    """(center, sequence) from --center, then --seq: a JSON file path or inline
    JSON, the bundled demo when absent."""
    p = wpoint(args.center)
    spec = args.seq
    if spec is None:
        return p, demo_sequence()
    if not spec.lstrip().startswith("{"):
        with open(spec, "r", encoding="utf-8") as fh:
            spec = fh.read()
    return p, seq_from_json(spec)


def _outdir() -> str:
    return os.environ.get("SEDENION_OUTDIR", ".")


def _out_file(path: str | None) -> str | None:
    """The --out file under SEDENION_OUTDIR (an absolute path stays as given), or None;
    checked before any work for the OSError that `_write` would raise, leaving no file."""
    if not path:
        return None
    path = os.path.join(_outdir(), path)
    existed = os.path.exists(path)
    open(path, "a", encoding="utf-8").close()
    if not existed:
        os.remove(path)
    return path


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def _print_or_write(text: str, path: str | None) -> None:
    """CSV text to stdout, or to the file at path and a `wrote` line."""
    if path:
        print(f"wrote {_write(path, text)}")
    else:
        print(text, end="")


def _json_safe(obj):
    """Payload copy with every non-finite float written as null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _emit(args, text_lines, payload) -> None:
    if getattr(args, "format", "csv") == "json":
        print(json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    if args.verify:
        matches, total = verify_table()
        _emit(args, [f"{matches}/{total} entries match"], {"matches": matches, "total": total})
        return 0 if matches == total else 1
    if args.format == "json":
        rows = [line.split(",") for line in table_csv().splitlines()]
        print(json.dumps(rows))
    else:
        print(table_csv(), end="")
    return 0


def cmd_mul(args) -> int:
    text, js, coeffs = _written(parse_any(args.a) * parse_any(args.b))
    _emit(args, [text], {"text": js, "coeffs": coeffs})
    return 0


def cmd_kernel(args) -> int:
    ker = kernel_of_left_mult(parse_any(args.s))
    rows = [_written(v, 1.0) for v in ker.vectors()]  # unit rows: dust is absolute
    _emit(args, [f"dim={ker.dim}"] + [text for text, _, _ in rows],
          {"dim": ker.dim, "basis": [coeffs for _, _, coeffs in rows]})
    return 0


def cmd_decompose(args) -> int:
    x = parse_any(args.x)
    dec = ortho_decompose(x, parse_any(args.p))
    scale = float(np.abs(x.coeffs).max())  # the parts are linear in x, and so is their dust
    parts = {k: _written(part, scale) for k, part in zip(dec._fields, dec)}
    _emit(args, [f"{k}={text}" for k, (text, _, _) in parts.items()],
          {k: coeffs for k, (_, _, coeffs) in parts.items()})
    return 0


def cmd_zd_check(args) -> int:
    x, y = parse_any(args.x), parse_any(args.y)
    a, b, c, d = o_left(x), o_right(x), o_left(y), o_right(y)
    is_zero, cert = zero_product_characterization(a, b, c, d)
    yn = lambda f: "yes" if f else "no"
    formula, formula_js = ("none",) * 2 if cert.d_formula is None else _written(cert.d_formula)[:2]
    lines = [f"product_zero={yn(is_zero)}",
             f"product_norm={format_real(cert.product_norm)}",
             f"norms_match={yn(cert.norms_match)}",
             f"triple_special={yn(cert.triple_special)}",
             f"d_matches_formula={yn(cert.d_matches_formula)}",
             f"d_formula={formula}"]
    _emit(args, lines, {"product_zero": is_zero,
                        "product_norm": cert.product_norm,
                        "norms_match": cert.norms_match,
                        "triple_special": cert.triple_special,
                        "d_matches_formula": cert.d_matches_formula,
                        "d_formula": formula_js})
    return 0 if is_zero else 1


def cmd_hyper(args) -> int:
    j1, j2 = SliceUnit(args.j1), SliceUnit(args.j2)
    if not is_hyper_solution(j1, j2):
        _emit(args, ["hyper=no"], {"hyper": False})
        return 1
    i1, i2, alpha = iota_frame(j1, j2)
    i1, i2 = (_written(u, 1.0)[0] for u in (i1, i2))  # unit vectors: dust is absolute
    lines = [f"hyper=yes alpha={format_real(alpha)} i1={i1} i2={i2}"]
    _emit(args, lines, {"hyper": True, "alpha": alpha, "i1": i1, "i2": i2})
    return 0


def cmd_polar(args) -> int:
    if args.alpha is not None:
        if args.theta is None:
            raise ValueError("--alpha needs --theta")
        if args.frame is not None:
            names = args.frame.split(",")
            if len(names) != 2:
                raise ValueError("--frame wants two comma-separated units")
            s = psi(args.alpha, args.theta,
                    (parse_any(names[0]), parse_any(names[1])))
        elif args.jmath is not None:
            s = from_polar(args.alpha, args.theta, parse_any(args.jmath))
        else:
            raise ValueError("construction needs --frame or --jmath")
        text, _, coeffs = _written(s.s)
        _emit(args, [text], {"s": text, "coeffs": coeffs})
        return 0
    if args.s is None:
        raise ValueError("give a slice unit, or --alpha/--theta to construct one")
    u = SliceUnit(args.s)
    jmath = _written(u.jmath, 1.0)[0]
    lines = [f"alpha={format_real(u.alpha)} theta={format_real(u.theta)} jmath={jmath}"]
    _emit(args, lines, {"alpha": u.alpha, "theta": u.theta, "jmath": jmath})
    return 0


def cmd_cker(args) -> int:
    if args.curve is not None and args.format == "json":
        raise ValueError("--curve writes CSV only; drop --format json")
    j1, j2 = SliceUnit(args.j1), SliceUnit(args.j2)
    if args.curve is not None:
        n = args.curve
        if n < 1:
            raise ValueError("--curve wants a positive sample count")
        _check_grid_size(n)
        out = _out_file(args.out)
        lines = ["theta," + ",".join(f"c{k}" for k in range(16))]
        thetas = [math.pi * i / n for i in range(n)]
        for theta, pt in zip(thetas, cker_curve_points(j1, j2, thetas)):
            row = ",".join(format_real(c) for c in pt.s.coeffs)
            lines.append(f"{format_real(theta)},{row}")
        _print_or_write("\n".join(lines) + "\n", out)
        return 0
    if args.k is None:
        raise ValueError("give a candidate unit K, or --curve N to sample")
    member = cker_membership(SliceUnit(args.k), j1, j2)
    _emit(args, [f"member={'yes' if member else 'no'}"], {"member": member})
    return 0 if member else 1


def cmd_radii(args) -> int:
    p, a = _series(args)
    rep = domain(p, a).report
    witness = _written(rep.witness.s, 1.0)[0] if rep.witness else "none"
    lines = [f"R_a={format_real(rep.r_a)} R_a^p={format_real(rep.r_ap)} witness={witness}",
             f"case={rep.case.value}" + (" approximate=yes" if rep.approximate else "")]
    _emit(args, lines, {"R_a": rep.r_a, "R_ap": rep.r_ap, "witness": witness,
                        "case": rep.case.value, "approximate": rep.approximate})
    return 0


def cmd_contains(args) -> int:
    p, a = _series(args)
    q = wpoint(args.q)
    m = domain(p, a).contains(q, band=args.band)
    _emit(args, [m.value], {"membership": m.value})
    return 0


def cmd_eval(args) -> int:
    p, a = _series(args)
    q = wpoint(args.q)
    rep = evaluate_series(q, p, a, max_terms=args.max_terms, tol=args.tol)
    value, value_js, coeffs = _written(rep.partial_sum)
    lines = [f"verdict={rep.verdict.value} terms={rep.terms_used} "
             f"tail_norm={format_real(rep.tail_norm)}",
             f"value={value}"]
    _emit(args, lines, {"verdict": rep.verdict.value, "terms": rep.terms_used,
                        "tail_norm": rep.tail_norm,
                        "value": value_js, "coeffs": coeffs})
    return 0


def _default_slices(dom: Domain) -> list[tuple[str, SliceUnit]]:
    """Center axis, a kernel-curve witness, its negative, and a generic unit."""
    axis = dom.p.axis
    out = [(_written(axis.s, 1.0)[0], axis)]
    if dom.report.witness is None:
        return out
    k = dom.report.witness
    out.append((_written(k.s, 1.0)[0], k))
    out.append((_written((-k).s, 1.0)[0], -k))
    for name in ("e3", "e2", "e5", "e4", "e6"):
        cand = SliceUnit(name)
        taken = any(axis_sign(cand, s) for _, s in out)
        if not taken and not cker_membership(cand, axis, k):
            out.append((name, cand))
            break
    return out


def _listed(text: str | None, flag: str, what: str) -> list[str] | None:
    """The nonempty entries of the comma list given to flag, at least one; None without it."""
    if text is None:
        return None
    entries = [entry for entry in text.split(",") if entry]
    if not entries:
        raise ValueError(f"{flag} names no {what}")
    return entries


def _slices(args, p, a) -> list[tuple[str, SliceUnit]]:
    """The named slices of --slices, at least one; the defaults of domain(p, a) without it."""
    names = _listed(args.slices, "--slices", "slice unit")
    return _default_slices(domain(p, a)) if names is None else [(n, SliceUnit(n)) for n in names]


def cmd_scan(args) -> int:
    if not all(map(math.isfinite, (args.rmin, args.rmax, args.rstep))):
        raise ValueError("--rmin, --rmax and --rstep must be finite")
    if args.rstep <= 0:
        raise ValueError("--rstep wants a positive step")
    thetas = _listed(args.thetas, "--thetas", "angle")
    angular = [math.pi / 2] if thetas is None else [float(t) for t in thetas]
    if not all(map(math.isfinite, angular)):
        raise ValueError("--thetas must be finite")
    p, a = _series(args)
    slices = _slices(args, p, a)
    steps = (args.rmax - args.rmin) / args.rstep
    _check_grid_size((steps + 1) * len(angular) * len(slices))
    out = _out_file(args.out)
    nsteps = int(round(steps))
    radial = [round(args.rmin + k * args.rstep, 12) for k in range(nsteps + 1)]
    radial = [r for r in radial if r > 0]
    lines = ["slice,theta,re,im,predicted,empirical,terms_used,tail_norm"]
    scored = agreed = 0
    summaries = []
    for name, sl in slices:
        res = convergence_scan(p, a, sl, radial, angular,
                               max_terms=args.max_terms, tol=args.tol,
                               band=args.band)
        for r in res.rows:
            lines.append(f"{name},{format_real(r.theta)},{format_real(r.re)},{format_real(r.im)},"
                         f"{r.predicted.value},{r.empirical.value},"
                         f"{r.terms_used},{format_real(r.tail_norm)}")
        scored += res.scored
        agreed += res.agreed
        summaries.append(f"slice={name} scored={res.scored} agreed={res.agreed} "
                         f"agreement={format_real(res.agreement)}")
    _print_or_write("\n".join(lines) + "\n", out)
    for s in summaries:
        print(s)
    rate = ScanResult(rows=(), scored=scored, agreed=agreed).agreement
    print(f"total scored={scored} agreed={agreed} agreement={format_real(rate)}")
    return 0 if rate == 1.0 else 1


# ---------------------------------------------------------------------------
# figure export
# ---------------------------------------------------------------------------


def _figure_csv(dom: Domain, sl: SliceUnit, n: int, rmax: float, band: float) -> str:
    thetas = [math.pi * i / max(1, n - 1) for i in range(n)]
    radii = [rmax * k / n for k in range(1, n + 1)]
    re, im = polar_grid(radii, thetas)
    codes = dom.classify(re, im, sl, band).tolist()
    rs = [format_real(r) for r in radii]
    lines = ["theta,r,re,im,class"]
    for theta, xs, ys, cs in zip(thetas, re.tolist(), im.tolist(), codes):
        t = format_real(theta)
        lines += [f"{t},{r},{format_real(x)},{format_real(y)},{Membership.of(c).value}"
                  for r, x, y, c in zip(rs, xs, ys, cs)]
    return "\n".join(lines) + "\n"


def _region_columns(disks, xs, top) -> list[tuple[float, float, float]]:
    """Columns (x, ylo, yhi) of {0 <= y <= top} that `disks` call Interior; inf is no cut."""
    c1, r1, c2, _, r2_in = disks
    cols = []
    for x in xs:
        lo, hi = 0.0, top
        for c, r in ((c1, r1), (c2, r2_in)):
            if math.isfinite(r):
                dx = x - c.real
                s = math.sqrt(max(0.0, r * r - dx * dx))
                lo, hi = max(lo, c.imag - s), min(hi, c.imag + s)
        if hi > lo:
            cols.append((x, lo, hi))
    return cols


def _panel_svg(ox: float, oy: float, size: float, label: str, upper, lower,
               clip_id: str) -> list[str]:
    """One panel: region fill and dashed circles, clipped to the panel; math y up.

    `upper` and `lower` are the disks of J and -J (`Domain.disks`): y < 0
    shows the region of -J mirrored, and the dashed circles are the disks of
    J, at r1 and r2.  One center for both disks marks the center plane: one
    disk of radius r1.  A circle that leaves the panel is clipped to it by
    the clipPath `clip_id`, written before the first such circle.
    """
    span = 4.6
    scale = size / (2 * span)

    def sx(x):
        return ox + (x + span) * scale

    def sy(y):
        return oy + (span - y) * scale

    frame = f'x="{ox:.2f}" y="{oy:.2f}" width="{size:.2f}" height="{size:.2f}"'
    parts = [f'<rect {frame} fill="white" stroke="#444" stroke-width="1"/>']

    def circle(c: complex, r: float, style: str) -> None:
        x, y, rr = (float(f"{v:.2f}") for v in (sx(c.real), sy(c.imag), r * scale))
        clip = ""
        if not (ox <= x - rr and x + rr <= ox + size and oy <= y - rr and y + rr <= oy + size):
            clip = f' clip-path="url(#{clip_id})"'
            if not any(part.startswith("<clipPath") for part in parts):
                parts.append(f'<clipPath id="{clip_id}"><rect {frame}/></clipPath>')
        parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{rr:.2f}" {style}{clip}/>')

    parts.append(f'<line x1="{sx(-span):.2f}" y1="{sy(0):.2f}" x2="{sx(span):.2f}" '
                 f'y2="{sy(0):.2f}" stroke="#bbb" stroke-width="0.7"/>')
    parts.append(f'<line x1="{sx(0):.2f}" y1="{sy(-span):.2f}" x2="{sx(0):.2f}" '
                 f'y2="{sy(span):.2f}" stroke="#bbb" stroke-width="0.7"/>')
    fill = "#7aa6d877"
    c1, r1, c2, r2, _ = upper
    if c1 == c2 and math.isfinite(r1):
        circle(c1, r1, f'fill="{fill}" stroke="none"')
    else:
        xs = [(-span) + 2 * span * k / 800 for k in range(801)]
        for mirror, disks in ((1.0, upper), (-1.0, lower)):
            cols = _region_columns(disks, xs, span)
            if cols:
                edge = [(x, hi) for x, _, hi in cols] + [(x, lo) for x, lo, _ in cols][::-1]
                pts = " ".join(f"{sx(x):.2f},{sy(mirror * y):.2f}" for x, y in edge)
                parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')
    for c, rr in ((c1, r1), (c2, r2)):
        if math.isfinite(rr):
            circle(c, rr, 'fill="none" stroke="#335" stroke-width="1" stroke-dasharray="4 3"')
    parts.append(f'<text x="{ox + 6:.2f}" y="{oy + 16:.2f}" '
                 f'font-family="monospace" font-size="12">{label}</text>')
    return parts


def _figure_svg(dom: Domain, slices) -> str:
    size, gap = 300.0, 14.0
    cols = min(2, len(slices))
    rows = (len(slices) + cols - 1) // cols
    w = cols * size + (cols + 1) * gap
    h = rows * size + (rows + 1) * gap
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{w:.0f}" '
             f'height="{h:.0f}" viewBox="0 0 {w:.0f} {h:.0f}">']
    for idx, (name, sl) in enumerate(slices):
        ox = gap + (idx % cols) * (size + gap)
        oy = gap + (idx // cols) * (size + gap)
        parts += _panel_svg(ox, oy, size, f"slice {name}", dom.disks(sl), dom.disks(-sl),
                            f"panel{idx}")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_figure(args) -> int:
    if args.n < 1:
        raise ValueError("--n wants a positive grid size")
    if not (math.isfinite(args.rmax) and args.rmax > 0):
        raise ValueError("--rmax must be finite and positive")
    p, a = _series(args)
    dom = domain(p, a)
    slices = _slices(args, p, a)
    _check_grid_size(args.n * args.n * len(slices))
    outdir = args.out if args.out else _outdir()
    os.makedirs(outdir, exist_ok=True)
    written = []
    for index, (name, sl) in enumerate(slices, 1):
        # The slice text names the file unless it is longer than a file name
        # may be (NAME_MAX, 255 bytes); element text has no s to collide with.
        file = "figure_" + name.replace("+", "p").replace("-", "m").replace(".", "_")
        if len(file.encode()) > 255 - len(".csv"):
            file = f"figure_slice{index}"
        written.append(_write(os.path.join(outdir, file + ".csv"),
                              _figure_csv(dom, sl, args.n, args.rmax, args.band)))
    if args.format == "svg":
        written.append(_write(os.path.join(outdir, "figure.svg"), _figure_svg(dom, slices)))
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_format(sp, choices=("csv", "json")):
    sp.add_argument("--format", choices=choices, default="csv",
                    help="output format (default csv/plain text)")


def _add_seq(sp):
    sp.add_argument("--center", default="e1",
                    help="series center, element text; join a value with a leading "
                         "minus by =, as in --center=-0.2+0.9e3")
    sp.add_argument("--seq", help="coefficient sequence: JSON file path or inline JSON "
                                  "(default: the bundled two-ratio example)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sedenion",
        description="Sedenion arithmetic, zero-divisor geometry, and "
                    "star-series convergence domains.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("table", help="print or verify the multiplication table")
    sp.add_argument("--verify", action="store_true",
                    help="check the generated table against the embedded fixture")
    _add_format(sp)
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("mul", help="multiply two elements")
    sp.add_argument("a")
    sp.add_argument("b")
    _add_format(sp)
    sp.set_defaults(func=cmd_mul)

    sp = sub.add_parser("kernel", help="kernel of left multiplication by s")
    sp.add_argument("s")
    _add_format(sp)
    sp.set_defaults(func=cmd_kernel)

    sp = sub.add_parser("decompose",
                        help="orthogonal decomposition of x along a zero divisor p")
    sp.add_argument("x")
    sp.add_argument("p")
    _add_format(sp)
    sp.set_defaults(func=cmd_decompose)

    sp = sub.add_parser("zd-check",
                        help="zero-product certificate for two sedenions")
    sp.add_argument("x")
    sp.add_argument("y")
    _add_format(sp)
    sp.set_defaults(func=cmd_zd_check)

    sp = sub.add_parser("hyper", help="test a pair of slice units for a "
                                      "nontrivial common kernel")
    sp.add_argument("j1")
    sp.add_argument("j2")
    _add_format(sp)
    sp.set_defaults(func=cmd_hyper)

    sp = sub.add_parser("polar", help="polar data of a slice unit, or build one")
    sp.add_argument("s", nargs="?", help="slice unit to analyze")
    sp.add_argument("--alpha", type=float, help="polar angle for construction")
    sp.add_argument("--theta", type=float, help="frame angle for construction")
    sp.add_argument("--frame", help="two comma-separated imaginary octonion units")
    sp.add_argument("--jmath", help="imaginary octonion unit for construction")
    _add_format(sp)
    sp.set_defaults(func=cmd_polar)

    sp = sub.add_parser("cker", help="kernel-curve membership or curve samples")
    sp.add_argument("j1")
    sp.add_argument("j2")
    sp.add_argument("k", nargs="?", help="candidate slice unit")
    sp.add_argument("--curve", type=int, metavar="N",
                    help="emit N curve samples as CSV instead")
    sp.add_argument("--out", help="write CSV here instead of stdout")
    _add_format(sp)
    sp.set_defaults(func=cmd_cker)

    sp = sub.add_parser("radii", help="convergence radii of a series")
    _add_seq(sp)
    _add_format(sp)
    sp.set_defaults(func=cmd_radii)

    sp = sub.add_parser("contains", help="classify a point against the domain")
    _add_seq(sp)
    sp.add_argument("q", help="query point, element text")
    sp.add_argument("--band", type=float, default=_tol.MEMBERSHIP_BAND,
                    help="boundary half-width (default 1e-9)")
    _add_format(sp)
    sp.set_defaults(func=cmd_contains)

    sp = sub.add_parser("eval", help="partial sums with a convergence verdict")
    _add_seq(sp)
    sp.add_argument("q", help="query point, element text")
    sp.add_argument("--max-terms", type=int, default=200)
    sp.add_argument("--tol", type=float, default=_tol.EVAL_TOL)
    _add_format(sp)
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("scan", help="predicted vs empirical convergence sweep")
    _add_seq(sp)
    sp.add_argument("--slices", help="comma-separated slice units "
                                     "(default: four representative ones)")
    sp.add_argument("--rmin", type=float, default=0.2)
    sp.add_argument("--rmax", type=float, default=4.0)
    sp.add_argument("--rstep", type=float, default=0.2)
    sp.add_argument("--thetas", help="comma-separated angles (default pi/2); join a "
                                     "list with a leading minus by =, as in --thetas=-0.5,1")
    sp.add_argument("--max-terms", type=int, default=400)
    sp.add_argument("--tol", type=float, default=_tol.EVAL_TOL)
    sp.add_argument("--band", type=float, default=_tol.SCAN_BAND,
                    help="exclusion half-width around the radii")
    sp.add_argument("--out", help="write CSV to this file (under the output dir)")
    sp.set_defaults(func=cmd_scan)

    sp = sub.add_parser("figure", help="cross-section region CSVs and SVG panels")
    _add_seq(sp)
    sp.add_argument("--slices", help="comma-separated slice units "
                                     "(default: four representative ones)")
    sp.add_argument("--n", type=int, default=100, help="polar grid size per axis")
    sp.add_argument("--rmax", type=float, default=4.0)
    sp.add_argument("--band", type=float, default=_tol.MEMBERSHIP_BAND)
    sp.add_argument("--out", help="output directory (default: SEDENION_OUTDIR or .)")
    _add_format(sp, choices=("csv", "svg"))
    sp.set_defaults(func=cmd_figure)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    status = None
    try:
        _check_shared_flags(args)
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # The reader closed stdout: not bad input.  Later writes, the
        # interpreter's final flush included, go to the null device.  A
        # command that had already decided keeps its answer.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 0 if status is None else status
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # a broken internal invariant, not bad input
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
