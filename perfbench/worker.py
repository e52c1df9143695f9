"""One workload in a fresh interpreter: seeded inputs, timed calls, checks.

Started by run.py as `python3 perfbench/worker.py '<json spec>'`; prints one
JSON object as its last stdout line.  Every input is built from the seed
before the clock starts.  When tracing, the layer wrappers are installed
after input generation, so only the measured calls produce spans.

Modes:
  run       grid or kernels: whole rounds until `seconds` of measured time,
            or, with "fixed", a fixed number of rounds, so counts repeat
  commands  scan: print the seeded list of `sedenion scan` argument lists
  cli       scan: call `sedenion.cli.main` in-process on one of them
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import sedenion as S  # noqa: E402
import sedenion.cli  # noqa: E402,F401
import oracle  # noqa: E402
from hostspeed import timed  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


@dataclass(frozen=True)
class Size:
    grid_n: int = 100          # polar grid is grid_n x grid_n, as in `figure`
    grid_centers: int = 2      # seeded hyper centers, besides the demo center
    scan_thetas: int = 6       # seeded angles for the demo-center scan
    scan_centers: int = 2      # seeded hyper centers scanned through the CLI
    scan_extra: tuple = ()     # extra scan arguments (the tiny size coarsens)
    rows: int = 100_000        # mul_batch rows per call
    pairs: int = 500           # pairs per kernels round
    sample_rows: int = 8       # product rows checked against the recursion


FULL = Size()
TINY = Size(grid_n=6, grid_centers=1, scan_thetas=1, scan_centers=1,
            scan_extra=("--rstep", "1.0"), rows=256, pairs=8, sample_rows=2)
LACUNARY_COEFFS = ("e4+e15", "e5-e14", "e6+e13", "e7-e12")
# Rounds of a traced run: a few seconds of work at full size.
TRACE_ROUNDS = {"grid": 1, "kernels": 3}
# Kernels rounds that get fresh centers; a run that reaches it stops there.
MAX_KERNEL_ROUNDS = 400


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def kernel_unit(j1, j2, rng) -> np.ndarray:
    """Seeded unit vector of ker(J1 - J2)."""
    ker = S.kernel_of_left_mult(j1.s - j2.s)
    c = rng.normal(size=ker.dim) @ ker.basis
    return c / np.linalg.norm(c)


def hyper_sequence(c: np.ndarray):
    """{1 at ratio 3, c at ratio 2}: R_a = 2, and R_a^p = 3 when c is a kernel vector."""
    return S.GeometricSum.of([(S.one(), 3.0), (S.CDElement(c), 2.0)])


class Result:
    """Counts, timings and the first few failure messages of one worker.

    Every timing is kept raw and host-speed adjusted (see hostspeed.py).
    `batch` holds the durations of the workload's unit of work, `rate` the
    item rates of the calls that produce its items.
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.scored = self.agreed = 0
        self.busy = {"raw": 0.0, "adj": 0.0}
        self.batch: dict[str, list[float]] = {"raw": [], "adj": []}
        self.rate: dict[str, list[float]] = {"raw": [], "adj": []}
        self.errors: list[str] = []
        self.extra: dict = {}

    def timing(self, raw: float, adj: float, items: int = 0, batch: bool = False):
        self.busy["raw"] += raw
        self.busy["adj"] += adj
        if batch:
            self.batch["raw"].append(raw)
            self.batch["adj"].append(adj)
        if items:
            self.rate["raw"].append(items / raw)
            self.rate["adj"].append(items / adj)

    def fail(self, count, message: str) -> None:
        if count:
            self.failed += int(count)
            if len(self.errors) < 5:
                self.errors.append(message)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "busy": self.busy, "batch": self.batch,
                "rate": self.rate, "scored": self.scored, "agreed": self.agreed,
                "errors": self.errors, **self.extra}


# ---------------------------------------------------------------------------
# grid: dense polar cross-sections classified with domain_contains
# ---------------------------------------------------------------------------


def grid_inputs(seed: int, size: Size):
    """One op per (center, slice): p, a, the slice and the expected codes."""
    rng = rng_for(seed, 1)
    e1, e10 = S.SliceUnit("e1"), S.SliceUnit("e10")
    cases = [(S.wpoint("e1"), S.demo_sequence(), 1j,
              [(e1, None), (e10, 3.0), (-e10, 2.0), (S.SliceUnit("e3"), 2.0)])]
    for _ in range(size.grid_centers):
        j1, j2 = S.random_hyper_pair(rng)
        c = kernel_unit(j1, j2, rng)
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
        curve = S.cker_curve_point(j1, j2, rng.uniform(0.0, math.pi))
        generic = S.random_slice_unit(rng)
        slices = [(j1, None), (j2, 3.0), (-j2, 2.0), (curve, 3.0), (generic, 2.0)]
        for sl, r2 in slices[1:]:
            # the reflected radius is 3 exactly when c lies in ker(J1 - J)
            resid = np.linalg.norm(oracle.product(j1.s.coeffs - sl.s.coeffs, c))
            if (resid < 1e-9) != (r2 == 3.0):
                raise ValueError("grid input: kernel membership does not match "
                                 "the constructed radius")
        cases.append((S.wpoint_from(x, y, j1), hyper_sequence(c), complex(x, y),
                      slices))
    n = size.grid_n
    pts = []
    for i in range(n):
        theta = math.pi * i / max(1, n - 1)
        ct, st = math.cos(theta), math.sin(theta)
        pts.extend((4.0 * k / n * ct, 4.0 * k / n * st) for k in range(1, n + 1))
    re, im = np.array(pts).T
    ops = [(p, a, sl, oracle.expected_membership(re, im, zp, 2.0, r2))
           for p, a, zp, slices in cases for sl, r2 in slices]
    return ops, pts


def measure_grid(inputs, res: Result, seconds: float, rounds) -> None:
    ops, pts = inputs
    for _ in rounds:
        for p, a, sl, want in ops:
            contains, point = S.domain_contains, S.wpoint_from
            got, raw, adj = timed(lambda: [contains(point(x, y, sl), p, a)
                                           for x, y in pts])
            res.timing(raw, adj, items=len(got), batch=True)
            res.attempted += len(got)
            observed = np.array([oracle.CODE[m.value] for m in got])
            scored = want != 0
            wrong = int(np.sum(observed[scored] != want[scored]))
            res.scored += int(np.sum(scored))
            res.agreed += int(np.sum(scored)) - wrong
            res.fail(wrong, f"{wrong} grid points disagree with the two-disk rule")
        if res.busy["raw"] >= seconds:
            break


# ---------------------------------------------------------------------------
# kernels: mul_batch arrays, then the pair pipeline with cold domain reports
# ---------------------------------------------------------------------------


def kernels_inputs(seed: int, size: Size):
    rng = rng_for(seed, 3)
    arrays = [(rng.normal(size=(size.rows, n)), rng.normal(size=(size.rows, n)))
              for n in (16, 8)]
    samples = rng.choice(size.rows, size=size.sample_rows, replace=False)
    pairs = []
    for i in range(size.pairs):
        hyper = i % 2 == 0
        if hyper:
            j1, j2 = S.random_hyper_pair(rng)
            c = kernel_unit(j1, j2, rng)
        else:
            j1, j2 = S.random_slice_unit(rng), S.random_slice_unit(rng)
            c = rng.normal(size=16)
            c /= np.linalg.norm(c)
        pairs.append((j1, j2, S.CDElement(c), hyper_sequence(c), hyper))
    # every round gets fresh centers, so each domain_report is computed cold
    centers = np.column_stack([
        rng.uniform(-1.0, 1.0, size=MAX_KERNEL_ROUNDS * size.pairs),
        rng.uniform(0.5, 1.5, size=MAX_KERNEL_ROUNDS * size.pairs),
    ]).reshape(MAX_KERNEL_ROUNDS, size.pairs, 2)
    tensor = oracle.reference_tensor()
    ranks = [oracle.left_rank(tensor, j1.s.coeffs - j2.s.coeffs)
             for j1, j2, *_ in pairs]
    return arrays, samples, pairs, centers, ranks


def pair_pipeline(j1, j2, c, a, x, y):
    hyper = S.is_hyper_solution(j1, j2)
    minus = S.kernel_of_left_mult(j1.s - j2.s)
    plus = S.kernel_of_left_mult(j1.s + j2.s)
    angles = S.principal_angles(minus, plus)
    companion = S.find_companion(j1, c)
    rep = S.domain_report(S.wpoint_from(x, y, j1), a)
    return (hyper, minus.dim, plus.dim, len(angles), companion is not None,
            rep.r_a, rep.r_ap, rep.case.value)


def check_pair(out, label: bool, rank: int) -> str | None:
    hyper, dim_minus, _, _, found, r_a, r_ap, case = out
    if not hyper == label == (rank < 16):
        return f"hyper flag {hyper}, label {label}, rank {rank}"
    if dim_minus != 16 - rank:
        return f"kernel dimension {dim_minus} against rank {rank}"
    if found != label:
        return f"companion found={found} for a {'hyper' if label else 'generic'} pair"
    want = (3.0, "HyperIntersection") if label else (2.0, "SigmaBallOnly")
    if (r_a, (r_ap, case)) != (2.0, want):
        return f"domain report R_a={r_a} R_a^p={r_ap} {case}, expected {want}"
    return None


def measure_kernels(inputs, res: Result, seconds: float, rounds) -> None:
    arrays, samples, pairs, centers, ranks = inputs
    first = None
    mul8 = {"raw": [], "adj": []}
    for r in rounds:
        if r >= MAX_KERNEL_ROUNDS:
            break
        for a, b in arrays:
            prod, raw, adj = timed(S.mul_batch, a, b)
            wide = a.shape[1] == 16
            res.timing(raw, adj, batch=wide)
            if not wide:
                mul8["raw"].append(raw)
                mul8["adj"].append(adj)
            res.attempted += 1
            errors = oracle.check_products(a, b, prod, samples)
            res.fail(len(errors), "; ".join(errors))
            del prod
        pipeline, fresh = pair_pipeline, centers[r].tolist()
        outs, raw, adj = timed(lambda: [pipeline(j1, j2, c, a, x, y) for
                                        (j1, j2, c, a, _), (x, y) in zip(pairs, fresh)])
        res.timing(raw, adj, items=len(outs))
        res.attempted += len(outs)
        for i, out in enumerate(outs):
            err = check_pair(out, pairs[i][4], ranks[i])
            if err is None and first is not None and out[:5] != first[i][:5]:
                err = f"pair {i} changed between rounds: {out} vs {first[i]}"
            res.scored += 1
            res.agreed += err is None
            res.fail(err is not None, f"pair {i}: {err}")
        first = first or outs
        if res.busy["raw"] >= seconds:
            break
    res.extra["rows"] = arrays[0][0].shape[0]
    res.extra["mul8"] = mul8


# ---------------------------------------------------------------------------
# scan: seeded `sedenion scan` command lines
# ---------------------------------------------------------------------------


def scan_commands(seed: int, size: Size) -> list[list[str]]:
    """The demo center at seeded angles, seeded hyper centers, a lacunary series."""
    rng = rng_for(seed, 2)
    k = size.scan_thetas
    thetas = [(i + rng.uniform()) * math.pi / k for i in range(k)]
    cmds = [["scan", "--thetas", ",".join(repr(t) for t in thetas)]]
    for _ in range(size.scan_centers):
        j1, j2 = S.random_hyper_pair(rng)
        c = kernel_unit(j1, j2, rng)
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(0.5, 1.5)
        center = x * np.eye(16)[0] + y * j1.s.coeffs
        seq = {"kind": "geometric",
               "terms": [{"coeff": [1.0] + [0.0] * 15, "ratio": 3.0},
                         {"coeff": c.tolist(), "ratio": 2.0}]}
        cmds.append(["scan", "--center", json.dumps(center.tolist()),
                     "--seq", json.dumps(seq)])
    # A gap series takes the generic term path.  Its coefficient is one of
    # the basis-aligned kernel vectors of (e1 - e10), with a seeded sign, so
    # the witness e10 is among the default slices (NOTES.md: why not others).
    text = LACUNARY_COEFFS[rng.integers(len(LACUNARY_COEFFS))]
    coeff = rng.choice([-1.0, 1.0]) * S.parse_element(text).coeffs
    cmds.append(["scan", "--seq", json.dumps({"kind": "lacunary",
                                              "coeff": coeff.tolist(), "ratio": 2.0})])
    return [cmd + list(size.scan_extra) for cmd in cmds]


def run_cli(argv) -> dict:
    """`sedenion.cli.main(argv)` in-process, stdout captured."""
    buf = io.StringIO()
    main = S.cli.main

    def call():
        with contextlib.redirect_stdout(buf):
            try:
                return main(argv)
            except SystemExit as exc:  # argparse reports bad arguments this way
                return exc.code

    rc, raw, adj = timed(call)
    return {"rc": rc, "stdout": buf.getvalue(), "busy": {"raw": raw, "adj": adj}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def versions() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


WORKLOADS = {"grid": (grid_inputs, measure_grid),
             "kernels": (kernels_inputs, measure_kernels)}


def main() -> int:
    spec = json.loads(sys.argv[1])
    size = TINY if spec.get("tiny") else FULL
    workload, seed, mode = spec["workload"], spec["seed"], spec["mode"]
    tracer = Tracer() if spec.get("trace") else None
    out = {"versions": versions()}
    if mode == "commands":
        out["commands"] = scan_commands(seed, size)
    elif mode == "cli":
        argv = scan_commands(seed, size)[spec["command"]]
        if tracer:
            tracer.install()
        out.update(run_cli(argv))
    else:
        make_inputs, measure = WORKLOADS[workload]
        inputs = make_inputs(seed, size)
        res = Result()
        if tracer:
            tracer.install()
        if spec.get("fixed"):
            measure(inputs, res, math.inf, range(TRACE_ROUNDS[workload]))
        else:
            measure(inputs, res, spec["seconds"], range(10 ** 9))
        out.update(res.as_dict())
    if tracer:
        os.makedirs(OUT_DIR, exist_ok=True)
        name = workload if mode == "run" else f"{workload}_{spec['command']}"
        tracer.write(os.path.join(OUT_DIR, f"trace_{name}.npz"))
        out["trace"] = tracer.aggregate()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
