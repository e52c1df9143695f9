"""Benchmark of the sedenion package: grid, scan and kernels workloads.

Run from the root of a checkout (the package is imported from ./src):

    python3 perfbench/run.py --workload grid --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

The last stdout line is one JSON object with `correct`, `attempted`, `failed`
and `metrics`: the end-to-end metrics of BENCHMARK.json with `--trace 0`,
the per-layer metrics with `--trace 1`.  Lines before it give the same
numbers under the names of the workload (grid_points_per_s, scan_wall_s,
scan_agreement, mul_rows_per_s, pairs_per_s, failed_ratio) and the machine.
See NOTES.md for what each workload contains and why.

Each workload runs in fresh interpreters with one BLAS thread, so the
package's module-level radius caches start empty, as for a CLI user.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import resource
import subprocess
import sys
import time
from statistics import median

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy loads, here and in children

from hostspeed import calibration_s, REF_S, timed  # noqa: E402
from tracer import layer_metrics  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("grid", "scan", "kernels")
SETUP_PROBES = 11
TIME_LIMIT_S = 170.0
LAUNCH = "import sys; from sedenion.cli import main; sys.exit(main(sys.argv[1:]))"
IMPORT_PROBE = "import time; import sedenion; print(time.perf_counter())"
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
         "batch_ms": "ms", "agreement": "ratio"}

clock = time.perf_counter


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


class Runner:
    def __init__(self, root: str, tiny: bool):
        self.tiny = tiny
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + old if old else "")
        self.deadline = clock() + TIME_LIMIT_S
        self.versions: dict = {}

    def spawn(self, argv: list[str]) -> subprocess.CompletedProcess:
        left = self.deadline - clock()
        if left <= 0:
            raise BenchError("time limit reached")
        try:
            return subprocess.run(argv, capture_output=True, text=True,
                                  env=self.env, timeout=left)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"time limit reached in {argv[1:3]}") from exc

    def worker(self, **spec) -> dict:
        spec["tiny"] = self.tiny
        proc = self.spawn([sys.executable, WORKER, json.dumps(spec)])
        if proc.returncode != 0:
            raise BenchError(f"worker {spec} failed:\n{proc.stderr[-2000:]}")
        out = json.loads(proc.stdout.splitlines()[-1])
        self.versions = out["versions"]
        return out

    def setup_s(self) -> dict:
        """Median time from spawning an interpreter until `import sedenion` returns."""
        times = {"raw": [], "adj": []}
        for i in range(SETUP_PROBES + 1):
            before = calibration_s()
            t0 = clock()
            proc = self.spawn([sys.executable, "-c", IMPORT_PROBE])
            after = calibration_s()
            if proc.returncode != 0:
                raise BenchError(f"import sedenion failed:\n{proc.stderr[-2000:]}")
            if i:  # the first spawn may compile bytecode
                raw = float(proc.stdout) - t0
                times["raw"].append(raw)
                times["adj"].append(raw * 2.0 * REF_S / (before + after))
        return {k: median(v) for k, v in times.items()}


# ---------------------------------------------------------------------------
# scan output checks (read by column name, independent of the package)
# ---------------------------------------------------------------------------

TOTAL_RE = re.compile(r"^total scored=(\d+) agreed=(\d+) agreement=")
CONTRADICTIONS = {("Interior", "Diverged"), ("Exterior", "Converged")}
AGREEING = {("Interior", "Converged"), ("Exterior", "Diverged")}


def check_scan(rc, stdout: str, stderr: str) -> dict:
    errors = []
    if "Traceback (most recent call last)" in stdout + stderr:
        errors.append("traceback")
    if rc not in (0, 1):
        errors.append(f"exit code {rc}")
    lines = stdout.splitlines()
    body = [ln for ln in lines if not ln.startswith(("slice=", "total "))]
    rows = list(csv.DictReader(body))
    pairs = [(r.get("predicted"), r.get("empirical")) for r in rows]
    bad = sum(p in CONTRADICTIONS for p in pairs)
    if bad:
        errors.append(f"{bad} rows contradict the predicted membership")
    total = TOTAL_RE.match(lines[-1]) if lines else None
    scored = agreed = 0
    if not rows or total is None:
        errors.append("no CSV rows or no summary line")
    else:
        scored, agreed = int(total[1]), int(total[2])
        if scored != sum(p[0] != "Boundary" for p in pairs) or \
                agreed != sum(p in AGREEING for p in pairs):
            errors.append("summary counts do not match the CSV rows")
        if (rc == 0) != (agreed == scored):
            errors.append(f"exit code {rc} with {agreed}/{scored} agreed")
    undetermined = sum(p == ("Interior", "Undetermined") for p in pairs)
    return {"rows": len(rows), "scored": scored, "agreed": agreed,
            "undetermined": undetermined, "errors": errors}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_library(r: Runner, workload: str, seed: int, seconds: float) -> dict:
    res = r.worker(workload=workload, seed=seed, seconds=seconds, mode="run")
    batch = {k: median(v) for k, v in res["batch"].items()}
    rate = {k: median(v) for k, v in res["rate"].items()}
    out = {"attempted": res["attempted"], "failed": res["failed"],
           "errors": res["errors"], "items_per_s": rate, "batch_ms": batch,
           "agreement": res["agreed"] / res["scored"]}
    if workload == "grid":
        out["named"] = {"grid_points_per_s": (rate, "1/s")}
    else:
        rows = res["rows"]
        mul8 = {k: median(v) for k, v in res["mul8"].items()}
        out["named"] = {"mul_rows_per_s": ({k: rows / v for k, v in batch.items()}, "1/s"),
                        "mul8_rows_per_s": ({k: rows / v for k, v in mul8.items()}, "1/s"),
                        "pairs_per_s": (rate, "1/s")}
    return out


def run_scan(r: Runner, seed: int, seconds: float) -> dict:
    """Rounds of the seeded command set, each command a fresh process.

    The set's wall time is the sum over commands of each command's median
    time across rounds, so one slow spawn does not move the whole round.
    """
    cmds = r.worker(workload="scan", seed=seed, mode="commands")["commands"]
    first: dict[int, tuple] = {}
    checks: dict[int, dict] = {}
    times = {"raw": [[] for _ in cmds], "adj": [[] for _ in cmds]}
    attempted = failed = 0
    spent = 0.0
    errors: list[str] = []
    while spent < seconds or not attempted:
        for i, argv in enumerate(cmds):
            proc, raw, adj = timed(r.spawn, [sys.executable, "-c", LAUNCH, *argv])
            spent += raw
            times["raw"][i].append(raw)
            times["adj"][i].append(adj)
            attempted += 1
            if i not in first:
                first[i] = (proc.returncode, proc.stdout)
                checks[i] = check_scan(proc.returncode, proc.stdout, proc.stderr)
                bad = checks[i]["errors"]
            elif (proc.returncode, proc.stdout) != first[i]:
                bad = ["output differs from the first run of the command"]
            else:
                bad = []
            if bad:
                failed += 1
                errors.append(f"command {i}: {'; '.join(bad)}")
    rows = sum(c["rows"] for c in checks.values())
    scored = sum(c["scored"] for c in checks.values())
    agreed = sum(c["agreed"] for c in checks.values())
    wall = {k: sum(median(t) for t in v) for k, v in times.items()}
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "items_per_s": {k: rows / v for k, v in wall.items()},
            "batch_ms": wall, "agreement": agreed / scored,
            "named": {"scan_wall_s": (wall, "s"),
                      "scan_agreement": (agreed / scored, "ratio"),
                      "scan_interior_undetermined": (
                          sum(c["undetermined"] for c in checks.values()), "count"),
                      "scan_rows_per_round": (rows, "count")}}


def trace_run(r: Runner, workload: str, seed: int) -> dict:
    """Fixed work, once untraced and once traced, each in fresh interpreters."""
    attempted = failed = 0
    errors: list[str] = []
    agg: dict = {}
    busy = {False: 0.0, True: 0.0}
    if workload == "scan":
        n = len(r.worker(workload="scan", seed=seed, mode="commands")["commands"])
        for i in range(n):
            outs = {t: r.worker(workload="scan", seed=seed, mode="cli", command=i,
                                trace=t) for t in (False, True)}
            for traced, res in outs.items():
                busy[traced] += res["busy"]["adj"]
                attempted += 1
                bad = check_scan(res["rc"], res["stdout"], "")["errors"]
                if traced and res["stdout"] != outs[False]["stdout"]:
                    bad.append("traced output differs from the untraced output")
                failed += bool(bad)
                errors += [f"command {i}: {e}" for e in bad]
            for k, v in outs[True]["trace"].items():
                agg[k] = agg.get(k, 0) + v
    else:
        for traced in (False, True):
            res = r.worker(workload=workload, seed=seed, mode="run", fixed=True,
                           trace=traced)
            busy[traced] = res["busy"]["adj"]
            attempted += res["attempted"]
            failed += res["failed"]
            errors += res["errors"]
            if traced:
                agg = res["trace"]
    metrics = layer_metrics(agg, busy[True] / busy[False])
    return {"attempted": attempted, "failed": failed, "errors": errors[:5],
            "metrics": metrics}


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def commit() -> str:
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def run_workload(r: Runner, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    if trace:
        out = trace_run(r, workload, seed)
        out["correct"] = out["failed"] == 0
        return out
    setup = r.setup_s()
    out = run_scan(r, seed, seconds) if workload == "scan" else \
        run_library(r, workload, seed, seconds)
    out["setup_s"] = setup
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    out["batch_ms"] = {k: 1e3 * v for k, v in out["batch_ms"].items()}
    out["metrics"] = {k: (out[k], unit) for k, unit in UNITS.items()}
    out["correct"] = out["failed"] == 0
    return out


def adjusted(value):
    """The host-speed-adjusted part of a {"raw", "adj"} timing, or the value."""
    return value["adj"] if isinstance(value, dict) else value


def report(workload: str, out: dict) -> dict:
    """Print every metric by name and unit; return the result object."""
    failed_ratio = out["failed"] / out["attempted"]
    print(f"[{workload}] correct={out['correct']} attempted={out['attempted']} "
          f"failed={out['failed']} failed_ratio={failed_ratio:.6g}")
    for err in out["errors"]:
        print(f"[{workload}] failure: {err}")
    for name, (value, unit) in {**out["metrics"], **out.get("named", {})}.items():
        raw = f" (raw {value['raw']:.6g})" if isinstance(value, dict) else ""
        print(f"[{workload}] {name} = {adjusted(value):.6g} {unit}{raw}")
    return {"correct": out["correct"], "attempted": out["attempted"],
            "failed": out["failed"],
            "metrics": {k: {"value": adjusted(v), "unit": u}
                        for k, (v, u) in out["metrics"].items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny inputs, for the benchmark's own self-test")
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sedenion", "__init__.py")):
        print("error: run from the root of a sedenion checkout (no src/sedenion)",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    runner = Runner(root, args.tiny)
    try:
        out = run_workload(runner, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = report(args.workload, out)
    v = runner.versions
    print(f"machine: nproc={os.cpu_count()} python={v.get('python')} "
          f"numpy={v.get('numpy')} blas={v.get('blas')} blas_threads=1 "
          f"commit={commit()}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own run of this script; one JSON line per workload."""
    results = {}
    for w in WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", w,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--tiny"] if args.tiny else [])
        proc = subprocess.run(argv, capture_output=True, text=True)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr, end="")
            return proc.returncode
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[w] = json.loads(lines[-1])
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
