"""Benchmark of the doublefield library: three seeded workloads, each a
closed loop with one client in a fresh interpreter.

    python3 dfbench/run.py --workload chart-pairing --seed 1 --seconds 20 --trace 0
    python3 dfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload twice more, untraced and traced, and prints the per-layer
metrics and the tracing overhead.  ``--workload all`` runs every
workload in turn and prints one table.  The last line of standard output
is a JSON object with the keys correct, attempted, failed and metrics.
The command exits 1 if any operation failed the output gate and 2 if the
library's source is not found next to this directory.

The harness generates the corpus (see corpus.py), starts the worker
(worker.py) with it, and checks the outputs the worker returns (gate.py).
See NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pace
from spans import metric_names

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GROUP = 8  # blocks per digest group; the loop looks at the clock between groups
SETUP_SAMPLES = 7  # fresh interpreters per run; the first one before them is not counted
WORKER_TIMEOUT_S = 85
WORKLOAD_NAMES = ("chart-pairing", "self-product", "cli-divisor")

SETUP_CODE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); import doublefield; t = time.process_time(); "
    "sys.path.insert(0, sys.argv[2]); import pace, statistics; "
    "print(t, statistics.median(pace.sample() for _ in range(11)), doublefield.__file__)"
)


def env_stamp() -> dict:
    """What a result depends on besides the code; results with different
    stamps are not comparable."""
    import mpmath
    import sympy

    try:
        from sympy.external.gmpy import GROUND_TYPES
    except ImportError:
        GROUND_TYPES = "unknown"
    return {
        "python": platform.python_version(),
        "sympy": sympy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "ground_types": GROUND_TYPES,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def setup_seconds() -> float:
    """Median CPU time of a fresh interpreter from its start until
    ``import doublefield`` has returned in it, scaled to nominal machine
    speed by reference work timed in the same interpreter right after."""
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH)], capture_output=True, text=True, timeout=60
        )
        if proc.returncode != 0:
            raise RuntimeError(f"import doublefield failed:\n{proc.stderr}")
        cpu_s, speed, where = proc.stdout.split()
        if not Path(where).resolve().is_relative_to(SRC):
            raise RuntimeError(f"imported doublefield from {where}, not from {SRC}")
        if i:
            samples.append(float(cpu_s) * pace.NOMINAL_S / float(speed))
    return statistics.median(samples)


def run_worker(blocks: list, seed: int, seconds: float, trace: bool, max_groups: int | None = None) -> dict:
    """Runs the blocks in a fresh interpreter.  Its string hashing and
    sympy's random evaluation points are seeded from the workload seed,
    so that a seed also fixes the paths sympy's algorithms take."""
    job = {
        "src": str(SRC),
        "seed": seed,
        "blocks": blocks,
        "seconds": seconds,
        "trace": trace,
        "group": GROUP,
        "max_groups": max_groups,
    }
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py")],
        input=json.dumps(job),
        env={**os.environ, "PYTHONHASHSEED": str(seed % 2**32)},
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT_S,
    )
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    report = json.loads(proc.stdout)
    report["scaled"] = pace.scaled(report["latencies"], report["speed_samples"])
    return report


def end_to_end(report: dict, setup_s: float) -> dict:
    lat = report["scaled"]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_p50_ms": (1000 * statistics.median(lat), "ms"),
        "op_p90_ms": (1000 * statistics.quantiles(lat, n=10)[8], "ms"),
        "peak_rss_mb": (report["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of the traced run, and its overhead: traced over
    untraced time on the operations both runs completed, minus one."""
    n = min(len(traced["scaled"]), len(untraced["scaled"]))
    overhead = sum(traced["scaled"][:n]) / sum(untraced["scaled"][:n]) - 1
    # span times scale by the run's overall speed
    factor = sum(traced["scaled"]) / sum(traced["latencies"])
    layers = traced["layers"]
    out = {name: (layers[name] * factor if unit == "s" else layers[name], unit) for name, unit in metric_names()}
    out["trace.overhead"] = (overhead, "1")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Runs one workload; returns its metrics and the gate's verdict."""
    # these import the library, so only once its source is on sys.path
    import corpus
    from gate import run_gate

    t0 = time.perf_counter()
    blocks = corpus.WORKLOADS[name](seed)
    print(f"{name}: corpus of {len(blocks)} blocks generated in {time.perf_counter() - t0:.2f} s", file=sys.stderr)
    if trace:
        untraced = run_worker(blocks, seed, seconds, False)
        report = run_worker(blocks, seed, seconds, True)
        metrics = per_layer(report, untraced)
        verdicts = [run_gate(name, seed, blocks, r["blocks"], GROUP) for r in (untraced, report)]
        verdict = {
            "attempted": sum(v["attempted"] for v in verdicts),
            "failed": sum(v["failed"] for v in verdicts),
            "problems": verdicts[0]["problems"] + verdicts[1]["problems"],
            "reference": verdicts[0]["reference"],
        }
    else:
        setup_s = setup_seconds()
        report = run_worker(blocks, seed, seconds, False)
        metrics = end_to_end(report, setup_s)
        verdict = run_gate(name, seed, blocks, report["blocks"], GROUP)
    verdict["wall_s"] = report["wall_s"]
    verdict["cpu_s"] = sum(report["latencies"])
    return metrics, verdict


def print_summary(name: str, seed: int, metrics: dict, verdict: dict) -> None:
    print(
        f"{name} seed={seed}: {verdict['attempted']} operations, {verdict['cpu_s']:.2f} s CPU in {verdict['wall_s']:.2f} s wall, "
        f"reference digests checked: {verdict['reference']}"
    )
    for problem in verdict["problems"]:
        print(f"  FAILED: {problem}")
    rows = {**metrics, "fail_ratio": (verdict["failed"] / verdict["attempted"], "1")}
    for metric, (value, unit) in rows.items():
        print(f"  {metric:<52} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "doublefield" / "__init__.py").is_file():
        print(f"error: the library's source is not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    print("env " + json.dumps(env_stamp(), sort_keys=True))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    all_metrics = {}
    for name in names:
        metrics, verdict = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_summary(name, args.seed, metrics, verdict)
        attempted += verdict["attempted"]
        failed += verdict["failed"]
        prefix = f"{name}." if args.workload == "all" else ""
        all_metrics.update({prefix + m: {"value": v, "unit": u} for m, (v, u) in metrics.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": all_metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
