"""Compares saved runs of a base commit and a change, metric by metric.

    python3 dfbench/compare.py --base base/*.txt --change change/*.txt

Each file holds the standard output of one ``run.py --trace 0`` run of
one workload.  Runs whose environment stamps differ are not comparable:
the script names the differing fields and exits 1.  Otherwise, for each
workload and end-to-end metric, it prints each side's median and
quartiles, the change's median relative to the base's, how many runs of
equal seed the change won, and "WORSE" where the change's median is
worse than the base's by more than the metric's bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> tuple[dict, str, int, dict]:
    """(environment stamp, workload, seed, metrics) of one saved run."""
    lines = Path(path).read_text().strip().splitlines()
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    head = next(re.match(r"(\S+) seed=(-?\d+):", line) for line in lines if re.match(r"\S+ seed=-?\d+:", line))
    metrics = {k: v["value"] for k, v in json.loads(lines[-1])["metrics"].items()}
    return env, head.group(1), int(head.group(2)), metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    spec = json.loads(BENCHMARK.read_text())
    runs = {"base": [load(p) for p in args.base], "change": [load(p) for p in args.change]}

    stamps = {json.dumps(r[0], sort_keys=True) for side in runs.values() for r in side}
    if len(stamps) > 1:
        envs = [json.loads(s) for s in stamps]
        differing = sorted(k for k in envs[0] if len({json.dumps(e.get(k)) for e in envs}) > 1)
        print(f"NOT COMPARABLE: environment stamps differ in {', '.join(differing)}")
        return 1

    worse = False
    for workload in sorted({r[1] for side in runs.values() for r in side}):
        print(workload)
        for m in spec["end_to_end"]:
            name, higher = m["name"], m["better"] == "higher"
            by_seed = {side: {r[2]: r[3][name] for r in rs if r[1] == workload} for side, rs in runs.items()}
            if not by_seed["base"] or not by_seed["change"]:
                continue
            med = {}
            for side, vals in by_seed.items():
                v = list(vals.values())
                q = statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                med[side] = statistics.median(v)
                print(f"  {name:<12} {side:<6} median {med[side]:<12.6g} quartiles {q[0]:.6g} .. {q[2]:.6g}  ({len(v)} runs)")
            rel = med["change"] / med["base"] - 1
            loss = -rel if higher else rel
            seeds = by_seed["base"].keys() & by_seed["change"].keys()
            wins = sum((by_seed["change"][s] > by_seed["base"][s]) == higher for s in seeds if by_seed["change"][s] != by_seed["base"][s])
            verdict = "WORSE" if loss > m["bound"] else "ok"
            worse |= verdict == "WORSE"
            print(f"  {name:<12} change/base - 1 = {rel:+.4f}, bound {m['bound']}, change won {wins} of {len(seeds)} seeds: {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
