"""Records the reference digests that the output gate compares against.

    python3 dfbench/reference.py --seeds 0-10,4242

For every workload and seed it runs the first groups of the corpus with
no time limit, requires every operation to pass the gate's property
checks, and stores one digest of the exact outputs per group in
reference.json (existing seeds are replaced, others kept).  Run it only
at a commit whose outputs are trusted, and again whenever the corpus
generator, the group size or the rendering of divisors changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor

import run

# groups recorded per seed: about twice what a 20 s run completes at
# the commit that defined the benchmark
GROUPS = {"chart-pairing": 80, "self-product": 120, "cli-divisor": 140}
JOBS = 2  # seeds recorded at once, one worker each


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def record(workload: str, seed: int) -> list[str]:
    import corpus
    from gate import run_gate

    blocks = corpus.WORKLOADS[workload](seed)
    report = run.run_worker(blocks, seed, 0, False, max_groups=GROUPS[workload])
    verdict = run_gate(workload, seed, blocks, report["blocks"], run.GROUP)
    if verdict["failed"]:
        raise SystemExit(f"{workload} seed {seed}: {verdict['failed']} operations failed: {verdict['problems']}")
    print(f"{workload} seed {seed}: {verdict['attempted']} operations checked", file=sys.stderr)
    return verdict["digests"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", required=True, help="e.g. 0-10,4242")
    args = ap.parse_args()
    sys.path.insert(0, str(run.SRC))
    from gate import REFERENCE

    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {"digests": {}}
    if ref.get("group") not in (None, run.GROUP):
        raise SystemExit("reference.json was recorded with another group size; record every seed again")
    ref["group"] = run.GROUP
    ref["env"] = run.env_stamp()
    tasks = [(w, s) for w in run.WORKLOAD_NAMES for s in parse_seeds(args.seeds)]
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        results = list(pool.map(lambda t: record(*t), tasks))
    for (w, s), digests in zip(tasks, results):
        ref["digests"].setdefault(w, {})[str(s)] = digests
    for w in ref["digests"]:
        ref["digests"][w] = dict(sorted(ref["digests"][w].items(), key=lambda kv: int(kv[0])))
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
