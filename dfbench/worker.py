"""Timed closed loop for one workload, in a fresh interpreter.

Reads a job as JSON on stdin: the library's source directory, the blocks
of the corpus, the time to measure, whether to trace, and optionally a
fixed number of groups to run instead (used to record references).
Rebuilds the library inputs with constructors only, then runs one
operation at a time, each sent only when the previous one returned, in
groups of ``group`` blocks until the operations have used ``seconds``
of CPU time.  Nothing is read or written inside the loop.  Afterwards
it renders every output and writes latencies, outputs and facts for the
gate as JSON on stdout.

Latencies are CPU time of this process.  The loop is single-threaded
and waits on nothing, so on an idle machine its wall time equals its CPU
time; on a shared machine wall time adds the other tenants' load (for
one pairing corpus: wall 5.3-6.8 s, CPU 5.35-5.68 s).  Right before each
operation the worker times a fixed piece of reference work, from which
the harness scales latencies to nominal machine speed (see pace.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from fractions import Fraction

import pace

MIN_OPS = 100  # so that at least ten samples lie beyond p90
MAX_LOOP_S = 70.0  # wall-clock stop, so that two runs fit in the time limit


def main() -> int:
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import doublefield
    import sympy.core.random
    from doublefield import cli

    sympy.core.random.seed(job["seed"])

    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        missing = tracer.install()
        if missing:
            print(f"spans: not found, reported as zero: {', '.join(missing)}", file=sys.stderr)
    else:
        tracer = None

    ops = Ops(doublefield, cli)
    blocks = [ops.prepare(b) for b in job["blocks"]]
    group = job["group"]
    max_groups = job.get("max_groups")
    latencies: list[float] = []
    speed_samples: list[float] = []
    results: list[list] = []
    t_start = time.perf_counter()
    cpu_s = 0.0
    for g, first in enumerate(range(0, len(blocks), group)):
        if max_groups is not None:
            if g >= max_groups:
                break
        elif (cpu_s >= job["seconds"] and len(latencies) >= MIN_OPS) or time.perf_counter() - t_start >= MAX_LOOP_S:
            break
        for thunks in blocks[first : first + group]:
            out = []
            for thunk in thunks:
                if tracer is not None:
                    tracer.op = len(latencies)
                speed_samples.append(pace.sample())
                t0 = time.process_time()
                try:
                    r = (thunk(), None)
                except Exception as exc:  # an operation that raises counts as failed
                    r = (None, f"{type(exc).__name__}: {exc}")
                latencies.append(time.process_time() - t0)
                cpu_s += latencies[-1]
                out.append(r)
            results.append(out)
    elapsed = time.perf_counter() - t_start
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    report = {
        "wall_s": elapsed,
        "latencies": latencies,
        "speed_samples": speed_samples,
        "peak_rss_kb": peak_rss_kb,
        "blocks": [ops.describe(job["blocks"][i], out) for i, out in enumerate(results)],
        "layers": tracer.summary() if tracer is not None else None,
    }
    json.dump(report, sys.stdout)
    return 0


class Ops:
    """Turns corpus blocks into calls of the library's public functions
    and the calls' outputs into text and facts for the gate."""

    def __init__(self, df, cli):
        self.df = df
        self.cli = cli

    def place(self, p):
        df = self.df
        if p[0] == "b":
            return df.BinaryPlace(df.BPoly.make({(i, j): Fraction(c) for i, j, c in p[1]}), True)
        if p[2] is None:
            return df.UnaryPlace.infinity(p[1])
        return df.UnaryPlace(p[1], df.UPoly.make(p[1], p[2]))

    def prepare(self, b: dict) -> list:
        df = self.df
        kind = b["kind"]
        if kind == "pair":
            A, B = df.Divisor.of(self.place(b["m"])), df.Divisor.of(self.place(b["n"]))
            return [
                lambda: df.pair(A, B, df.SIDE_K),
                lambda: df.pair(B, A, df.SIDE_K),
                lambda: df.pair(A, B, df.SIDE_KPRIME),
                lambda: df.pair(B, A, df.SIDE_KPRIME),
            ]
        if kind == "residue":
            A, n = df.Divisor.of(self.place(b["m"])), self.place(b["n"])
            return [lambda: df.residue_mod_degree_one(A, n)]
        if kind == "correspond":
            A = df.Divisor.of(self.place(b["m"]))
            p = df.UnaryPlace("y", df.UPoly.make("y", [-b["c"], 1]))
            return [lambda: df.correspondence(A, p), lambda: df.residue_mod_Kp_degree_one(A, p)]
        if kind == "self":
            A = df.Divisor.make([(self.place(p), w) for p, w in b["A"]])
            return [lambda: self.self_product(A, *b["fresh"])]
        if kind == "cli":
            return [lambda: self.run_cli(b["argv"])]
        raise ValueError(f"unknown block kind {kind!r}")

    def self_product(self, A, fresh1: int, fresh2: int, fresh3: int):
        """Self residue scalar product of A's class through two moves;
        the second adds div((y - t)/(y - t - 1)) with t off both
        supports, so the two values are computed on different divisors."""
        df = self.df
        moved1 = df.principal_move(A, fresh1)
        v1 = df.residue_scalar_product(moved1, A)
        moved2 = df.principal_move(A, fresh2)
        support = set(A.support()) | set(moved2.support())
        t = fresh3
        while any(df.UnaryPlace("y", df.UPoly.make("y", [-s, 1])) in support for s in (t, t + 1)):
            t += 1
        y = df.BPoly.gen("y")
        moved2 = moved2 + df.principal_divisor(
            df.DeltaElement.from_fraction(y - df.BPoly.const(t), y - df.BPoly.const(t + 1))
        )
        v2 = df.residue_scalar_product(moved2, A)
        return moved1, v1, moved2, v2

    def run_cli(self, argv: list[str]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def describe(self, b: dict, out: list) -> dict:
        """Per operation: an error or None, the exact output as canonical
        text, and facts the gate checks."""
        errors = [e for _, e in out]
        texts: list = []
        facts: list = []
        for r, e in out:
            if e is not None:
                texts.append(None)
                facts.append(None)
            elif b["kind"] == "self":
                moved1, v1, moved2, v2 = r
                A = self.df.Divisor.make([(self.place(p), w) for p, w in b["A"]])
                texts.append(f"{moved1} | {moved2}")
                facts.append(
                    {
                        "v1": float(v1),
                        "v2": float(v2),
                        "disjoint": moved1.disjoint_from(A) and moved2.disjoint_from(A),
                        "balance": [_balance(moved1 - A), _balance(moved2 - A)],
                    }
                )
            elif b["kind"] == "cli":
                code, stdout, stderr = r
                texts.append(stdout)
                facts.append({"code": code, "stderr": stderr})
            else:
                texts.append(str(r))
                facts.append({"degree": _unary_degree(r)})
        return {"errors": errors, "texts": texts, "facts": facts}


def _unary_degree(d):
    """Degree of a divisor of Q(x) or Q(y); None if it holds any other
    place."""
    total = 0
    for p, c in d.coeffs:
        if not hasattr(p, "var"):
            return None
        total += c * (1 if p.poly is None else p.poly.degree())
    return total


def _balance(d) -> list[int]:
    """Sum of coefficient times x-degree and times y-degree over the
    places of d; both vanish on a principal divisor."""
    sx = sy = 0
    for p, c in d.coeffs:
        if hasattr(p, "var"):
            deg = 1 if p.poly is None else p.poly.degree()
            sx += c * deg * (p.var == "x")
            sy += c * deg * (p.var == "y")
        else:
            sx += c * p.poly.deg_x()
            sy += c * p.poly.deg_y()
    return [sx, sy]


if __name__ == "__main__":
    sys.exit(main())
