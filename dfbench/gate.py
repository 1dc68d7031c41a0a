"""Output gate: decides, per operation, whether the library's output is
correct.

Two kinds of check run on every run:

* properties that hold for every seed, read from the outputs alone:
  symmetry of ``pair`` on both sides, Bezout totals of pairings and
  residues, agreement of ``correspondence`` with
  ``residue_mod_Kp_degree_one``, principal moves that leave the support
  and keep the class's degrees, a self residue scalar product of at most
  1e-6 in size that agrees between two moves within 1e-6, divisors of
  generated rational functions equal to the divisor known from their
  construction, and Arakelov degrees equal to -2 times the degree;
* digests of the exact outputs (divisors, which render canonically),
  one per group of blocks, against ``reference.json`` where it holds the
  workload and seed.  A group whose digest differs fails all its
  operations.

Reals are never digested: a later change may compute them another way.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

from corpus import bezout, bidegree

REFERENCE = Path(__file__).with_name("reference.json")
TOL = 1e-6


def _deg_of_place_text(text: str) -> int:
    if text.startswith("inf_"):
        return 1
    exps = [int(e) for e in re.findall(r"[xy]\^(\d+)", text)]
    if re.search(r"[xy](?!\^)", text):
        exps.append(1)
    return max(exps)


def _cli_check(b: dict, text: str, facts: dict) -> tuple[str | None, str]:
    """(problem or None, exact output) of one CLI invocation."""
    if facts["code"] != 0:
        return f"exit code {facts['code']}: {facts['stderr'].strip()}", ""
    result = json.loads(text)["result"]
    if "divisor" in b:
        got = result["divisor"]
        return (None if got == b["divisor"] else f"divisor {got!r}, expected {b['divisor']!r}"), got
    if "bezout" in b:
        got = result["divisor"]
        deg = sum(t["coeff"] * _deg_of_place_text(t["place"]) for t in result["terms"])
        return (None if deg == b["bezout"] else f"pairing degree {deg}, expected {b['bezout']}"), got
    got = result["degree"]
    return (None if abs(got - b["degree"]) <= TOL else f"Arakelov degree {got}, expected {b['degree']}"), ""


def check_block(b: dict, res: dict) -> tuple[list[str | None], list[str]]:
    """Problems per operation (None when correct) and the exact outputs
    that enter the digest."""
    problems = list(res["errors"])
    texts, facts = res["texts"], res["facts"]
    kind = b["kind"]

    def fail(i: int, why: str) -> None:
        if problems[i] is None:
            problems[i] = why

    if kind == "pair":
        want = bezout(b["m"], b["n"])
        for i in range(4):
            if facts[i] is not None and facts[i]["degree"] != want:
                fail(i, f"pairing degree {facts[i]['degree']}, expected {want}")
        for i in (0, 2):
            if None not in (texts[i], texts[i + 1]) and texts[i] != texts[i + 1]:
                fail(i, "pair is not symmetric")
                fail(i + 1, "pair is not symmetric")
        return problems, texts
    if kind == "residue":
        want = bezout(b["m"], b["n"])
        if facts[0] is not None and facts[0]["degree"] != want:
            fail(0, f"residue degree {facts[0]['degree']}, expected {want}")
        return problems, texts
    if kind == "correspond":
        want = bidegree(b["m"])[0]
        for i in range(2):
            if facts[i] is not None and facts[i]["degree"] != want:
                fail(i, f"fiber degree {facts[i]['degree']}, expected {want}")
        if None not in texts and texts[0] != texts[1]:
            fail(0, "correspondence and residue_mod_Kp_degree_one disagree")
            fail(1, "correspondence and residue_mod_Kp_degree_one disagree")
        return problems, texts
    if kind == "self":
        f = facts[0]
        if f is not None:
            if abs(f["v1"]) > TOL:
                fail(0, f"self product {f['v1']} is not within {TOL} of 0")
            if abs(f["v1"] - f["v2"]) > TOL:
                fail(0, f"moves disagree: {f['v1']} vs {f['v2']}")
            if not f["disjoint"]:
                fail(0, "a move meets the support")
            if f["balance"] != [[0, 0], [0, 0]]:
                fail(0, f"a move changed the degrees: {f['balance']}")
        return problems, texts
    if kind == "cli":
        exact = ""
        if texts[0] is not None:
            why, exact = _cli_check(b, texts[0], facts[0])
            if why:
                fail(0, why)
        return problems, [exact]
    raise ValueError(f"unknown block kind {kind!r}")


def digest(outputs: list[list[str | None]]) -> str:
    h = hashlib.sha256()
    for texts in outputs:
        for t in texts:
            h.update(b"\x00" if t is None else t.encode() + b"\x01")
    return h.hexdigest()[:16]


def load_reference(workload: str, seed: int, group: int) -> list[str] | None:
    """Recorded digests for the workload and seed, if recorded with this
    group size."""
    if not REFERENCE.is_file():
        return None
    ref = json.loads(REFERENCE.read_text())
    if ref.get("group") != group:
        return None
    return ref["digests"].get(workload, {}).get(str(seed))


def run_gate(workload: str, seed: int, blocks: list[dict], results: list[dict], group: int) -> dict:
    """Checks every operation that ran.  Returns the number attempted and
    failed, the first problems found, the digest of every complete group
    of blocks, and how many groups the reference covered."""
    checked = [check_block(b, r) for b, r in zip(blocks, results)]
    digests = [digest([out for _, out in checked[g : g + group]]) for g in range(0, len(checked) - group + 1, group)]
    ref = load_reference(workload, seed, group) or []
    problems: list[str | None] = []
    for i, (ps, _) in enumerate(checked):
        k = i // group
        if k < min(len(ref), len(digests)) and digests[k] != ref[k]:
            ps = [p or f"group {k}: output digest differs from reference" for p in ps]
        problems.extend(ps)
    failed = [p for p in problems if p is not None]
    return {
        "attempted": len(problems),
        "failed": len(failed),
        "problems": failed[:5],
        "digests": digests,
        "reference": f"{min(len(ref), len(digests))} of {len(digests)} groups",
    }
