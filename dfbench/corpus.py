"""Seeded, valid inputs for the three benchmark workloads.

This module runs in the harness process, never in the timed worker.  It
uses the library only to make sure every generated input is valid
(irreducible primes, generic points, distinct inputs), so that no
operation of the timed loop should fail and any failure is a regression.
Inputs leave this module as plain JSON data; the worker rebuilds library
objects from them with constructors only, so nothing computed here can
warm a cache of the timed process.

Places are encoded as ``["b", [[i, j, c], ...]]`` for a binary prime
(primitive integer polynomial, terms x^i y^j) and ``["u", var, coeffs]``
for a unary prime, with ``coeffs`` low degree first, or ``None`` for the
place at infinity.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from doublefield import BinaryPlace, BPoly, Divisor, UnaryPlace, UPoly, factor_b, factor_q, resultant_x
from doublefield.errors import UncertifiedFactor
from doublefield.exact import content_free_both_ways, primitive_int_bpoly, primitive_int_upoly

BIDEGREES = [(a, b) for a in (1, 2, 3) for b in (1, 2, 3)]

# chart-pairing: primes per class, and rounds generated (a 20 s run
# completes about four rounds at the commit that defined the benchmark,
# so 12 leave room for a 3x faster library before the corpus runs out)
PAIR_PER_CLASS = 16
PAIR_ROUNDS = 12
# self-product and cli-divisor: operations generated
SELF_OPS = 4000
CLI_OPS = 1200
# cli-divisor: one cycle of commands.  A divisor command is given by its
# curves' bidegrees (x, y) and exponents; the shapes are fixed so that
# every seed runs the same mix of degrees.
CLI_CYCLE = (
    ((1, 1, 1), (2, 1, -1)),
    ((1, 2, 1), (2, 2, 1), (0, 1, -1)),
    "pair",
    ((1, 1, 1), (2, 1, 1), (1, 0, -1), (1, 2, -1)),
    ((1, 1, 1), (1, 2, 1), (2, 1, -1), (0, 2, 1), (1, 0, -1)),
    ((2, 2, 1), (1, 0, -2)),
    "arakelov",
    ((2, 1, 2), (1, 1, -1), (0, 1, 1)),
    ((2, 2, 1), (1, 1, -1), (2, 1, 1), (0, 2, -1)),
    ((1, 2, 1), (2, 1, 1), (1, 1, -1), (2, 2, -1), (1, 0, 1)),
)
# cli-divisor pair commands, in turn: one prime of bidegree (a, b), the
# other of (b, a)
PAIR_BIDEGREES = ((1, 1), (1, 2), (2, 2), (1, 3), (2, 3))


def encode_binary(q: BPoly) -> list:
    return ["b", [[i, j, int(c)] for (i, j), c in q.terms]]


def encode_unary(var: str, q: UPoly | None) -> list:
    return ["u", var, None if q is None else [int(c) for c in q.coeffs]]


def bidegree(place: list) -> tuple[int, int]:
    """(x-degree, y-degree) of a place seen as a curve on P1 x P1."""
    if place[0] == "b":
        return max(t[0] for t in place[1]), max(t[1] for t in place[1])
    d = 1 if place[2] is None else len(place[2]) - 1
    return (d, 0) if place[1] == "x" else (0, d)


def bezout(m: list, n: list) -> int:
    """Intersection number of two curves of P1 x P1: the degree of
    their norm pairing on either side."""
    (a1, b1), (a2, b2) = bidegree(m), bidegree(n)
    return a1 * b2 + b1 * a2


def _irreducible_low_degree(cs: list[int]) -> bool:
    """Irreducibility over Q of an integer polynomial of degree 1 to 3
    (coefficients low degree first): a quadratic whose discriminant is
    not a square, a cubic without rational roots."""
    d = len(cs) - 1
    if d == 1:
        return True
    if d == 2:
        disc = cs[1] ** 2 - 4 * cs[0] * cs[2]
        return disc < 0 or math.isqrt(disc) ** 2 != disc
    if cs[0] == 0:
        return False
    for p in _divisors(cs[0]):
        for q in _divisors(cs[3]):
            for r in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * r**i for i, c in enumerate(cs)) == 0:
                    return False
    return True


def _divisors(n: int) -> list[int]:
    n = abs(n)
    return [k for k in range(1, n + 1) if n % k == 0]


def _irreducible_by_specialization(f: BPoly) -> bool:
    """A sufficient test of irreducibility over Q, for x-degree at most 3:
    f is free of content in each variable and either has degree 1 in one
    variable or stays irreducible of full x-degree at some y = c.  The
    library certifies binary primes by the same argument."""
    if not content_free_both_ways(f):
        return False
    if f.deg_x() == 1 or f.deg_y() == 1:
        return True
    lc = f.coeff_of_x(f.deg_x())
    for c in range(-10, 11):
        if lc.eval(c) != 0 and _irreducible_low_degree([int(v) for v in f.eval_y(c).coeffs]):
            return True
    return False


class _Primes:
    """Random primes, each distinct from every prime this generator has
    returned before.  Binary primes are certified by ``BinaryPlace.make``
    and unary primes of degree 4 checked by ``factor_q``; curves that only
    enter products and unary primes of degree at most 3 are checked here,
    exactly and more cheaply."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set = set()

    def _poly(self, a: int, b: int) -> BPoly:
        while True:
            d = {
                (i, j): self.rng.randint(-4, 4)
                for i in range(a + 1)
                for j in range(b + 1)
                if self.rng.random() < 0.55
            }
            f = BPoly.make(d)
            if f.deg_x() == a and f.deg_y() == b:
                q = primitive_int_bpoly(f)[1]
                if q.terms not in self.seen and _irreducible_by_specialization(q):
                    self.seen.add(q.terms)
                    return q

    def binary(self, a: int, b: int) -> BPoly:
        while True:
            q = self._poly(a, b)
            try:
                BinaryPlace.make(q)
            except UncertifiedFactor:
                continue
            return q

    def curve(self, a: int, b: int) -> BPoly:
        """An irreducible polynomial of bidegree (a, b), one of a and b
        possibly 0."""
        if a and b:
            return self._poly(a, b)
        var, d = ("x", a) if a else ("y", b)
        return BPoly.from_upoly(self.unary(var, d))

    def unary(self, var: str, d: int) -> UPoly:
        # linear primes need wider coefficients to stay distinct
        coeff, lead = (60, 20) if d == 1 else (6, 3)
        while True:
            p = UPoly.make(var, [self.rng.randint(-coeff, coeff) for _ in range(d)] + [self.rng.randint(1, lead)])
            _, q = primitive_int_upoly(p)
            key = (var, q.coeffs)
            if key in self.seen:
                continue
            if d <= 3:
                ok = _irreducible_low_degree([int(c) for c in q.coeffs])
            else:
                _, fac = factor_q(q)
                ok = len(fac) == 1 and fac[0][1] == 1 and fac[0][0].degree() == d
            if ok:
                self.seen.add(key)
                return q


def _generic_point(rng: random.Random, f: BPoly) -> int:
    """An integer c at which the fiber y = c of f is read off soundly by
    specialization: the x-leading coefficient and the x-discriminant of
    f do not vanish there."""
    lc = f.coeff_of_x(f.deg_x())
    disc = None
    if f.deg_x() >= 2:
        disc = resultant_x(f, BPoly.make({(i - 1, j): v * i for (i, j), v in f.terms if i >= 1}))
    while True:
        c = rng.randint(-30, 30)
        if lc.eval(c) == 0 or (disc is not None and disc.eval(c) == 0):
            continue
        return c


def chart_pairing(seed: int) -> list[dict]:
    """Blocks of exact chart work, in rounds.

    A round holds one fresh pair of primes for every pair of classes
    (nine binary bidegrees up to (3, 3), x-unary, y-unary; unary against
    unary is skipped), one residue against a fresh degree-one prime and
    one correspondence check at a generic point for every bidegree.  The
    blocks of a round are shuffled, so any prefix of the run holds the
    same mix of costs.  No two blocks share a pair of primes.
    """
    rng = random.Random(f"chart-pairing:{seed}")
    gen = _Primes(rng)
    classes = {f"b{a}{b}": [encode_binary(gen.binary(a, b)) for _ in range(PAIR_PER_CLASS)] for a, b in BIDEGREES}
    for var in ("x", "y"):
        classes[f"u{var}"] = [encode_unary(var, None)] + [
            encode_unary(var, gen.unary(var, 1 + k % 3)) for k in range(PAIR_PER_CLASS - 1)
        ]
    names = sorted(classes)
    pairings = []
    for i, c1 in enumerate(names):
        for c2 in names[i:]:
            if c1[0] == "u" and c2[0] == "u":
                continue
            pp = list(itertools.combinations(classes[c1], 2) if c1 == c2 else itertools.product(classes[c1], classes[c2]))
            rng.shuffle(pp)
            pairings.append(pp)
    blocks: list[dict] = []
    for r in range(PAIR_ROUNDS):
        rnd = [{"kind": "pair", "m": pp[r][0], "n": pp[r][1]} for pp in pairings if r < len(pp)]
        for a, b in BIDEGREES:
            modulus = gen.binary(1, rng.randint(1, 3))
            rnd.append({"kind": "residue", "m": encode_binary(gen.binary(a, b)), "n": encode_binary(modulus)})
            f = gen.binary(a, b)
            rnd.append({"kind": "correspond", "m": encode_binary(f), "c": _generic_point(rng, f)})
        rng.shuffle(rnd)
        blocks.extend(rnd)
    return blocks


def self_product_pool() -> list[list]:
    """A fixed pool of 30 small primes (degrees at most 2), the same
    working set the library's explorer draws from."""
    pool = [encode_unary("x", None), encode_unary("y", None)]
    for var in ("x", "y"):
        for c in (0, 1, -1, 2):
            pool.append(encode_unary(var, UPoly.make(var, [-c, 1])))
        pool.append(encode_unary(var, UPoly.make(var, [-2, 0, 1])))
        pool.append(encode_unary(var, UPoly.make(var, [1, 0, 1])))
    X, Y, one = BPoly.gen("x"), BPoly.gen("y"), BPoly.const(1)
    curves = [
        X - Y, X + Y, X - Y - one, X + Y - 2 * one, 2 * X - Y - one, X * Y - one, X * Y - 2 * one,
        X * Y + X - one, X - Y**2, X**2 - Y, X**2 - Y - one, X + Y**2 - 3 * one, X**2 + Y**2 - 2 * one,
        X**2 - Y**2 - one, X**2 * Y - one, X * Y**2 - X - one,
    ]
    for f in curves:
        _, fac = factor_b(f)
        if len(fac) == 1 and fac[0][1] == 1:
            pool.append(encode_binary(fac[0][0]))
    return pool


def self_product(seed: int) -> list[dict]:
    """Divisors of one, two or three distinct primes from the fixed pool,
    each with the fresh constants of its two principal moves.

    The draws are balanced: every cycle of 15 operations shuffles the
    30 primes and splits them into divisors of sizes 1, 2, 3, 1, 2, 3,
    ..., so each prime occurs once per cycle and every seed runs the same
    mix of costs.  The fresh constants cycle through a short range so
    the working set stays small.
    """
    rng = random.Random(f"self-product:{seed}")
    pool = self_product_pool()
    blocks = []
    order: list[list] = []
    while len(blocks) < SELF_OPS:
        if not order:
            order = rng.sample(pool, len(pool))
        t = len(blocks)
        A = [[order.pop(), rng.choice((-2, -1, 1, 2))] for _ in range(1 + t % 3)]
        blocks.append({"kind": "self", "A": A, "fresh": [17 + t % 4, 29 + t % 4, 41 + t % 4]})
    return blocks


def _expression(factors: list[tuple[BPoly, int]]) -> str:
    def prod(fs):
        return "*".join(f"({q})" + (f"^{e}" if e > 1 else "") for q, e in fs)

    num = [(q, e) for q, e in factors if e > 0]
    den = [(q, -e) for q, e in factors if e < 0]
    text = f"({prod(num)})" if num else "1"
    return f"{text}/({prod(den)})" if den else text


def _place_of_curve(q: BPoly):
    if q.deg_x() >= 1 and q.deg_y() >= 1:
        return BinaryPlace(q, True)
    return UnaryPlace.finite(q.as_upoly())


def _principal_text(factors: list[tuple[BPoly, int]]) -> str:
    """The divisor of prod q^e, known from its construction: the given
    primes with their exponents and the two places at infinity."""
    d = {_place_of_curve(q): e for q, e in factors}
    dx = sum(q.deg_x() * e for q, e in factors)
    dy = sum(q.deg_y() * e for q, e in factors)
    d[UnaryPlace.infinity("x")] = -dx
    d[UnaryPlace.infinity("y")] = -dy
    return str(Divisor.make(d))


def cli_divisor(seed: int) -> list[dict]:
    """CLI invocations with their expected results, in a fixed cycle.

    ``divisor`` commands factor rational functions built from products of
    two to five generated curves; ``pair`` commands pair two generated
    binary primes, which the CLI certifies; ``arakelov-deg`` commands
    take divisors of Q(y) made of one to three irreducible primes of
    degree at most 4.  Every curve and prime is fresh, so no two
    commands share a product to factor.
    """
    rng = random.Random(f"cli-divisor:{seed}")
    gen = _Primes(rng)
    blocks = []
    for k in range(CLI_OPS):
        shape, j = CLI_CYCLE[k % len(CLI_CYCLE)], k // len(CLI_CYCLE)
        if shape == "pair":
            a, b = PAIR_BIDEGREES[j % len(PAIR_BIDEGREES)]
            m, n = gen.binary(a, b), gen.binary(b, a)
            side = ("K", "Kprime")[j % 2]
            argv = ["pair", f"--a=({m})", f"--b=({n})", f"--side={side}", "--json"]
            blocks.append({"kind": "cli", "argv": argv, "bezout": bezout(encode_binary(m), encode_binary(n))})
        elif shape == "arakelov":
            terms = [(gen.unary("y", 1 + (j + i) % 4), rng.choice((-2, -1, 1, 2))) for i in range(1 + j % 3)]
            inf = rng.choice((-1, 0, 1))
            parts = [f"{w}*({q})" for q, w in terms] + ([f"{inf}*inf_y"] if inf else [])
            degree = sum(w * q.degree() for q, w in terms) + inf
            argv = ["arakelov-deg", "--d=" + "; ".join(parts), "--json"]
            blocks.append({"kind": "cli", "argv": argv, "degree": -2 * degree})
        else:
            factors = [(gen.curve(a, b), e) for a, b, e in shape]
            argv = ["divisor", _expression(factors), "--json"]
            blocks.append({"kind": "cli", "argv": argv, "divisor": _principal_text(factors)})
    return blocks


WORKLOADS = {
    "chart-pairing": chart_pairing,
    "self-product": self_product,
    "cli-divisor": cli_divisor,
}
