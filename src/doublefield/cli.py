"""Command-line interface.

Parses polynomial expressions and divisor specs, invokes the library
operations, and emits human-readable or JSON reports.

Expression grammar (whitespace insignificant, no implicit
multiplication)::

    element  := expr ('/' expr)?
    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'x' | 'y' | '(' expr ')' | '-' factor
    rational := int ('/' uint)?

A slash is part of a rational literal only when an integer follows it,
so ``1/2*x`` is (1/2)*x while ``3/x`` and ``x^2/3`` divide two
expressions.  Unary minus covers the whole following factor (``-x^2``
means ``-(x^2)``), so canonical renderings re-parse to equal values.
At most ``MAX_NESTING`` levels of '(' and unary minus nest, counted
together; a deeper input is a parse error (exit 2).

Each text is read in one scan: one regex search for the first
character outside the alphabet, then one ``findall`` for the tokens;
token offsets are found again only for an error message.  Products,
powers, unary minus and the quotient are kept factor by factor, but the
one-term factors (a constant, x, y and their powers) fold into one
monomial c*x^i*y^j by adding exponents.  Only a sum is multiplied out,
into one factor: a monomial term goes into the sum's coefficient table
directly, and only a term with written sums among its factors reaches
``exact._mul_table``.  So ``divisor`` factors each written factor on its
own and never their product, and a prime written as a product of curves
or a power of one is refused.  The degree bound of ``exact.factor_b``
(exit 2) applies to each written factor and, before any multiplication,
to each term of a sum; so does ``MAX_COEFFICIENT_BITS``, a bound on the
bits of the term's multiplied-out coefficients.  A power of a constant is refused (exit 2) before it is
computed when the exponent times the bit length of the base exceeds
``MAX_CONSTANT_BITS``.

Divisor specs are semicolon-separated terms, each an expression of one
curve or one of the literals ``inf_x`` / ``inf_y`` after an optional
``coeff *``, e.g. ``"2*(x - y^2); -1*inf_x"``.  A term's coefficient is
the constant factor the grammar computes for it, and must be an
integer.

``main`` reads a command's arguments with that command's own parser
when argv[0] names one.  Any other argv, and one with arguments left
over, goes to the top parser, which prints its help or its error for
the whole argv as it always has.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from math import lcm

from .arakelov import (
    deg_Kp,
    explore_self_products,
    residue_scalar_product,
)
from .divisors import (
    DeltaElement,
    Divisor,
    Place,
    UnaryPlace,
    place_of_curve,
    principal_divisor,
)
from .errors import (
    DegreeBound,
    DoubleFieldError,
    InputError,
    ParseError,
    PrecisionFailure,
)
from .exact import (
    DEFAULT_FACTOR_DEGREE_BOUND,
    BPoly,
    Scalar,
    _frac,
    _mul_table,
    qdiv,
)
from .pairing import SIDE_K, SIDE_KPRIME, pair, self_pair_degree_one
from .residues import correspondence, residue_mod_degree_one

SCHEMA_VERSION = "5"

# largest constant power the parser computes, in bits of its numerator
# or denominator, estimated as exponent times the bits of the base
MAX_CONSTANT_BITS = 1 << 16
# largest coefficient the parser multiplies out, in bits, estimated from
# the L1 norms of the factors: (x + y + 2^41)^24 + 1, just below it,
# factors in about 0.9 s of CPU, and (x + y + 2^80)^24 + 1 in about 16 s
MAX_COEFFICIENT_BITS = 1 << 10
# deepest nesting of '(' and unary '-' the parser descends into; each
# level takes at most four stack frames, so 100 levels stay near 400
MAX_NESTING = 100

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INPUT = 2
EXIT_PRECISION = 4


# ---------------------------------------------------------------------------
# expression parsing


# one token: an integer or one character of the alphabet; whitespace
# separates tokens and is otherwise dropped
_TOKEN_RE = re.compile(r"\d+|\S")
# the first character outside the alphabet
_OUTSIDE_RE = re.compile(r"[^\s\dxy+\-*^()/]")


def _tokenize(text: str, start: int, end: int) -> list[str]:
    """Tokens of text[start:end], then "" for the end of input; ParseError
    at the first character outside the alphabet."""
    bad = _OUTSIDE_RE.search(text, start, end)
    if bad is not None:
        raise ParseError(
            f"unexpected character {bad.group()!r}",
            bad.start(),
            expected=("int", "x", "y", "+", "-", "*", "^", "(", ")"),
        )
    tokens = _TOKEN_RE.findall(text, start, end)
    tokens.append("")
    return tokens


# A factored form (c, i, j, ((polynomial, exponent), ...)) stands for
# c * x^i * y^j * prod(polynomial**exponent).  Every polynomial in it is
# a sum the parser multiplied out, non-constant, with a nonzero
# exponent; zero is the constant 0.
_Factored = tuple[Scalar, int, int, tuple[tuple[BPoly, int], ...]]

_X, _Y = BPoly.gen("x"), BPoly.gen("y")


def _written(i: int, j: int, factors: tuple) -> tuple[tuple[BPoly, int], ...]:
    """The factors of x^i * y^j * prod(factors), the monomial's variables
    first, each only when its exponent is nonzero."""
    if j:
        factors = ((_Y, j),) + factors
    if i:
        factors = ((_X, i),) + factors
    return factors


def _l1_bits(f: BPoly) -> int:
    """Bits of the L1 norm of f with its denominators cleared, which
    bounds the coefficients of f^e by e times as many bits."""
    den = lcm(*(a.denominator for _, a in f.terms))
    return sum(abs(a.numerator) * (den // a.denominator) for _, a in f.terms).bit_length()


def _add_term(table: dict, c: Scalar, i: int, j: int, factors: tuple) -> None:
    """Add the polynomial c * x^i * y^j * prod(factors) into a
    coefficient table {(x-exponent, y-exponent): coefficient}, possibly
    leaving zero entries.  Its
    bidegree and the bits of its coefficients are read off the factors
    first, a variable counting one bit, and DegreeBound or InputError is
    raised before any multiplication when they exceed their bounds.  A
    monomial goes into the table directly."""
    bound = DEFAULT_FACTOR_DEGREE_BOUND
    dx, dy, bits = i, j, i + j
    for f, e in factors:
        dx += e * f.deg_x()
        dy += e * f.deg_y()
        bits += e * _l1_bits(f)
    if dx > bound or dy > bound:
        raise DegreeBound(f"bidegree ({dx}, {dy}) exceeds bound {bound}")
    bits += max(abs(c.numerator).bit_length(), c.denominator.bit_length())
    if bits > MAX_COEFFICIENT_BITS:
        raise InputError(
            f"coefficients of about {bits} bits exceed bound {MAX_COEFFICIENT_BITS}"
        )
    if not factors:
        table[i, j] = table.get((i, j), 0) + c
        return
    term = {(i, j): c}
    for f, e in factors:
        for _ in range(e):
            term = _mul_table(term, f.terms)
    for k, v in term.items():
        table[k] = table.get(k, 0) + v


class _Parser:
    """Recursive descent over the module grammar.  Every rule returns a
    factored form: products, powers and unary minus combine constants,
    monomials and factor lists, and only a sum multiplies its terms out,
    adding them into one table and building one polynomial from it.  It
    reads text[start:end] and reports offsets in text."""

    def __init__(self, text: str, start: int, end: int):
        self.tokens = _tokenize(text, start, end)
        self.i = 0
        self.depth = 0
        self.text, self.start, self.end = text, start, end

    def offset(self) -> int:
        """The offset in text of the current token, found by scanning
        again, since only an error needs it."""
        for k, m in enumerate(_TOKEN_RE.finditer(self.text, self.start, self.end)):
            if k == self.i:
                return m.start()
        return self.end

    def finish(self, expected=("+", "-", "*", "^", "end of input")):
        if self.tokens[self.i]:
            self.fail(expected)

    def descend(self) -> None:
        """Consume a '(' or unary '-', one level deeper; ParseError at
        the token that would pass MAX_NESTING."""
        if self.depth == MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels",
                self.offset(),
                expected=("int", "x", "y"),
            )
        self.i += 1
        self.depth += 1

    def fail(self, expected):
        token = self.tokens[self.i]
        what = repr(token) if token else "end of input"
        raise ParseError(
            f"expected one of {sorted(expected)}, found {what}",
            self.offset(),
            expected=expected,
        )

    def expr(self) -> _Factored:
        form = self.term()
        tokens = self.tokens
        sign = tokens[self.i]
        if sign != "+" and sign != "-":
            return form
        table: dict = {}
        _add_term(table, *form)
        while sign == "+" or sign == "-":
            self.i += 1
            c, i, j, factors = self.term()
            _add_term(table, c if sign == "+" else -c, i, j, factors)
            sign = tokens[self.i]
        value = BPoly.make(table)
        if value.deg_x() <= 0 and value.deg_y() <= 0:
            return (value.terms[0][1] if value.terms else 0), 0, 0, ()
        return 1, 0, 0, ((value, 1),)

    def term(self) -> _Factored:
        c, i, j, factors = self.factor()
        tokens = self.tokens
        while tokens[self.i] == "*":
            self.i += 1
            c2, i2, j2, factors2 = self.factor()
            c, i, j, factors = _frac(c * c2), i + i2, j + j2, factors + factors2
        return c, i, j, factors

    def factor(self) -> _Factored:
        form = self.base()
        tokens = self.tokens
        if tokens[self.i] != "^":
            return form
        self.i += 1
        if not tokens[self.i].isdecimal():
            self.fail(("uint",))
        n = int(tokens[self.i])
        self.i += 1
        c, i, j, factors = form
        if abs(c.numerator) > 1 or c.denominator > 1:
            bits = n * max(abs(c.numerator).bit_length(), c.denominator.bit_length())
            if bits > MAX_CONSTANT_BITS:
                raise InputError(
                    f"constant power of about {bits} bits exceeds bound {MAX_CONSTANT_BITS}"
                )
        # x^0 is 1, so a zero exponent drops the factors
        return _frac(c**n), i * n, j * n, tuple((f, e * n) for f, e in factors) if n else ()

    def base(self) -> _Factored:
        tokens = self.tokens
        token = tokens[self.i]
        if token == "x":
            self.i += 1
            return 1, 1, 0, ()
        if token == "y":
            self.i += 1
            return 1, 0, 1, ()
        if token.isdecimal():
            self.i += 1
            num = int(token)
            if tokens[self.i] == "/" and tokens[self.i + 1].isdecimal():
                self.i += 1
                den = int(tokens[self.i])
                if den == 0:
                    raise ParseError("zero denominator in rational", self.offset(), ("uint",))
                self.i += 1
                return qdiv(num, den), 0, 0, ()
            return num, 0, 0, ()
        if token == "(":
            self.descend()
            form = self.expr()
            if tokens[self.i] != ")":
                self.fail((")",))
            self.i += 1
            self.depth -= 1
            return form
        if token == "-":
            self.descend()
            # unary minus covers the whole factor so that the canonical
            # rendering "-x^2" re-parses to the value it was printed from
            c, i, j, factors = self.factor()
            self.depth -= 1
            return -c, i, j, factors
        self.fail(("int", "x", "y", "(", "-"))


def parse_element(text: str) -> DeltaElement:
    """Parse ``expr ('/' expr)?`` into an element of Q(x,y).  The factors
    are handed over as written, so only sums are ever multiplied out."""
    p = _Parser(text, 0, len(text))
    num = p.expr()
    if p.tokens[p.i] != "/":
        p.finish(("+", "-", "*", "/", "^", "end of input"))
        den = (1, 0, 0, ())
    else:
        p.i += 1
        den = p.expr()
        p.finish()
    if num[0] == 0:
        raise InputError("the zero element has no divisor")
    if den[0] == 0:
        raise InputError("zero denominator")
    factors = num[3] + tuple((f, -e) for f, e in den[3])
    return DeltaElement.from_factors(qdiv(num[0], den[0]), _written(num[1] - den[1], num[2] - den[2], factors))


def parse_prime(text: str) -> Place:
    """Parse a prime divisor, a divisor-spec term whose nonzero constant
    factor is ignored.  A written product of curves, a power of a curve
    and a reducible curve are refused with InputError."""
    c, place = _term(text, 0, len(text))
    if c == 0:
        raise InputError(f"constant {text!r} is not a prime")
    return place


def parse_divisor_spec(text: str) -> Divisor:
    """Parse a semicolon-separated list of terms, each with an integer
    coefficient.  Offsets of parse errors are in text."""
    comps: dict[Place, int] = {}
    start = 0
    for raw in text.split(";"):
        if not raw.strip():
            raise ParseError("empty divisor term", start, ("coeff * prime",))
        c, place = _term(text, start, start + len(raw))
        if c.denominator != 1:
            raise InputError(f"coefficient {c} of {raw.strip()!r} is not an integer")
        comps[place] = comps.get(place, 0) + int(c)
        start += len(raw) + 1
    return Divisor.make(comps)


def _term(text: str, start: int, end: int) -> tuple[Scalar, Place]:
    """The constant factor and the place of the term text[start:end]:
    ``inf_x`` or ``inf_y`` after an optional ``coeff *``, or an
    expression of one curve."""
    term = text[start:end].rstrip()
    head = term[:-5].rstrip()
    infinity = term.endswith(("inf_x", "inf_y")) and (not head or head.endswith("*"))
    if infinity and not head:
        return 1, UnaryPlace.infinity(term[-1])
    # a coefficient of inf_x or inf_y is the constant before the '*'
    p = _Parser(text, start, start + len(head) - 1 if infinity else end)
    c, i, j, factors = p.expr()
    p.finish()
    written = _written(i, j, factors)
    if infinity:
        if written:
            raise InputError(f"the coefficient in {term.strip()!r} is not a constant")
        return c, UnaryPlace.infinity(term[-1])
    if not written:
        raise InputError(f"constant {term.strip()!r} is not a prime")
    if len(written) > 1 or written[0][1] > 1:
        raise InputError(f"{term.strip()!r} is a product or power of curves, not a prime")
    return c, place_of_curve(written[0][0])


# ---------------------------------------------------------------------------
# reports


def _divisor_payload(d: Divisor) -> dict:
    text, terms = d.rendered()
    return {"divisor": text, "terms": [{"place": m, "coeff": w} for w, m in terms]}


def _report(args, inputs: dict, result: dict, wall_time) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "wall_time": wall_time,
    }


def _emit(args, report: dict, human: str, code: int) -> int:
    """Print the report, or write it to --out; the exit code, EXIT_INPUT
    when --out cannot be written."""
    out = json.dumps(report, indent=2) if args.json else human
    if not args.out:
        print(out)
        return code
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    except OSError as exc:
        print(f"input error: cannot write {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT
    return code


# ---------------------------------------------------------------------------
# subcommands


def _cmd_divisor(args) -> tuple[dict, str, int]:
    payload = _divisor_payload(principal_divisor(parse_element(args.expr)))
    return payload, payload["divisor"], EXIT_OK


def _cmd_residue(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.A)
    payload = _divisor_payload(residue_mod_degree_one(A, parse_prime(args.n)))
    return payload, payload["divisor"], EXIT_OK


def _cmd_correspond(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.A)
    payload = _divisor_payload(correspondence(A, parse_prime(args.p)))
    return payload, payload["divisor"], EXIT_OK


def _cmd_pair(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.a)
    B = parse_divisor_spec(args.b)
    payload = _divisor_payload(pair(A, B, args.side))
    payload["side"] = args.side
    return payload, payload["divisor"], EXIT_OK


def _cmd_selfpair(args) -> tuple[dict, str, int]:
    sp = self_pair_degree_one(parse_prime(args.m), args.side)
    payload = {
        "value": str(sp.value),
        "moved": str(sp.moved),
        "moving_element": sp.moving_element,
        "side": args.side,
    }
    return payload, str(sp.value), EXIT_OK


def _cmd_arakelov_deg(args) -> tuple[dict, str, int]:
    value = float(deg_Kp(parse_divisor_spec(args.d)))
    return {"degree": value}, f"{value:.12g}", EXIT_OK


def _cmd_rsp(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.a)
    B = parse_divisor_spec(args.b)
    value = float(residue_scalar_product(A, B))
    return {"value": value}, f"{value:.12g}", EXIT_OK


def _cmd_explore(args) -> tuple[dict, str, int]:
    result = explore_self_products(trials=args.trials, max_deg=args.max_deg, seed=args.seed)
    human = (
        f"trials={result['trials']} minimum={result['minimum']:.6g} "
        f"negative_trials={result['negative_trials']}"
    )
    return result, human, EXIT_OK


def _cmd_verify(args) -> tuple[dict, str, int]:
    # only verify loads the suites and their numeric oracle
    from .suites import run_suite

    result = run_suite(args.suite)
    results = result["results"] if args.suite == "all" else [result]
    lines = []
    for r in results:
        status = "PASS" if r["ok"] else "FAIL"
        lines.append(f"{r['suite']}: {status} (checked={r['checked']})")
        for msg in r["failures"]:
            lines.append(f"  {msg}")
    code = EXIT_OK if result["ok"] else EXIT_FAILED_CHECK
    return result, "\n".join(lines), code


_COMMANDS = {
    "divisor": _cmd_divisor,
    "residue": _cmd_residue,
    "correspond": _cmd_correspond,
    "pair": _cmd_pair,
    "selfpair": _cmd_selfpair,
    "arakelov-deg": _cmd_arakelov_deg,
    "rsp": _cmd_rsp,
    "explore": _cmd_explore,
    "verify": _cmd_verify,
}


@functools.cache
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top parser, and each command's own parser by name."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--out", metavar="FILE", default=None)

    top = argparse.ArgumentParser(prog="doublefield")
    sub = top.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, parents=[common]) for name in _COMMANDS}

    parsers["divisor"].add_argument("expr", metavar="EXPR[/EXPR]")
    p = parsers["residue"]
    p.add_argument("--A", required=True, metavar="SPEC")
    p.add_argument("--n", required=True, metavar="PRIME")
    p = parsers["correspond"]
    p.add_argument("--A", required=True, metavar="SPEC")
    p.add_argument("--p", required=True, metavar="PRIME")
    p = parsers["pair"]
    p.add_argument("--a", required=True, metavar="SPEC")
    p.add_argument("--b", required=True, metavar="SPEC")
    p.add_argument("--side", choices=(SIDE_K, SIDE_KPRIME), default=SIDE_KPRIME)
    p = parsers["selfpair"]
    p.add_argument("--m", required=True, metavar="PRIME")
    p.add_argument("--side", choices=(SIDE_K, SIDE_KPRIME), default=SIDE_KPRIME)
    parsers["arakelov-deg"].add_argument("--d", required=True, metavar="DIVISOR")
    p = parsers["rsp"]
    p.add_argument("--a", required=True, metavar="SPEC")
    p.add_argument("--b", required=True, metavar="SPEC")
    p = parsers["explore"]
    p.add_argument("--trials", type=int, default=100, metavar="N")
    p.add_argument("--max-deg", type=int, default=2, metavar="D")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    parsers["verify"].add_argument("--suite", required=True, metavar="NAME")
    return top, parsers


def _inputs_of(args) -> dict:
    skip = {"command", "json", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments of argv as the top parser reads them.  When argv[0]
    names a command, that command's parser reads the rest; anything else,
    and leftover arguments, go to the top parser, which prints its help
    or its error and exits as it would for the whole argv."""
    top, commands = _build_parser()
    command = commands.get(argv[0]) if argv else None
    if command is not None:
        args, rest = command.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return top.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    t0 = time.monotonic()
    try:
        result, human, code = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except PrecisionFailure as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except DoubleFieldError as exc:  # safety net: any remaining variant
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # explore must be byte-reproducible, so its report carries no timing
    wall = None if args.command == "explore" else round(time.monotonic() - t0, 6)
    return _emit(args, _report(args, _inputs_of(args), result, wall), human, code)


if __name__ == "__main__":
    sys.exit(main())
