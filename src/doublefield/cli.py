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

Divisor specs are semicolon-separated ``coeff * prime`` terms, where a
prime is an expression or one of the literals ``inf_x`` / ``inf_y``,
e.g. ``"2*(x - y^2); -1*inf_x"``.  A missing ``coeff *`` prefix means
coefficient 1.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import time
from fractions import Fraction

from .arakelov import (
    arakelov_from_divisor,
    deg_Kp,
    explore_self_products,
    residue_scalar_product,
)
from .divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    Place,
    UnaryPlace,
    principal_divisor,
)
from .errors import (
    DoubleFieldError,
    InputError,
    MoveFailure,
    NonGeneric,
    ParseError,
    PrecisionFailure,
    ShiftExhausted,
    UncertifiedFactor,
)
from .charts import DEFAULT_SHIFT_BOUND
from .exact import DEFAULT_PREC, BPoly, factor_q, primitive_int_upoly
from .pairing import SIDE_K, SIDE_KPRIME, pair, self_pair_degree_one
from .residues import correspondence, residue_mod_degree_one
from .suites import SUITES, run_suite

SCHEMA_VERSION = "2"

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INPUT = 2
EXIT_NONGENERIC = 3
EXIT_PRECISION = 4


# ---------------------------------------------------------------------------
# expression parsing


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([xy])|([+\-*^()/]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise ParseError(
                f"unexpected character {stripped[0]!r} at offset {at}",
                at,
                expected=("int", "x", "y", "+", "-", "*", "^", "(", ")"),
            )
        if m.group(1):
            tokens.append(("int", m.group(1), m.start(1)))
        elif m.group(2):
            tokens.append(("var", m.group(2), m.start(2)))
        else:
            tokens.append((m.group(3), m.group(3), m.start(3)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def finish(self, expected=("+", "-", "*", "^", "end of input")):
        if self.peek()[0] != "eof":
            self.fail(expected)

    def fail(self, expected):
        kind, text, pos = self.peek()
        what = "end of input" if kind == "eof" else repr(text)
        raise ParseError(
            f"unexpected {what} at offset {pos}; expected one of {sorted(expected)}",
            pos,
            expected=expected,
        )

    def expr(self) -> BPoly:
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> BPoly:
        value = self.factor()
        while self.peek()[0] == "*":
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> BPoly:
        value = self.base()
        if self.peek()[0] == "^":
            self.advance()
            if self.peek()[0] != "int":
                self.fail(("uint",))
            value = value ** int(self.advance()[1])
        return value

    def base(self) -> BPoly:
        kind, text, _ = self.peek()
        if kind == "int":
            self.advance()
            num = int(text)
            if self.peek()[0] == "/" and self.tokens[self.i + 1][0] == "int":
                self.advance()
                den = int(self.advance()[1])
                if den == 0:
                    raise ParseError("zero denominator in rational", self.peek()[2], ("uint",))
                return BPoly.const(Fraction(num, den))
            return BPoly.const(num)
        if kind == "var":
            self.advance()
            return BPoly.gen(text)
        if kind == "(":
            self.advance()
            value = self.expr()
            if self.peek()[0] != ")":
                self.fail((")",))
            self.advance()
            return value
        if kind == "-":
            self.advance()
            # unary minus covers the whole factor so that the canonical
            # rendering "-x^2" re-parses to the value it was printed from
            return -self.factor()
        self.fail(("int", "x", "y", "(", "-"))


def parse_expression(text: str) -> BPoly:
    """Parse a polynomial in x and y per the module grammar."""
    p = _Parser(text)
    value = p.expr()
    p.finish()
    return value


def parse_element(text: str) -> DeltaElement:
    """Parse ``expr ('/' expr)?`` into an element of Q(x,y)."""
    p = _Parser(text)
    num = p.expr()
    if p.peek()[0] != "/":
        p.finish(("+", "-", "*", "/", "^", "end of input"))
        den = None
    else:
        p.advance()
        den = p.expr()
        p.finish()
    if num.is_zero():
        raise InputError("the zero element has no divisor")
    if den is None:
        return DeltaElement.from_bpoly(num)
    if den.is_zero():
        raise InputError("zero denominator")
    return DeltaElement.from_fraction(num, den)


def parse_prime(text: str, assume_irreducible: bool = False) -> Place:
    """Parse a prime divisor: ``inf_x`` / ``inf_y`` or an irreducible
    polynomial expression."""
    stripped = text.strip()
    if stripped in ("inf_x", "inf_y"):
        return UnaryPlace.infinity(stripped[-1])
    f = parse_expression(text)
    if f.deg_x() > 0 and f.deg_y() > 0:
        return BinaryPlace.make(f, assume_irreducible=assume_irreducible)
    if f.deg_x() <= 0 and f.deg_y() <= 0:
        raise InputError(f"constant {text!r} is not a prime")
    u = f.as_upoly()
    _, q = primitive_int_upoly(u)
    _, factors = factor_q(q)
    if len(factors) != 1 or factors[0][1] != 1 or factors[0][0].degree() != q.degree():
        raise InputError(f"{text!r} is not irreducible")
    return UnaryPlace.finite(q)


_COEFF_RE = re.compile(r"^\s*([+-]?\d+)\s*\*(.*)$", re.S)


def parse_divisor_spec(text: str, assume_irreducible: bool = False) -> Divisor:
    """Parse a semicolon-separated list of ``coeff * prime`` terms."""
    comps: dict[Place, int] = {}
    for raw in text.split(";"):
        if not raw.strip():
            raise ParseError("empty divisor term", 0, ("coeff * prime",))
        m = _COEFF_RE.match(raw)
        if m:
            coeff, body = int(m.group(1)), m.group(2)
        else:
            coeff, body = 1, raw
        place = parse_prime(body, assume_irreducible)
        comps[place] = comps.get(place, 0) + coeff
    return Divisor.make(comps)


# ---------------------------------------------------------------------------
# reports


def _divisor_payload(d: Divisor) -> dict:
    return {
        "divisor": str(d),
        "terms": [{"place": str(m), "coeff": w} for m, w in d.coeffs],
    }


def _report(args, inputs: dict, result: dict, wall_time) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "inputs": inputs,
        "result": result,
        "precision": args.precision,
        "shift_bound": args.shift_bound,
        "assume_irreducible": bool(getattr(args, "assume_irreducible", False)),
        "wall_time": wall_time,
    }


def _emit(args, report: dict, human: str) -> None:
    out = json.dumps(report, indent=2) if args.json else human
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out + "\n")
    else:
        print(out)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_divisor(args) -> tuple[dict, str, int]:
    elem = parse_element(args.expr)
    d = principal_divisor(elem)
    return _divisor_payload(d), str(d), EXIT_OK


def _cmd_residue(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.A, args.assume_irreducible)
    n = parse_prime(args.n, args.assume_irreducible)
    if not isinstance(n, BinaryPlace):
        raise InputError("the modulus must be a binary prime")
    d = residue_mod_degree_one(A, n, args.shift_bound)
    return _divisor_payload(d), str(d), EXIT_OK


def _cmd_correspond(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.A, args.assume_irreducible)
    p = parse_prime(args.p, args.assume_irreducible)
    if not (isinstance(p, UnaryPlace) and p.var == "y" and not p.is_infinity()):
        raise InputError("the point must be a finite prime of Q(y)")
    d = correspondence(A, p)
    return _divisor_payload(d), str(d), EXIT_OK


def _cmd_pair(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.a, args.assume_irreducible)
    B = parse_divisor_spec(args.b, args.assume_irreducible)
    d = pair(A, B, args.side, args.shift_bound)
    payload = _divisor_payload(d)
    payload["side"] = args.side
    return payload, str(d), EXIT_OK


def _cmd_selfpair(args) -> tuple[dict, str, int]:
    m = parse_prime(args.m, args.assume_irreducible)
    if not isinstance(m, BinaryPlace):
        raise InputError("selfpair expects a binary prime")
    sp = self_pair_degree_one(m, args.side, args.shift_bound)
    payload = {
        "value": str(sp.value),
        "moved": str(sp.moved),
        "moving_element": sp.moving_element,
        "side": args.side,
    }
    return payload, str(sp.value), EXIT_OK


def _cmd_arakelov_deg(args) -> tuple[dict, str, int]:
    d = parse_divisor_spec(args.d, args.assume_irreducible)
    bad = [m for m, _ in d.coeffs if not (isinstance(m, UnaryPlace) and m.var == "y")]
    if bad:
        raise InputError("arakelov-deg expects a divisor of Q(y)")
    value = float(deg_Kp(arakelov_from_divisor(d, args.precision), args.precision))
    return {"degree": value}, f"{value:.12g}", EXIT_OK


def _cmd_rsp(args) -> tuple[dict, str, int]:
    A = parse_divisor_spec(args.a, args.assume_irreducible)
    B = parse_divisor_spec(args.b, args.assume_irreducible)
    value = float(residue_scalar_product(A, B, args.precision, args.shift_bound))
    return {"value": value}, f"{value:.12g}", EXIT_OK


def _cmd_explore(args) -> tuple[dict, str, int]:
    result = explore_self_products(
        trials=args.trials,
        max_deg=args.max_deg,
        seed=args.seed,
        prec=args.precision,
        shift_bound=args.shift_bound,
    )
    human = (
        f"trials={result['trials']} minimum={result['minimum']:.6g} "
        f"negative_trials={result['negative_trials']}"
    )
    return result, human, EXIT_OK


def _cmd_verify(args) -> tuple[dict, str, int]:
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


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit a JSON report")
    common.add_argument("--precision", type=int, default=DEFAULT_PREC, metavar="BITS")
    common.add_argument("--shift-bound", type=int, default=DEFAULT_SHIFT_BOUND, metavar="N")
    common.add_argument("--assume-irreducible", action="store_true")
    common.add_argument("--out", metavar="FILE", default=None)

    top = argparse.ArgumentParser(prog="doublefield")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("divisor", parents=[common])
    p.add_argument("expr", metavar="EXPR[/EXPR]")
    p = sub.add_parser("residue", parents=[common])
    p.add_argument("--A", required=True, metavar="SPEC")
    p.add_argument("--n", required=True, metavar="PRIME")
    p = sub.add_parser("correspond", parents=[common])
    p.add_argument("--A", required=True, metavar="SPEC")
    p.add_argument("--p", required=True, metavar="PRIME")
    p = sub.add_parser("pair", parents=[common])
    p.add_argument("--a", required=True, metavar="SPEC")
    p.add_argument("--b", required=True, metavar="SPEC")
    p.add_argument("--side", choices=(SIDE_K, SIDE_KPRIME), default=SIDE_KPRIME)
    p = sub.add_parser("selfpair", parents=[common])
    p.add_argument("--m", required=True, metavar="PRIME")
    p.add_argument("--side", choices=(SIDE_K, SIDE_KPRIME), default=SIDE_KPRIME)
    p = sub.add_parser("arakelov-deg", parents=[common])
    p.add_argument("--d", required=True, metavar="DIVISOR")
    p = sub.add_parser("rsp", parents=[common])
    p.add_argument("--a", required=True, metavar="SPEC")
    p.add_argument("--b", required=True, metavar="SPEC")
    p = sub.add_parser("explore", parents=[common])
    p.add_argument("--trials", type=int, default=100, metavar="N")
    p.add_argument("--max-deg", type=int, default=2, metavar="D")
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--suite", required=True, choices=sorted(SUITES) + ["all"])
    return top


def _inputs_of(args) -> dict:
    skip = {"command", "json", "precision", "shift_bound", "assume_irreducible", "out"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        result, human, code = _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"parse error: {exc} (offset {exc.offset})", file=sys.stderr)
        return EXIT_INPUT
    except (InputError, UncertifiedFactor, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (NonGeneric, ShiftExhausted, MoveFailure) as exc:
        print(f"not computable on this instance: {exc}", file=sys.stderr)
        return EXIT_NONGENERIC
    except PrecisionFailure as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except DoubleFieldError as exc:  # safety net: any remaining variant
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    # explore must be byte-reproducible, so its report carries no timing
    wall = None if args.command == "explore" else round(time.monotonic() - t0, 6)
    _emit(args, _report(args, _inputs_of(args), result, wall), human)
    return code


if __name__ == "__main__":
    sys.exit(main())
