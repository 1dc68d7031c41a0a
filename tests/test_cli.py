"""Tests for the command-line interface: grammar, exit codes, reports."""

import ast
import contextlib
import hashlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ

import doublefield.cli as cli
import doublefield.exact as exact
import doublefield.suites as suites
from doublefield.cli import (
    main,
    parse_divisor_spec,
    parse_element,
    parse_prime,
)
from doublefield.divisors import (
    BinaryPlace,
    DeltaElement,
    Divisor,
    UnaryPlace,
    principal_divisor,
)
from doublefield.errors import DegreeBound, InputError, NotCoprime, ParseError, PrecisionFailure
from doublefield.exact import BPoly, UPoly
from doublefield.suites import binary_pool, unary_pool


def _element(p: BPoly) -> DeltaElement:
    """The element of Q(x,y) that the polynomial p stands for."""
    return DeltaElement.from_factors(1, [(p, 1)])


class TestExpressionGrammar:
    def test_examples(self):
        assert parse_element("x^2 - y") == _element(BPoly.gen("x") ** 2 - BPoly.gen("y"))
        assert parse_element("(x-y)*(x+y)") == _element(BPoly.gen("x") ** 2 - BPoly.gen("y") ** 2)

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError) as exc:
            parse_element("x y")
        assert exc.value.offset == 2
        assert exc.value.expected

    def test_rationals(self):
        assert parse_element("1/2*x") == _element(BPoly.const(Fraction(1, 2)) * BPoly.gen("x"))

    def test_negation_and_precedence(self):
        # unary minus covers the following factor, exponent included
        assert parse_element("-x^2") == _element(-(BPoly.gen("x") ** 2))
        assert parse_element("(-x)^2") == _element(BPoly.gen("x") ** 2)
        assert parse_element("2*x^3 - -y") == _element(2 * BPoly.gen("x") ** 3 + BPoly.gen("y"))

    def test_parse_error_offsets(self):
        for text, offset in [("x +", 3), ("(x", 2), ("x ^ y", 4), ("x @ y", 2)]:
            with pytest.raises(ParseError) as exc:
                parse_element(text)
            assert exc.value.offset == offset

    def test_alphabet(self):
        # a digit is any Unicode decimal digit, whitespace any Unicode space
        x, one = BPoly.gen("x"), BPoly.const(1)
        assert parse_element("٣*x + 1") == _element(3 * x + one)
        assert parse_element("\u00a0x\t+\n1\u00a0") == _element(x + one)
        assert parse_element("1٢*x^٢") == _element(12 * x**2)

    @pytest.mark.parametrize(
        "text, offset, found",
        [
            ("  @x", 2, "@"),
            ("\t\u00a0x + \n$", 7, "$"),
            # a superscript two is a digit to str.isdigit but not a decimal
            ("x^²", 2, "²"),
        ],
    )
    def test_unexpected_character_offset(self, text, offset, found):
        with pytest.raises(ParseError) as exc:
            parse_element(text)
        assert exc.value.offset == offset
        assert str(exc.value) == f"unexpected character {found!r} at offset {offset}"

    @given(
        st.lists(
            st.tuples(
                st.integers(-9, 9), st.integers(0, 3), st.integers(0, 3)
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_round_trip(self, terms):
        p = BPoly.const(0)
        x, y = BPoly.gen("x"), BPoly.gen("y")
        for c, i, j in terms:
            p = p + BPoly.const(c) * x**i * y**j
        if p.is_zero():
            return
        assert parse_element(str(p)) == _element(p)


# Generated expression texts with the polynomial each stands for,
# computed apart from the parser: nested sums, powers 0-3, unary minus and
# rational literals.  The level says where a text may stand unbracketed
# (0 a sum, 1 a term, 2 a factor, 3 a power base).
_X, _Y, _C = BPoly.gen("x"), BPoly.gen("y"), BPoly.const
_LEAVES = st.sampled_from(
    [("x", _X, 3), ("y", _Y, 3), ("0", _C(0), 3), ("1", _C(1), 3), ("2", _C(2), 3)]
    + [("1/2", _C(Fraction(1, 2)), 3), ("3/4", _C(Fraction(3, 4)), 3)]
    + [("-3", _C(-3), 1), ("-5/3", _C(Fraction(-5, 3)), 1)]
)


def _at(child, level):
    text, _, own = child
    return text if own >= level else f"({text})"


def _plus(a, b):
    return f"{a[0]} + {b[0]}", a[1] + b[1], 0


def _minus(a, b):
    return f"{a[0]} - {_at(b, 1)}", a[1] - b[1], 0


def _times(a, b):
    return f"{_at(a, 1)}*{_at(b, 1)}", a[1] * b[1], 1


def _power(a, k):
    return f"{_at(a, 3)}^{k}", a[1] ** k, 2


def _negate(a):
    return f"-{_at(a, 1)}", -a[1], 1


def _bracket(a):
    return f"({a[0]})", a[1], 3


def _combine(children):
    return st.one_of(
        st.builds(_plus, children, children),
        st.builds(_minus, children, children),
        st.builds(_times, children, children),
        st.builds(_power, children, st.integers(0, 3)),
        st.builds(_negate, children),
        st.builds(_bracket, children),
    )


_EXPRESSIONS = st.recursive(_LEAVES, _combine, max_leaves=8)


class TestFactoredParsing:
    @settings(max_examples=80, deadline=None)
    @given(_EXPRESSIONS, st.none() | _EXPRESSIONS)
    def test_factored_equals_multiplied_out(self, n, d):
        (n_text, num, _), (d_text, den, _) = n, d or ("1", _C(1), 3)
        assume(not num.is_zero() and not den.is_zero())
        try:
            expanded = DeltaElement.from_fraction(num, den)
            written = [parse_element(n_text), parse_element(d_text)]
        except DegreeBound:
            assume(False)
        assert written == [_element(num), _element(den)]
        factored = parse_element(n_text if d is None else f"({n_text})/({d_text})")
        assert factored == expanded
        assert principal_divisor(factored) == principal_divisor(expanded)

    def test_zero_exponent_and_zero_values(self):
        assert parse_element("(x - x)^0*y") == _element(BPoly.gen("y"))
        with pytest.raises(InputError, match="zero element"):
            parse_element("(x - x)*y")
        with pytest.raises(InputError, match="zero denominator"):
            parse_element("y/(x*(y - y))")


# whitespace, Unicode spaces included, to put between two tokens
_SPACES = st.text(alphabet=" \t\n\u00a0\u2003", max_size=3)


class TestWhitespace:
    @settings(max_examples=80, deadline=None)
    @given(_EXPRESSIONS, st.data())
    def test_whitespace_between_tokens_changes_nothing(self, generated, data):
        text = generated[0]
        tokens = re.findall(r"\d+|\S", text)
        spaced = "".join(data.draw(_SPACES) + token for token in tokens) + data.draw(_SPACES)
        try:
            expected = parse_element(text)
        except InputError as exc:
            with pytest.raises(type(exc)):
                parse_element(spaced)
            return
        assert parse_element(spaced) == expected


# The same texts with the sympy expression each stands for, from integer
# and rational literals; a sum of a text and its negation, plus a
# literal, cancels to a constant or to zero.
_SX, _SY = sympy.symbols("x y")
_SYMPY_LEAVES = st.one_of(
    st.sampled_from([("x", _SX, 3), ("y", _SY, 3)]),
    st.integers(0, 12).map(lambda n: (str(n), sympy.Integer(n), 3)),
    st.tuples(st.integers(0, 12), st.integers(1, 9)).map(lambda t: (f"{t[0]}/{t[1]}", sympy.Rational(*t), 3)),
)


def _sympy_combine(children):
    return _combine(children) | st.builds(lambda a, c: _plus(_minus(a, a), c), children, _SYMPY_LEAVES)


_SYMPY_EXPRESSIONS = st.recursive(_SYMPY_LEAVES, _sympy_combine, max_leaves=8)


class TestParserAgainstSympy:
    @settings(max_examples=150, deadline=None)
    @given(_SYMPY_EXPRESSIONS)
    def test_parse_equals_sympy_expansion(self, generated):
        """parse_element equals the element of sympy's expansion over QQ;
        a text that cancels to zero is refused."""
        text, expr, _ = generated
        P = sympy.Poly(expr, _SX, _SY, domain=QQ)
        expected = BPoly.make({k: Fraction(int(c.numerator), int(c.denominator)) for k, c in P.as_dict().items()})
        try:
            if expected.is_zero():
                with pytest.raises(InputError, match="zero element"):
                    parse_element(text)
                return
            written = parse_element(text)
        except DegreeBound:
            assume(False)
        assert written == _element(expected)

    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("(x+y)^1000 + 1", DegreeBound, "exceeds bound 24"),
            ("(x + 7^200)^24 + 1", InputError, f"exceed bound {cli.MAX_COEFFICIENT_BITS}"),
        ],
    )
    def test_bounds_checked_before_multiplying(self, monkeypatch, text, error, message):
        """A term past a bound is refused before its table is multiplied;
        the inner sums here are tables of single terms, which need no
        multiplication."""

        def refuse(table, terms):
            raise AssertionError("multiplied a term past its bound")

        monkeypatch.setattr(cli, "_mul_table", refuse)
        with pytest.raises(error, match=message):
            parse_element(text)


class TestDegreeBudget:
    def test_expansion_overrun_is_degree_bound(self):
        # the parser multiplies out only sums, so the power goes in one
        start = time.process_time()
        with pytest.raises(DegreeBound):
            parse_element("(x+y+1)^100000 + 1")
        assert time.process_time() - start < 0.5

    def test_sum_overrun_exits_2(self, capsys):
        start = time.process_time()
        assert main(["pair", "--a", "(x+y)^1000 + 1", "--b", "y - 5"]) == 2
        assert time.process_time() - start < 0.5
        assert "exceeds bound 24" in capsys.readouterr().err

    def test_unexpanded_power_succeeds(self, capsys):
        # each written factor is factored alone, so no bound is reached
        assert main(["divisor", "(x+y)^100000"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-100000*inf_x - 100000*inf_y + 100000*(x + y)"

    def test_constant_power_overrun_exits_2(self, capsys):
        start = time.process_time()
        assert main(["divisor", "(7^1000000)^4*x"]) == 2
        assert time.process_time() - start < 0.5
        assert f"exceeds bound {cli.MAX_CONSTANT_BITS}" in capsys.readouterr().err

    def test_coefficient_overrun_exits_2(self, capsys):
        # factoring the multiplied-out sum took seconds of CPU in sympy
        start = time.process_time()
        assert main(["divisor", "(x + 7^200)^24 + 1"]) == 2
        assert time.process_time() - start < 0.5
        assert f"exceed bound {cli.MAX_COEFFICIENT_BITS}" in capsys.readouterr().err

    def test_coefficients_within_bound(self, capsys):
        # 24 * 41 + 1 = 985 estimated bits
        assert main(["divisor", "(x + 2^40)^24 + 1"]) == 0

    def test_constant_power_within_bound(self):
        e = parse_element("2^100*(1/3)^50*x")
        assert e == DeltaElement.from_factors(Fraction(2**100, 3**50), [(BPoly.gen("x"), 1)])
        assert parse_element("(-1)^1000000*x") == _element(BPoly.gen("x"))

    def test_product_over_bound_succeeds(self, capsys):
        assert main(["divisor", "(x-y)^30"]) == 0
        assert capsys.readouterr().out.strip() == "-30*inf_x - 30*inf_y + 30*(x - y)"

    @staticmethod
    def _nested(depth):
        """x under depth levels of '(', and under depth unary '-'."""
        return "(" * depth + "x" + ")" * depth, "-" * depth + "x"

    @pytest.mark.parametrize("command", ["divisor", "pair"])
    @pytest.mark.parametrize("kind", [0, 1])
    def test_nesting_overrun_exits_2(self, command, kind, capsys):
        # the recursive descent overran the interpreter's stack at a few
        # hundred levels and exited 1 with a RecursionError
        text = self._nested(cli.MAX_NESTING + 1)[kind]
        argv = ["divisor", "--", text] if command == "divisor" else ["pair", f"--a={text}", "--b", "y - 5"]
        start = time.process_time()
        assert main(argv) == 2
        assert time.process_time() - start < 0.5
        assert f"nesting deeper than {cli.MAX_NESTING} levels" in capsys.readouterr().err

    def test_nesting_within_bound(self):
        # MAX_NESTING is even, so the minus signs cancel
        paren, minus = self._nested(cli.MAX_NESTING)
        assert parse_element(paren) == parse_element(minus) == _element(BPoly.gen("x"))
        x = Divisor.of(UnaryPlace.finite(UPoly.make("x", [0, 1])))
        assert parse_divisor_spec(paren) == parse_divisor_spec(minus) == x


# Divisor-spec terms built around a pool prime from integer and rational
# constants, each factor possibly negated, with the product of the
# constants, which is the coefficient the term stands for.  A constant
# goes before inf_x / inf_y, and anywhere around a curve.
_SPEC_PRIMES = binary_pool() + unary_pool()
_SPEC_CONSTANTS = st.one_of(
    st.integers(0, 6).map(lambda n: (str(n), Fraction(n))),
    st.tuples(st.integers(0, 6), st.integers(2, 4)).map(lambda t: (f"{t[0]}/{t[1]}", Fraction(*t))),
)


@st.composite
def _spec_terms(draw):
    place = draw(st.sampled_from(_SPEC_PRIMES))
    factors = []
    for (text, value), negate in draw(st.lists(st.tuples(_SPEC_CONSTANTS, st.booleans()), max_size=3)):
        factors.append((f"-{text}", -value) if negate else (text, value))
    if isinstance(place, UnaryPlace) and place.is_infinity():
        factors.append((str(place), Fraction(1)))
    else:
        negate = draw(st.booleans())
        curve = (f"-{place}", Fraction(-1)) if negate else (str(place), Fraction(1))
        factors.insert(draw(st.integers(0, len(factors))), curve)
    text = "*".join(t for t, _ in factors)
    if draw(st.booleans()) and not text.endswith(("inf_x", "inf_y")):
        text = f"({text})"
    return text, place, math.prod(v for _, v in factors)


class TestSpecParsing:
    @settings(max_examples=150, deadline=None)
    @given(_spec_terms())
    def test_coefficient_is_the_product_of_the_constants(self, term):
        text, place, product = term
        if product.denominator != 1:
            with pytest.raises(InputError, match="not an integer"):
                parse_divisor_spec(text)
        else:
            assert parse_divisor_spec(text) == Divisor.of(place, int(product))

    def test_element_fraction(self):
        e = parse_element("(x^2-y^2)/(x*y)")
        D = principal_divisor(e)
        assert D.coeff(UnaryPlace.infinity("x")) == -1
        assert D.coeff(UnaryPlace.infinity("y")) == -1

    def test_element_slash_after_digit(self):
        x, y = BPoly.gen("x"), BPoly.gen("y")
        assert parse_element("x^2/y") == DeltaElement.from_fraction(x**2, y)
        assert parse_element("x^2/3") == DeltaElement.from_fraction(x**2, BPoly.const(3))
        assert parse_element("3/x") == DeltaElement.from_fraction(BPoly.const(3), x)
        assert parse_element("1/2*x") == DeltaElement.from_factors(Fraction(1, 2), [(x, 1)])

    def test_element_single_slash(self):
        with pytest.raises(ParseError) as exc:
            parse_element("x/y/x")
        assert exc.value.offset == 3

    def test_divisor_spec(self):
        d = parse_divisor_spec("2*(x - y^2); -1*inf_x")
        assert d.coeff(BinaryPlace.make(BPoly.gen("x") - BPoly.gen("y") ** 2)) == 2
        assert d.coeff(UnaryPlace.infinity("x")) == -1

    @pytest.mark.parametrize(
        "text, coeff, prime",
        [
            ("2*(x - y^2)", 2, "x - y^2"),
            ("2*x", 2, "x"),
            ("-1*inf_x", -1, "inf_x"),
            ("2*-x", -2, "x"),
            # a sum is multiplied out into one factor, so its coefficient is 1
            ("3*x - y^2", 1, "3*x - y^2"),
            ("2*x^2 - y", 1, "2*x^2 - y"),
            ("3*x*y + (x - 1)", 1, "3*x*y + x - 1"),
            # the coefficient is the term's constant factor, wherever it stands
            ("-(x - y)", -1, "x - y"),
            ("(x - y)*2", 2, "x - y"),
            ("2*3*(x - y)", 6, "x - y"),
            ("2*-(x - y)", -2, "x - y"),
            ("4/2*inf_y", 2, "inf_y"),
        ],
    )
    def test_coefficient_precedence(self, text, coeff, prime):
        assert parse_divisor_spec(text) == Divisor.of(parse_prime(prime), coeff)

    @pytest.mark.parametrize("text", ["3/2*(x - y)", "(x - y)*1/2", "-1/3*inf_x", "x*inf_y"])
    def test_coefficient_must_be_an_integer(self, text):
        with pytest.raises(InputError, match="coefficient"):
            parse_divisor_spec(text)

    @pytest.mark.parametrize(
        "text, offset",
        [
            ("1*(x - y); 2*(x +)", 17),
            ("(x - y);;(x+y)", 8),
            ("(x - y); ", 8),
            ("(x - y); 2*inf_x; 3 inf_y", 20),
            ("(x - y); (x @ y)", 12),
            # an unexpected character in the second term, after whitespace
            ("(x - y); \t@", 10),
            ("(x - y);  \t2*(x + y$)", 19),
            # a leading '+' is refused, as everywhere in the grammar
            ("(x - y); +2*(x + y)", 9),
        ],
    )
    def test_parse_error_offsets_are_in_the_spec(self, text, offset):
        with pytest.raises(ParseError) as exc:
            parse_divisor_spec(text)
        assert exc.value.offset == offset
        assert str(exc.value).endswith(f" at offset {offset}")

    def test_coefficient_precedence_through_the_cli(self, capsys):
        for a in ("3*x - y^2", "(3*x - y^2)"):
            assert main(["residue", "--A", a, "--n", "x - y"]) == 0
            assert capsys.readouterr().out.strip() == "(y - 3) + (y) + inf_y"
        assert main(["pair", "--a", "2*x^2 - y", "--b", "y - 5"]) == 0
        assert capsys.readouterr().out.strip() == "2*(y - 5)"
        assert main(["pair", "--a", "-(x - y)", "--b", "y - 5"]) == 0
        assert capsys.readouterr().out.strip() == "-(y - 5)"
        assert main(["pair", "--a", "3/2*(x - y)", "--b", "y - 5"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: coefficient 3/2" in captured.err

    def test_coefficient_optional(self):
        d = parse_divisor_spec("(x - y)")
        assert d == Divisor.of(BinaryPlace.make(BPoly.gen("x") - BPoly.gen("y")))

    def test_unary_prime(self):
        p = parse_prime("y^2 - 2")
        assert p == UnaryPlace.finite(UPoly.make("y", (-2, 0, 1)))

    def test_reducible_unary_rejected(self):
        with pytest.raises(InputError):
            parse_prime("y^2 - 1")

    def test_constant_rejected(self):
        with pytest.raises(InputError):
            parse_prime("7")
        with pytest.raises(InputError):
            parse_prime("0*x")

    @pytest.mark.parametrize("in_spec", [False, True])
    @pytest.mark.parametrize("text", ["(x-y)*(x+y^2)", "x*y", "(x - y)^2"])
    def test_written_product_rejected(self, text, in_spec):
        with pytest.raises(InputError, match="product or power of curves"):
            if in_spec:
                parse_divisor_spec(f"2*{text}")
            else:
                parse_prime(text)

    @pytest.mark.parametrize("flag", [[], ["--json"]])
    def test_written_product_exits_2(self, flag, capsys):
        argv = ["pair", "--a", "(x-y)*(x+y^2)", "--b", "(y-5)"] + flag
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "product or power of curves" in captured.err

    def test_scaled_prime_is_the_curve(self):
        assert parse_prime("-2*(x - y^2)") == parse_prime("x - y^2")
        assert parse_prime("-3*y + 6") == parse_prime("y - 2")


class TestExitCodes:
    def test_success(self, capsys):
        assert main(["pair", "--a", "x - y^2", "--b", "x - y"]) == 0
        assert capsys.readouterr().out.strip() == "(y - 1) + (y) + inf_y"

    def test_divisor_worked_example(self, capsys):
        assert main(["divisor", "(x^2-y^2)/(x*y)"]) == 0
        out = capsys.readouterr().out.strip()
        assert out == "-(x) - inf_x - (y) - inf_y + (x - y) + (x + y)"

    def test_input_error(self, capsys):
        assert main(["divisor", "x y"]) == 2
        assert "parse error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, offset",
        [
            (["divisor", "x y"], 2),
            (["divisor", "x $"], 2),
            (["divisor", "1/0 + x"], 2),
            (["pair", "--a", "x - y;;", "--b", "y - 5"], 6),
        ],
    )
    def test_parse_error_names_its_offset_once(self, argv, offset, capsys):
        # the offset is the zero itself in 1/0 and the empty term's start
        # in the spec
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: ")
        assert err.count("offset") == 1
        assert err.rstrip().endswith(f" at offset {offset}")

    def test_divisor_slash_after_exponent(self, capsys):
        assert main(["divisor", "x^2/y"]) == 0
        assert capsys.readouterr().out.strip() == "2*(x) - 2*inf_x - (y) + inf_y"

    def test_degree_bound_exits_2_quickly(self, capsys):
        start = time.process_time()
        assert main(["divisor", "(x^40 - y^40)"]) == 2
        assert time.process_time() - start < 1.0
        assert "exceeds bound 24" in capsys.readouterr().err

    def test_tol_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["divisor", "(x - y)", "--tol", "1e-9"])
        assert exc.value.code == 2

    def test_negative_spec_with_equals(self, capsys):
        # a value starting with '-' reaches the option only as --d=VALUE
        assert main(["arakelov-deg", "--d=-1*(y - 3)"]) == 0
        assert capsys.readouterr().out.strip() == "2"

    def test_arakelov_deg_needs_divisor_of_Qy(self, capsys):
        assert main(["arakelov-deg", "--d", "(x - 3)"]) == 2
        assert "divisor of Q(y)" in capsys.readouterr().err

    def test_precision_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["rsp", "--a", "(x - y)", "--b", "(x + y)", "--precision", "80"])
        assert exc.value.code == 2

    def test_shift_bound_is_not_an_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["pair", "--a", "x - y^2 - 1", "--b", "x + y", "--shift-bound", "5"])
        assert exc.value.code == 2

    def test_shared_support_is_input_error(self, capsys):
        assert main(["pair", "--a", "(x - y)", "--b", "(x - y)"]) == 2

    def test_nongeneric(self, capsys):
        # the leading coefficient y vanishes at y = 0: the fiber escapes
        assert main(["correspond", "--A", "(x*y - 1)", "--p", "y"]) == 0
        assert capsys.readouterr().out == "inf_x\n"

    @pytest.mark.parametrize("max_deg", ["0", "-3"])
    def test_explore_max_deg_below_one_exits_2(self, max_deg, capsys):
        assert main(["explore", "--trials", "2", "--max-deg", max_deg, "--seed", "7"]) == 2
        assert "max_deg must be at least 1" in capsys.readouterr().err

    def test_precision_failure_maps_to_4(self, monkeypatch, capsys):
        def boom(args):
            raise PrecisionFailure("could not certify roots")

        monkeypatch.setitem(cli._COMMANDS, "rsp", boom)
        assert main(["rsp", "--a", "(x - y)", "--b", "(x + y)"]) == 4

    @pytest.mark.parametrize(
        "error, code, out",
        [
            (NotCoprime("places coincide"), 1, "principality: FAIL (checked=0)\n  NotCoprime: places coincide\n"),
            (PrecisionFailure("no roots"), 4, ""),
            (ValueError("bad row"), 1, "principality: FAIL (checked=0)\n  ValueError: bad row\n"),
        ],
        ids=["NotCoprime", "PrecisionFailure", "ValueError"],
    )
    def test_library_error_inside_a_suite(self, monkeypatch, capsys, error, code, out):
        """A library error or any other exception inside a verify suite is
        that suite's FAIL line (exit 1), a ValueError too, which outside
        a suite is an input error; a precision failure keeps its own exit
        code."""

        def boom():
            raise error

        monkeypatch.setitem(suites.SUITES, "principality", boom)
        assert main(["verify", "--suite", "principality"]) == code
        assert capsys.readouterr().out == out

    def test_kernel_fault_is_a_fail_line(self, monkeypatch, capsys):
        """A fault of the exact kernel, here a ZeroDivisionError from the
        exact list division, fails the suites that reach it, and ``verify
        --suite all`` still prints one status line per suite."""

        def boom(a, b):
            raise ZeroDivisionError("integer division or modulo by zero")

        monkeypatch.setattr(exact, "_exquo", boom)
        exact.clear_caches()
        try:
            assert suites.run_suite("charts")["ok"] is False
            assert main(["verify", "--suite", "all"]) == 1
        finally:
            exact.clear_caches()
        lines = capsys.readouterr().out.splitlines()
        status = [line for line in lines if not line.startswith("  ")]
        assert [line.split(":")[0] for line in status] == list(suites.SUITES)
        assert "  ZeroDivisionError: integer division or modulo by zero" in lines

    def test_unknown_suite_lists_the_suites(self, capsys):
        assert main(["verify", "--suite", "nope"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        names = ", ".join(sorted(suites.SUITES))
        assert captured.err == f"input error: unknown suite 'nope'; the suites are {names} and all\n"

    def test_reducible_binary_exits_2(self, capsys):
        # the discriminant of x^2 - y^2 is (2y)^2, so the certificate does
        # not apply; factor_b splits it into (x - y)(x + y), so it is refused
        args = ["pair", "--a", "(x^2 - y^2)", "--b", "(y - 5)"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reducible" in captured.err
        with pytest.raises(SystemExit) as exc:
            main(args + ["--assume-irreducible"])
        assert exc.value.code == 2

    def test_uncertified_irreducible_binary_is_decided(self, capsys):
        # the product vanishes at every y = c with |c| <= 10, so each
        # specialization is (x - c)^3 and the certificate's points stall;
        # Wang's algorithm in factor_b finds one factor
        f = "(x - y)^3 + y*" + "*".join(f"(y^2 - {k * k})" for k in range(1, 11))
        assert main(["pair", "--a", f, "--b", "(y - 5)"]) == 0
        assert capsys.readouterr().out.strip() == "3*(y - 5)"


def _run(call, argv):
    """(exit code, stdout, stderr) of call(argv), whether it returns its
    code or argparse exits with it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = call(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestArgvRoutes:
    """``main`` reads argv exactly as the top parser does: what argparse
    answers itself it prints as the top parser prints it, and a command
    it accepts runs on the same arguments."""

    @pytest.mark.parametrize(
        "argv, code, printed",
        [
            ([], 2, "doublefield: error: the following arguments are required: command"),
            (["-h"], 0, "positional arguments:"),
            (["divisor", "-h"], 0, "usage: doublefield divisor [-h] [--json] [--out FILE] EXPR[/EXPR]"),
            (["divisor"], 2, "doublefield divisor: error: the following arguments are required: EXPR[/EXPR]"),
            (["bogus"], 2, "doublefield: error: argument command: invalid choice: 'bogus'"),
            (["div", "x"], 2, "doublefield: error: argument command: invalid choice: 'div'"),
            (["divisor", "x", "extra"], 2, "doublefield: error: unrecognized arguments: extra"),
            (["divisor", "x", "--bogus"], 2, "doublefield: error: unrecognized arguments: --bogus"),
            (["--json", "divisor", "x"], 2, "doublefield: error: unrecognized arguments: --json"),
            (["--", "divisor", "x"], 2, "doublefield: error: argument command: invalid choice: '--'"),
            (["pair", "--a", "x", "--b"], 2, "doublefield pair: error: argument --b: expected one argument"),
            (["pair", "--a", "x", "--b", "y", "--side", "L"], 2, "doublefield pair: error: argument --side: invalid choice: 'L'"),
            (["arakelov-deg", "--d", "-1*inf_x"], 2, "doublefield arakelov-deg: error: argument --d: expected one argument"),
        ],
    )
    def test_argparse_answers_as_the_top_parser(self, argv, code, printed):
        got = _run(main, argv)
        assert got == _run(cli._build_parser()[0].parse_args, argv)
        assert got[0] == code
        assert printed in got[1] + got[2]

    @pytest.mark.parametrize(
        "argv, out",
        [
            (["divisor", "--", "-x"], "(x) - inf_x\n"),
            # --js abbreviates --json
            (["divisor", "x", "--js"], '{"schema_version": "5", "command": "divisor", "inputs": {"expr": "x"}, "result": {"divisor": "(x) - inf_x", "terms": [{"place": "(x)", "coeff": 1}, {"place": "inf_x", "coeff": -1}]}}'),
            # the last --a counts
            (["pair", "--a", "x", "--a", "y - 1", "--b", "x - y"], "(y - 1)\n"),
            (["arakelov-deg", "--d=-1*inf_y"], "2\n"),
        ],
    )
    def test_commands_run_on_the_top_parsers_arguments(self, argv, out):
        code, stdout, stderr = _run(main, argv)
        if "--js" in argv:
            report = json.loads(stdout)
            report.pop("wall_time")
            stdout = json.dumps(report)
        assert (code, stdout, stderr) == (0, out, "")


class TestReports:
    def _schema(self):
        text = resources.files("doublefield").joinpath("report_schema.json").read_text()
        return json.loads(text)

    def test_json_report_validates(self, capsys):
        import jsonschema

        schema = self._schema()
        cmds = [
            ["pair", "--a", "x - y^2", "--b", "x - y", "--json"],
            ["pair", "--a", "x - y^2 - 1", "--b", "x + y", "--json"],
            ["divisor", "(x - y)", "--json"],
            ["rsp", "--a", "(x - y^2)", "--b", "2*(x - y); -1*inf_x", "--json"],
            ["arakelov-deg", "--d", "2*(y - 3); 1*inf_y", "--json"],
            ["explore", "--trials", "2", "--seed", "3", "--json"],
            ["verify", "--suite", "different", "--json"],
        ]
        for argv in cmds:
            assert main(argv) == 0
            report = json.loads(capsys.readouterr().out)
            jsonschema.validate(report, schema)

    def test_explore_byte_identical(self, capsys):
        assert main(["explore", "--trials", "3", "--seed", "7", "--json"]) == 0
        first = capsys.readouterr().out
        assert main(["explore", "--trials", "3", "--seed", "7", "--json"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_explore_warm_rerun_equals_cold(self, capsys):
        # the autouse fixture empties the memos, so the first run is cold
        argv = ["explore", "--trials", "30", "--max-deg", "2", "--seed", "7", "--json"]
        assert main(argv) == 0
        cold = capsys.readouterr().out
        assert main(argv) == 0  # served from the memos the first run filled
        warm = capsys.readouterr().out
        assert warm == cold

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code = main(["divisor", "(x - y)", "--json", "--out", str(target)])
        assert code == 0
        assert capsys.readouterr().out == ""
        report = json.loads(target.read_text())
        assert report["command"] == "divisor"

    def test_out_file_in_missing_directory_exits_2(self, tmp_path, capsys):
        target = tmp_path / "missing" / "report.json"
        assert main(["divisor", "(x - y)", "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: cannot write {target}: ")
        assert "Traceback" not in err

    def test_arakelov_deg_value(self, capsys):
        assert main(["arakelov-deg", "--d", "1*(y - 3)", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["result"]["degree"] == -2.0
        assert report["schema_version"] == "5"
        assert "precision" not in report and "shift_bound" not in report
        assert "assume_irreducible" not in report


# The eight CLI examples of README.md with the stdout they printed before
# the parser kept factors apart; the explore report (wall_time dropped)
# is pinned by the SHA-256 of its key-sorted JSON, taken since the residue
# scalar product is exact (every value and residual 0.0) and the report
# lost its assume_irreducible key (schema "5").
README_EXAMPLES = [
    (["divisor", "(x^2-y^2)/(x*y)"], "-(x) - inf_x - (y) - inf_y + (x - y) + (x + y)\n"),
    (["pair", "--a", "x - y^2", "--b", "x - y", "--side", "Kprime"], "(y - 1) + (y) + inf_y\n"),
    (["residue", "--A", "1*(x - y^2)", "--n", "x - y"], "(y - 1) + (y) + inf_y\n"),
    (["correspond", "--A", "(x^2 - y)", "--p", "y - 4"], "(x - 2) + (x + 2)\n"),
    (["selfpair", "--m", "x - y"], "2*inf_y\n"),
    (["arakelov-deg", "--d", "2*(y - 3); 1*inf_y"], "-6\n"),
    (["rsp", "--a", "(x - y^2)", "--b", "2*(x - y); -1*inf_x"], "0\n"),
    (
        ["explore", "--trials", "100", "--max-deg", "2", "--seed", "7", "--json"],
        "b6c069c67a036220ea46cd87ba63d064e62858975c708c75bc3dbd2211acd097",
    ),
]


def _report_digest(out: str) -> str:
    """SHA-256 of a JSON report without its wall_time, keys sorted."""
    report = json.loads(out)
    report.pop("wall_time")
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def _readme_cli_examples() -> list[list[str]]:
    """argv of each command in the README's CLI example block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        assert words[0] == "doublefield", line
        commands.append(words[1:])
    return commands


def _sympy_mpmath_after(argv: list[str]) -> set[str]:
    """Which of sympy and mpmath a fresh interpreter holds after it runs
    ``doublefield argv`` through ``cli.main``, which must return 0."""
    code = (
        "import sys\n"
        "from doublefield import cli\n"
        "assert cli.main(sys.argv[1:]) == 0\n"
        "print(sorted({'sympy', 'mpmath'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, check=True).stdout
    return set(ast.literal_eval(out.splitlines()[-1]))


class TestReadmeExamples:
    def test_readme_lists_the_pinned_commands(self):
        assert _readme_cli_examples() == [argv for argv, _ in README_EXAMPLES]

    def test_parser_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_examples_print_pinned_text(self, capsys):
        # twice in one process: the second round reuses the cached argument
        # parser and the memos the first round filled
        for _ in range(2):
            for argv, expected in README_EXAMPLES:
                assert main(argv) == 0
                out = capsys.readouterr().out
                if "--json" in argv:
                    out = _report_digest(out)
                assert out == expected, argv

    @pytest.mark.parametrize("argv", [argv for argv, _ in README_EXAMPLES], ids=lambda argv: argv[0])
    def test_example_without_a_fallback_loads_neither_sympy_nor_mpmath(self, argv):
        # the divisor example's x^2 - y^2 splits by its discriminant
        assert _sympy_mpmath_after(argv) == set()

    def test_pair_past_x_degree_3_loads_neither_sympy_nor_mpmath(self):
        # x-degrees (4, 2): the fiber resultant is the PRS over Z[y]
        assert _sympy_mpmath_after(["pair", "--a", "x^4 - y", "--b", "x^2 + y^2 - 3"]) == set()

    def test_verify_loads_sympy_and_mpmath(self):
        assert _sympy_mpmath_after(["verify", "--suite", "all"]) == {"sympy", "mpmath"}


# Reports of commands whose inputs have non-integral rational
# coefficients, pinned as printed while every coefficient was a Fraction:
# each is the compact JSON of the report without its wall_time, which
# keeps key order and tells 2 from 2.0.  A float coefficient or unit
# would show here first, in a rendered place or in a moving element.
RATIONAL_REPORTS = [
    (
        ['divisor', '(1/2*x^2 - 3/4*y)^2*(2/3*x*y + 5/7)/(3/2*y - 1/3)', '--json'],
        '{"schema_version":"5","command":"divisor","inputs":{"expr":"(1/2*x^2 - 3/4*y)^2*(2/3*x*y + 5/7)/(3/2*y - 1/3)"},"result":{"divisor":"-5*inf_x - (9*y - 2) - 2*inf_y + (14*x*y + 15) + 2*(2*x^2 - 3*y)","terms":[{"place":"inf_x","coeff":-5},{"place":"(9*y - 2)","coeff":-1},{"place":"inf_y","coeff":-2},{"place":"(14*x*y + 15)","coeff":1},{"place":"(2*x^2 - 3*y)","coeff":2}]}}',
    ),
    (
        ['divisor', '(1/2*x - 1/3*y)^3/(5/6*x^2*y - 1/4)', '--json'],
        '{"schema_version":"5","command":"divisor","inputs":{"expr":"(1/2*x - 1/3*y)^3/(5/6*x^2*y - 1/4)"},"result":{"divisor":"-inf_x - 2*inf_y - (10*x^2*y - 3) + 3*(3*x - 2*y)","terms":[{"place":"inf_x","coeff":-1},{"place":"inf_y","coeff":-2},{"place":"(10*x^2*y - 3)","coeff":-1},{"place":"(3*x - 2*y)","coeff":3}]}}',
    ),
    (
        ['pair', '--a', '1*(x - 1/2*y^2); -1*(2/3*y + 1/5)', '--b', '2*(2/3*x - y); 1*(3/7*x - 1/2)', '--json'],
        '{"schema_version":"5","command":"pair","inputs":{"a":"1*(x - 1/2*y^2); -1*(2/3*y + 1/5)","b":"2*(2/3*x - y); 1*(3/7*x - 1/2)","side":"Kprime"},"result":{"divisor":"(3*y^2 - 7) + 2*(y - 3) + 2*(y) - 3*(10*y + 3) + 2*inf_y","terms":[{"place":"(3*y^2 - 7)","coeff":1},{"place":"(y - 3)","coeff":2},{"place":"(y)","coeff":2},{"place":"(10*y + 3)","coeff":-3},{"place":"inf_y","coeff":2}],"side":"Kprime"}}',
    ),
    (
        ['pair', '--a', '(1/2*x^2 - 3/5*y)', '--b', '(3/4*x*y - 2/3)', '--side', 'K', '--json'],
        '{"schema_version":"5","command":"pair","inputs":{"a":"(1/2*x^2 - 3/5*y)","b":"(3/4*x*y - 2/3)","side":"K"},"result":{"divisor":"(15*x^3 - 16)","terms":[{"place":"(15*x^3 - 16)","coeff":1}],"side":"K"}}',
    ),
    (
        ['selfpair', '--m', '3*x*y + 2*x - 1/5', '--json'],
        '{"schema_version":"5","command":"selfpair","inputs":{"m":"3*x*y + 2*x - 1/5","side":"Kprime"},"result":{"value":"2*(3*y + 2)","moved":"inf_x + (3*y + 2)","moving_element":"(15*x*y + 10*x - 1)/(y + 2/3)","side":"Kprime"}}',
    ),
    (
        ['selfpair', '--m', '2/3*x*y^2 - 5/7*x - 1/3', '--side', 'K', '--json'],
        '{"schema_version":"5","command":"selfpair","inputs":{"m":"2/3*x*y^2 - 5/7*x - 1/3","side":"K"},"result":{"value":"4*inf_x","moved":"inf_x + (14*y^2 - 15)","moving_element":"(14*x*y^2 - 15*x - 7)/(y^2 - 15/14)","side":"K"}}',
    ),
    (
        ['arakelov-deg', '--d', '2*(1/2*y - 3/4); -1*(2/3*y^2 + 1/5); 1*inf_y', '--json'],
        '{"schema_version":"5","command":"arakelov-deg","inputs":{"d":"2*(1/2*y - 3/4); -1*(2/3*y^2 + 1/5); 1*inf_y"},"result":{"degree":-2.0}}',
    ),
]


class TestRationalCoefficientReports:
    def test_reports_print_pinned_text(self, capsys):
        for argv, expected in RATIONAL_REPORTS:
            assert main(argv) == 0
            out = capsys.readouterr().out
            report = json.loads(out)
            wall_time = report.pop("wall_time")
            assert json.dumps(report, separators=(",", ":")) == expected, argv
            # the pin covers all of stdout: it is this report, indented
            assert out == json.dumps(dict(report, wall_time=wall_time), indent=2) + "\n"


# texts over the grammar's alphabet, the divisor-spec syntax and a few
# characters outside both
_FUZZ_TEXT = st.text(alphabet="xy0123456789+-*^()/ ;_inf\t=a.", max_size=14)


class TestParserFuzz:
    @settings(max_examples=150, deadline=None)
    @given(_FUZZ_TEXT)
    def test_only_input_errors_with_offsets_in_range(self, text):
        parsers = (parse_element, parse_prime, parse_divisor_spec)
        for parse in parsers:
            try:
                parse(text)
            except ParseError as exc:
                assert 0 <= exc.offset <= len(text)
            except InputError:
                pass
