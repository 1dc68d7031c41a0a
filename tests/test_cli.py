"""Tests for the command-line interface: grammar, exit codes, reports."""

import json
import time
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

import doublefield.cli as cli
from doublefield.cli import (
    main,
    parse_divisor_spec,
    parse_element,
    parse_expression,
    parse_prime,
)
from doublefield.divisors import BinaryPlace, DeltaElement, Divisor, UnaryPlace
from doublefield.errors import InputError, ParseError, PrecisionFailure
from doublefield.exact import BPoly, UPoly


class TestExpressionGrammar:
    def test_examples(self):
        assert parse_expression("x^2 - y") == BPoly.gen("x") ** 2 - BPoly.gen("y")
        assert parse_expression("(x-y)*(x+y)") == BPoly.gen("x") ** 2 - BPoly.gen("y") ** 2

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("x y")
        assert exc.value.offset == 2
        assert exc.value.expected

    def test_rationals(self):
        from fractions import Fraction

        assert parse_expression("1/2*x") == BPoly.const(Fraction(1, 2)) * BPoly.gen("x")

    def test_negation_and_precedence(self):
        # unary minus covers the following factor, exponent included
        assert parse_expression("-x^2") == -(BPoly.gen("x") ** 2)
        assert parse_expression("(-x)^2") == BPoly.gen("x") ** 2
        assert parse_expression("2*x^3 - -y") == 2 * BPoly.gen("x") ** 3 + BPoly.gen("y")

    def test_parse_error_offsets(self):
        for text, offset in [("x +", 3), ("(x", 2), ("x ^ y", 4), ("x @ y", 2)]:
            with pytest.raises(ParseError) as exc:
                parse_expression(text)
            assert exc.value.offset == offset

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
        assert parse_expression(str(p)) == p


class TestSpecParsing:
    def test_element_fraction(self):
        e = parse_element("(x^2-y^2)/(x*y)")
        assert e.deg_x_num_den() == (2, 1)

    def test_element_slash_after_digit(self):
        from fractions import Fraction

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

    def test_shared_support_is_input_error(self, capsys):
        assert main(["pair", "--a", "(x - y)", "--b", "(x - y)"]) == 2

    def test_nongeneric(self, capsys):
        assert main(["correspond", "--A", "(x*y - 1)", "--p", "y"]) == 3

    def test_precision_failure_maps_to_4(self, monkeypatch, capsys):
        def boom(args):
            raise PrecisionFailure("could not certify roots")

        monkeypatch.setitem(cli._COMMANDS, "rsp", boom)
        assert main(["rsp", "--a", "(x - y)", "--b", "(x + y)"]) == 4

    def test_uncertified_binary_needs_flag(self, capsys):
        # x^2 - y^2 sits in the certification gap: every admissible
        # specialization is reducible, so it is refused without the flag
        args = ["pair", "--a", "(x^2 - y^2)", "--b", "(y - 5)"]
        assert main(args) == 2
        assert "input error" in capsys.readouterr().err
        assert main(args + ["--assume-irreducible"]) == 0


class TestReports:
    def _schema(self):
        text = resources.files("doublefield").joinpath("report_schema.json").read_text()
        return json.loads(text)

    def test_json_report_validates(self, capsys):
        import jsonschema

        schema = self._schema()
        cmds = [
            ["pair", "--a", "x - y^2", "--b", "x - y", "--json"],
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

    def test_arakelov_deg_value(self, capsys):
        assert main(["arakelov-deg", "--d", "1*(y - 3)", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert abs(report["result"]["degree"] + 2) < 1e-6
