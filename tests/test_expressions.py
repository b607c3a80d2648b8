"""Parser, evaluator, and printer for the arithmetic expression grammar."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermi_spectra import ParseError, as_function, evaluate, parse_expression, pretty
from fermi_spectra.expressions import overflows


def ev(text, **env):
    variables = tuple(env) if env else ("s",)
    return evaluate(parse_expression(text, variables=variables), env or {"s": 0.0})


class TestPrecedence:
    def test_power_is_right_associative(self):
        assert ev("2^3^2") == 512.0

    def test_power_binds_above_unary_minus(self):
        assert ev("-2^2") == -4.0

    def test_unary_minus_below_multiplication(self):
        assert ev("-2*3") == -6.0
        assert ev("2*-3") == -6.0

    def test_mul_over_add(self):
        assert ev("1+2*3") == 7.0
        assert ev("(1+2)*3") == 9.0

    def test_division_left_associative(self):
        assert ev("8/4/2") == 1.0
        assert ev("8-4-2") == 2.0

    def test_power_of_negated_base_needs_parens(self):
        assert ev("(-2)^2") == 4.0


class TestEvaluation:
    def test_width_expression(self):
        node = parse_expression("0.3*cos(2*pi*s/3.1)", variables=("s",))
        got = evaluate(node, {"s": 0.7})
        assert got == pytest.approx(0.3 * math.cos(2.0 * math.pi * 0.7 / 3.1))

    def test_constants(self):
        assert ev("pi") == pytest.approx(math.pi)
        assert ev("e") == pytest.approx(math.e)

    def test_functions(self):
        assert ev("sqrt(9)") == 3.0
        assert ev("abs(-3)") == 3.0
        assert ev("log(e)") == pytest.approx(1.0)
        assert ev("tan(0)") == 0.0

    def test_array_broadcast(self):
        node = parse_expression("sin(s)^2 + cos(s)^2", variables=("s",))
        s = np.linspace(0.0, 5.0, 11)
        np.testing.assert_allclose(evaluate(node, {"s": s}), 1.0, atol=1e-15)

    def test_two_variable_environment(self):
        node = parse_expression("s/L", variables=("s", "L"))
        assert evaluate(node, {"s": 1.0, "L": 4.0}) == 0.25

    def test_division_by_zero_follows_numpy(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            assert ev("1/0") == math.inf
            assert ev("-1/s", s=0.0) == -math.inf
            assert math.isnan(ev("0/0"))

    def test_as_function(self):
        f = as_function(parse_expression("2*s", variables=("s",)), "s")
        assert f(3.0) == 6.0
        np.testing.assert_allclose(f(np.array([1.0, 2.0])), [2.0, 4.0])

    @pytest.mark.parametrize("text", ["-0.5479", "2*L", "sin(pi/2)"])
    def test_constant_as_function_takes_argument_shape(self, text):
        f = as_function(parse_expression(text, variables=("s", "L")), "s", L=3.0)
        for values in (np.linspace(0.0, 3.0, 7), np.zeros((2, 3)), 1.5):
            out = f(values)
            assert out.shape == np.shape(values)
            assert np.all(out == evaluate(parse_expression(text, ("s", "L")), {"L": 3.0}))


class TestOverflowingLiterals:
    # A literal beyond double range reads as inf; pretty cannot print it back,
    # so the command line rejects a config whose expressions hold one.
    @pytest.mark.parametrize("text", ["1e999", "1/1e999", "0.4 + 0*exp(-1e999)", "2^(s - 1e400)"])
    def test_found_anywhere_in_the_tree(self, text):
        assert overflows(parse_expression(text, variables=("s",)))

    @pytest.mark.parametrize("text", ["1.7976931348623157e308", "1/0", "exp(1000)", "s"])
    def test_finite_literals_pass(self, text):
        # 1/0 and exp(1000) are infinite values, not literals: the profile
        # checks judge those.
        assert not overflows(parse_expression(text, variables=("s",)))


class TestErrors:
    def test_truncated_call_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("sin(", variables=("s",))
        assert exc.value.offset == 4

    def test_unknown_identifier_rejected_with_offset(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("2*bogus", variables=("s",))
        assert exc.value.offset == 2

    def test_unknown_variable_rejected(self):
        with pytest.raises(ParseError):
            parse_expression("t + 1", variables=("s",))

    def test_no_implicit_multiplication(self):
        with pytest.raises(ParseError):
            parse_expression("2 s", variables=("s",))

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_expression("", variables=("s",))

    def test_dangling_operator(self):
        with pytest.raises(ParseError):
            parse_expression("1 +", variables=("s",))

    def test_unbalanced_close(self):
        with pytest.raises(ParseError):
            parse_expression("(1+2))", variables=("s",))

    def test_bad_character(self):
        with pytest.raises(ParseError) as exc:
            parse_expression("1 @ 2", variables=("s",))
        assert exc.value.offset == 2

    def test_function_arity(self):
        with pytest.raises(ParseError):
            parse_expression("sin(1, 2)", variables=("s",))


leaf = st.one_of(
    st.floats(min_value=0.1, max_value=9.0).map(lambda v: f"{v:.3f}"),
    st.just("s"),
    st.just("pi"),
)


@st.composite
def expression_text(draw, depth=3):
    if depth == 0:
        return draw(leaf)
    kind = draw(st.integers(min_value=0, max_value=5))
    if kind == 0:
        return draw(leaf)
    if kind == 1:
        return f"-({draw(expression_text(depth=depth - 1))})"
    if kind == 2:
        fn = draw(st.sampled_from(["sin", "cos", "exp", "abs"]))
        return f"{fn}({draw(expression_text(depth=depth - 1))})"
    op = draw(st.sampled_from(["+", "-", "*", "/"]))
    a = draw(expression_text(depth=depth - 1))
    b = draw(expression_text(depth=depth - 1))
    return f"({a}) {op} ({b})"


@given(expression_text())
@settings(max_examples=200, deadline=None)
def test_pretty_round_trip_is_fixed_point(text):
    node = parse_expression(text, variables=("s",))
    printed = pretty(node)
    reparsed = parse_expression(printed, variables=("s",))
    assert pretty(reparsed) == printed
    for s in (0.3, 1.7):
        # Division by zero and overflow give inf or nan, which are skipped.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            a = evaluate(node, {"s": s})
            b = evaluate(reparsed, {"s": s})
        if math.isfinite(a) and math.isfinite(b):
            assert a == pytest.approx(b, rel=1e-12, abs=1e-12)
