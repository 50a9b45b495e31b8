import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseflow.polynomial import (
    ParseError,
    Polynomial,
    PolynomialSystem,
    gradient,
    jacobian,
    parse_polynomial,
)


def terms_of(p):
    return {(t.coefficient, t.exponents) for t in p.terms}


class TestParse:
    def test_difference_of_squares(self):
        p = parse_polynomial("x^2 - y^2", ["x", "y"])
        assert terms_of(p) == {(1.0, (2, 0)), (-1.0, (0, 2))}

    def test_zero_has_no_terms(self):
        p = parse_polynomial("0", ["x"])
        assert p.terms == ()

    def test_like_terms_collected(self):
        p = parse_polynomial("x*y + y*x", ["x", "y"])
        assert terms_of(p) == {(2.0, (1, 1))}

    def test_algebraically_equal_inputs_same_canonical_form(self):
        a = parse_polynomial("x^2 - y^2", ["x", "y"])
        b = parse_polynomial("(x - y)*(x + y)", ["x", "y"])
        assert a.terms == b.terms

    def test_power_binds_tighter_than_leading_minus(self):
        # grammar: factor := '-' factor | base ('^' uint)?, so -x^2 reads
        # as -(x^2), as in maths and in Python's -x**2
        assert terms_of(parse_polynomial("-x^2", ["x"])) == {(-1.0, (2,))}
        assert terms_of(parse_polynomial("(-x)^2", ["x"])) == {(1.0, (2,))}

    def test_negated_squares_are_a_maximum(self):
        p = parse_polynomial("-x^2 - y^2", ["x", "y"])
        assert p.evaluate(np.array([1.0, 1.0])) == -2.0
        assert str(p) == "-x^2 - y^2"

    def test_unknown_identifier_reported_with_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x + z", ["x", "y"])
        assert "z" in str(err.value)
        assert err.value.position == 4

    def test_syntax_error_has_position(self):
        with pytest.raises(ParseError) as err:
            parse_polynomial("x ++ y", ["x", "y"])
        assert err.value.position == 3

    def test_unclosed_paren(self):
        with pytest.raises(ParseError):
            parse_polynomial("(x", ["x"])

    def test_negative_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^-2", ["x"])

    def test_fractional_exponent_rejected(self):
        with pytest.raises(ParseError):
            parse_polynomial("x^1.5", ["x"])


class TestEvaluate:
    def test_hand_arithmetic(self):
        p = parse_polynomial("x^2 - y^2", ["x", "y"])
        assert p.evaluate([1.0, 2.0]) == -3.0

    def test_origin_gives_constant_term(self):
        p = parse_polynomial("x^2 - y^2 + 7", ["x", "y"])
        assert p.evaluate([0.0, 0.0]) == 7.0

    def test_quartic_at_half(self):
        p = parse_polynomial("x^4", ["x"])
        assert p.evaluate([0.5]) == 0.0625

    def test_dimension_mismatch(self):
        p = parse_polynomial("x^2", ["x", "y"])
        with pytest.raises(ValueError):
            p.evaluate([1.0])


class TestCalculus:
    def test_gradient_of_saddle(self):
        p = parse_polynomial("x^2 - y^2", ["x", "y"])
        g = gradient(p)
        assert terms_of(g.components[0]) == {(2.0, (1, 0))}
        assert terms_of(g.components[1]) == {(-2.0, (0, 1))}

    def test_gradient_of_constant_is_zero_system(self):
        g = gradient(parse_polynomial("3", ["x", "y"]))
        assert all(c.terms == () for c in g.components)

    def test_gradient_of_quartic(self):
        g = gradient(parse_polynomial("x^4", ["x"]))
        assert terms_of(g.components[0]) == {(4.0, (3,))}

    def test_jacobian_of_product_constraint(self):
        s = PolynomialSystem(["x", "y"], (parse_polynomial("x*y", ["x", "y"]),))
        rows = jacobian(s)
        assert terms_of(rows[0].components[0]) == {(1.0, (0, 1))}  # y
        assert terms_of(rows[0].components[1]) == {(1.0, (1, 0))}  # x

    def test_jacobian_of_cone_constraint(self):
        s = PolynomialSystem(
            ["x", "y", "z"], (parse_polynomial("x^2 + y^2 - z^2", ["x", "y", "z"]),)
        )
        rows = jacobian(s)
        got = [terms_of(c) for c in rows[0].components]
        assert got == [{(2.0, (1, 0, 0))}, {(2.0, (0, 1, 0))}, {(-2.0, (0, 0, 1))}]

    def test_jacobian_of_empty_system(self):
        assert jacobian(PolynomialSystem(["x"], ())) == []


def random_polynomial(rng, n_vars):
    names = ["x", "y", "z", "w"][:n_vars]
    p = Polynomial.zero(names)
    for _ in range(rng.integers(1, 7)):
        term = Polynomial.constant(names, float(rng.uniform(-3, 3)))
        exps = rng.integers(0, 4, size=n_vars)
        while exps.sum() > 6:
            exps = rng.integers(0, 4, size=n_vars)
        for name, e in zip(names, exps):
            term = term * Polynomial.variable(names, name) ** int(e)
        p = p + term
    return p


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(2024)
    h = 1e-5
    checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 5))
        p = random_polynomial(rng, n)
        g = gradient(p)
        x = rng.uniform(-1.5, 1.5, size=n)
        exact = g.evaluate(x)
        for i in range(n):
            step = np.zeros(n)
            step[i] = h
            fd = (p.evaluate(x + step) - p.evaluate(x - step)) / (2 * h)
            scale = max(abs(exact[i]), abs(fd), 1.0)
            assert abs(exact[i] - fd) / scale < 1e-6
            checked += 1
    assert checked >= 100


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_parse_print_parse_is_identity(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(1, 4))
    p = random_polynomial(rng, n)
    q = parse_polynomial(str(p), p.variables)
    assert q.terms == p.terms


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_evaluation_is_additive(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    p = random_polynomial(rng, n)
    q = random_polynomial(rng, n)
    x = rng.uniform(-2, 2, size=n)
    lhs = (p + q).evaluate(x)
    rhs = p.evaluate(x) + q.evaluate(x)
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_evaluation_is_deterministic():
    p = parse_polynomial("0.3*x^3 - 1.7*x*y + y^2", ["x", "y"])
    pt = [0.123456789, -0.987654321]
    assert p.evaluate(pt) == p.evaluate(pt)


# -- compiled kernels -------------------------------------------------


def reference_value(p, x):
    """The defining sum, term by term, with Python floats."""
    terms = [t.coefficient * math.prod(xi ** e for xi, e in zip(x, t.exponents)) for t in p.terms]
    scale = sum(abs(t.coefficient) * math.prod(abs(xi) ** e for xi, e in zip(x, t.exponents))
                for t in p.terms)
    return sum(terms), scale


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_single_point_kernels_match_reference_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 5))
    p = random_polynomial(rng, n)
    q = random_polynomial(rng, n)
    x = rng.uniform(-2, 2, size=n).tolist()
    system = PolynomialSystem(p.variables, (p, q))
    got = [p.evaluate(x), *system.evaluate(x), *gradient(p).evaluate(x),
           *system.jacobian_at(x).ravel()]
    polys = [p, p, q] + [p.derivative(i) for i in range(n)] + [
        c.derivative(i) for c in (p, q) for i in range(n)]
    assert len(got) == len(polys)
    for value, poly in zip(got, polys):
        ref, scale = reference_value(poly, x)
        assert abs(value - ref) <= 1e-12 * max(scale, 1e-300)


def test_batch_rows_equal_single_point_results():
    rng = np.random.default_rng(7)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        p = random_polynomial(rng, n)
        system = PolynomialSystem(p.variables, (p, random_polynomial(rng, n), Polynomial.zero(p.variables)))
        X = rng.uniform(-2, 2, size=(9, n))
        values, jac, fvals = system.evaluate(X), system.jacobian_at(X), p.evaluate(X)
        assert values.shape == (9, 3) and jac.shape == (9, 3, n) and fvals.shape == (9,)
        for i, x in enumerate(X):
            assert np.array_equal(values[i], system.evaluate(x))
            assert np.array_equal(jac[i], system.jacobian_at(x))
            assert fvals[i] == p.evaluate(x)


def test_variable_names_that_clash_with_generated_names():
    # "x1" is the first coordinate and "x0" the second
    names = ["x1", "x0", "_array", "lambda"]
    p = parse_polynomial("2*x1 - 3*x0^2*_array + 0.5*lambda^3", names)
    x = [1.5, -2.0, 0.25, 2.0]
    assert p.evaluate(x) == 2.0 * 1.5 - 3.0 * 4.0 * 0.25 + 0.5 * 8.0
    assert gradient(p).evaluate(x).tolist() == [2.0, 3.0, -12.0, 6.0]


class TestKernelEdgeCases:
    def test_zero_polynomial(self):
        p = Polynomial.zero(["x", "y"])
        assert p.evaluate([1.0, 2.0]) == 0.0
        assert p.evaluate(np.ones((4, 2))).tolist() == [0.0] * 4
        assert gradient(p).evaluate([1.0, 2.0]).tolist() == [0.0, 0.0]

    def test_constant(self):
        p = Polynomial.constant(["x"], -2.5)
        assert p.evaluate([3.0]) == -2.5
        assert p.evaluate(np.zeros((3, 1))).tolist() == [-2.5] * 3

    def test_empty_system(self):
        s = PolynomialSystem(["x", "y"], ())
        assert s.evaluate([1.0, 2.0]).shape == (0,)
        assert s.jacobian_at([1.0, 2.0]).shape == (0, 2)
        assert s.evaluate(np.ones((5, 2))).shape == (5, 0)
        assert s.jacobian_at(np.ones((5, 2))).shape == (5, 0, 2)

    def test_system_with_one_zero_component(self):
        names = ["x", "y"]
        s = PolynomialSystem(names, (parse_polynomial("x*y", names), Polynomial.zero(names)))
        assert s.evaluate([2.0, 3.0]).tolist() == [6.0, 0.0]
        assert s.jacobian_at([2.0, 3.0]).tolist() == [[3.0, 2.0], [0.0, 0.0]]
        assert s.evaluate(np.array([[2.0, 3.0], [1.0, 1.0]])).tolist() == [[6.0, 0.0], [1.0, 0.0]]

    def test_overflow_gives_inf_not_an_exception(self):
        p = parse_polynomial("x^7", ["x"])
        assert p.evaluate([1e200]) == math.inf

    def test_gradient_is_built_once(self):
        p = parse_polynomial("x^3*y", ["x", "y"])
        assert gradient(p) is gradient(p)
