"""Builtin corpus, expression parsing, and gradient access."""

import numpy as np
import pytest
from hypothesis import given, settings

from gausym import (
    ExpressionError,
    InvalidParameterError,
    UnknownFieldError,
    builtin_field,
    corpus_names,
    describe_field,
    equal_measure_grid,
    gradient_at,
    gradient_norm,
    parse_field,
)
from gausym.expr import parse_expression, serialize
from gausym.fields import FD_STEP, finite_difference_gradient

from conftest import expressions, quasi_random_points


class TestBuiltins:
    def test_corpus_names(self):
        names = corpus_names()
        for expected in ("coordinate", "monotone1d", "gaussian_bump"):
            assert expected in names

    def test_coordinate_gradient_norm(self):
        f = builtin_field("coordinate", {"axis": 1}, dim=2)
        pts = quasi_random_points(50, 2)
        assert np.allclose(f(pts), pts[:, 0])
        assert np.allclose(gradient_norm(f, pts), 1.0)

    def test_coordinate_unit_vector(self):
        f = builtin_field("coordinate", dim=3)
        g = gradient_at(f, np.array([[0.3, -1.0, 2.0]]))
        assert np.allclose(g, [[1.0, 0.0, 0.0]])

    def test_gaussian_bump(self):
        f = builtin_field("gaussian_bump", {"c": 1.0}, dim=2)
        assert f.value([0.0, 0.0]) == 1.0
        assert np.allclose(gradient_at(f, np.zeros((1, 2))), 0.0)
        x = np.array([[0.5, -0.25]])
        assert f(x)[0] == pytest.approx(np.exp(-(0.5**2 + 0.25**2)))

    def test_monotone1d_decreasing_nonnegative(self):
        f = builtin_field("monotone1d", {"a": 1.5})
        x = np.linspace(-4, 4, 100).reshape(-1, 1)
        vals = f(x)
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_halfspace_range(self):
        f = builtin_field("halfspace_indicator_smooth", {"a": 0.5, "width": 0.1})
        x = np.linspace(-5, 5, 200).reshape(-1, 1)
        vals = f(x)
        assert np.all((vals >= 0) & (vals <= 1))  # tanh saturates far out
        assert np.all(np.diff(vals) <= 0)
        near = np.linspace(-0.5, 1.5, 100).reshape(-1, 1)
        assert np.all(np.diff(f(near)) < 0)
        assert f.value([-4.0]) > 0.99 and f.value([4.0]) < 0.01

    def test_unknown_family(self):
        with pytest.raises(UnknownFieldError):
            builtin_field("does_not_exist")

    def test_invalid_parameters(self):
        with pytest.raises(InvalidParameterError):
            builtin_field("gaussian_bump", {"c": -1.0})
        with pytest.raises(InvalidParameterError):
            builtin_field("coordinate", {"axis": 3}, dim=2)
        with pytest.raises(InvalidParameterError):
            builtin_field("monotone1d", {"bogus": 1.0})

    def test_describe(self):
        text = describe_field("coordinate")
        assert "identically 1" in text
        with pytest.raises(UnknownFieldError):
            describe_field("nope")

    @pytest.mark.parametrize("name", corpus_names())
    @pytest.mark.parametrize("dim", [1, 2])
    def test_analytic_gradient_matches_differences(self, name, dim):
        field = builtin_field(name, dim=dim)
        assert field.gradient_mode == "analytic"
        pts = quasi_random_points(100, dim)
        analytic = field.gradient(pts)
        fd = np.empty_like(pts)
        h0 = np.finfo(float).eps ** (1 / 3)
        for axis in range(dim):
            h = h0 * (1 + np.abs(pts[:, axis]))
            hi, lo = pts.copy(), pts.copy()
            hi[:, axis] += h
            lo[:, axis] -= h
            fd[:, axis] = (field(hi) - field(lo)) / (2 * h)
        err = np.abs(analytic - fd)
        assert np.all(err <= 1e-5 * (1.0 + np.abs(analytic)))


class TestParser:
    def test_eval_simple(self):
        f = parse_field("exp(-x1^2)", 1)
        assert f.value([0.0]) == 1.0
        assert f.value([1.0]) == pytest.approx(np.exp(-1.0))

    def test_eval_two_vars(self):
        f = parse_field("abs(x1)+0.5*x2^2", 2)
        assert f.value([1.0, 2.0]) == 3.0

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_field("x1*", 1)
        assert err.value.offset == 3
        assert "offset 3" in str(err.value)

    def test_unexpected_character(self):
        with pytest.raises(ExpressionError) as err:
            parse_field("x1 + $2", 1)
        assert err.value.offset == 5

    def test_variable_exceeds_dim(self):
        with pytest.raises(ExpressionError, match="exceeds dimension"):
            parse_field("x3+1", 2)

    def test_unknown_identifier(self):
        with pytest.raises(ExpressionError, match="unknown identifier"):
            parse_field("foo+1", 1)

    def test_function_arity(self):
        with pytest.raises(ExpressionError, match="argument"):
            parse_field("exp+1", 1)

    def test_precedence(self):
        cases = [
            ("2+3*4", 14.0),
            ("2*3^2", 18.0),
            ("2^3^2", 512.0),  # right-associative
            ("-x1^2", -4.0),   # unary minus binds looser than ^
            ("2-3-4", -5.0),
            ("16/4/2", 2.0),
            ("2^-1", 0.5),
            ("(2+3)*4", 20.0),
        ]
        for text, expected in cases:
            f = parse_field(text, 1)
            assert f.value([2.0]) == pytest.approx(expected), text

    def test_all_functions(self):
        f = parse_field("exp(x1)+abs(x1)+tanh(x1)+sin(x1)+cos(x1)+sqrt(abs(x1))", 1)
        x = 0.7
        expected = np.exp(x) + abs(x) + np.tanh(x) + np.sin(x) + np.cos(x) + np.sqrt(x)
        assert f.value([x]) == pytest.approx(expected)

    def test_smooth_flag(self):
        assert parse_field("x1^2", 1).smooth
        assert not parse_field("abs(x1)", 1).smooth
        assert not parse_field("exp(abs(x1))", 1).smooth

    def test_division_is_total(self):
        f = parse_field("1/x1", 1)
        assert np.isinf(f.value([0.0]))

    @pytest.mark.parametrize(
        "text",
        [
            "exp(-x1^2)",
            "abs(x1)+0.5*x2^2",
            "-x1^2+3*(x2-1)/(x1+4)",
            "tanh(x1*x2)-sin(cos(x1))",
            "2^-x1^2",
            "--x1+1.5e-3",
        ],
    )
    def test_serialize_round_trip(self, text):
        dim = 2
        ast = parse_expression(text, dim)
        again = parse_expression(serialize(ast), dim)
        pts = quasi_random_points(100, dim)
        f1 = parse_field(text, dim)
        f2 = parse_field(serialize(ast), dim)
        assert np.array_equal(f1(pts), f2(pts))
        assert serialize(again) == serialize(ast)

    @given(expressions())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_generated(self, text):
        ast = parse_expression(text, 2)
        pts = quasi_random_points(25, 2)
        f1 = parse_field(text, 2)
        f2 = parse_field(serialize(ast), 2)
        with np.errstate(all="ignore"):
            a, b = f1(pts), f2(pts)
        both = np.isfinite(a) & np.isfinite(b)
        assert np.array_equal(a[both], b[both])
        assert np.array_equal(np.isfinite(a), np.isfinite(b))


class TestGradientAt:
    def test_parsed_square(self):
        f = parse_field("x1^2", 1)
        assert f.gradient_mode == "finite-difference"
        g = gradient_at(f, np.array([[1.5]]))
        assert g[0, 0] == pytest.approx(3.0, abs=1e-6)

    def test_batch_shape(self):
        f = parse_field("x1*x2", 2)
        g = gradient_at(f, quasi_random_points(10, 2))
        assert g.shape == (10, 2)


def _two_copy_gradient(field, pts):
    """Reference central differences: fresh shifted copies per axis."""
    out = np.empty_like(pts)
    for axis in range(field.dim):
        h = FD_STEP * (1.0 + np.abs(pts[:, axis]))
        hi = pts.copy()
        lo = pts.copy()
        hi[:, axis] += h
        lo[:, axis] -= h
        out[:, axis] = (field.evaluator(hi) - field.evaluator(lo)) / (2.0 * h)
    return out


class TestFiniteDifferenceGradient:
    @pytest.mark.parametrize("text,dim", [
        ("x1", 1), ("x1", 2), ("-x2", 2), ("exp(-x1^2)", 1),
        ("cos(x1*x2) + sqrt(abs(x2))", 2), ("tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", 3),
    ])
    def test_one_buffer_matches_two_copies(self, text, dim):
        field = parse_field(text, dim)
        for pts in (equal_measure_grid(dim, 17).representatives, quasi_random_points(101, dim)):
            before = pts.copy()
            got = finite_difference_gradient(field, pts)
            ref = _two_copy_gradient(field, pts)
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
            assert np.array_equal(pts, before)  # the input is never shifted in place
