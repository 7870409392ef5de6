"""Builtin corpus, expression parsing, and the jets of fields."""

import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gausym import (
    ExpressionError,
    InvalidParameterError,
    ScalarField,
    UnknownFieldError,
    analyze,
    builtin_field,
    corpus_names,
    describe_field,
    equal_measure_grid,
    parse_field,
    run_checks,
)
from gausym.expr import (
    DERIVATIVES, FUNCTIONS, Bin, Call, Neg, Num, Var, parse_expression, serialize,
)
from gausym.fields import partials_norm
from gausym.verify import CHECKS

from conftest import (
    FD_STEP,
    assert_same_bits,
    central_differences,
    expressions,
    jet_at,
    quasi_random_points,
    representatives,
    symmetrized_field,
)


def value(field, point) -> float:
    """The field's value at one point."""
    return float(jet_at(field, point)[0][0])


class TestBuiltins:
    def test_corpus_names(self):
        names = corpus_names()
        for expected in ("coordinate", "monotone1d", "gaussian_bump"):
            assert expected in names

    def test_coordinate_gradient_norm(self):
        f = builtin_field("coordinate", {"axis": 1}, dim=2)
        pts = quasi_random_points(50, 2)
        values, grads = jet_at(f, pts)
        assert np.allclose(values, pts[:, 0])
        assert np.allclose(np.linalg.norm(grads, axis=1), 1.0)

    def test_coordinate_unit_vector(self):
        f = builtin_field("coordinate", dim=3)
        g = jet_at(f, np.array([[0.3, -1.0, 2.0]]))[1]
        assert np.allclose(g, [[1.0, 0.0, 0.0]])

    def test_gaussian_bump(self):
        f = builtin_field("gaussian_bump", {"c": 1.0}, dim=2)
        assert value(f, [0.0, 0.0]) == 1.0
        assert np.allclose(jet_at(f, np.zeros((1, 2)))[1], 0.0)
        assert value(f, [0.5, -0.25]) == pytest.approx(np.exp(-(0.5**2 + 0.25**2)))

    def test_monotone1d_decreasing_nonnegative(self):
        f = builtin_field("monotone1d", {"a": 1.5})
        x = np.linspace(-4, 4, 100).reshape(-1, 1)
        vals = jet_at(f, x)[0]
        assert np.all(vals > 0)
        assert np.all(np.diff(vals) < 0)

    def test_halfspace_range(self):
        f = builtin_field("halfspace_indicator_smooth", {"a": 0.5, "width": 0.1})
        x = np.linspace(-5, 5, 200).reshape(-1, 1)
        vals = jet_at(f, x)[0]
        assert np.all((vals >= 0) & (vals <= 1))  # tanh saturates far out
        assert np.all(np.diff(vals) <= 0)
        near = np.linspace(-0.5, 1.5, 100).reshape(-1, 1)
        assert np.all(np.diff(jet_at(f, near)[0]) < 0)
        assert value(f, [-4.0]) > 0.99 and value(f, [4.0]) < 0.01

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

    @pytest.mark.parametrize("axis", [1.5, 0.9, 2.0000000000000004])
    def test_non_integer_axis_refused(self, axis):
        # int() truncated it: 1.5 ran coordinate(axis=1), 0.9 read "axis 0"
        with pytest.raises(InvalidParameterError, match=rf"got {axis!r}$"):
            builtin_field("coordinate", {"axis": axis}, dim=2)

    def test_describe(self):
        text = describe_field("coordinate")
        assert "identically 1" in text
        with pytest.raises(UnknownFieldError):
            describe_field("nope")

    @pytest.mark.parametrize("name", corpus_names())
    @pytest.mark.parametrize("dim", [1, 2])
    def test_analytic_gradient_matches_differences(self, name, dim):
        field = builtin_field(name, dim=dim)
        pts = quasi_random_points(100, dim)
        analytic = jet_at(field, pts)[1]
        err = np.abs(analytic - central_differences(field, pts))
        assert np.all(err <= 1e-5 * (1.0 + np.abs(analytic)))


# Reference jets: each builtin in closed form, axis by axis, with its
# default parameters.  Each builtin is its expression template through
# the parser's jet, which these check.
def _axis_sum(terms):
    """The terms added in axis order, broadcasting."""
    return sum(terms[1:], terms[0])


def _coordinate_jet(xs):
    return xs[0], (1.0,) + (0.0,) * (len(xs) - 1)


def _halfspace_jet(xs, a=0.0, width=0.25):
    u = np.tanh((xs[0] - a) / width)
    return 0.5 * (1.0 - u), (-0.5 * (1.0 - u * u) / width,) + (0.0,) * (len(xs) - 1)


def _gaussian_bump_jet(xs, c=1.0):
    v = np.exp(-c * _axis_sum([x * x for x in xs]))
    return v, tuple(-2.0 * c * x * v for x in xs)


def _mixture_jet(xs, w1=1.0, w2=0.6, c1=1.0, c2=2.0, m=1.2):
    # offsets from the two centers: they differ on the first axis only
    d1 = (xs[0] - m, *xs[1:])
    d2 = (xs[0] + m, *xs[1:])
    g1 = np.exp(-c1 * _axis_sum([d * d for d in d1]))
    g2 = np.exp(-c2 * _axis_sum([d * d for d in d2]))
    grad = tuple(-2.0 * c1 * w1 * a * g1 - 2.0 * c2 * w2 * b * g2 for a, b in zip(d1, d2))
    return w1 * g1 + w2 * g2, grad


def _poly_tanh_jet(xs, a=1.0, b=0.3):
    w = 0.5 ** np.arange(len(xs))
    u = _axis_sum([xs[0]] + [wk * x for wk, x in zip(w[1:], xs[1:])])
    t = np.tanh(a * u + b * (u * u * u))
    g = (1.0 - t * t) * (a + 3.0 * b * u * u)
    return t, (g, *(g * wk for wk in w[1:]))


def _monotone1d_jet(xs, a=1.0):
    v = np.exp(-a * xs[0])
    return v, (-a * v,) + (0.0,) * (len(xs) - 1)


# builtin -> (reference jet, largest relative move of (|grad f|)* from it:
# 0 where the template's order of operations is the reference's)
REFERENCE_JETS = {
    "coordinate": (_coordinate_jet, 0.0),
    "halfspace_indicator_smooth": (_halfspace_jet, 0.0),
    "gaussian_bump": (_gaussian_bump_jet, 0.0),
    "mixture": (_mixture_jet, 4e-13),  # 2.1e-13 measured
    "poly_tanh": (_poly_tanh_jet, 1e-15),  # 6.3e-16 measured
    "monotone1d": (_monotone1d_jet, 0.0),
}


class TestReferenceJets:
    """Each builtin against its closed-form reference, with all seven
    checks: f* bit for bit, (|grad f|)* bit for bit or within the bound
    of a different order of operations, m_d and every verdict equal."""

    @pytest.mark.parametrize("name", corpus_names())
    @pytest.mark.parametrize("dim,N", [(1, 4096), (2, 256), (3, 40)])
    def test_builtin_matches_reference(self, name, dim, N):
        assert sorted(REFERENCE_JETS) == corpus_names()
        jet, bound = REFERENCE_JETS[name]
        grid = equal_measure_grid(dim, N)
        field = builtin_field(name, dim=dim)
        got, want = (analyze(f, grid, 1024) for f in (field, ScalarField(dim, field.label, jet)))
        assert_same_bits(got.p.values, want.p.values)
        a, b = got.grad_prof.values, want.grad_prof.values
        if bound == 0.0:
            assert_same_bits(a, b)
        else:
            np.testing.assert_allclose(a, b, rtol=bound, atol=0.0)
        assert got.m_d == want.m_d
        verdicts = [[r.passed for r in run_checks(x, list(CHECKS), intervals=[(0.1, 0.2)])]
                    for x in (got, want)]
        assert verdicts[0] == verdicts[1] and len(verdicts[0]) == 22


class TestParser:
    def test_eval_simple(self):
        f = parse_field("exp(-x1^2)", 1)
        assert value(f, [0.0]) == 1.0
        assert value(f, [1.0]) == pytest.approx(np.exp(-1.0))

    def test_eval_two_vars(self):
        f = parse_field("abs(x1)+0.5*x2^2", 2)
        assert value(f, [1.0, 2.0]) == 3.0

    def test_syntax_error_offset(self):
        with pytest.raises(ExpressionError) as err:
            parse_field("x1*", 1)
        assert err.value.offset == 3
        assert "offset 3" in str(err.value)

    def test_unclosed_parenthesis(self):
        with pytest.raises(ExpressionError, match=r"expected '\)' at offset 3") as err:
            parse_field("(x1", 1)
        assert err.value.offset == 3

    def test_sums_and_products_associate_left(self):
        x1, x2, x3 = Var(1), Var(2), Var(3)
        assert parse_expression("x1-x2+x3", 3) == Bin("+", Bin("-", x1, x2), x3)
        assert parse_expression("x1/x2*x3", 3) == Bin("*", Bin("/", x1, x2), x3)
        assert parse_expression("x1-x2*x3/x1+x2", 3) == Bin(
            "+", Bin("-", x1, Bin("/", Bin("*", x2, x3), x1)), x2)

    def test_nodes_are_immutable_values(self):
        """Nodes compare and hash by type and fields, refuse assignment
        and deletion, and survive a pickle round trip."""
        node = parse_expression("exp(-x1)*2", 1)
        same = Bin("*", Call("exp", Neg(Var(1))), Num(2.0))
        assert node == same and hash(node) == hash(same)
        assert repr(same) == ("Bin(op='*', left=Call(name='exp', arg=Neg(arg=Var(index=1))), "
                              "right=Num(value=2.0))")
        assert pickle.loads(pickle.dumps(node)) == node
        for target in (node, node.left, node.left.arg.arg, node.right):
            name = target.__slots__[0]
            with pytest.raises(AttributeError):
                setattr(target, name, None)
            with pytest.raises(AttributeError):
                delattr(target, name)
            with pytest.raises(AttributeError):
                target.extra = 1
        with pytest.raises(TypeError):
            Bin("+", Var(1))

    def test_nodes_equal_only_within_their_own_type(self):
        # each pair has equal fields; the dataclasses' == told them apart by type too
        for a, b in ((Num(1.0), Var(1)), (Neg(Var(1)), Num(Var(1))),
                     (Var(2), (2,)), (Num(0.5), 0.5)):
            assert a != b and b != a
        assert Num(1.0) == Num(1) and Var(3) == Var(3) and Call("abs", Var(1)) != Call("exp", Var(1))
        assert len({Num(1.0), Num(1), Var(1), Neg(Num(1.0))}) == 3

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
            assert value(f, [2.0]) == pytest.approx(expected), text

    def test_all_functions(self):
        f = parse_field("exp(x1)+abs(x1)+tanh(x1)+sin(x1)+cos(x1)+sqrt(abs(x1))", 1)
        x = 0.7
        expected = np.exp(x) + abs(x) + np.tanh(x) + np.sin(x) + np.cos(x) + np.sqrt(x)
        assert value(f, [x]) == pytest.approx(expected)

    def test_smooth_flag(self):
        assert parse_field("x1^2", 1).smooth
        assert not parse_field("abs(x1)", 1).smooth
        assert not parse_field("exp(abs(x1))", 1).smooth

    def test_division_is_total(self):
        f = parse_field("1/x1", 1)
        assert np.isinf(value(f, [0.0]))

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
        assert np.array_equal(jet_at(f1, pts)[0], jet_at(f2, pts)[0])
        assert serialize(again) == serialize(ast)

    @given(expressions())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_generated(self, text):
        ast = parse_expression(text, 2)
        pts = quasi_random_points(25, 2)
        f1 = parse_field(text, 2)
        f2 = parse_field(serialize(ast), 2)
        with np.errstate(all="ignore"):
            a, b = jet_at(f1, pts)[0], jet_at(f2, pts)[0]
        both = np.isfinite(a) & np.isfinite(b)
        assert np.array_equal(a[both], b[both])
        assert np.array_equal(np.isfinite(a), np.isfinite(b))


class TestGradientAt:
    def test_parsed_square(self):
        f = parse_field("x1^2", 1)
        g = jet_at(f, np.array([[1.5]]))[1]
        assert g[0, 0] == 3.0

    def test_jet_is_required(self):
        with pytest.raises(TypeError, match="jet"):
            ScalarField(1, "square")

    def test_batch_shape(self):
        f = parse_field("x1*x2", 2)
        values, partials = f.jet(tuple(quasi_random_points(10, 2).T))
        assert np.shape(values) == (10,)
        assert [np.shape(d) for d in partials] == [(10,), (10,)]


ALL = (-3.0, 3.0)
POS = (0.25, 3.0)  # for sqrt, division and non-integer powers


def _exp_quadratic(x1, x2, x3):
    e = np.exp(-x1**2 - x2 * x3)
    return -2.0 * x1 * e, -x3 * e, -x2 * e


def _tanh_sin(x1, x2, x3):
    s = 1.0 / np.cosh(x1 + 0.5 * x2 * x3) ** 2
    return s, 0.5 * x3 * s + 0.3 * np.cos(x2), 0.5 * x2 * s


def _sin_ratio(x1, x2):
    q = 1.0 + x1**2
    return (x2 * np.cos(x1 * x2) / q - 2.0 * x1 * np.sin(x1 * x2) / q**2,
            x1 * np.cos(x1 * x2) / q)


# (expression, dim, domain, exact partials as functions of x1..xdim)
CLOSED_FORMS = [
    ("7.5", 1, ALL, lambda x1: (0.0,)),
    ("x1", 1, ALL, lambda x1: (1.0,)),
    ("-x1", 1, ALL, lambda x1: (-1.0,)),
    ("x2", 2, ALL, lambda x1, x2: (0.0, 1.0)),
    ("x1+x2", 2, ALL, lambda x1, x2: (1.0, 1.0)),
    ("x1-x2", 2, ALL, lambda x1, x2: (1.0, -1.0)),
    ("x1*x2", 2, ALL, lambda x1, x2: (x2, x1)),
    ("x1/x2", 2, POS, lambda x1, x2: (1.0 / x2, -x1 / x2**2)),
    ("3/x1", 1, POS, lambda x1: (-3.0 / x1**2,)),
    ("x1/4", 1, ALL, lambda x1: (0.25,)),
    ("x1^3", 1, ALL, lambda x1: (3.0 * x1**2,)),
    ("x1^-0.5", 1, POS, lambda x1: (-0.5 * x1**-1.5,)),
    ("2^x1", 1, ALL, lambda x1: (np.log(2.0) * 2.0**x1,)),
    ("x1^x2", 2, POS, lambda x1, x2: (x2 * x1 ** (x2 - 1.0), x1**x2 * np.log(x1))),
    ("exp(x1)", 1, ALL, lambda x1: (np.exp(x1),)),
    ("tanh(x1)", 1, ALL, lambda x1: (1.0 / np.cosh(x1) ** 2,)),
    ("sin(x1)", 1, ALL, lambda x1: (np.cos(x1),)),
    ("cos(x1)", 1, ALL, lambda x1: (-np.sin(x1),)),
    ("sqrt(x1)", 1, POS, lambda x1: (0.5 / np.sqrt(x1),)),
    ("abs(x1)", 1, ALL, lambda x1: (np.sign(x1),)),
    ("exp(-x1^2-x2*x3)", 3, ALL, _exp_quadratic),
    ("tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", 3, ALL, _tanh_sin),
    ("sin(x1*x2)/(1+x1^2)", 2, ALL, _sin_ratio),
    ("sqrt(1+x1^2)*cos(x2)", 2, ALL,
     lambda x1, x2: (x1 / np.sqrt(1.0 + x1**2) * np.cos(x2), -np.sqrt(1.0 + x1**2) * np.sin(x2))),
    ("-(x1-2*x2)^2", 2, ALL, lambda x1, x2: (-2.0 * (x1 - 2.0 * x2), 4.0 * (x1 - 2.0 * x2))),
]

EPS = float(np.finfo(float).eps)


def _rounding_bound(node, X):
    """(value, bound on its absolute rounding error) of an AST at X, by
    linearized running error analysis: each operation carries its
    operands' errors through its partials and adds 4 ulp of its result."""
    if isinstance(node, Num):
        return np.full(len(X), node.value), np.zeros(len(X))
    if isinstance(node, Var):
        return X[:, node.index - 1], np.zeros(len(X))
    if isinstance(node, Neg):
        a, e = _rounding_bound(node.arg, X)
        return -a, e
    if isinstance(node, Call):
        a, e = _rounding_bound(node.arg, X)
        v = FUNCTIONS[node.name](a)
        return v, np.abs(DERIVATIVES[node.name](a, v)) * e + 4 * EPS * np.abs(v)
    (a, ea), (b, eb) = _rounding_bound(node.left, X), _rounding_bound(node.right, X)
    if node.op in "+-":
        v, e = (a + b if node.op == "+" else a - b), ea + eb
    elif node.op == "*":
        v, e = a * b, np.abs(b) * ea + np.abs(a) * eb
    elif node.op == "/":
        v = a / b
        e = (ea + np.abs(v) * eb) / np.abs(b)
    else:
        v = np.power(a, b)
        e = np.abs(b * a ** (b - 1.0)) * ea + np.abs(v * np.log(a)) * eb
    return v, e + 4 * EPS * np.abs(v)


class TestForwardGradient:
    """Exact partials of parsed expressions in one forward-mode pass."""

    @pytest.mark.parametrize("text,dim,domain,exact", CLOSED_FORMS,
                             ids=[c[0] for c in CLOSED_FORMS])
    def test_closed_forms(self, text, dim, domain, exact):
        f = parse_field(text, dim)
        pts = quasi_random_points(200, dim, *domain)
        expected = np.column_stack([np.broadcast_to(c, len(pts)) for c in exact(*pts.T)])
        np.testing.assert_allclose(jet_at(f, pts)[1], expected, rtol=1e-12, atol=1e-13)

    def test_column_major_and_norm_bits(self):
        f = parse_field("tanh(x1 + 0.5*x2*x3) + 0.3*sin(x2)", 3)
        pts = quasi_random_points(1000, 3)
        partials = f.jet(tuple(pts.T))[1]
        assert [np.shape(d) for d in partials] == [(1000,)] * 3
        ref = np.linalg.norm(np.column_stack(partials), axis=1)
        assert_same_bits(partials_norm(partials, np.empty(1000)), ref)

    def test_norm_bits_of_the_squared_form(self):
        """In the normal range the norm has the bits of sqrt of the summed
        squares, one partial (taken as its absolute value) or several."""
        rng = np.random.default_rng(3)
        n = 100_000
        sign = rng.choice([-1.0, 1.0], n)
        wide = sign * np.exp(rng.uniform(np.log(1e-153), np.log(1e153), n))
        for partials in [(wide,), (0.0, wide, 0.0), (wide, rng.standard_normal(n)),
                         (rng.standard_normal(n), 2.5, wide * 1e-100)]:
            ref = np.zeros(n)
            for d in partials:
                ref = ref + np.asarray(d) * d
            assert_same_bits(partials_norm(partials, np.empty(n)), np.sqrt(ref))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("scale", [1e-170, 1e-300, 5e-324, 1e160, 1e300])
    def test_norm_of_tiny_and_huge_partials(self, scale):
        """Squares that under- or overflow are not lost: the norm is taken
        on the partials scaled by a power of two, without a warning."""
        d = np.array([1.0, -3.0, 0.5, 0.0]) * scale
        for partials, ref in [((d,), np.abs(d)), ((d, d), np.sqrt(2.0) * np.abs(d)),
                              ((d, scale, 0.0), np.hypot(d, scale))]:
            np.testing.assert_allclose(partials_norm(partials, np.empty(4)), ref,
                                       rtol=1e-15, atol=0.0 if scale > 1e-300 else 1e-323)

    @pytest.mark.parametrize("text,point,expected", [
        ("x1^0", [0.0, 1.0], [0.0, 0.0]),
        ("x1^(1-1)", [0.0, 1.0], [0.0, 0.0]),
        # a^b log(a) contributes 0 where a^b = 0, with a variable b > 0
        ("x1^x2", [0.0, 1.5], [0.0, 0.0]),
        ("0^x2", [0.7, 1.5], [0.0, 0.0]),
        ("abs(x1)^1.5", [0.0, 1.0], [0.0, 0.0]),
        ("abs(x1)^1.5*x2", [0.0, 2.0], [0.0, 0.0]),
        ("x1^2", [0.0, 1.0], [0.0, 0.0]),
    ])
    def test_derivative_at_zero_is_not_nan(self, text, point, expected):
        f = parse_field(text, 2)
        assert jet_at(f, np.array([point]))[1].tolist() == [expected]

    def test_exponent_array_without_partials(self):
        # x1^0 has no partials but is an array of ones on several points:
        # the power rule took its truth value and raised ValueError
        pts = np.array([[0.0, 1.0], [0.5, 3.0], [2.0, 0.5]])
        assert jet_at(parse_field("x1^(x1^(1-1))", 2), pts)[1].tolist() == [[1.0, 0.0]] * 3
        g = jet_at(parse_field("x2^(x1^0*2)", 2), pts)[1]
        assert g.tolist() == [[0.0, 2.0], [0.0, 6.0], [0.0, 1.0]]

    def test_unbounded_derivative_is_not_finite(self):
        f = parse_field("sqrt(abs(x1))", 1)
        g = jet_at(f, np.array([[0.0], [4.0]]))[1]
        assert not np.isfinite(g[0, 0]) and g[1, 0] == 0.25

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_matches_finite_differences(self, text):
        """Where both are finite, forward mode and central differences
        agree within the differences' own error: with h the step of
        ``conftest.central_differences`` and E the rounding bound of f at
        x +- h, |D_h - f'| <= h^2 |f'''| / 6 + (E+ + E-) / (2h) plus the
        rounding of x +- h.  f''' is the second difference of the exact
        partial over the same stencil; the bound is taken 10 times."""
        field = parse_field(text, 2)
        assume(field.smooth)
        ast = parse_expression(text, 2)
        pts = quasi_random_points(64, 2)
        with np.errstate(all="ignore"):
            exact = jet_at(field, pts)[1]
            fd = central_differences(field, pts)
            for k in range(2):
                h = FD_STEP * (1.0 + np.abs(pts[:, k]))
                g, e = [], []
                for sign in (1.0, -1.0):
                    shifted = pts.copy()
                    shifted[:, k] += sign * h
                    g.append(jet_at(field, shifted)[1][:, k])
                    e.append(_rounding_bound(ast, shifted)[1])
                third = np.abs(g[0] - 2.0 * exact[:, k] + g[1]) / h**2
                bound = 10.0 * (h**2 * third / 6.0 + (e[0] + e[1]) / (2.0 * h)
                                + 2.0 * EPS * np.abs(exact[:, k]) / FD_STEP)
                err = np.abs(exact[:, k] - fd[:, k])
                ok = np.isfinite(exact[:, k]) & np.isfinite(fd[:, k]) & np.isfinite(bound)
                assert np.all(err[ok] <= bound[ok]), (text, k, np.max(err[ok] - bound[ok]))


# coordinates where a batched pass could drift from a one-point pass in the bits
SPECIAL = [0.0, -0.0, 1.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 5e-324]


def _with_special(coords, dim: int) -> np.ndarray:
    """Rows that repeat one coordinate, then the coordinates row by row."""
    c = np.array(SPECIAL + list(coords))
    return np.vstack([np.repeat(c[:, None], dim, axis=1), np.resize(c, (c.size, dim))])


def _assert_pointwise(field, pts: np.ndarray):
    """The jet on the whole batch gives each point the bits of the jet on
    that point alone, values and partials; a NaN matches any NaN (its sign
    bit may depend on the vector width that computed it)."""
    with np.errstate(all="ignore"):
        values, grads = jet_at(field, pts)
        for i, point in enumerate(pts):
            for batch, one in zip((values[i:i + 1], grads[i:i + 1]), jet_at(field, point)):
                nan = np.isnan(batch)
                assert np.array_equal(nan, np.isnan(one))
                assert_same_bits(batch[~nan], one[~nan])


class TestJetValues:
    """A jet is pointwise, NaN and inf included: the analysis samples the
    grid in blocks of rows of varying size, and a cell's |f| and |grad f|
    must not depend on the block it falls in."""

    @given(expressions())
    @settings(max_examples=100, deadline=None)
    def test_parsed(self, text):
        pts = np.vstack([quasi_random_points(64, 2), _with_special([], 2)])
        _assert_pointwise(parse_field(text, 2), pts)

    @pytest.mark.parametrize("name", corpus_names())
    @given(dim=st.integers(1, 3), coords=st.lists(st.floats(), max_size=24))
    @settings(max_examples=25, deadline=None)
    def test_builtins(self, name, dim, coords):
        _assert_pointwise(builtin_field(name, dim=dim), _with_special(coords, dim))


class TestRowCoordinates:
    """A jet on a grid's broadcast row coordinates gives, cell by cell, the
    bits of the same jet on the (m, dim) columns of the cells: the analysis
    samples the first way, the tests' ``jet_at`` the second."""

    @staticmethod
    def _field(name: str, grid):
        if name == "symmetrized":
            p = analyze(builtin_field("mixture", dim=grid.dim), grid, 64).p
            return symmetrized_field(p, grid.dim, n_bins=16)
        return builtin_field(name, dim=grid.dim)

    @pytest.mark.parametrize("name", corpus_names() + ["symmetrized"])
    @pytest.mark.parametrize("dim,N", [(1, 37), (2, 37), (3, 13)])
    def test_rows_match_columns(self, name, dim, N):
        grid = equal_measure_grid(dim, N)
        field = self._field(name, grid)
        xs = grid.rows(0, grid.num_rows)
        shape = np.broadcast_shapes(*(x.shape for x in xs))
        values, partials = field.jet(xs)
        col_values, col_partials = field.jet(tuple(representatives(grid).T))
        K = grid.num_cells
        assert len(partials) == len(col_partials) == dim

        def cells(a, s):
            return np.broadcast_to(a, s).ravel()

        assert_same_bits(cells(values, shape), cells(col_values, (K,)))
        for d, col in zip(partials, col_partials):
            assert_same_bits(cells(d, shape), cells(col, (K,)))


class TestMirrorSymmetry:
    """On an odd 1-d grid the axis is odd bit for bit, so an odd field's
    values and an even field's gradient must be too: mirrored cells carry
    the same |f| and |grad f|.  Cubes and other small integer powers of
    negative bases must not take a different path from positive ones."""

    @pytest.mark.parametrize("N", [4097, 65537])
    @pytest.mark.parametrize("source, odd", [
        ("poly_tanh", True),
        ("x1^3", True),
        ("x1^5 - x1", True),
        ("coordinate", True),
        ("gaussian_bump", False),
    ])
    def test_odd_and_even_fields(self, source, odd, N):
        if source in corpus_names():
            field = builtin_field(source)
        else:
            field = parse_field(source, 1)
        xs = equal_measure_grid(1, N).axis_points
        values, (grad,) = field.jet((xs,))
        values, grad = np.broadcast_to(values, xs.shape), np.broadcast_to(grad, xs.shape)
        # + 0.0 turns -0.0, the mirror of 0.0, into 0.0
        sign = -1.0 if odd else 1.0
        assert_same_bits(values + 0.0, sign * values[::-1] + 0.0)
        assert_same_bits(grad + 0.0, -sign * grad[::-1] + 0.0)
