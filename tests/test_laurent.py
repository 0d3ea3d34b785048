"""Laurent polynomial arithmetic, parsing and Newton polytopes."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    LaurentPolynomial,
    ParamPoly,
    laurent_divide,
    parameter_direction_limit,
    parse,
)
from lgforge.laurent import LaurentError, _divide
from lgforge.parsing import ExpressionError


def multinomial_constant_term(terms: dict, d: int) -> Fraction:
    """Independent oracle: constant term of (sum c_v x^v)^d by enumerating
    exponent multisets, never by polynomial multiplication."""
    from math import factorial

    support = list(terms)
    total = Fraction(0)

    def walk(index, remaining, partial_sum, weight):
        nonlocal total
        if index == len(support):
            if remaining == 0 and all(x == 0 for x in partial_sum):
                total += weight
            return
        v = support[index]
        c = terms[v]
        for k in range(remaining + 1):
            walk(
                index + 1,
                remaining - k,
                tuple(p + k * vi for p, vi in zip(partial_sum, v)),
                weight * Fraction(c) ** k / factorial(k),
            )

    walk(0, d, (0,) * len(support[0]), Fraction(1))
    from math import factorial as fac

    return total * fac(d)


def brute_force_vertices_2d(points):
    """A point is a vertex iff it is outside the hull of the others
    (checked over all triangles and segments, exact integer arithmetic)."""

    def cross(o, u, v):
        return (u[0] - o[0]) * (v[1] - o[1]) - (u[1] - o[1]) * (v[0] - o[0])

    def in_triangle(p, a, b, c):
        area = cross(a, b, c)
        if area == 0:
            return False
        d1, d2, d3 = cross(a, b, p), cross(b, c, p), cross(c, a, p)
        if area < 0:
            d1, d2, d3 = -d1, -d2, -d3
        return d1 >= 0 and d2 >= 0 and d3 >= 0

    def on_segment(p, a, b):
        if cross(a, b, p) != 0:
            return False
        return (
            min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )

    verts = []
    for p in points:
        others = [q for q in points if q != p]
        inside = any(in_triangle(p, *tri) for tri in combinations(others, 3))
        inside = inside or any(on_segment(p, a, b) for a, b in combinations(others, 2))
        if not inside:
            verts.append(p)
    return sorted(verts)


class TestParse:
    def test_projective_plane_model(self):
        f = parse("x + y + 1/(x*y)", 2)
        assert f.terms == {(1, 0): 1, (0, 1): 1, (-1, -1): 1}

    def test_cubic_threefold_model(self):
        f = parse("(x+y+1)^3/(x*y*z) + z", 3)
        assert len(f.terms) == 11
        assert f.terms[(-1, -1, -1)] == 1
        assert f.terms[(2, -1, -1)] == 1
        assert f.terms[(0, 0, 1)] == 1
        assert f.terms[(0, 0, -1)] == 6  # the 3*x*y monomial over x*y*z

    def test_zero(self):
        assert parse("0", 3).is_zero

    def test_rational_coefficients(self):
        f = parse("3/4*x + 1/2", 1)
        assert f.terms == {(1,): Fraction(3, 4), (0,): Fraction(1, 2)}

    def test_non_monomial_denominator_rejected(self):
        with pytest.raises(ExpressionError):
            parse("1/(x+y)", 2)

    def test_undeclared_variable(self):
        with pytest.raises(ExpressionError):
            parse("x + q", 2)

    def test_undeclared_parameter(self):
        with pytest.raises(ExpressionError):
            parse("a1*x", 2, 0)

    def test_plain_a_for_single_parameter(self):
        assert parse("a/x", 1, 1) == parse("a1/x", 1, 1)

    def test_negative_exponent(self):
        assert parse("x^-2", 1).terms == {(-2,): 1}

    def test_denominator_cancels_after_expansion(self):
        f = parse("(x^2 - 1)/x", 1)
        assert f.terms == {(1,): 1, (-1,): -1}


class TestArithmetic:
    def test_difference_of_squares(self):
        f = parse("x+1", 1) * parse("x-1", 1)
        assert f == parse("x^2-1", 1)

    def test_monomial_shift(self):
        f = parse("x+y", 2) * parse("1/(x*y)", 2)
        assert f == parse("1/y + 1/x", 2)

    def test_square_of_p2_model(self):
        f = parse("x+y+1/(x*y)", 2)
        sq = f * f
        # six monomials; the would-be constant term vanishes
        assert sq == parse("x^2+2*x*y+y^2+2/y+2/x+1/(x^2*y^2)", 2)
        assert sq.constant_term() == 0
        assert multinomial_constant_term(f.terms, 2) == 0

    def test_binomial_square(self):
        f = parse("x + 1/x", 1)
        assert f ** 2 == parse("x^2 + 2 + 1/x^2", 1)

    def test_power_zero(self):
        f = parse("x+y+1/(x*y)", 2)
        assert f ** 0 == LaurentPolynomial.one(2)

    def test_cube_constant_term(self):
        f = parse("x+y+1/(x*y)", 2)
        expected = multinomial_constant_term(f.terms, 3)
        assert expected == 6
        assert (f ** 3).constant_term() == 6

    def test_constant_term_reads_zero_exponent(self):
        assert parse("x+y+1/(x*y)", 2).constant_term() == 0
        assert parse("5 + x", 1).constant_term() == 5


class TestMonomialMap:
    def test_identity(self):
        f = parse("x+2*y+3/(x*y)", 2)
        assert f.apply_monomial_map([[1, 0], [0, 1]]) == f

    def test_shear_from_catalog_entry(self):
        f = parse("x+y+z+x/z+y/z+x/(y*z)+y/(x*z)+2/z+2/y+2/x+z/(x*y)", 3)
        g = f.apply_monomial_map([[1, 0, 0], [0, 1, 0], [1, 1, 1]])
        expect = parse(
            "x+y+z+x*z+y*z+x/(y*z)+y/(x*z)+2/z+2/(x*z)+2/(y*z)+1/(x*y*z)", 3
        )
        assert g == expect

    def test_swap(self):
        f = parse("x + 2*y", 2)
        assert f.apply_monomial_map([[0, 1], [1, 0]]) == parse("2*x + y", 2)

    def test_non_unimodular_rejected(self):
        with pytest.raises(LaurentError):
            parse("x", 2).apply_monomial_map([[2, 0], [0, 1]])


class TestNewtonPolytope:
    def test_triangle(self):
        np = parse("x+y+1/(x*y)", 2).newton_polytope()
        assert set(np.vertices) == {(1, 0), (0, 1), (-1, -1)}
        assert np.dimension == 2

    def test_five_point_support_matches_brute_force(self):
        f = parse("x+y+1/(x*y)+1/x+1/y", 2)
        np = f.newton_polytope()
        oracle = brute_force_vertices_2d(sorted(f.terms))
        assert sorted(np.vertices) == oracle
        # all five support points are extreme: this is a pentagon
        assert len(oracle) == 5

    def test_constant_is_a_point(self):
        np = parse("1", 3).newton_polytope()
        assert np.vertices == ((0, 0, 0),)
        assert np.dimension == 0

    def test_zero_rejected(self):
        with pytest.raises(LaurentError):
            parse("0", 2).newton_polytope()

    def test_segment_in_higher_rank(self):
        np = parse("x + 1/x", 2).newton_polytope()
        assert set(np.vertices) == {(1, 0), (-1, 0)}
        assert np.dimension == 1


class TestParameters:
    def test_specialize_to_one(self):
        f = parse("x + y + a1/(x*y)", 2, 1)
        assert f.substitute_parameters({0: 1}) == parse("x + y + 1/(x*y)", 2)

    def test_empty_assignment(self):
        f = parse("x + a1*y", 2, 1)
        assert f.substitute_parameters({}) == f

    def test_annihilation(self):
        f = parse("a1/x", 1, 1)
        assert f.substitute_parameters({0: 0}).is_zero

    def test_partial_substitution_reindexes(self):
        f = parse("a1*x + a2*y", 2, 2)
        g = f.substitute_parameters({0: Fraction(1, 2)})
        assert g.param_rank == 1
        assert g == parse("1/2*x + a1*y", 2, 1)

    @pytest.mark.parametrize("index", [0.5, 0.0, True, "0"])
    def test_non_integer_index_raises(self, index):
        """An index is never truncated: 0.5 would otherwise assign a1."""
        f = parse("a1*x+y", 2, 1)
        with pytest.raises(LaurentError, match="is not an integer"):
            f.substitute_parameters({index: 2})

    @pytest.mark.parametrize("value", [0.1, 1.0, True, False, "1/2"])
    def test_non_rational_value_raises(self, value):
        """A float is never read as its binary expansion, nor a bool as 0/1."""
        f = parse("a1*x+y", 2, 1)
        with pytest.raises(LaurentError, match="not an exact rational"):
            f.substitute_parameters({0: value})

    @pytest.mark.parametrize("text", ["a1/a2*x + y", "a2/a1*x + y"])
    def test_zero_for_an_inverted_parameter_raises_in_any_order(self, text):
        f = parse(text, 2, 2)
        with pytest.raises(LaurentError):
            f.substitute_parameters({0: 0, 1: 0})

    def test_param_poly_defers_to_laurent_operand(self):
        a = ParamPoly.parameter(1, 0)
        f = parse("x + a1*y", 2, 1)
        assert a * f == f * a == parse("a1*x + a1^2*y", 2, 1)
        assert a + f == f + a == parse("x + a1*y + a1", 2, 1)
        assert a - f == -(f - a) == parse("-x - a1*y + a1", 2, 1)


# -- property tests ------------------------------------------------------------


exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
coefficients = st.integers(-3, 3).filter(lambda c: c != 0)


@st.composite
def polynomials(draw, max_terms=5):
    n = draw(st.integers(1, max_terms))
    terms = {}
    for _ in range(n):
        terms[draw(exponents)] = draw(coefficients)
    return LaurentPolynomial.from_terms(2, 0, terms)


unimodular_2x2 = st.sampled_from(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[1, 1], [0, 1]],
        [[1, 0], [1, 1]],
        [[1, -1], [0, -1]],
        [[2, 1], [1, 1]],
        [[-1, 0], [0, 1]],
        [[3, 2], [1, 1]],
    ]
)


@given(polynomials(), polynomials())
def test_multiplication_commutes(f, g):
    assert f * g == g * f


@given(polynomials(), st.integers(0, 3), st.integers(0, 3))
def test_power_is_additive(f, a, b):
    assert f ** (a + b) == (f ** a) * (f ** b)


@settings(deadline=None)
@given(polynomials(), unimodular_2x2, st.integers(0, 4))
def test_monomial_map_fixes_constant_terms_of_powers(f, m, d):
    assert (f ** d).constant_term() == (f.apply_monomial_map(m) ** d).constant_term()


@settings(deadline=None)
@given(polynomials(), unimodular_2x2)
def test_monomial_map_transforms_vertices(f, m):
    if f.is_zero:
        return
    before = f.newton_polytope().vertices
    after = f.apply_monomial_map(m).newton_polytope().vertices
    mapped = {
        tuple(sum(m[i][j] * v[j] for j in range(2)) for i in range(2)) for v in before
    }
    assert mapped == set(after)


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)


@st.composite
def coefficients_at(draw, param_rank):
    """A rational, or with parameters a parameter polynomial (which may
    collapse to a scalar) with exponents -1..2."""
    if not param_rank:
        return draw(rationals)
    param_exponent = st.tuples(*[st.integers(-1, 2)] * param_rank)
    terms = draw(st.dictionaries(param_exponent, rationals, min_size=1, max_size=3))
    return ParamPoly.of(param_rank, terms)


@st.composite
def laurent_polys(draw, rank, param_rank):
    """Up to six terms with exponents -2..2; the small ranges make products
    collide and cancel."""
    exponent = st.tuples(*[st.integers(-2, 2)] * rank)
    terms = draw(st.dictionaries(exponent, coefficients_at(param_rank), max_size=6))
    return LaurentPolynomial.from_terms(rank, param_rank, terms)


def flat_terms(f) -> dict:
    """{(parameter exponent, torus exponent): Fraction} of f."""
    out = {}
    for exp, coeff in f.terms.items():
        if isinstance(coeff, ParamPoly):
            for pexp, c in coeff.terms.items():
                out[pexp, exp] = Fraction(c)
        else:
            out[(0,) * f.param_rank, exp] = Fraction(coeff)
    return out


def naive_sum(f, g) -> dict:
    out = flat_terms(f)
    for key, c in flat_terms(g).items():
        out[key] = out.get(key, 0) + c
    return {key: c for key, c in out.items() if c}


def naive_product(f, g) -> dict:
    """Independent oracle: every pair of flattened terms, nested loops."""
    out = {}
    for (p1, e1), c1 in flat_terms(f).items():
        for (p2, e2), c2 in flat_terms(g).items():
            p = tuple(a + b for a, b in zip(p1, p2))
            e = tuple(a + b for a, b in zip(e1, e2))
            out[p, e] = out.get((p, e), 0) + c1 * c2
    return {key: c for key, c in out.items() if c}


def is_canonical_scalar(c) -> bool:
    return type(c) is int and c != 0 or type(c) is Fraction and c.denominator != 1


def assert_canonical(f):
    """No zero coefficient, integral rationals as int, no constant ParamPoly."""
    for exp, coeff in f.terms.items():
        assert len(exp) == f.rank
        if isinstance(coeff, ParamPoly):
            assert coeff.rank == f.param_rank
            assert len(coeff.terms) > 1 or any(next(iter(coeff.terms)))
            assert all(is_canonical_scalar(c) for c in coeff.terms.values())
        else:
            assert is_canonical_scalar(coeff)


@st.composite
def kernel_operands(draw):
    """Two polynomials at a common rank 1-5 (each unrolled product branch
    and the generic one) and parameter rank 0-3, plus a scalar or
    parameter coefficient."""
    rank = draw(st.integers(1, 5))
    param_rank = draw(st.integers(0, 3))
    f = draw(laurent_polys(rank, param_rank))
    g = draw(laurent_polys(rank, param_rank))
    return f, g, draw(coefficients_at(param_rank))


@settings(deadline=None, max_examples=150)
@given(kernel_operands())
def test_sum_and_product_match_naive_oracle(operands):
    f, g, c = operands
    # (f + g) * (f - g) cancels the cross terms, f + (-f) every term
    pairs = [(f, g), (f + g, f - g), (f, -f)]
    for a, b in pairs:
        for result, expected in ((a + b, naive_sum(a, b)), (a * b, naive_product(a, b))):
            assert flat_terms(result) == expected
            assert_canonical(result)
    constant = LaurentPolynomial.constant(c, f.rank, f.param_rank)
    assert flat_terms(f * c) == naive_product(f, constant)
    assert_canonical(f * c)


@st.composite
def division_operands(draw):
    """A nonzero divisor q, a cofactor h and a perturbation m at a common
    rank 1-4 and parameter rank 0-2; coefficients may be multi-term
    parameter polynomials, also the leading one of q."""
    rank = draw(st.integers(1, 4))
    param_rank = draw(st.integers(0, 2))
    q = draw(laurent_polys(rank, param_rank).filter(lambda f: not f.is_zero))
    return q, draw(laurent_polys(rank, param_rank)), draw(laurent_polys(rank, param_rank))


@settings(deadline=None, max_examples=150)
@given(division_operands())
def test_divide_inverts_the_product(operands):
    q, h, m = operands
    quotient = laurent_divide(q * h, q)
    assert quotient == h
    assert_canonical(quotient)
    p = q * h + m
    r = laurent_divide(p, q)
    if r is not None:
        assert q * r == p
        assert_canonical(r)


@st.composite
def indivisible_operands(draw):
    """A divisor q with at least two flat terms, a cofactor h and a nonzero
    flat monomial c x^e a^k, at rank 1-4 and parameter rank 0-2."""
    rank = draw(st.integers(1, 4))
    param_rank = draw(st.integers(0, 2))
    q = draw(laurent_polys(rank, param_rank).filter(lambda f: len(flat_terms(f)) >= 2))
    h = draw(laurent_polys(rank, param_rank))
    e = draw(st.tuples(*[st.integers(-3, 3)] * rank))
    k = draw(st.tuples(*[st.integers(-2, 2)] * param_rank))
    c = draw(rationals)
    monomial = LaurentPolynomial.from_terms(
        rank, param_rank, {e: ParamPoly.of(param_rank, {k: c}) if param_rank else c}
    )
    return q, h, monomial


@settings(deadline=None, max_examples=150)
@given(indivisible_operands())
def test_divide_refuses_a_product_plus_a_monomial(operands):
    """If q divided q*h + m it would divide the monomial m, so q would be a
    unit of Q[a^+-1, x^+-1]; the units are the monomials, and q has two
    flat terms."""
    q, h, monomial = operands
    assert laurent_divide(q * h + monomial, q) is None
    quotient, term = _divide(q * h + monomial, q)
    assert quotient is None
    assert len(flat_terms(term)) == 1
    assert (term.rank, term.param_rank) == (q.rank, q.param_rank)
    assert_canonical(term)


@pytest.mark.parametrize(
    "p, q, rank, expected",
    [
        ("1", "1+x", 2, None),  # deg q > deg p: the base must cover deg q
        ("x^3-y^2", "x*y^2-x^2", 2, None),  # keys without the degree digit alias
        ("1/x^5+1/x^4", "x^3+x^4", 1, "1/x^8"),
        ("3", "2", 2, "3/2"),  # a constant dividend
        ("3", "2*x*y", 2, "3/(2*x*y)"),
        ("3", "1+y", 2, None),
        ("x^3-1", "x-1", 1, "x^2+x+1"),  # rank 1
        ("x^3-1", "x+1", 1, None),
        ("(x-y)^3*(x+2*y+1/(x*y))", "(x-y)^2", 2, "(x-y)*(x+2*y+1/(x*y))"),
    ],
)
def test_divide_edge_cases(p, q, rank, expected):
    quotient = laurent_divide(parse(p, rank), parse(q, rank))
    assert quotient == (None if expected is None else parse(expected, rank))


def test_divide_with_exponents_past_two_to_the_eighteen():
    """Wide exponents give a wide base B; the packed keys stay exact."""
    big = 2**18
    q = LaurentPolynomial.from_terms(2, 0, {(big, 0): 1, (0, -big): -2, (1, 1): 3})
    h = LaurentPolynomial.from_terms(2, 0, {(-big, big): 5, (0, 0): 1, (big, -1): Fraction(1, 3)})
    assert laurent_divide(q * h, q) == h
    assert laurent_divide(q * h, h) == q
    assert laurent_divide(q * h + LaurentPolynomial.monomial((big, big), 1, 2), q) is None


def test_divide_with_negative_parameter_exponents():
    a1_inv, a2_inv2 = ParamPoly(2, {(-1, 0): 1}), ParamPoly(2, {(0, -2): 3})
    q = LaurentPolynomial.from_terms(2, 2, {(1, 0): a1_inv, (0, -1): a2_inv2, (0, 0): 1})
    h = parse("a1*x/a2 + y - 1/(a1*x)", 2, 2)
    assert laurent_divide(q * h, q) == h
    assert laurent_divide(q * h * q, q * q) == h
    assert laurent_divide(q * h + parse("a1", 2, 2), q) is None


def test_divide_a_large_quotient_in_a_fresh_process():
    """(1+x+y+z)^4 * h by (1+x+y+z)^4 with 7601 dividend terms.  Each step
    pops its leading term from a heap; a division that rescans the
    remainder at each step takes over 12 s on it (2-core host), past the
    timeout."""
    script = (
        "from lgforge import laurent_divide, parse\n"
        "q = parse('1+x+y+z', 3) ** 4\n"
        "h = parse('x+y+z+1/(x*y*z)+2', 3) ** 18\n"
        "p = q * h\n"
        "assert len(p) == 7601\n"
        "assert laurent_divide(p, q) == h\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parent.parent / "src")}
    subprocess.run([sys.executable, "-c", script], env=env, check=True, timeout=5)


def test_divide_by_a_multi_term_parameter_leading_coefficient():
    q = parse("(a1+a2)*x + a1*y - 1", 2, 2)
    h = parse("x/a2 + (a1-a2)*y^2 + 3", 2, 2)
    assert laurent_divide(q * h, q) == h
    assert laurent_divide(q * h * q, q * q) == h
    assert laurent_divide(q * h + 1, q) is None


@settings(deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(1, 3)).flatmap(
        lambda r: st.tuples(laurent_polys(*r), st.tuples(*[st.integers(-2, 2)] * r[1]))
    )
)
def test_direction_limit_keeps_the_flat_terms_of_least_order(operands):
    f, direction = operands
    flat = flat_terms(f)
    order = {key: sum(w * e for w, e in zip(direction, key[0])) for key in flat}
    least = min(order.values(), default=None)
    limit = parameter_direction_limit(f, direction)
    assert flat_terms(limit) == {key: c for key, c in flat.items() if order[key] == least}
    assert_canonical(limit)


@settings(deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(0, 3)).flatmap(lambda r: laurent_polys(*r)))
def test_render_parse_round_trip(f):
    assert parse(f.render(), f.rank, f.param_rank) == f


def test_render_round_trip_with_parameters():
    texts = [
        "x + y + a1/(x*y)",
        "(a1+2*a2)*x + a1^2*a2*y + 3/4/x",
        "-x + a2*y - 5",
    ]
    for text in texts:
        f = parse(text, 2, 2)
        assert parse(f.render(), 2, 2) == f


def test_grlex_rendering_order():
    f = parse("1/(x*y*z) + y + x*y + z + x*z", 3)
    assert f.render() == "x*y+x*z+y+z+1/(x*y*z)"
