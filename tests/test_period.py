"""Period series, the constant-shift relation, and period comparisons."""

import random
from fractions import Fraction
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    CLASSICAL,
    REGULARIZED,
    LaurentPolynomial,
    ParamPoly,
    parse,
    period_coefficients,
    period_distinct,
    period_equal_up_to_shift,
    shift_relation_check,
)

from test_laurent import multinomial_constant_term


def test_p3_series_matches_enumeration_oracle():
    f = parse("x+y+z+1/(x*y*z)", 3)
    series = period_coefficients(f, 8)
    oracle = [multinomial_constant_term(f.terms, d) for d in range(9)]
    assert list(series.coefficients) == oracle == [1, 0, 0, 0, 24, 0, 0, 0, 2520]


def test_p2_series():
    f = parse("x+y+1/(x*y)", 2)
    series = period_coefficients(f, 6)
    assert list(series.coefficients) == [1, 0, 0, 6, 0, 0, 90]


def test_zero_polynomial_series():
    series = period_coefficients(parse("0", 2), 5)
    assert list(series.coefficients) == [1, 0, 0, 0, 0, 0]


def test_classical_regularized_conversion():
    f = parse("x+y+1/(x*y)", 2)
    reg = period_coefficients(f, 6, REGULARIZED)
    cla = period_coefficients(f, 6, CLASSICAL)
    for d in range(7):
        assert reg.coefficients[d] == cla.coefficients[d] * factorial(d)
    assert cla.regularized().coefficients == reg.coefficients
    assert reg.classical().coefficients == cla.coefficients


def test_models_match_naive_powering():
    models = [
        "x+y+z+1/(x*y*z)",
        "(x+y+1)^3/(x*y*z) + z",
        "x + 1/x",
        "(x*y+y*z+x*z+1)^2/(x*y*z)",
        "(x+y+z+1)*(x+1)*(y+1)*(z+1)/(x*y*z)",
        "(z+1)*(x+y+1)*(x*y+z)/(x*y*z) + x*y/z + z + 3",
        "5*x",  # support polytope far from the origin: every c(f^d) is 0
    ]
    for text in models:
        f = parse(text, 3)
        naive = [(f ** d).constant_term() for d in range(9)]
        assert list(period_coefficients(f, 8).coefficients) == naive, text


class TestShiftRelation:
    def test_monomial_plus_one(self):
        assert shift_relation_check(parse("x", 1), 1, 5)

    def test_zero_shift(self):
        assert shift_relation_check(parse("x+y+1/(x*y)", 2), 0, 6)

    def test_shift_three(self):
        assert shift_relation_check(parse("x+y+1/(x*y)", 2), 3, 8)

    def test_hundred_random_pairs(self):
        rng = random.Random(20260809)
        for _ in range(100):
            rank = rng.randint(1, 3)
            terms = {}
            for _ in range(rng.randint(1, 8)):
                exp = tuple(rng.randint(-2, 2) for _ in range(rank))
                coeff = rng.randint(-3, 3)
                if coeff:
                    terms[exp] = coeff
            f = LaurentPolynomial.from_terms(rank, 0, terms)
            a = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert shift_relation_check(f, a, 10)


class TestEqualUpToShift:
    def test_reflexive(self):
        f = parse("x+y+1/(x*y)", 2)
        assert period_equal_up_to_shift(f, f, 8) == 0

    def test_constant_shift(self):
        f = parse("x+y+1/(x*y)", 2)
        assert period_equal_up_to_shift(f, f + 5, 8) == 5

    def test_picard_rank_one_identification(self):
        f = parse("(x*y+y*z+x*z+1)^2/(x*y*z)", 3)
        g = parse("(x+y+1)^4/(x*y*z)+z", 3)
        shift = period_equal_up_to_shift(f, g, 10)
        assert shift is not None

    def test_symmetry_negates_shift(self):
        f = parse("x+y+1/(x*y)", 2)
        g = f + Fraction(7, 2)
        assert period_equal_up_to_shift(f, g, 8) == Fraction(7, 2)
        assert period_equal_up_to_shift(g, f, 8) == Fraction(-7, 2)

    def test_transitivity_adds_shifts(self):
        f = parse("x+y+1/(x*y)", 2)
        g = f + 2
        h = f + 5
        assert period_equal_up_to_shift(f, g, 8) == 2
        assert period_equal_up_to_shift(g, h, 8) == 3
        assert period_equal_up_to_shift(f, h, 8) == 5


class TestDistinct:
    def test_p2_vs_p3(self):
        f = parse("x+y+1/(x*y)", 2)
        g = parse("x+y+z+1/(x*y*z)", 3)
        assert period_distinct(f, g, 8)

    def test_never_distinct_from_coordinate_change(self):
        f = parse("x+2*y+3/(x*y)+x*y", 2)
        g = f.apply_monomial_map([[1, 1], [0, 1]])
        assert not period_distinct(f, g, 8)

    def test_renamed_variable(self):
        f = parse("x + 1/x", 1)
        g = parse("y + 1/y", 2)
        assert not period_distinct(f, g, 8)


@st.composite
def small_polys(draw):
    n = draw(st.integers(1, 5))
    terms = {}
    for _ in range(n):
        exp = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        coeff = draw(st.integers(-3, 3).filter(bool))
        terms[exp] = coeff
    return LaurentPolynomial.from_terms(2, 0, terms)


@settings(deadline=None, max_examples=30)
@given(small_polys(), st.sampled_from([[[1, 1], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [1, 1]]]))
def test_regularized_period_is_gl_invariant(f, m):
    g = f.apply_monomial_map(m)
    assert (
        period_coefficients(f, 8).coefficients
        == period_coefficients(g, 8).coefficients
    )


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def polys_of_rank_1_to_4(draw, param_rank=0):
    """Up to five terms with exponents in [-2, 2]; with parameters, each
    coefficient is a parameter polynomial that may invert a parameter."""
    rank = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(-2, 2)] * rank)
    if param_rank:
        param_exponent = st.tuples(*[st.integers(-1, 2)] * param_rank)
        coeff = st.dictionaries(param_exponent, rationals, min_size=1, max_size=3).map(
            lambda terms: ParamPoly.of(param_rank, terms)
        )
    else:
        coeff = rationals
    terms = draw(st.dictionaries(exponent, coeff, min_size=1, max_size=5))
    return LaurentPolynomial.from_terms(rank, param_rank, terms)


@settings(deadline=None, max_examples=60)
@given(polys_of_rank_1_to_4(), st.integers(0, 7))
def test_series_matches_enumeration_oracle(f, order):
    oracle = [multinomial_constant_term(f.terms, d) for d in range(order + 1)]
    assert list(period_coefficients(f, order).coefficients) == oracle


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 2).flatmap(polys_of_rank_1_to_4), st.integers(0, 6))
def test_parametrized_series_matches_naive_powering(f, order):
    naive = [(f ** d).constant_term() for d in range(order + 1)]
    assert list(period_coefficients(f, order).coefficients) == naive
