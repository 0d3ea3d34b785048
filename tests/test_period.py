"""Period series, the constant-shift relation, and period comparisons."""

import json
import os
import random
import subprocess
import sys
from itertools import product
from math import comb
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgforge import (
    LaurentPolynomial,
    ParamPoly,
    parse,
    period_coefficients,
    period_distinct,
    period_equal_up_to_shift,
    shift_relation_check,
)
from lgforge.period import first_period_mismatch

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
def polys_with_unimodular_maps(draw):
    """A polynomial of rank 2-4 and a random unimodular matrix: a product of
    elementary row operations, a row swap and a sign flip."""
    rank = draw(st.integers(2, 4))
    exponent = st.tuples(*[st.integers(-2, 2)] * rank)
    terms = draw(st.dictionaries(exponent, st.integers(-3, 3).filter(bool), min_size=1, max_size=6))
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    index = st.integers(0, rank - 1)
    for _ in range(draw(st.integers(0, 6))):
        i, j, c = draw(index), draw(index), draw(st.integers(-2, 2))
        if i != j:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    i, j = draw(index), draw(index)
    m[i], m[j] = m[j], m[i]
    k = draw(index)
    m[k] = [-a for a in m[k]]
    return LaurentPolynomial.from_terms(rank, 0, terms), m


@settings(deadline=None, max_examples=40)
@given(polys_with_unimodular_maps())
def test_regularized_period_is_gl_invariant(case):
    f, m = case
    g = f.apply_monomial_map(m)
    assert (
        period_coefficients(f, 8).coefficients
        == period_coefficients(g, 8).coefficients
    )


rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def polys_of_rank_1_to_4(draw, param_rank=0, scalars=rationals):
    """Up to five terms with exponents in [-2, 2]; with parameters, each
    coefficient is a parameter polynomial that may invert a parameter.
    Rational coefficients are drawn from ``scalars``."""
    rank = draw(st.integers(1, 4))
    exponent = st.tuples(*[st.integers(-2, 2)] * rank)
    if param_rank:
        param_exponent = st.tuples(*[st.integers(-1, 2)] * param_rank)
        coeff = st.dictionaries(param_exponent, scalars, min_size=1, max_size=3).map(
            lambda terms: ParamPoly.of(param_rank, terms)
        )
    else:
        coeff = scalars
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


mixed_denominators = st.fractions(min_value=-3, max_value=3, max_denominator=12).filter(bool)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(0, 2).flatmap(lambda r: polys_of_rank_1_to_4(r, mixed_denominators)),
    st.integers(0, 7),
)
def test_mixed_denominators_match_oracles(f, order):
    """The kernel clears denominators once and divides each output by D^d;
    the series must equal the oracles, with integral scalars as int."""
    if f.param_rank:
        want = [(f ** d).constant_term() for d in range(order + 1)]
    else:
        want = [multinomial_constant_term(f.terms, d) for d in range(order + 1)]
    regularized = period_coefficients(f, order).coefficients
    assert list(regularized) == want
    for c in regularized:
        assert not isinstance(c, Fraction) or c.denominator > 1


def test_square_pairing_with_a_parameter_block_at_torus_zero():
    """Even orders pair a half power with itself; here the torus-0 block
    of every power carries several parameter terms."""
    f = parse("a1*x + a2/x + a1*a2 + a1/2 + 1/a2 + y + 1/y", 2, 2)
    for order in (2, 4, 6, 8):
        naive = [(f ** d).constant_term() for d in range(order + 1)]
        assert list(period_coefficients(f, order).coefficients) == naive, order


@settings(deadline=None, max_examples=40)
@given(
    polys_of_rank_1_to_4(scalars=st.integers(-3, 3).filter(bool)),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
)
def test_rational_shift_of_an_integer_model(g, a):
    assert period_equal_up_to_shift(g, g + a, 8) == a


def test_comparison_stops_at_the_first_mismatch():
    """h = g + x^v + x^-v with v off the support changes c(h^2) by 2, so the
    comparison ends at degree 2 without forming any deeper power.  It runs
    in its own process under a timeout: to order 100000 the full periods
    would take hours."""
    code = (
        "from lgforge import parse\n"
        "from lgforge.period import first_period_mismatch\n"
        "g = parse('x+y+1/(x*y)+2*x*y', 2)\n"
        "h = g + parse('x^3/y+y/x^3', 2)\n"
        "print(first_period_mismatch(g, h, 100000))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
    )
    assert proc.stdout == "(2, 4, 6)\n"


def convolved_mismatch(f, g, order):
    """The first degree d at which P_g differs from e^{at} P_f, a = c(g) -
    c(f), found by convolving the whole series: the expected coefficient is
    sum_k C(d,k) a^k c(f^{d-k}), written as an int when integral."""
    a = Fraction(g.constant_term()) - Fraction(f.constant_term())
    pf = period_coefficients(f, order).coefficients
    pg = period_coefficients(g, order).coefficients
    for d in range(order + 1):
        expected = sum(comb(d, k) * a**k * pf[d - k] for k in range(d + 1))
        if expected != pg[d]:
            return d, int(expected) if expected.denominator == 1 else expected, pg[d]
    return None


@st.composite
def shifted_pairs(draw):
    """f, a unimodular image of f plus a rational constant, and an order;
    about a third of the images also get b*x^v + c*x^-v, which usually
    breaks the match."""
    f = draw(polys_of_rank_1_to_4())
    g = f.apply_monomial_map(unimodular(draw, f.rank, 3, 2))
    g = g + draw(st.fractions(min_value=-5, max_value=5, max_denominator=6))
    if draw(st.integers(0, 2)) == 0:
        v = draw(st.tuples(*[st.integers(-3, 3)] * f.rank).filter(any))
        b, c = draw(rationals), draw(rationals)
        g = g + LaurentPolynomial.from_terms(f.rank, 0, {v: b, tuple(-x for x in v): c})
    return f, g, draw(st.integers(2, 8))


@settings(deadline=None, max_examples=100)
@given(shifted_pairs())
def test_mismatch_up_to_shift_matches_convolution_oracle(case):
    f, g, order = case
    witness = first_period_mismatch(f, g, order)
    oracle = convolved_mismatch(f, g, order)
    assert witness == oracle
    if oracle is not None:
        assert [type(v) for v in witness] == [type(v) for v in oracle]


def test_shift_must_be_an_exact_rational():
    f = parse("x+y+1/(x*y)", 2)
    with pytest.raises(TypeError, match="not an exact rational"):
        shift_relation_check(f, 0.1)
    assert shift_relation_check(f, Fraction(1, 10))


@st.composite
def wide_polys(draw, param_rank=0):
    """Ranks 1-6 with exponents up to 2^20 + 1 in size.  Each exponent is a
    small combination a*g + b*h + e of two wide generators, so that constant
    terms do not all vanish.  With parameters, each coefficient is a
    parameter polynomial with exponents -2..2."""
    rank = draw(st.integers(1, 6))
    wide = st.tuples(*[st.integers(-(2**18), 2**18)] * rank)
    g, h = draw(wide), draw(wide)
    small = st.tuples(*[st.integers(-1, 1)] * rank)
    exponent = st.tuples(st.integers(-2, 2), st.integers(-2, 2), small).map(
        lambda abe: tuple(abe[0] * gi + abe[1] * hi + ei for gi, hi, ei in zip(g, h, abe[2]))
    )
    if param_rank:
        param_exponent = st.tuples(*[st.integers(-2, 2)] * param_rank)
        coeff = st.dictionaries(param_exponent, rationals, min_size=1, max_size=3).map(
            lambda terms: ParamPoly.of(param_rank, terms)
        )
    else:
        coeff = rationals
    terms = draw(st.dictionaries(exponent, coeff, min_size=1, max_size=5))
    return LaurentPolynomial.from_terms(rank, param_rank, terms)


@settings(deadline=None, max_examples=60)
@given(wide_polys(), st.integers(0, 7))
def test_wide_exponents_match_enumeration_oracle(f, order):
    oracle = [multinomial_constant_term(f.terms, d) for d in range(order + 1)]
    assert list(period_coefficients(f, order).coefficients) == oracle


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 3).flatmap(wide_polys), st.integers(0, 5))
def test_wide_parametrized_series_matches_naive_powering(f, order):
    naive = [(f ** d).constant_term() for d in range(order + 1)]
    assert list(period_coefficients(f, order).coefficients) == naive


@pytest.mark.parametrize("k", [3, 10, 20])
def test_series_at_the_digit_boundary(k):
    """x^M + x^-M + y with M = 2^k - 1, 2^k, 2^k + 1: at orders with
    ceil(N/2) in 1, 2, 4 the largest exponent ceil(N/2)*M sits on or next
    to a power of two.  In the parametrized variant a^M*x^M + a^M*x^-M + y
    the constant term of degree N carries a^(N*M), the largest parameter
    digit a pairing can form."""
    for m in (2**k - 1, 2**k, 2**k + 1):
        f = LaurentPolynomial.from_terms(2, 0, {(m, 0): 1, (-m, 0): 1, (0, 1): 1})
        a_m = ParamPoly.of(1, {(m,): 1})
        g = LaurentPolynomial.from_terms(2, 1, {(m, 0): a_m, (-m, 0): a_m, (0, 1): 1})
        for order in range(9):
            oracle = [multinomial_constant_term(f.terms, d) for d in range(order + 1)]
            assert list(period_coefficients(f, order).coefficients) == oracle, (m, order)
            naive = [(g ** d).constant_term() for d in range(order + 1)]
            assert list(period_coefficients(g, order).coefficients) == naive, (m, order)


def catalog_periods_n8() -> str:
    """Regularized series at order 8 of every catalog model, param_model and
    toric_oracle pair model, as JSON text."""
    from lgforge import class_group, load_catalog, toric_pair_model
    from lgforge.toric import FanData

    out = {}
    for entry in load_catalog():
        inputs = [("model", entry.parse_model), ("param_model", entry.parse_param_model)]
        for index, check in enumerate(entry.checks):
            if check.kind == "toric_oracle":
                rays = check.payload["rays"]
                fan = FanData(rank=len(rays[0]), rays=tuple(map(tuple, rays)))
                inputs.append((f"toric_oracle {index}", toric_pair_model(fan, class_group(fan))))
        for label, f in inputs:
            if f is not None:
                out[f"{entry.id} {label}"] = period_coefficients(f, 8).render_list()
    return json.dumps(out, indent=1) + "\n"


def test_catalog_periods_are_pinned():
    """Renders of the 126 catalog series at n=8 are fixed byte for byte."""
    golden = Path(__file__).parent / "data/periods_n8.json"
    assert catalog_periods_n8() == golden.read_text(encoding="utf-8")


# -- the fibre-packed kernel -------------------------------------------------------


def fibre_packed(f, order):
    """Whether the kernel repacks f with a fibre for this order."""
    from lgforge.laurent import flat_terms
    from lgforge.period import _fibre_basis, _integer_columns

    cols = _integer_columns(flat_terms(f))[0]
    return _fibre_basis(cols, f.param_rank, order) is not None


def paired_oracle(f, order):
    """c(f^d) for d = 0..order from LaurentPolynomial powers, tuple keys and
    exact rationals: the terms of f^ceil(d/2) and f^floor(d/2) at e and -e."""
    powers = [LaurentPolynomial.one(f.rank, f.param_rank)]
    for _ in range((order + 1) // 2):
        powers.append(powers[-1] * f)
    out = []
    for d in range(order + 1):
        a, b = powers[(d + 1) // 2].terms, powers[d // 2].terms
        out.append(sum(c * b.get(tuple(-x for x in e), 0) for e, c in a.items()))
    return [ParamPoly.of(f.param_rank, c.terms) if isinstance(c, ParamPoly) else c for c in out]


def unimodular(draw, rank, steps, multiplier):
    """A random unimodular matrix: elementary row operations with the given
    multiplier range, a row swap and a sign flip."""
    m = [[int(i == j) for j in range(rank)] for i in range(rank)]
    index = st.integers(0, rank - 1)
    for _ in range(draw(st.integers(0, steps))):
        i, j, c = draw(index), draw(index), draw(st.integers(-multiplier, multiplier))
        if i != j:
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    i, j = draw(index), draw(index)
    m[i], m[j] = m[j], m[i]
    k = draw(index)
    m[k] = [-a for a in m[k]]
    return m


# exponent box by rank: dense enough that 8-12 terms fit and lines repeat
DENSE_BOX = {1: 6, 2: 2, 3: 1, 4: 1}


@st.composite
def dense_polys_and_skews(draw, param_rank=0):
    """8-12 terms of rank 1-4 in a small box around 0, where lines along
    some direction meet the support several times, and a unimodular matrix
    of up to 8 operations with multipliers up to 3, which skews that
    support far from the box.  At orders 8 and 9 the kernel searches such
    an f for a fibre (see lgforge.period._fibre_basis)."""
    rank = draw(st.integers(1, 4))
    box = DENSE_BOX[rank]
    exponent = st.tuples(*[st.integers(-box, box)] * rank)
    if param_rank:
        param_exponent = st.tuples(*[st.integers(0, 1)] * param_rank)
        coeff = st.dictionaries(param_exponent, rationals, min_size=1, max_size=2).map(
            lambda terms: ParamPoly.of(param_rank, terms)
        )
    else:
        coeff = rationals
    terms = draw(st.dictionaries(exponent, coeff, min_size=8, max_size=12))
    return LaurentPolynomial.from_terms(rank, param_rank, terms), unimodular(draw, rank, 8, 3)


@settings(deadline=None, max_examples=30)
@given(dense_polys_and_skews(), st.integers(8, 9))
def test_skewed_images_match_paired_oracle(case, order):
    """The oracle powers f itself; the kernel sees only the skewed image,
    which it must reduce and pack on its own."""
    f, m = case
    g = f.apply_monomial_map(m)
    assert list(period_coefficients(g, order).coefficients) == paired_oracle(f, order)


@settings(deadline=None, max_examples=20)
@given(st.integers(1, 2).flatmap(dense_polys_and_skews), st.integers(8, 9))
def test_parametrized_skewed_images_match_paired_oracle(case, order):
    f, m = case
    g = f.apply_monomial_map(m)
    series = period_coefficients(g, order).coefficients
    assert series == period_coefficients(f, order).coefficients
    assert list(series) == paired_oracle(f, order)


def test_the_hypothesis_inputs_are_fibre_packed():
    """The two tests above reach the fibre path: a dense 8-term model of
    each rank, skewed, is repacked."""
    skew = {1: [[-1]], 2: [[2, 3], [1, 2]], 3: [[1, 3, 0], [0, 1, 0], [2, 6, 1]],
            4: [[1, 0, 2, 0], [0, 1, 0, 0], [0, 3, 1, 0], [1, 0, 2, 1]]}
    for rank, box in DENSE_BOX.items():
        points = [e for e in product(range(-box, box + 1), repeat=rank)][:8]
        f = LaurentPolynomial.from_terms(rank, 0, {e: 1 for e in points})
        assert fibre_packed(f.apply_monomial_map(skew[rank]), 8), rank


@pytest.mark.parametrize(
    "text, rank",
    [
        ("0", 1),
        ("0", 3),
        ("7/3", 2),
        ("-2", 1),
        ("x + x^2", 1),  # every exponent positive: c(f^d) = 0 for d >= 1
        ("1/x + 1/x^2 + y/x", 2),
        ("x*y + x^2*y + x*y^2 + 3", 2),
        ("x/3 + 1/(2*x) + y/5 + 1/(7*y) + 1/6 + x*y/4", 2),
    ],
)
def test_edge_cases_match_enumeration_oracle(text, rank):
    f = parse(text, rank)
    if f.is_zero:
        oracle = [1] + [0] * 12
    else:
        oracle = [multinomial_constant_term(f.terms, d) for d in range(13)]
    for order in range(13):
        series = period_coefficients(f, order).coefficients
        assert list(series) == oracle[: order + 1], (text, order)


@pytest.mark.parametrize(
    "text",
    ["x + x^2 + x^3 + x*y + x^2/y + x^4*y", "1/x + 1/x^2 + 1/x^3 + y/x + 1/(x^2*y) + 1/(x^4*y)"],
)
def test_supports_off_the_origin_along_the_fibre(text):
    """Every t on one side of 0: the t = 0 slot lies outside every fibre,
    and every c(f^d) with d >= 1 is 0."""
    f = parse(text, 2)
    assert fibre_packed(f, 12)
    assert list(period_coefficients(f, 12).coefficients) == [1] + [0] * 12


@pytest.mark.parametrize("big", [2**60, -(2**60)])
def test_coefficients_at_the_slot_bound(big):
    """A coefficient of size 2^60 makes every slot of the fibre integers
    hold numbers of ~60*d bits; the digits must still read back exactly."""
    f = LaurentPolynomial.from_terms(
        2, 0, {(1, 0): big, (0, 0): 1, (-1, 0): big, (1, 1): 3, (-1, -1): -big}
    )
    assert fibre_packed(f, 12)
    oracle = [multinomial_constant_term(f.terms, d) for d in range(13)]
    assert list(period_coefficients(f, 12).coefficients) == oracle


@pytest.mark.parametrize(
    "text, packs",
    [
        # a1 and a2 repeat along the lines through x: the fibre is packed
        ("a1*(x + 1 + 1/x) + a2*(y + x*y) + 1/y + a1*a2", True),
        # a pair model: the parameters keep every key apart, nothing is packed
        ("a1*x*y + x + y + a2/y + a3/x + a4/(x*y)", False),
    ],
)
def test_parametrized_series_with_and_without_packing(text, packs):
    f = parse(text, 2, 4)
    assert fibre_packed(f, 10) is packs
    assert list(period_coefficients(f, 10).coefficients) == paired_oracle(f, 10)


def test_series_past_the_slot_horizon():
    """Fibre slots are sized for max(2d, 32) degrees; past that horizon f is
    repacked with wider slots and the held power is formed again.  Order 36
    crosses it at d = 33, and order 70 at d = 33 and d = 67."""
    f = parse("x+y+1/x+1/y+x*y+1/(x*y)+x/y+2*y/x+3", 2)
    assert fibre_packed(f, 32)
    assert list(period_coefficients(f, 36).coefficients) == paired_oracle(f, 36)
    g = parse("a1*x+y+1/x+1/y+a1*x*y+1/(x*y)+x/y+2*y/x+3", 2, 1)
    assert fibre_packed(g, 32)
    assert list(period_coefficients(g, 34).coefficients) == paired_oracle(g, 34)
    h = parse("x+y+1/x+1/y+3", 2)
    assert fibre_packed(h, 32)
    assert list(period_coefficients(h, 70).coefficients) == paired_oracle(h, 70)


def test_the_direction_is_searched_once_per_series(monkeypatch):
    """The basis and direction read f alone: an order-100 series crosses
    the slot horizon at d = 33 and d = 67 but searches once."""
    from lgforge import fibre

    calls = []
    search = fibre._direction

    def counted(*args):
        calls.append(args)
        return search(*args)

    monkeypatch.setattr(fibre, "_direction", counted)
    f = parse("x+y+1/x+1/y+x*y+1/(x*y)+x/y+2*y/x+3", 2)
    period_coefficients(f, 100)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "text, order, loaded",
    [("x+y+1/(x*y)", 8, False), ("x+y+1/x+1/y+x*y+1/(x*y)+x/y+2*y/x+3", 12, True)],
)
def test_fibre_module_loads_only_for_large_powers(text, order, loaded):
    """A period whose power steps are too small to repay the search never
    imports lgforge.fibre, so a cold start does not compile it."""
    code = (
        "import sys\n"
        "from lgforge import parse, period_coefficients\n"
        f"period_coefficients(parse({text!r}, 2), {order})\n"
        "print('lgforge.fibre' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src")},
    )
    assert proc.stdout == f"{loaded}\n"
