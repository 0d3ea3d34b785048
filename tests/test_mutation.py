"""Mutations, mutability, inverses, and chain verification."""

import random

import pytest

from lgforge import (
    CoordStep,
    LaurentPolynomial,
    MutationChain,
    MutationData,
    MutationStep,
    NotMutableError,
    grade_by_weight,
    invert_mutation,
    mutate,
    parse,
    period_coefficients,
    run_chain,
    verify_chain,
)
from lgforge import mutation
from lgforge.laurent import LaurentError


class TestGrading:
    def test_p2_model(self):
        f = parse("x+y+1/(x*y)", 2)
        pieces = grade_by_weight(f, (1, 0))
        assert {k: v.render() for k, v in pieces.items()} == {
            1: "x",
            0: "y",
            -1: "1/(x*y)",
        }

    def test_constant_has_weight_zero(self):
        pieces = grade_by_weight(parse("3", 2), (0, 1))
        assert list(pieces) == [0]
        assert pieces[0] == parse("3", 2)

    def test_quadric_model(self):
        f = parse("(x+1)^2/(x*y*z)+y+z", 3)
        pieces = grade_by_weight(f, (0, 1, 1))
        assert pieces[-2] == parse("(x+1)^2/(x*y*z)", 3)
        assert pieces[1] == parse("y+z", 3)

    def test_completeness(self):
        f = parse("x^2 + 3*x*y - 2/y + 5", 2)
        pieces = grade_by_weight(f, (2, -1))
        total = LaurentPolynomial.zero(2)
        for piece in pieces.values():
            total = total + piece
        assert total == f

    def test_zero_weight_rejected(self):
        with pytest.raises(LaurentError):
            grade_by_weight(parse("x", 2), (0, 0))


@pytest.mark.parametrize(
    "call",
    [
        lambda: MutationData((0, 1.5, 1), parse("x+1", 3)),
        lambda: MutationData((0, True, 1), parse("x+1", 3)),
        lambda: parse("x+y", 2).apply_monomial_map([[1, 0], [0.5, 1]]),
        lambda: parse("x+y", 2).graded_pieces([1.7, 0]),
        lambda: grade_by_weight(parse("x+y", 2), (1.7, 0)),
        lambda: LaurentPolynomial.from_terms(1, 0, {(1.5,): 1}),
        lambda: LaurentPolynomial.from_terms(2, 0, {(1, True): 1}),
    ],
    ids=[
        "mutation-weight", "bool-mutation-weight", "monomial-map", "graded-pieces",
        "grade-by-weight", "from-terms-exponent", "bool-from-terms-exponent",
    ],
)
def test_integer_vectors_refuse_non_integers(call):
    """A float or bool entry is refused, never truncated to an integer."""
    with pytest.raises(LaurentError, match="not a vector of integers"):
        call()


class TestMutate:
    def test_quadric_example(self):
        f = parse("(x+1)^2/(x*y*z)+y+z", 3)
        g = mutate(f, MutationData((0, 1, 1), parse("x+1", 3)))
        assert g.render() == "x*y+x*z+y+z+1/(x*y*z)"

    def test_unit_factor_is_identity(self):
        f = parse("x + 2*y + 3/(x*y)", 2)
        assert mutate(f, MutationData((1, 0), parse("1", 2))) == f

    def test_not_mutable(self):
        with pytest.raises(NotMutableError) as err:
            mutate(parse("1/x", 2), MutationData((1, 0), parse("1+y", 2)))
        assert err.value.grade == -1
        assert err.value.term == parse("1/x", 2)
        assert "remainder term 1/x" in str(err.value)

    def test_not_mutable_witness_is_the_leading_remainder_term(self):
        """(x^2+x+3)/y over 1+x: the quotient takes x, and the remainder 3/y
        is the witness, with its exact coefficient."""
        f = parse("(x^2+x+3)/y + y", 2)
        with pytest.raises(NotMutableError) as err:
            mutate(f, MutationData((0, 1), parse("1+x", 2)))
        assert err.value.grade == -1
        assert err.value.term == parse("3/y", 2)

    def test_factor_off_hyperplane_rejected(self):
        with pytest.raises(LaurentError):
            MutationData((0, 1), parse("x+y", 2))

    def test_zero_factor_rejected(self):
        with pytest.raises(LaurentError, match="factor must be nonzero"):
            MutationData((1, 0), parse("0", 2))

    def test_weight_must_be_primitive(self):
        with pytest.raises(LaurentError):
            MutationData((0, 2), parse("x+1", 2))

    def test_period_invariance_on_quadric_example(self):
        f = parse("(x+1)^2/(x*y*z)+y+z", 3)
        g = mutate(f, MutationData((0, 1, 1), parse("x+1", 3)))
        assert (
            period_coefficients(f, 10).coefficients
            == period_coefficients(g, 10).coefficients
        )


class TestInvert:
    def test_round_trip_on_quadric_example(self):
        f = parse("(x+1)^2/(x*y*z)+y+z", 3)
        data = MutationData((0, 1, 1), parse("x+1", 3))
        assert invert_mutation(mutate(f, data), data) == f

    def test_unit_factor(self):
        f = parse("x + y", 2)
        assert invert_mutation(f, MutationData((1, 0), parse("1", 2))) == f

    def test_not_invertible(self):
        with pytest.raises(NotMutableError):
            invert_mutation(parse("x", 2), MutationData((1, 0), parse("1+y", 2)))


def random_mutable_instance(rng):
    """f = a^k * (negative part) + nonnegative part, mutable by construction."""
    rank = 2
    w = (0, 1)
    a_terms = {(rng.randint(-2, 2), 0): rng.randint(1, 3) for _ in range(rng.randint(1, 3))}
    a = LaurentPolynomial.from_terms(rank, 0, a_terms)
    if a.is_zero:
        a = parse("x+1", 2)
    k = rng.randint(1, 2)
    low_terms = {
        (rng.randint(-2, 2), -k): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))
    }
    low = LaurentPolynomial.from_terms(rank, 0, low_terms)
    high_terms = {
        (rng.randint(-2, 2), rng.randint(0, 2)): rng.randint(-3, 3)
        for _ in range(rng.randint(1, 4))
    }
    high = LaurentPolynomial.from_terms(rank, 0, high_terms)
    f = (a ** k) * low + high
    return f, MutationData(w, a)


def test_random_mutable_instances_preserve_period_and_invert():
    rng = random.Random(1723)
    checked = 0
    for _ in range(100):
        f, data = random_mutable_instance(rng)
        if f.is_zero:
            continue
        g = mutate(f, data)
        assert invert_mutation(g, data) == f
        assert (
            period_coefficients(f, 6).coefficients
            == period_coefficients(g, 6).coefficients
        )
        checked += 1
    assert checked >= 90


class TestChains:
    def test_empty_chain(self):
        f = parse("x+y+1/(x*y)", 2)
        report = verify_chain(MutationChain(f, ()), f)
        assert report.ok

    def test_blowup_of_p3_chain(self):
        start = parse("x+y+z+x/z+y/z+x/(y*z)+y/(x*z)+2/z+2/y+2/x+z/(x*y)", 3)
        chain = MutationChain(
            start,
            (
                CoordStep(((1, 0, 0), (0, 1, 0), (1, 1, 1))),
                MutationStep(MutationData((0, 0, -1), parse("x+y+1", 3))),
            ),
        )
        report = verify_chain(chain, parse("x+y+z+(x+y+1)^3/(x*y*z)", 3), order=10)
        assert report.ok
        assert all(step.ok for step in report.steps)

    def test_blowup_of_cubic_chain(self):
        start = parse(
            "y + z + y*z/x + 2*z^2/x + z^3/(x*y) + x/z + y/z + 2*y/x + 2*z/y"
            " + 2*z/x + x/(y*z) + 2/z + y/(x*z)",
            3,
        )
        chain = MutationChain(
            start,
            (
                CoordStep(((1, 0, 0), (0, 1, 0), (2, 2, 1))),
                MutationStep(MutationData((0, -1, 0), parse("z+1", 3))),
                MutationStep(MutationData((0, 0, -1), parse("x+y+1", 3))),
            ),
        )
        expected = parse("(x+y+1)^2*(x+y+z+1)/(x*y*z)+z", 3)
        report = verify_chain(chain, expected, order=10, modulo_constant=True)
        assert report.ok
        # the source silently adds a constant 2 in its rewriting
        assert "shift 2" in report.detail

    def test_failing_step_reports_index(self):
        chain = MutationChain(
            parse("1/x", 2),
            (MutationStep(MutationData((1, 0), parse("1+y", 2))),),
        )
        report = run_chain(chain)
        assert not report.ok
        assert report.steps[0].index == 0
        assert "divisible" in report.steps[0].detail


CUBIC_CHAIN = MutationChain(
    parse(
        "y + z + y*z/x + 2*z^2/x + z^3/(x*y) + x/z + y/z + 2*y/x + 2*z/y"
        " + 2*z/x + x/(y*z) + 2/z + y/(x*z)",
        3,
    ),
    (
        CoordStep(((1, 0, 0), (0, 1, 0), (2, 2, 1))),
        MutationStep(MutationData((0, -1, 0), parse("z+1", 3))),
        MutationStep(MutationData((0, 0, -1), parse("x+y+1", 3))),
    ),
)


class TestChainWitnesses:
    def test_carried_series_is_the_final_period(self):
        chain = MutationChain(
            CUBIC_CHAIN.start,
            CUBIC_CHAIN.steps + (CoordStep(((0, 1, 0), (1, 0, 0), (1, 1, 1))),),
        )
        report = run_chain(chain, order=8)
        assert report.ok
        assert report.series.coefficients == period_coefficients(report.final, 8).coefficients

    def test_modulo_match_with_a_rational_shift(self):
        expected = parse("(x+y+1)^2*(x+y+z+1)/(x*y*z)+z+1/3", 3)
        report = verify_chain(CUBIC_CHAIN, expected, order=10, modulo_constant=True)
        assert report.ok
        assert report.detail == "matches expected up to constant shift 7/3"
        assert report.series == period_coefficients(report.final, 10)

    def test_modulo_mismatch_gives_degree_and_both_values(self):
        wrong = parse("(x+y+1)^2*(x+y+z+1)/(x*y*z)+z+x", 3)
        report = verify_chain(CUBIC_CHAIN, wrong, order=10, modulo_constant=True)
        assert not report.ok
        # P_final = 1, 0, 14, ... and P_wrong = 1, 2, 22, ... with shift 2:
        # degree 2 expects 14 + 2*2*0 + 2^2*1 = 18
        assert report.witness == (2, 18, 22)
        assert report.detail.endswith("(first mismatch at degree 2: 18 vs 22)")

    def test_step_mismatch_gives_degree_and_both_values(self, monkeypatch):
        real = mutation.mutate
        monkeypatch.setattr(mutation, "mutate", lambda f, data: real(f, data) + parse("1/x", 3))
        chain = MutationChain(
            parse("(x+1)^2/(x*y*z)+y+z", 3),
            (MutationStep(MutationData((0, 1, 1), parse("x+1", 3))),),
        )
        report = run_chain(chain)
        assert not report.ok
        assert report.witness == (4, 0, 24)
        assert report.steps[0].detail == (
            "regularized period not preserved (first mismatch at degree 4: 0 vs 24)"
        )


def test_chain_subst_steps_lower_the_parameter_rank():
    def subst(name, value):
        return {"kind": "subst", "assign": {name: value}}

    steps = mutation.chain_steps_from_json([subst("a2", "1"), subst("a1", "2")], 1, 2)
    assert [step.assign for step in steps] == [((1, 1),), ((0, 2),)]
    with pytest.raises(mutation.ChainFormatError, match="chain step 1: no parameter 'a2'"):
        mutation.chain_steps_from_json([subst("a1", "1"), subst("a2", "1")], 1, 2)
