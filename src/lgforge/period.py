"""Periods of Laurent polynomials and identities between them.

The classical period of f has degree-d coefficient c(f^d)/d!, where c(..)
is the constant term; the regularized flavor drops the 1/d!.  All values
are exact rationals (or parameter polynomials for parametrized input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import factorial

from .laurent import LaurentError, LaurentPolynomial, ParamPoly, _norm_scalar

CLASSICAL = "classical"
REGULARIZED = "regularized"


@dataclass(frozen=True)
class PeriodSeries:
    order: int
    flavor: str
    param_rank: int
    coefficients: tuple = field(default_factory=tuple)

    def __post_init__(self):
        if self.flavor not in (CLASSICAL, REGULARIZED):
            raise LaurentError(f"unknown period flavor {self.flavor!r}")

    def regularized(self) -> "PeriodSeries":
        if self.flavor == REGULARIZED:
            return self
        coeffs = tuple(
            c * factorial(d) for d, c in enumerate(self.coefficients)
        )
        return PeriodSeries(self.order, REGULARIZED, self.param_rank, coeffs)

    def classical(self) -> "PeriodSeries":
        if self.flavor == CLASSICAL:
            return self
        coeffs = tuple(
            c * Fraction(1, factorial(d)) for d, c in enumerate(self.coefficients)
        )
        return PeriodSeries(self.order, CLASSICAL, self.param_rank, coeffs)

    def render_list(self) -> list[str]:
        out = []
        for c in self.coefficients:
            if isinstance(c, ParamPoly):
                out.append(c.render(with_parens=False))
            else:
                out.append(str(c))
        return out


def _pairing(a: LaurentPolynomial, b: LaurentPolynomial):
    """Constant term of a*b: the sum of a_e * b_(-e)."""
    if len(a.terms) > len(b.terms):
        a, b = b, a
    total = 0
    for exp, coeff in a.terms.items():
        other = b.terms.get(tuple(-e for e in exp))
        if other is not None:
            total = total + coeff * other
    return total if isinstance(total, ParamPoly) else _norm_scalar(total)


def period_coefficients(
    f: LaurentPolynomial, order: int, flavor: str = REGULARIZED
) -> PeriodSeries:
    """Period series of f to the given order, meet in the middle.

    c(f^d) is the constant term of f^ceil(d/2) * f^floor(d/2), so only the
    powers up to ceil(order/2) are formed, and only the last two are held.
    """
    if order < 0:
        raise LaurentError("period order must be nonnegative")
    coeffs = [1]
    power = LaurentPolynomial.one(f.rank, f.param_rank)
    for k in range(1, (order + 1) // 2 + 1):
        previous, power = power, power * f
        coeffs.append(_pairing(previous, power))
        if 2 * k <= order:
            coeffs.append(_pairing(power, power))
    if flavor == CLASSICAL:
        coeffs = [
            c * Fraction(1, factorial(d)) for d, c in enumerate(coeffs)
        ]
    return PeriodSeries(order, flavor, f.param_rank, tuple(coeffs))


def constant_shift(f: LaurentPolynomial, g: LaurentPolynomial) -> Fraction:
    """c(g) - c(f), the only shift a with P_g = e^{at} P_f."""
    return Fraction(g.constant_term()) - Fraction(f.constant_term())


def first_period_mismatch(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10):
    """Compare P_g with e^{at} P_f, a = c(g) - c(f), to the given order.

    Returns None when they agree, else the first disagreeing degree with
    the expected and the actual regularized coefficient.  Both inputs must
    be unparametrized.
    """
    if f.param_rank or g.param_rank:
        raise LaurentError("period comparison requires unparametrized polynomials")
    a = constant_shift(f, g)
    pf = period_coefficients(f, order, CLASSICAL).coefficients
    pg = period_coefficients(g, order, CLASSICAL).coefficients
    for d in range(order + 1):
        rhs = sum(
            (a ** k) * Fraction(1, factorial(k)) * pf[d - k] for k in range(d + 1)
        )
        if pg[d] != rhs:
            return d, rhs * factorial(d), pg[d] * factorial(d)
    return None


def shift_relation_check(f: LaurentPolynomial, a, order: int = 10) -> bool:
    """Check P_{f+a}(t) = e^{at} P_f(t) termwise to the given order."""
    return first_period_mismatch(f, f + Fraction(a), order) is None


def period_equal_up_to_shift(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10):
    """Shift a with P_g = e^{at} P_f to the given order, or None."""
    return constant_shift(f, g) if first_period_mismatch(f, g, order) is None else None


def period_distinct(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10) -> bool:
    return first_period_mismatch(f, g, order) is not None
