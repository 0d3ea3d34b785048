"""Periods of Laurent polynomials and identities between them.

The classical period of f has degree-d coefficient c(f^d)/d!, where c(..)
is the constant term; the regularized flavor drops the 1/d!.  All values
are exact rationals (or parameter polynomials for parametrized input).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial

from .laurent import LaurentError, LaurentPolynomial, ParamPoly, _norm_scalar, flat_terms

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
        return [str(c) for c in self.coefficients]


def _packing(f: LaurentPolynomial, half: int):
    """f flattened to packed int keys, and the digit width in bits.

    A term q_p*a^p*x^e becomes the key sum_i v_i*2^(s*i) of v = (p, e), the
    parameters in the low digits.  Digits are balanced, so packing is
    additive and pack(-v) = -pack(v); s makes 2^(s-1) exceed every digit
    of a pairing of two powers up to f^half.
    """
    flat = flat_terms(f)
    bound = 2 * half * max((abs(v) for key in flat for v in key), default=0)
    s = bound.bit_length() + 1
    packed = {sum(v << (s * i) for i, v in enumerate(key)): c for key, c in flat.items()}
    return packed, s


def _times(power: dict, f: dict) -> dict:
    """Product of two packed polynomials, zeros dropped."""
    out: dict = {}
    get = out.get
    for k1, c1 in f.items():
        for k2, c2 in power.items():
            k = k1 + k2
            out[k] = get(k, 0) + c1 * c2
    for k in [k for k, c in out.items() if not c]:
        del out[k]
    return out


def _by_torus(power: dict, shift: int) -> dict:
    """Packed terms grouped by their torus part: torus key -> [(param key, c)]."""
    groups: dict = {}
    offset = 1 << shift >> 1
    for k, c in power.items():
        torus = (k + offset) >> shift
        groups.setdefault(torus, []).append((k - (torus << shift), c))
    return groups


def _param_constant(a: dict, b_groups: dict, shift: int, s: int, param_rank: int):
    """Constant torus term of a*b as a ParamPoly, b grouped by torus part."""
    acc: dict = {}
    get = acc.get
    offset = 1 << shift >> 1
    for k, c in a.items():
        torus = (k + offset) >> shift
        pa = k - (torus << shift)
        for pb, c2 in b_groups.get(-torus, ()):
            p = pa + pb
            acc[p] = get(p, 0) + c * c2
    mask, digit_half = (1 << s) - 1, 1 << s >> 1
    terms = {}
    for p, c in acc.items():
        exp = []
        for _ in range(param_rank):
            digit = ((p + digit_half) & mask) - digit_half
            exp.append(digit)
            p = (p - digit) >> s
        terms[tuple(exp)] = c
    return ParamPoly.of(param_rank, terms)


def period_coefficients(
    f: LaurentPolynomial, order: int, flavor: str = REGULARIZED
) -> PeriodSeries:
    """Period series of f to the given order, meet in the middle.

    c(f^d) is the constant term of f^ceil(d/2) * f^floor(d/2), so only the
    powers up to ceil(order/2) are formed, and only the last two are held.
    Powers live on packed int keys (see _packing); a pairing matches keys
    k and -k, and with parameters it matches torus parts and sums the
    parameter parts into the output coefficient.
    """
    if order < 0:
        raise LaurentError("period order must be nonnegative")
    half = (order + 1) // 2
    packed, s = _packing(f, half)
    shift = s * f.param_rank
    coeffs = [1]
    power = {0: 1}
    if f.param_rank:
        for k in range(1, half + 1):
            previous, power = power, _times(power, packed)
            groups = _by_torus(power, shift)
            coeffs.append(_param_constant(previous, groups, shift, s, f.param_rank))
            if 2 * k <= order:
                coeffs.append(_param_constant(power, groups, shift, s, f.param_rank))
    else:
        for k in range(1, half + 1):
            previous, power = power, _times(power, packed)
            get = power.get
            coeffs.append(_norm_scalar(sum(c * get(-e, 0) for e, c in previous.items())))
            if 2 * k <= order:
                coeffs.append(_norm_scalar(sum(c * get(-e, 0) for e, c in power.items())))
    if flavor == CLASSICAL:
        coeffs = [
            c * Fraction(1, factorial(d)) for d, c in enumerate(coeffs)
        ]
    return PeriodSeries(order, flavor, f.param_rank, tuple(coeffs))


def constant_shift(f: LaurentPolynomial, g: LaurentPolynomial) -> Fraction:
    """c(g) - c(f), the only shift a with P_g = e^{at} P_f."""
    if f.param_rank or g.param_rank:
        raise LaurentError("period comparison requires unparametrized polynomials")
    return Fraction(g.constant_term()) - Fraction(f.constant_term())


def series_mismatch(before: PeriodSeries, after: PeriodSeries, shift=0):
    """Compare P_after with e^{shift*t} P_before, degree by degree.

    Returns None when they agree, else the first disagreeing degree with
    the expected and the actual regularized coefficient.  In regularized
    form the expected value is sum_k C(d,k) shift^k R_before[d-k].
    """
    pf = before.regularized().coefficients
    pg = after.regularized().coefficients
    for d in range(min(len(pf), len(pg))):
        expected = (
            sum(comb(d, k) * shift ** k * pf[d - k] for k in range(d + 1))
            if shift
            else pf[d]
        )
        if pg[d] != expected:
            return d, expected, pg[d]
    return None


def first_period_mismatch(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10):
    """series_mismatch of the periods of f and g to the given order, with
    the shift a = c(g) - c(f).  Both inputs must be unparametrized."""
    shift = constant_shift(f, g)
    return series_mismatch(period_coefficients(f, order), period_coefficients(g, order), shift)


def shift_relation_check(f: LaurentPolynomial, a, order: int = 10) -> bool:
    """Check P_{f+a}(t) = e^{at} P_f(t) termwise to the given order."""
    return first_period_mismatch(f, f + Fraction(a), order) is None


def period_equal_up_to_shift(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10):
    """Shift a with P_g = e^{at} P_f to the given order, or None."""
    return constant_shift(f, g) if first_period_mismatch(f, g, order) is None else None


def period_distinct(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10) -> bool:
    return first_period_mismatch(f, g, order) is not None
