"""Periods of Laurent polynomials and identities between them.

The regularized period of f has degree-d coefficient c(f^d), where c(..)
is the constant term; the classical period divides it by d!.  lgforge
computes and compares only the regularized series.  All values are exact
rationals (or parameter polynomials for parametrized input).

The kernel runs over the integers: denominators are cleared once, before
powering, and each output is divided once.  Coefficients stream degree by
degree, so a comparison stops at its first mismatching degree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, lcm

from .laurent import LaurentError, LaurentPolynomial, ParamPoly, _norm_scalar, flat_terms


@dataclass(frozen=True)
class PeriodSeries:
    """Regularized period coefficients c(f^d), d = 0..order."""

    coefficients: tuple

    def render_list(self) -> list[str]:
        return [str(c) for c in self.coefficients]


def _packing(f: LaurentPolynomial, half: int):
    """f flattened to packed int keys, its common denominator, and the digit
    width in bits.

    A term q_p*a^p*x^e becomes the key sum_i v_i*2^(s*i) of v = (p, e), the
    parameters in the low digits, with the integer coefficient q_p*D for the
    lcm D of the denominators.  Digits are balanced, so packing is additive
    and pack(-v) = -pack(v); s makes 2^(s-1) exceed every digit of a pairing
    of two powers up to f^half.
    """
    flat = flat_terms(f)
    bound = 2 * half * max((abs(v) for key in flat for v in key), default=0)
    s = bound.bit_length() + 1
    den = lcm(*(c.denominator for c in flat.values()))
    packed = {
        sum(v << (s * i) for i, v in enumerate(key)): c.numerator * (den // c.denominator)
        for key, c in flat.items()
    }
    return packed, den, s


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


def _param_constant(
    a: dict, b_groups: dict, shift: int, s: int, param_rank: int, square: bool, scale: int
):
    """Constant torus term of a*b divided by ``scale``, as a ParamPoly, b
    grouped by torus part.  When a is b (``square``) the torus parts T and
    -T give the same products, so only T >= 0 is paired, T > 0 twice."""
    acc: dict = {}
    get = acc.get
    offset = 1 << shift >> 1
    for k, c in a.items():
        torus = (k + offset) >> shift
        if square:
            if torus < 0:
                continue
            if torus:
                c *= 2
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
        terms[tuple(exp)] = Fraction(c, scale) if scale > 1 else c
    return ParamPoly.of(param_rank, terms)


def _scalar_constant(a: dict, b: dict, square: bool) -> int:
    """Constant term of a*b; when a is b (``square``) each {k, -k} pair is
    formed once."""
    get = b.get
    if square:
        return 2 * sum(c * get(-k, 0) for k, c in a.items() if k > 0) + get(0, 0) ** 2
    return sum(c * get(-k, 0) for k, c in a.items())


def _constant_terms(f: LaurentPolynomial, order: int):
    """Yield c(f^d) for d = 0..order, meet in the middle, over the integers.

    c(f^d) is the constant term of f^ceil(d/2) * f^floor(d/2), so only the
    powers up to ceil(order/2) are formed, and only the last two are held;
    each power step yields two coefficients.  Powers live on packed int
    keys of D*f (see _packing), and c(f^d) = c((D*f)^d) / D^d.  A pairing
    matches keys k and -k; with parameters it matches torus parts and sums
    the parameter parts into the output coefficient.  A square pairing
    forms each {T, -T} pair once: c(P*P) = P_0^2 + 2*sum_{T>0} P_T*P_-T.
    """
    if order < 0:
        raise LaurentError("period order must be nonnegative")
    packed, den, s = _packing(f, (order + 1) // 2)
    param_rank = f.param_rank
    shift = s * param_rank
    yield 1
    power = {0: 1}
    scale = 1
    for d in range(1, order + 1):
        square = d % 2 == 0
        if not square:
            previous, power = power, _times(power, packed)
            if param_rank:
                groups = _by_torus(power, shift)
        a = power if square else previous
        scale *= den
        if param_rank:
            yield _param_constant(a, groups, shift, s, param_rank, square, scale)
        else:
            c = _scalar_constant(a, power, square)
            yield c if scale == 1 else _norm_scalar(Fraction(c, scale))


def period_coefficients(f: LaurentPolynomial, order: int) -> PeriodSeries:
    """Regularized period series of f to the given order (see _constant_terms)."""
    return PeriodSeries(tuple(_constant_terms(f, order)))


def constant_shift(f: LaurentPolynomial, g: LaurentPolynomial) -> Fraction:
    """c(g) - c(f), the only shift a with P_g = e^{at} P_f."""
    if f.param_rank or g.param_rank:
        raise LaurentError("period comparison requires unparametrized polynomials")
    return Fraction(g.constant_term()) - Fraction(f.constant_term())


def _first_mismatch(before, after, shift):
    """The one comparison loop: regularized coefficients of P_after against
    e^{shift*t} P_before, pulled from two iterables degree by degree."""
    seen = []
    for d, (b, got) in enumerate(zip(before, after)):
        seen.append(b)
        expected = (
            sum(comb(d, k) * shift ** k * seen[d - k] for k in range(d + 1))
            if shift
            else b
        )
        if got != expected:
            return d, expected, got
    return None


def series_mismatch(before: PeriodSeries, after: PeriodSeries, shift=0):
    """Compare P_after with e^{shift*t} P_before, degree by degree.

    Returns None when they agree, else the first disagreeing degree with
    the expected and the actual regularized coefficient.  In regularized
    form the expected value is sum_k C(d,k) shift^k R_before[d-k].
    """
    return _first_mismatch(before.coefficients, after.coefficients, shift)


def first_period_mismatch(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10):
    """series_mismatch of the periods of f and g to the given order, with
    the shift a = c(g) - c(f).  Both inputs must be unparametrized.  The
    two periods stream, so no power past the first mismatch is formed."""
    shift = constant_shift(f, g)
    return _first_mismatch(_constant_terms(f, order), _constant_terms(g, order), shift)


def shift_relation_check(f: LaurentPolynomial, a, order: int = 10) -> bool:
    """Check P_{f+a}(t) = e^{at} P_f(t) termwise to the given order."""
    return first_period_mismatch(f, f + Fraction(a), order) is None


def period_equal_up_to_shift(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10):
    """Shift a with P_g = e^{at} P_f to the given order, or None."""
    return constant_shift(f, g) if first_period_mismatch(f, g, order) is None else None


def period_distinct(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10) -> bool:
    return first_period_mismatch(f, g, order) is not None
