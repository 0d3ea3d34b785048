"""Periods of Laurent polynomials and identities between them.

The regularized period of f has degree-d coefficient c(f^d), where c(..)
is the constant term; the classical period divides it by d!.  lgforge
computes and compares only the regularized series.  All values are exact
rationals (or parameter polynomials for parametrized input).

The kernel runs over the integers: denominators are cleared once, before
powering, and each output is divided once.  Powers live on fibre-packed
big integers in a width-reduced basis: a unimodular change of torus
coordinates, which fixes every constant term, makes the support narrow,
and one lattice direction is packed into the coefficients, so that each
key holds a whole line of a power as one integer with a slot per point
(Kronecker substitution in one variable).  A power step then multiplies
whole lines in C.  The basis and the direction read f alone, so
fibre.py chooses them once per series; _packing lays out the keys and
slots for an order.  The slots are wide enough for every coefficient of
every power and pairing up to that order, so the constant term is read
exactly from one slot.  Coefficients stream degree by degree, so a
comparison stops at its first mismatching degree.

A comparison up to shift moves the shift into the polynomial: with
a = c(g) - c(f), P_g = e^{at} P_f exactly when P_{g-a} = P_f, so it is a
plain equality of two streamed periods.  Multiplying by e^{at} is
multiplying by a unit, so the first mismatching degree is the same
either way, and the binomial sum of the shifted coefficients runs only
at that witness degree.
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


def _digit_width(largest: int, order: int) -> int:
    """Key digit width s for digits of f up to ``largest`` in size: 2^(s-1)
    exceeds every digit of a pairing of two powers up to f^ceil(order/2)."""
    return (2 * ((order + 1) // 2) * largest).bit_length() + 1


def _integer_columns(flat: dict) -> tuple:
    """The flattened f (see flat_terms) as digit columns, parameters first,
    with the integer coefficients of D*f for the lcm D of its
    denominators, and D."""
    den = lcm(*(c.denominator for c in flat.values()))
    ints = [c.numerator * (den // c.denominator) for c in flat.values()]
    return list(zip(*flat)), ints, den


def _pack_columns(cols: list, s: int, count: int) -> list:
    """The keys sum_i u_i*2^(s*i) of the rows u of the digit columns."""
    keys = [0] * count
    for i, col in enumerate(cols):
        keys = [k + (d << (s * i)) for k, d in zip(keys, col)]
    return keys


def _fibre_basis(cols: list, r: int, order: int):
    """fibre.fibre_basis of the digit columns, or None when f has no torus
    columns or its powers are too small to repay the search.  The search
    costs about as much as a few hundred term products, so it runs only
    when the flat power steps would form at least 1000: f^k has at most
    C(k+T-1, T-1) terms for T terms of f, so the steps up to
    h = ceil(order/2) form at most T*C(h+T-1, T).  Only then is the fibre
    module imported."""
    if len(cols) == r:
        return None
    terms = len(cols[r])
    if terms * comb((order + 1) // 2 + terms - 1, terms) < 1000:
        return None
    from .fibre import fibre_basis

    return fibre_basis(cols, r)


def _packing(cols: list, ints: list, t, order: int):
    """The integer terms of D*f on packed int keys for degrees up to
    ``order``: {key: coefficient}, the key digit width s, the slot width S
    and the slot offset -t_min.  Without a fibre coordinate t (None) each
    key holds one coefficient, S = 0 and the offset is 0.

    A term with digits u (the columns, parameters in the low digits) gets
    the key sum_i u_i*2^(s*i).  Keys are balanced digit vectors: packing
    is additive and key(-u) = -key(u), so a pairing matches keys k and -k.

    With t (see fibre.fibre_basis), the term of coefficient c adds
    c*2^(S*(t - t_min)) to its key's coefficient, t_min <= 0.  The packed
    coefficient of a key in (D*f)^k is then sum_t c_t*2^(S*(t - k*t_min)),
    a fibre of k*(t_max - t_min) + 1 slots, and a product of fibres of
    (D*f)^a and (D*f)^b holds in slot t - d*t_min, d = a + b, the sum of
    the products whose t values add to t.  Every coefficient of (D*f)^d,
    and every partial sum of a pairing, is at most N^d in size, for N the
    sum of |coefficients| of D*f, so S = bitlen(N^order) + 1 makes every
    slot of every power and pairing a balanced S-bit digit: a packed value
    is 0 exactly when every slot is, and the t = 0 slot m0 = -d*t_min
    reads off exactly (_slot).  If the support has t_min > 0 or
    t_max < 0, every c(f^d) with d >= 1 is 0; with t_min <= 0 arranged,
    m0 then lies above every slot and reads 0.
    """
    s = _digit_width(max((max(map(abs, col)) for col in cols), default=0), order)
    big_s = 0 if t is None else (sum(map(abs, ints)) ** order).bit_length() + 1
    t = t or [0] * len(ints)
    low = -min(t, default=0)
    packed: dict = {}
    for k, c, ti in zip(_pack_columns(cols, s, len(ints)), ints, t):
        packed[k] = packed.get(k, 0) + (c << (big_s * (ti + low)))
    return packed, s, big_s, low


def _slot(value: int, big_s: int, m: int) -> int:
    """The balanced S-bit digit of ``value`` at slot m: a fibre slot (see
    _packing) or, with S = s, a parameter digit of a key.  With S = 0 the
    value is its own single slot."""
    if not big_s:
        return value
    shift = big_s * m
    if value.bit_length() < shift:  # |value| < 2^(shift-1): slot m and up are 0
        return 0
    half = 1 << big_s >> 1
    return ((((value + (1 << shift >> 1)) >> shift) + half) & ((1 << big_s) - 1)) - half


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
    a, b_groups: dict, shift: int, s: int, param_rank: int, square: bool, scale: int,
    big_s: int, m: int,
):
    """Constant torus term of a*b divided by ``scale``, as a ParamPoly, b
    grouped by torus part, each parameter coefficient read at slot m.

    When a is b (``square``), a is given grouped too.  The torus parts T
    and -T then give the same products, so only T >= 0 is paired, T > 0
    twice, and the torus-0 block pairs each unordered {pa, pb} once:
    2*sum_{pa<pb} + sum c^2."""
    acc: dict = {}
    get = acc.get
    if square:
        for torus, block in a.items():
            if torus > 0:
                for pa, c in block:
                    c *= 2
                    for pb, c2 in b_groups.get(-torus, ()):
                        p = pa + pb
                        acc[p] = get(p, 0) + c * c2
            elif not torus:
                for i, (pa, c) in enumerate(block):
                    p = 2 * pa
                    acc[p] = get(p, 0) + c * c
                    c *= 2
                    for pb, c2 in block[i + 1:]:
                        p = pa + pb
                        acc[p] = get(p, 0) + c * c2
    else:
        offset = 1 << shift >> 1
        for k, c in a.items():
            torus = (k + offset) >> shift
            pa = k - (torus << shift)
            for pb, c2 in b_groups.get(-torus, ()):
                p = pa + pb
                acc[p] = get(p, 0) + c * c2
    terms = {}
    for p, c in acc.items():
        c = _slot(c, big_s, m)
        terms[tuple(_slot(p, s, i) for i in range(param_rank))] = (
            Fraction(c, scale) if scale > 1 else c
        )
    return ParamPoly.of(param_rank, terms)


def _scalar_constant(a: dict, b: dict, square: bool) -> int:
    """Constant key term of a*b, every slot; when a is b (``square``) each
    {k, -k} pair is formed once."""
    get = b.get
    if square:
        return 2 * sum(c * get(-k, 0) for k, c in a.items() if k > 0) + get(0, 0) ** 2
    return sum(c * get(-k, 0) for k, c in a.items())


def _constant_terms(f: LaurentPolynomial, order: int):
    """Yield c(f^d) for d = 0..order, meet in the middle, over the integers.

    c(f^d) is the constant term of f^ceil(d/2) * f^floor(d/2), so only the
    powers up to ceil(order/2) are formed, and only the last two are held;
    each power step yields two coefficients.  Powers of D*f live on packed
    int keys (see _packing), and c(f^d) = c((D*f)^d) / D^d.  c(f) and
    c(f^2) read f alone, so the fibre basis and direction (_fibre_basis)
    are chosen only at the first power step, d = 3, and only once per
    series: a comparison that stops earlier never searches for one, and a
    program that forms no large power never imports the fibre module.
    Fibre slots are sized for a horizon of degrees, max(2d, 32) capped at
    the order, so a comparison that stops early at a large order does not
    pay for slots wide enough for the whole order; past the horizon f is
    laid out again in the same basis for twice as many degrees and the
    held power is formed again, which at most doubles the power steps.
    Without a fibre, f keeps the flat layout for the whole order.  A
    pairing matches keys k and -k and reads the t = 0 slot of the sum
    once; with parameters it matches torus parts and sums the parameter
    parts into the output coefficient, reading the slot once per
    parameter term.  A square pairing forms each {T, -T} pair once:
    c(P*P) = P_0^2 + 2*sum_{T>0} P_T*P_-T.
    """
    if order < 0:
        raise LaurentError("period order must be nonnegative")
    param_rank = f.param_rank
    cols, ints, den = _integer_columns(flat_terms(f))
    packed, s, big_s, low = _packing(cols, ints, None, order)
    shift, horizon, fibre = s * param_rank, 2, None
    yield 1
    power = {0: 1}
    scale = 1
    for d in range(1, order + 1):
        square = d % 2 == 0
        if not square:
            if d > horizon:  # the first power step, or past a fibre horizon
                horizon = min(order, max(2 * d, 32))
                if d == 3:
                    fibre = _fibre_basis(cols, param_rank, horizon)
                if fibre is None:
                    horizon = order
                else:  # lay f out for the horizon and form the held power in it
                    packed, s, big_s, low = _packing(fibre[0], ints, fibre[1], horizon)
                    shift, power = s * param_rank, {0: 1}
                    for _ in range(d // 2):
                        power = _times(power, packed)
            previous, power = power, _times(power, packed)
            if param_rank:
                groups = _by_torus(power, shift)
        scale *= den
        if param_rank:
            a = groups if square else previous
            yield _param_constant(
                a, groups, shift, s, param_rank, square, scale, big_s, d * low
            )
        else:
            c = _scalar_constant(power if square else previous, power, square)
            c = _slot(c, big_s, d * low)
            yield c if scale == 1 else _norm_scalar(Fraction(c, scale))


def period_coefficients(f: LaurentPolynomial, order: int) -> PeriodSeries:
    """Regularized period series of f to the given order (see _constant_terms)."""
    return PeriodSeries(tuple(_constant_terms(f, order)))


def constant_shift(f: LaurentPolynomial, g: LaurentPolynomial) -> Fraction:
    """c(g) - c(f), the only shift a with P_g = e^{at} P_f."""
    if f.param_rank or g.param_rank:
        raise LaurentError("period comparison requires unparametrized polynomials")
    return Fraction(g.constant_term()) - Fraction(f.constant_term())


def _shifted(prefix: list, a):
    """sum_k C(d,k) a^k prefix[d-k] for d = len(prefix) - 1: the degree-d
    regularized coefficient of e^{at} times the series that begins with
    ``prefix``, as an int when integral."""
    d = len(prefix) - 1
    return _norm_scalar(sum(comb(d, k) * a ** k * prefix[d - k] for k in range(d + 1)))


def _first_mismatch(before, after, shift=0):
    """The one comparison loop: regularized coefficients pulled from two
    iterables and compared degree by degree.  ``after`` is the period of
    g - shift, so the first disagreeing degree is the first at which
    P_g = e^{shift*t} P_before fails; only there are the two prefixes
    shifted back (see _shifted) to give the expected and the actual
    coefficient of P_g."""
    seen_before, seen_after = [], []
    for d, (b, got) in enumerate(zip(before, after)):
        if shift:
            seen_before.append(b)
            seen_after.append(got)
        if got != b:
            if shift:
                return d, _shifted(seen_before, shift), _shifted(seen_after, shift)
            return d, b, got
    return None


def series_mismatch(before: PeriodSeries, after: PeriodSeries):
    """Compare two period series degree by degree.

    Returns None when they agree, else the first disagreeing degree with
    the coefficient of ``before`` and that of ``after``.  A comparison up
    to shift goes through first_period_mismatch, which moves the shift
    into the polynomial instead of convolving a series.
    """
    return _first_mismatch(before.coefficients, after.coefficients)


def first_period_mismatch(
    f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10, series: PeriodSeries | None = None
):
    """Compare P_g with e^{at} P_f to the given order, a = c(g) - c(f).

    Returns None when they agree, else the first disagreeing degree d with
    the expected coefficient sum_k C(d,k) a^k c(f^{d-k}) and the actual
    c(g^d).  The shift moves into the polynomial: P_f is compared with the
    period of g - a, which is equal exactly when P_g = e^{at} P_f, and the
    binomial sums are formed only at d.  Both inputs must be
    unparametrized.  ``series`` is the period of f to this order, if it is
    already known.  The periods stream, so no power past the first
    mismatch is formed.
    """
    shift = constant_shift(f, g)
    before = series.coefficients if series is not None else _constant_terms(f, order)
    return _first_mismatch(before, _constant_terms(g - shift, order), shift)


def shift_relation_check(f: LaurentPolynomial, a, order: int = 10) -> bool:
    """Check P_{f+a}(t) = e^{at} P_f(t) termwise to the given order.  The
    shift a must be an exact rational (an int or a Fraction).

    This checks the lemma that first_period_mismatch relies on, so it does
    not go through it: both periods are computed in full and every
    coefficient of P_{f+a} is compared with the binomial sum of P_f."""
    g = f + a
    if f.param_rank:
        raise LaurentError("period comparison requires unparametrized polynomials")
    before = period_coefficients(f, order).coefficients
    after = period_coefficients(g, order).coefficients
    return all(after[d] == _shifted(before[: d + 1], a) for d in range(order + 1))


def period_equal_up_to_shift(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10):
    """Shift a with P_g = e^{at} P_f to the given order, or None."""
    return constant_shift(f, g) if first_period_mismatch(f, g, order) is None else None


def period_distinct(f: LaurentPolynomial, g: LaurentPolynomial, order: int = 10) -> bool:
    return first_period_mismatch(f, g, order) is not None
