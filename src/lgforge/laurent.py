"""Exact multivariate Laurent polynomials over the rationals.

A polynomial is a finite map from integer exponent vectors (tuples of
length ``rank``) to nonzero coefficients.  Coefficients are exact: plain
``int``/``Fraction`` values or, for parametrized polynomials, ``ParamPoly``
values (polynomials in formal parameters ``a1..ar`` with rational
coefficients).  Values are immutable after construction and safe to share
between threads.

Canonical form: no stored coefficient is zero, rationals are in lowest
terms (integral rationals are stored as ``int``), and a ``ParamPoly`` that
is actually constant collapses to its scalar.  Two polynomials are equal
iff their canonical term maps are equal.

A coefficient is zero iff it is falsy: ``int`` and ``Fraction`` zeros are
falsy, ``ParamPoly`` is truthy iff it has terms, and ``ParamPoly``
arithmetic returns canonical values.  ``ParamPoly`` and
``LaurentPolynomial`` share one sparse kernel on their term maps:
``_sum_terms`` and ``_product_terms`` accumulate with no test for zero,
and ``_canonicalize`` then drops the zeros and normalizes the scalars once,
at the end.  Division, monomial inversion, direction limits, the parser's
power budgets and the period kernel read one flat view instead:
``flat_terms`` keys the terms by parameter exponents + torus exponents, as
in Q[a^+-1, x^+-1], and ``from_flat`` groups them back.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, mul, neg, sub

from . import geometry, intlinalg

Exponent = tuple[int, ...]

_VAR_NAMES = ("x", "y", "z", "w")


class LaurentError(ValueError):
    """Base error for invalid Laurent polynomial operations."""


def _norm_scalar(value):
    """Canonical scalar: Fraction in lowest terms, as int when integral."""
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        return int(value) if value.denominator == 1 else value
    raise TypeError(f"not an exact rational: {value!r}")


def _ints(values, message: str, error=LaurentError) -> tuple:
    """A caller-supplied integer vector as a tuple, checked in one pass: a
    float, a bool or any other non-int entry raises ``error`` with
    ``message`` formatted on the list of values."""
    values = tuple(values)
    if not all(type(v) is int for v in values):
        raise error(message.format(list(values)))
    return values


def _fraction(value, what: str, error=LaurentError) -> Fraction:
    """A caller-supplied exact rational, an int or a Fraction, as a Fraction:
    a float, a bool or any other value raises ``error`` naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise error(f"{what} {value!r} is not an exact rational")
    return Fraction(value)


def _canonicalize(terms: dict, keys) -> dict:
    """The one coefficient rule, applied in place to ``terms[e]`` for each
    ``e`` in ``keys``: drop zeros, keep ints and ParamPoly values, and
    normalize any other scalar."""
    for e in keys:
        c = terms[e]
        if not c:
            del terms[e]
        elif not isinstance(c, (int, ParamPoly)):
            terms[e] = _norm_scalar(c)
    return terms


def _sum_terms(a: dict, b: dict) -> dict:
    """Canonical term map of a + b for canonical a and b.  Only the keys of
    the smaller map can change, so only those are canonicalized."""
    if len(a) < len(b):
        a, b = b, a
    out = dict(a)
    get = out.get
    for e, c in b.items():
        out[e] = get(e, 0) + c
    return _canonicalize(out, b)


def _product_terms(a: dict, b: dict, rank: int) -> dict:
    """Canonical term map of a * b for exponent tuples of length rank.
    Ranks 1-3 unpack exponents in the loop header, which builds the keys
    2-2.5x faster than the generic ``tuple(map(add, ...))``."""
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    get = out.get
    if rank == 1:
        for (x1,), c1 in a.items():
            for (x2,), c2 in b.items():
                e = (x1 + x2,)
                out[e] = get(e, 0) + c1 * c2
    elif rank == 2:
        for (x1, y1), c1 in a.items():
            for (x2, y2), c2 in b.items():
                e = (x1 + x2, y1 + y2)
                out[e] = get(e, 0) + c1 * c2
    elif rank == 3:
        for (x1, y1, z1), c1 in a.items():
            for (x2, y2, z2), c2 in b.items():
                e = (x1 + x2, y1 + y2, z1 + z2)
                out[e] = get(e, 0) + c1 * c2
    else:
        for e1, c1 in a.items():
            for e2, c2 in b.items():
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
    return _canonicalize(out, list(out))


def grlex_key(exponent: Exponent):
    """Sort key for graded-lexicographic descending order."""
    return (-sum(exponent), tuple(-e for e in exponent))


class ParamPoly:
    """Polynomial in the formal parameters with exact rational coefficients.

    Exponents are tuples of length ``rank``; negative parameter exponents
    are permitted (a few models invert a parameter), but substituting 0 for
    such a parameter is an error.
    """

    __slots__ = ("rank", "terms")

    def __init__(self, rank: int, terms: dict):
        self.rank = rank
        self.terms = terms

    @staticmethod
    def of(rank: int, terms: dict):
        """Canonicalize: drop zeros, collapse constants to scalars."""
        return _param_value(rank, _canonicalize(dict(terms), terms))

    @staticmethod
    def parameter(rank: int, index: int):
        exp = [0] * rank
        exp[index] = 1
        return ParamPoly(rank, {tuple(exp): 1})

    @staticmethod
    def coerce(rank: int, value):
        """View a scalar or ParamPoly as a term map at the given rank."""
        if isinstance(value, ParamPoly):
            return value.terms
        value = _norm_scalar(value)
        return {(0,) * rank: value} if value != 0 else {}

    def __add__(self, other):
        if isinstance(other, ParamPoly):
            if other.rank != self.rank:
                raise LaurentError("parameter rank mismatch")
        elif isinstance(other, LaurentPolynomial):
            return NotImplemented
        return _param_value(self.rank, _sum_terms(self.terms, ParamPoly.coerce(self.rank, other)))

    __radd__ = __add__

    def __neg__(self):
        return ParamPoly(self.rank, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, ParamPoly):
            if other.rank != self.rank:
                raise LaurentError("parameter rank mismatch")
            return _param_value(self.rank, _product_terms(self.terms, other.terms, self.rank))
        if isinstance(other, LaurentPolynomial):
            return NotImplemented
        other = _norm_scalar(other)
        if other == 0:
            return 0
        return ParamPoly(self.rank, {e: _norm_scalar(c * other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, ParamPoly):
            return self.rank == other.rank and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return False  # canonical constants are scalars, never ParamPoly
        return NotImplemented

    def __hash__(self):
        return hash((self.rank, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    def substitute(self, values: dict[int, Fraction], new_rank: int, index_map: dict[int, int]):
        """Assign rational values to a subset of parameters, reindex the rest."""
        out: dict = {}
        for exp, coeff in self.terms.items():
            factor = Fraction(1)
            new_exp = [0] * new_rank
            for i, e in enumerate(exp):
                if i not in values:
                    new_exp[index_map[i]] = e
                elif e:
                    if e < 0 and values[i] == 0:
                        raise LaurentError(
                            f"parameter a{i + 1} appears with negative exponent; cannot set it to 0"
                        )
                    factor *= Fraction(values[i]) ** e
            key = tuple(new_exp)
            out[key] = out.get(key, 0) + coeff * factor
        return ParamPoly.of(new_rank, out)

    def render(self, with_parens: bool = True) -> str:
        items = sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))
        parts = []
        for exp, coeff in items:
            factors = [
                f"a{i + 1}" if e == 1 else f"a{i + 1}^{e}"
                for i, e in enumerate(exp)
                if e != 0
            ]
            text = _scalar_term_text(coeff, "*".join(factors))
            parts.append(text)
        body = parts[0] + "".join(
            p if p.startswith("-") else "+" + p for p in parts[1:]
        )
        if with_parens and (len(items) > 1 or body.startswith("-")):
            return "(" + body + ")"
        return body

    def __str__(self):
        return self.render(with_parens=False)

    def __repr__(self):
        return f"ParamPoly({self})"


def _param_value(rank: int, clean: dict):
    """A canonical parameter term map as a value: 0, its constant, or a ParamPoly."""
    if not clean:
        return 0
    if len(clean) == 1:
        (exp, coeff), = clean.items()
        if not any(exp):
            return coeff
    return ParamPoly(rank, clean)


def _scalar_term_text(coeff, monomial: str) -> str:
    """Join a rational coefficient with a monomial string ('' for none)."""
    if not monomial:
        return str(coeff)
    if coeff == 1:
        return monomial
    if coeff == -1:
        return "-" + monomial
    return f"{coeff}*{monomial}"


class LaurentPolynomial:
    __slots__ = ("rank", "param_rank", "terms")

    def __init__(self, rank: int, param_rank: int, terms: dict):
        # trusted constructor: terms must already be canonical
        self.rank = rank
        self.param_rank = param_rank
        self.terms = terms

    # -- construction ---------------------------------------------------

    @staticmethod
    def from_terms(rank: int, param_rank: int, terms: dict) -> "LaurentPolynomial":
        clean = {}
        for exp, coeff in terms.items():
            exp = _ints(exp, "exponent {} is not a vector of integers")
            if len(exp) != rank:
                raise LaurentError(
                    f"exponent {exp} has length {len(exp)}, expected rank {rank}"
                )
            clean[exp] = coeff
        return LaurentPolynomial(rank, param_rank, _canonicalize(clean, list(clean)))

    @staticmethod
    def zero(rank: int, param_rank: int = 0) -> "LaurentPolynomial":
        return LaurentPolynomial(rank, param_rank, {})

    @staticmethod
    def constant(value, rank: int, param_rank: int = 0) -> "LaurentPolynomial":
        return LaurentPolynomial.from_terms(rank, param_rank, {(0,) * rank: value})

    @staticmethod
    def one(rank: int, param_rank: int = 0) -> "LaurentPolynomial":
        return LaurentPolynomial.constant(1, rank, param_rank)

    @staticmethod
    def variable(index: int, rank: int, param_rank: int = 0) -> "LaurentPolynomial":
        exp = [0] * rank
        exp[index] = 1
        return LaurentPolynomial(rank, param_rank, {tuple(exp): 1})

    @staticmethod
    def monomial(exponent, coefficient, rank: int, param_rank: int = 0) -> "LaurentPolynomial":
        return LaurentPolynomial.from_terms(rank, param_rank, {tuple(exponent): coefficient})

    # -- basic queries ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self):
        return self.terms.get((0,) * self.rank, 0)

    def __len__(self):
        return len(self.terms)

    def __eq__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return (
            self.rank == other.rank
            and self.param_rank == other.param_rank
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.rank, self.param_rank, frozenset(self.terms.items())))

    def _check_compatible(self, other: "LaurentPolynomial"):
        if self.rank != other.rank or self.param_rank != other.param_rank:
            raise LaurentError(
                f"rank mismatch: ({self.rank},{self.param_rank}) vs"
                f" ({other.rank},{other.param_rank})"
            )

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, LaurentPolynomial):
            return self + LaurentPolynomial.constant(other, self.rank, self.param_rank)
        self._check_compatible(other)
        return LaurentPolynomial(self.rank, self.param_rank, _sum_terms(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self):
        return LaurentPolynomial(
            self.rank, self.param_rank, {e: -c for e, c in self.terms.items()}
        )

    def __sub__(self, other):
        if not isinstance(other, LaurentPolynomial):
            other = LaurentPolynomial.constant(other, self.rank, self.param_rank)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LaurentPolynomial):
            self._check_compatible(other)
            terms = _product_terms(self.terms, other.terms, self.rank)
        else:  # scalar or ParamPoly multiple
            terms = _canonicalize({e: c * other for e, c in self.terms.items()}, self.terms)
        return LaurentPolynomial(self.rank, self.param_rank, terms)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if exponent < 0:
            flat = flat_terms(self)
            if len(flat) != 1:
                raise LaurentError("negative power of a non-monomial Laurent polynomial")
            (key, coeff), = flat.items()
            key, coeff = tuple(map(neg, key)), _norm_scalar(Fraction(1) / coeff)
            inverse = from_flat(self.rank, self.param_rank, {key: coeff})
            return inverse if exponent == -1 else inverse ** -exponent
        if exponent == 0:
            return LaurentPolynomial.one(self.rank, self.param_rank)
        result, base, e = None, self, exponent
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    # -- structural operations --------------------------------------------

    def apply_monomial_map(self, matrix) -> "LaurentPolynomial":
        """Unimodular change of torus coordinates: x^v -> x^(M v)."""
        m = [list(_ints(row, "matrix row {} is not a vector of integers")) for row in matrix]
        if len(m) != self.rank or any(len(row) != self.rank for row in m):
            raise LaurentError(f"matrix must be {self.rank}x{self.rank}")
        if abs(intlinalg.det(m)) != 1:
            raise LaurentError("monomial substitution matrix must be unimodular")
        out = {}
        for exp, coeff in self.terms.items():
            new_exp = tuple(sum(m[i][j] * exp[j] for j in range(self.rank)) for i in range(self.rank))
            out[new_exp] = coeff
        return LaurentPolynomial(self.rank, self.param_rank, out)

    def substitute_parameters(self, values: dict) -> "LaurentPolynomial":
        """Assign rational values to some parameters; the rest are reindexed."""
        assign = {}
        for index, value in values.items():
            if type(index) is not int:
                raise LaurentError(f"parameter index {index!r} is not an integer")
            if not 0 <= index < self.param_rank:
                raise LaurentError(f"parameter index {index} out of range")
            assign[index] = _fraction(value, "parameter value")
        remaining = [i for i in range(self.param_rank) if i not in assign]
        index_map = {old: new for new, old in enumerate(remaining)}
        new_rank = len(remaining)
        out = {
            exp: coeff.substitute(assign, new_rank, index_map)
            if isinstance(coeff, ParamPoly)
            else coeff
            for exp, coeff in self.terms.items()
        }
        return LaurentPolynomial(self.rank, new_rank, _canonicalize(out, self.terms))

    def newton_polytope(self):
        """Vertices of the convex hull of the support (exact)."""
        if self.is_zero:
            raise LaurentError("the zero polynomial has no Newton polytope")
        hull = geometry.convex_hull(self.terms.keys())
        return NewtonPolytopeData(vertices=hull.vertices, dimension=hull.dim, hull=hull)

    def graded_pieces(self, weight) -> dict[int, "LaurentPolynomial"]:
        """Split by the grading <weight, exponent>; only nonzero pieces."""
        weight = _ints(weight, "weight covector {} is not a vector of integers")
        if len(weight) != self.rank:
            raise LaurentError("weight covector has wrong length")
        pieces: dict[int, dict] = {}
        for exp, coeff in self.terms.items():
            k = sum(map(mul, weight, exp))
            pieces.setdefault(k, {})[exp] = coeff
        return {
            k: LaurentPolynomial(self.rank, self.param_rank, terms)
            for k, terms in sorted(pieces.items())
        }

    def drop_coordinate(self, index: int) -> "LaurentPolynomial":
        """Forget a torus coordinate that never appears in the support."""
        if any(exp[index] != 0 for exp in self.terms):
            raise LaurentError(f"coordinate {index} appears in the support")
        out = {exp[:index] + exp[index + 1:]: c for exp, c in self.terms.items()}
        return LaurentPolynomial(self.rank - 1, self.param_rank, out)

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Deterministic text form: graded-lex descending, exact coefficients."""
        if self.is_zero:
            return "0"
        parts = []
        for exp, coeff in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])):
            parts.append(self._term_text(exp, coeff))
        return parts[0] + "".join(
            p if p.startswith("-") else "+" + p for p in parts[1:]
        )

    def _var_name(self, index: int) -> str:
        if self.rank <= 4:
            return _VAR_NAMES[index]
        return f"x{index + 1}"

    def _term_text(self, exp: Exponent, coeff) -> str:
        num_factors = []
        den_factors = []
        for i, e in enumerate(exp):
            name = self._var_name(i)
            if e == 1:
                num_factors.append(name)
            elif e > 1:
                num_factors.append(f"{name}^{e}")
            elif e == -1:
                den_factors.append(name)
            elif e < 0:
                den_factors.append(f"{name}^{-e}")
        num = "*".join(num_factors)
        if isinstance(coeff, ParamPoly):
            ctext = coeff.render(with_parens=True)
            head = f"{ctext}*{num}" if num else ctext
            if head.startswith("(") and not num and len(coeff.terms) == 1:
                head = coeff.render(with_parens=False)
        else:
            head = _scalar_term_text(coeff, num)
            if not num and isinstance(coeff, Fraction) and den_factors:
                # e.g. (3/4) / x would misparse as 3/(4x); guard with parens
                head = f"({coeff})"
        if den_factors:
            if not num_factors and head in ("", "1"):
                head = "1"
            elif not num_factors and head == "-1":
                head = "-1"
            den = "*".join(den_factors)
            if len(den_factors) > 1:
                den = f"({den})"
            return f"{head}/{den}"
        return head if head else "1"

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"LaurentPolynomial({self.render()!r}, rank={self.rank}, params={self.param_rank})"


class NewtonPolytopeData:
    """Extreme points of the support hull, plus the supporting system."""

    __slots__ = ("vertices", "dimension", "hull")

    def __init__(self, vertices, dimension, hull):
        self.vertices = tuple(tuple(v) for v in vertices)
        self.dimension = dimension
        self.hull = hull

    def __eq__(self, other):
        if not isinstance(other, NewtonPolytopeData):
            return NotImplemented
        return set(self.vertices) == set(other.vertices)

    def __repr__(self):
        return f"NewtonPolytopeData(vertices={sorted(self.vertices)}, dim={self.dimension})"


def flat_terms(f: LaurentPolynomial) -> dict:
    """The terms of f in the ring Q[a^+-1, x^+-1]: keys are parameter exponents
    followed by torus exponents, coefficients are rationals.  At parameter
    rank 0 this is ``f.terms`` itself, not a copy."""
    if not f.param_rank:
        return f.terms
    scalar_key = (0,) * f.param_rank
    flat = {}
    for exp, coeff in f.terms.items():
        if isinstance(coeff, ParamPoly):
            for pexp, c in coeff.terms.items():
                flat[pexp + exp] = c
        else:
            flat[scalar_key + exp] = coeff
    return flat


def from_flat(rank: int, param_rank: int, flat: dict) -> LaurentPolynomial:
    """Inverse of ``flat_terms`` for a zero-free map of canonical rationals.
    At parameter rank 0 the map itself becomes the term map."""
    if not param_rank:
        return LaurentPolynomial(rank, 0, flat)
    grouped: dict = {}
    for key, c in flat.items():
        grouped.setdefault(key[param_rank:], {})[key[:param_rank]] = c
    terms = {exp: _param_value(param_rank, p) for exp, p in grouped.items()}
    return LaurentPolynomial(rank, param_rank, terms)


def at_param_rank(f: LaurentPolynomial, param_rank: int) -> LaurentPolynomial:
    """f declared at the given parameter rank when no coefficient of f is a
    ParamPoly, since a polynomial that uses no parameter acts at any
    parameter rank; otherwise f itself."""
    if f.param_rank == param_rank or any(isinstance(c, ParamPoly) for c in f.terms.values()):
        return f
    return LaurentPolynomial(f.rank, param_rank, f.terms)


def laurent_divide(p: LaurentPolynomial, q: LaurentPolynomial):
    """Exact quotient p/q in the Laurent ring, or None if q does not divide p.

    The division runs on the flat terms, in Q[a^+-1, x^+-1], where the
    quotient is unique.  Both flat term maps are shifted into the polynomial
    ring by their coordinatewise minimum exponents s_p and s_q, and p is
    divided by the single divisor q with graded-lex leading terms; a
    remainder term whose exponent is not a multiple of the leading exponent
    of q means non-divisibility.  The leading term comes from a heap, never
    from a scan (Monagan & Pearce, "Sparse polynomial division using a
    heap", J. Symbolic Comput. 46, 2011, with a heap of remainder keys).

    *Packed keys.*  A shifted exponent e = (e_1..e_m) (parameters first,
    then torus) is packed as the integer with base-B digits
    (deg e, e_1, ..., e_m), most significant first, where deg e = sum e_i
    and B = 1 + max(deg p, deg q) after the shift.  Packing is the linear
    form sum e_i (B^m + B^(m-1-i)), so pack(e - s) = pack(e) - pack(s) and
    each shifted key is packed in one pass from its flat key.  For keys
    whose digits all lie in [0, B), packing is injective, additive
    (pack(e + f) = pack(e) + pack(f) while the digits of e + f stay in
    range), and integer order is graded-lex order, so the leading term is
    the largest key.  Every key that reaches the remainder has its digits
    in range: the keys of p and q do, by the choice of B; a quotient
    exponent d = lead - lead(q) is formed only after every coordinate is
    checked to be >= 0, so each target d + e (e in supp q) has coordinates
    >= 0, and its degree deg d + deg e <= deg d + deg lead(q) = deg lead <=
    deg p, because the graded-lex leading term of q has the top degree of q
    and no remainder key ever exceeds the degree of p.  Every coordinate is
    at most the degree, so every digit is below B, and each target is the
    one integer addition pack(d) + pack(e).  B must cover deg q as well as
    deg p: for p = 1, q = 1 + x the keys of q would otherwise collide.

    *Heap.*  A max-heap of negated keys gets a key each time it enters the
    remainder; entries of keys that cancelled since are stale and skipped on
    pop.  Every key present in the remainder has an entry, so the first
    popped key that is present is the leading one.  Only that key is
    unpacked, to compare its digits with the leading exponent of q.
    """
    return _divide(p, q)[0]


def _divide(p: LaurentPolynomial, q: LaurentPolynomial):
    """``laurent_divide`` with its witness: ``(p/q, None)`` when q divides p,
    else ``(None, term)``, where ``term`` is the leading remainder term at
    which the division stopped, as a one-term polynomial in the coordinates
    of p, with its exact coefficient."""
    p._check_compatible(q)
    if q.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if p.is_zero:
        return p, None
    import heapq  # imported here: the CLI starts without it

    pflat, qflat = flat_terms(p), flat_terms(q)
    sp = tuple(map(min, zip(*pflat)))
    sq = tuple(map(min, zip(*qflat)))
    base = 1 + max(max(map(sum, pflat)) - sum(sp), max(map(sum, qflat)) - sum(sq))
    m = len(sp)
    top = base ** m
    weights = [top + base ** (m - 1 - i) for i in range(m)]
    poff, qoff = sum(map(mul, weights, sp)), sum(map(mul, weights, sq))
    remainder = {sum(map(mul, weights, e)) - poff: c for e, c in pflat.items()}
    divisor = {sum(map(mul, weights, e)) - qoff: c for e, c in qflat.items()}
    q_lead = max(divisor)
    q_lead_coeff = divisor.pop(q_lead)
    q_digits = _unpack(q_lead, base, m)[::-1]
    heap = [-key for key in remainder]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    quotient: dict = {}
    while remainder:
        lead = -heappop(heap)
        c = remainder.pop(lead, None)
        if c is None:
            continue
        key = lead
        for qd in q_digits:
            key, d = divmod(key, base)
            if d < qd:
                exp = tuple(map(add, _unpack(lead, base, m), sp))
                return None, from_flat(p.rank, p.param_rank, {exp: _norm_scalar(c)})
        if type(c) is int and type(q_lead_coeff) is int and not c % q_lead_coeff:
            factor = c // q_lead_coeff
        else:
            factor = _norm_scalar(Fraction(c) / q_lead_coeff)
        diff = lead - q_lead
        quotient[diff] = factor
        for qkey, qcoeff in divisor.items():
            target = diff + qkey
            old = remainder.get(target)
            if old is None:
                remainder[target] = -factor * qcoeff
                heappush(heap, -target)
            else:
                new = old - factor * qcoeff
                if new:
                    remainder[target] = new
                else:
                    del remainder[target]
    shift = tuple(map(sub, sp, sq))
    out = {tuple(map(add, _unpack(key, base, m), shift)): c for key, c in quotient.items()}
    return from_flat(p.rank, p.param_rank, out), None


def _unpack(key: int, base: int, m: int) -> Exponent:
    """The m coordinate digits of a packed key, most significant first."""
    digits = []
    for _ in range(m):
        key, d = divmod(key, base)
        digits.append(d)
    return tuple(reversed(digits))
